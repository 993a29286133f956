"""Paired benchmark runs of the working tree against a parent commit.

    python3 tools/bench_pairs.py --workload translations --rev <parent> \\
        --claim "items_per_s on translations improves: ..." \\
        --out BENCH_translations_pr26.json

The parent tree is ``git archive <parent>`` unpacked into a temporary
directory.  Each of the ten pairs runs ``perfbench/run.py --workload W
--trace 0`` once in the parent and once in the working tree, the parent
first on odd pairs and the working tree first on even ones, and reads each
run's result from the last line it prints; a run that exits with an error
or reports a wrong output stops the tool, so no summary counts it.  The
output holds every run and, for each end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, with the number of
pairs in which the change ran more items per second.  Standard library only; run it from the
repository root, with nothing else running on the host.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10  # fewer pairs cannot show a gain on nine of ten


def result_of(stdout: str) -> dict:
    """The JSON result a run prints on its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def order(pair: int) -> tuple[str, str]:
    """The sides of a pair in the order they run: the parent first on odd
    pairs, counted from 1."""
    return SIDES if pair % 2 else SIDES[::-1]


def _quartiles(values: list[float]) -> dict:
    """Median and quartiles, by the inclusive method of perfbench/run.py."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: list[dict], metrics: list[str]) -> dict:
    """Per metric and side, the median and quartiles over the runs."""
    return {name: {side: _quartiles([r["result"]["metrics"][name]["value"]
                                     for r in runs if r["side"] == side])
                   for side in SIDES}
            for name in metrics}


def pairs_won(runs: list[dict], metric: str = "items_per_s") -> str:
    """In how many pairs the change read a higher value of the metric."""
    got = {(r["pair"], r["side"]): r["result"]["metrics"][metric]["value"] for r in runs}
    pairs = sorted({p for p, _ in got})
    won = sum(got[p, "change"] > got[p, "parent"] for p in pairs)
    return f"{won} of {len(pairs)}"


def host() -> str:
    """The host line: cores, machine, Python, and whether the runs write
    bytecode, on which setup_s and peak_rss_mb depend."""
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE")
    bytecode = (f"PYTHONDONTWRITEBYTECODE={flag} (no bytecode written)" if flag
                else "PYTHONDONTWRITEBYTECODE unset (bytecode written)")
    return (f"{os.cpu_count()}-core {platform.machine()} host, Python "
            f"{platform.python_version()}; the default run length; {bytecode}")


def _unpack(rev: str, into: Path) -> str:
    """The tree of rev unpacked into a directory, and rev's short hash."""
    blob = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def checked(result: dict, returncode: int) -> dict:
    """A run's result, refused unless the run exited cleanly with every
    output right."""
    if returncode != 0 or not result["correct"] or result["failed"]:
        raise RuntimeError(f"the run exited {returncode} with {result['failed']} "
                           f"wrong item(s) of {result['attempted']}")
    return result


def _run(tree: Path, args: list[str]) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tree,
                          capture_output=True, text=True, check=False)
    try:
        return checked(result_of(done.stdout), done.returncode)
    except (ValueError, RuntimeError) as exc:
        raise RuntimeError(f"run in {tree}: {exc}\n{done.stderr}") from exc


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--claim", required=True, help="what the change claims")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--rev", required=True, help="the parent commit")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"]]
    run_args = ["--workload", args.workload, "--trace", "0"]
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        commit = _unpack(args.rev, parent)
        trees = {"parent": parent, "change": ROOT}
        for pair in range(1, PAIRS + 1):
            for side in order(pair):
                result = _run(trees[side], run_args)
                runs.append({"side": side, "pair": pair, "result": result})
                print(f"pair {pair} {side}: items_per_s "
                      f"{result['metrics']['items_per_s']['value']:.1f}", file=sys.stderr)
    out = {
        "claim": args.claim,
        "workload": args.workload,
        "command": "python3 perfbench/run.py " + " ".join(run_args),
        "host": host(),
        "parent_commit": commit,
        "pairing": (f"{PAIRS} pairs; odd pairs run the parent first, even pairs "
                    "the change first"),
        "items_per_s_pairs_won_by_change": pairs_won(runs),
        "summary": summarize(runs, metrics),
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
