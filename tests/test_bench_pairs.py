"""The summary that ``tools/bench_pairs.py`` writes of paired benchmark runs,
on canned run output and on the runs of committed ``BENCH_*.json`` files.
No benchmark runs here."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_output(items_per_s: float, peak_rss_mb: float) -> str:
    """What a run prints: metric lines, then its JSON result."""
    result = {"correct": True, "attempted": 100, "failed": 0,
              "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                          "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}
    return f"items_per_s {items_per_s:12.4f} 1/s\n{json.dumps(result)}\n"


def test_pairs_alternate_and_are_summarised_by_median_and_quartiles():
    tool = load_tool()
    canned = {(1, "parent"): (100, 30.0), (1, "change"): (120, 31.0),
              (2, "parent"): (101, 30.5), (2, "change"): (118, 31.5),
              (3, "parent"): (103, 30.25), (3, "change"): (99, 32.0)}
    runs = [{"side": side, "pair": pair,
             "result": tool.result_of(run_output(*canned[pair, side]))}
            for pair in (1, 2, 3) for side in tool.order(pair)]
    assert [(r["pair"], r["side"]) for r in runs] == [
        (1, "parent"), (1, "change"), (2, "change"), (2, "parent"),
        (3, "parent"), (3, "change")]
    assert tool.summarize(runs, ["items_per_s", "peak_rss_mb"]) == {
        "items_per_s": {"parent": {"median": 101, "q1": 100.5, "q3": 102},
                        "change": {"median": 118, "q1": 108.5, "q3": 119}},
        "peak_rss_mb": {"parent": {"median": 30.25, "q1": 30.125, "q3": 30.375},
                        "change": {"median": 31.5, "q1": 31.25, "q3": 31.75}}}
    assert tool.pairs_won(runs) == "2 of 3"
    with pytest.raises(ValueError):
        tool.result_of("\n")


def test_a_failing_or_wrong_run_is_refused():
    tool = load_tool()
    good = tool.result_of(run_output(100, 30.0))
    assert tool.checked(good, 0) is good
    for result, code in [(good, 1), ({**good, "correct": False, "failed": 1}, 0),
                         ({**good, "correct": False, "failed": 1}, 1)]:
        with pytest.raises(RuntimeError):
            tool.checked(result, code)


def test_the_host_line_says_whether_bytecode_is_written(monkeypatch):
    """Without bytecode every fresh import compiles the sources, which
    shows in setup_s and peak_rss_mb."""
    tool = load_tool()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert tool.host().endswith("; PYTHONDONTWRITEBYTECODE=1 (no bytecode written)")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    line = tool.host()
    assert line.endswith("; PYTHONDONTWRITEBYTECODE unset (bytecode written)")
    assert line.startswith(f"{os.cpu_count()}-core ") and "Python 3." in line


def test_the_parent_commit_must_be_named():
    with pytest.raises(SystemExit):
        load_tool().main(["--workload", "translations", "--claim", "x", "--out", "o.json"])


COMMITTED = sorted(path.name for path in ROOT.glob("BENCH_*.json"))


def test_the_committed_files_are_found():
    assert len(COMMITTED) >= 5 and "BENCH_translations_pr21.json" in COMMITTED


@pytest.mark.parametrize("name", COMMITTED)
def test_the_summary_of_a_committed_file_is_that_of_its_runs(name):
    """Every committed file is summarised by the inclusive quartiles of
    ``summarize``, with its pair count."""
    tool = load_tool()
    data = json.loads((ROOT / name).read_text())
    assert tool.summarize(data["runs"], list(data["summary"])) == data["summary"]
    assert tool.pairs_won(data["runs"]) == data["items_per_s_pairs_won_by_change"]
