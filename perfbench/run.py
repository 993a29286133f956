#!/usr/bin/env python3
"""dlplab benchmark: times the package from outside, through the public
functions of its modules, on one workload per run.

    python3 perfbench/run.py --workload battery --seed 7 --seconds 40 --trace 0

With ``--trace 0`` it runs items for the given number of seconds, with
tracing off, and reports the end-to-end metrics, as times scaled to a
reference host speed (see hostspeed.py).  With ``--trace 1`` it runs
a fixed number of items twice, untraced and then traced, checks that both
passes give the same outputs, and reports the per-layer metrics.  Human-
readable lines come first; the last line of standard output is one JSON
object.  Every output is checked; the exit code is 1 when one is wrong and 2
when the package cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

from hostspeed import HostSpeed
from tracer import CHECK_NAMES, LAYERS, ROOT_SPAN, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
MODULES = ("syntax", "gen", "parser", "ht", "forks", "justify", "di", "ssm",
           "checks", "compare", "cli")
SETUP_REPEATS = 11

EXIT_WRONG = 1
EXIT_NO_PACKAGE = 2


class NoPackage(Exception):
    pass


def import_lab() -> SimpleNamespace:
    """A fresh import of dlplab from src/, so that import time is measured
    on every set-up and not only on the first."""
    init = SRC / "dlplab" / "__init__.py"
    if not init.is_file():
        raise NoPackage(f"{init} not found")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in _dlplab_modules():
        del sys.modules[name]
    pkg = importlib.import_module("dlplab")
    if Path(pkg.__file__).resolve() != init.resolve():
        raise NoPackage(f"dlplab was imported from {pkg.__file__}, not {init}")
    return SimpleNamespace(**{m: importlib.import_module(f"dlplab.{m}")
                              for m in MODULES})


def _dlplab_modules() -> dict:
    return {k: v for k, v in sys.modules.items()
            if k == "dlplab" or k.startswith("dlplab.")}


def setup(workload, seed: int):
    """Import plus input generation and parsing."""
    lab = import_lab()
    WORKDIR.mkdir(exist_ok=True)
    return lab, workload.make_inputs(lab, seed, workload.pool_items, WORKDIR)


def timed(speed, fn, *args):
    """fn's result and its interval (start, end, wall time less the host
    speed sampler's own time inside it)."""
    busy = speed.busy if speed else 0.0
    t0 = time.perf_counter()
    out = fn(*args)
    t1 = time.perf_counter()
    if speed:
        busy = speed.busy - busy
    return out, (t0, t1, t1 - t0 - busy)


def setup_interval(workload, seed: int, speed):
    """One more set-up, timed and then discarded.  The modules of the run
    go back into sys.modules, because dlplab imports some names at call
    time and must not mix classes of two imports."""
    keep = _dlplab_modules()
    try:
        return timed(speed, setup, workload, seed)[1]
    finally:
        for name in _dlplab_modules():
            del sys.modules[name]
        sys.modules.update(keep)


class Run:
    """Item times and failures of a pass over the inputs.  Outputs are
    returned, not kept, so that the harness holds no memory that grows with
    the item count."""

    def __init__(self, workload, lab, speed=None):
        self.workload = workload
        self.lab = lab
        self.speed = speed
        self.spans: list[tuple[float, float, float]] = []
        self.failures: list[tuple[int, str]] = []

    def _call(self, call, item):
        try:
            return call(self.workload.run, self.lab, item), None
        except Exception:
            return None, traceback.format_exc()

    def item(self, item, call):
        (out, message), span = timed(self.speed, self._call, call, item)
        self.spans.append(span)
        if out is not None:
            message = self.workload.oracle(item, out)
        if message is not None:
            self.failures.append((item.key, message))
        return out

    @property
    def times(self) -> list[float]:
        return [net for _, _, net in self.spans]

    @property
    def items_per_s(self) -> float:
        return len(self.spans) / sum(self.times)


def _direct(fn, *args):
    return fn(*args)


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (the 'inclusive' method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload, seed: int, seconds: float):
    """Runs the pool in rounds until the time is up.  Every round times
    fresh copies of the pool, and every output is checked.  Round 0 always
    completes; after it, an item starts only if its median time so far
    still fits before the end.  Each timing is scaled to the reference host
    speed, and each item's time is its median over the rounds."""
    with HostSpeed() as speed:
        (lab, pool), span = timed(speed, setup, workload, seed)
        setups = [span]
        run = Run(workload, lab, speed)
        done: list[list[float]] = [[] for _ in pool]
        which: list[int] = []
        rounds = 0
        gc.collect()
        start = time.perf_counter()
        end = start + seconds
        while True:
            for i, item in enumerate(pool):
                if rounds and time.perf_counter() + statistics.median(done[i]) > end:
                    break
                run.item(workload.copy(lab, item, seed, rounds, WORKDIR), _direct)
                done[i].append(run.spans[-1][2])
                which.append(i)
                # Set-ups are spread over the run, so that their median
                # does not rest on one swing of the host's speed.
                now = time.perf_counter() - start
                if len(setups) < SETUP_REPEATS * min(now / seconds, 1):
                    setups.append(setup_interval(workload, seed, speed))
            else:
                rounds += 1
                continue
            break
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_interval(workload, seed, speed))

    def scaled(span):
        t0, t1, net = span
        return net * speed.scale(t0, t1)

    per_item: list[list[float]] = [[] for _ in pool]
    for i, span in zip(which, run.spans):
        per_item[i].append(scaled(span))
    item_s = [statistics.median(ts) for ts in per_item]
    raw_s = [statistics.median(ts) for ts in done]
    tail = quantile(item_s, workload.tail_q)
    beyond = sum(t > tail for t in item_s)
    metrics = {
        "setup_s": (statistics.median(scaled(sp) for sp in setups), "s"),
        "items_per_s": (len(item_s) / sum(item_s), "1/s"),
        "item_p50_ms": (statistics.median(item_s) * 1e3, "ms"),
        "item_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "items_per_s": (f"{len(pool)} items, median of {rounds}-{rounds + 1} "
                        f"rounds each; {len(run.spans)} timed"),
        "item_tail_ms": f"p{workload.tail_q} of n={len(item_s)}, {beyond} beyond",
    }
    lines = []
    sizes = {item.n: t for item, t in zip(pool, item_s) if hasattr(item, "n")}
    for n in (8, 10, 12):
        lines.append((f"report_ms.n{n}", sizes[n] * 1e3 if n in sizes else None,
                      "ms", "median report" if n in sizes else "scaling only"))
    # Every timed item is attempted once, so each failure counts, also when
    # the same pool item fails in several rounds.
    failures = [(f"{key} (failure {j + 1})", message)
                for j, (key, message) in enumerate(run.failures)]
    lines.append(("failed_ratio", len(failures) / len(run.spans), "ratio",
                  f"{len(failures)}/{len(run.spans)}"))
    # The same figures unscaled, and the host speed they were scaled by.
    lines += [
        ("raw.setup_s", statistics.median(net for _, _, net in setups), "s", "wall time"),
        ("raw.items_per_s", len(raw_s) / sum(raw_s), "1/s", "wall time"),
        ("raw.item_p50_ms", statistics.median(raw_s) * 1e3, "ms", "wall time"),
        ("host.ref_ms", speed.median_s() * 1e3, "ms",
         f"median of {len(speed.took)} reference-loop samples"),
    ]
    for name, (value, unit) in metrics.items():
        print(f"{name:<16} {value:>12.4f} {unit:<5} {notes.get(name, '')}")
    for name, value, unit, note in lines:
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"{name:<16} {shown:>12} {unit:<5} {note}")
    return len(run.spans), failures, metrics


def traced_run(workload, seed: int):
    lab = import_lab()
    WORKDIR.mkdir(exist_ok=True)
    tracer = Tracer(lab)
    with tracer:
        inputs = workload.make_inputs(lab, seed, workload.trace_items, WORKDIR)

    plain = Run(workload, lab)
    gc.collect()
    plain_outputs = [plain.item(item, _direct) for item in inputs]

    traced = Run(workload, lab)
    gc.collect()
    with tracer:
        pass_start = time.perf_counter()
        traced_outputs = [traced.item(item, lambda *a: tracer.span(ROOT_SPAN, *a))
                          for item in inputs]
        wall = time.perf_counter() - pass_start

    failures = plain.failures + traced.failures
    # Tracing must change no output: compare the model sets of every item,
    # computed once with tracing off and once with a throwaway tracer on.
    def model_sets(outputs):
        return [None if out is None else workload.model_sets(lab, it, out)
                for it, out in zip(inputs, outputs)]

    untraced_sets = model_sets(plain_outputs)
    with Tracer(lab):
        traced_sets = model_sets(traced_outputs)
    for it, a, b in zip(inputs, untraced_sets, traced_sets):
        if a != b:
            failures.append((it.key, "outputs differ with tracing on"))

    self_s = tracer.self_times()
    in_pass = tracer.self_times(since=pass_start)
    counts = tracer.counts
    names = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]
    names += [f"checks.{c}" for c in CHECK_NAMES]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        metrics[f"{name}.errors"] = (tracer.errors[name], "count")
    metrics.update({
        f"{ROOT_SPAN}.self_s": (self_s.get(ROOT_SPAN, 0.0), "s"),
        "ht.interpretations": (counts["ht.interpretations"], "count"),
        "ht.stable_models.yield": (ratio(counts["ht.stable_models.models"],
                                         counts["ht.stable_models.interpretations"]),
                                   "ratio"),
        "forks.denotation.pairs": (counts["forks.denotation.pairs"], "count"),
        "di.candidate_yield": (ratio(counts["di.candidates"],
                                     tracer.calls["di.reduct"]), "ratio"),
        "checks.recompute_ratio": (ratio(counts["semantics.calls"],
                                         tracer.distinct_semantics), "ratio"),
        "tracing_overhead": (traced.items_per_s / plain.items_per_s, "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.self_share": (sum(in_pass.values()) / wall, "ratio"),
    })
    print(f"traced {len(inputs)} items; self time of every span in the traced "
          f"pass covers {metrics['trace.self_share'][0]:.4f} of its wall time")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<44} {value:>14.6g} {unit}")
    return len(inputs), failures, metrics, untraced_sets


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int,
                    help="first input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    print(f"workload {workload.name}, seed {seed}, trace {args.trace}, "
          f"python {sys.version.split()[0]}")
    try:
        if args.trace:
            attempted, failures, metrics, _ = traced_run(workload, seed)
        else:
            attempted, failures, metrics = timed_run(workload, seed, args.seconds)
    except NoPackage as exc:
        print(f"error: cannot import dlplab: {exc}", file=sys.stderr)
        return EXIT_NO_PACKAGE
    for key, message in failures:
        print(f"WRONG item {key}: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len({key for key, _ in failures}),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return EXIT_WRONG if failures else 0


if __name__ == "__main__":
    sys.exit(main())
