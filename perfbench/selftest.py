#!/usr/bin/env python3
"""Self-test of the benchmark: two small traced runs of each workload must
give identical counts, verdicts and model sets, and no wrong output.

    python3 perfbench/selftest.py

Exits 0 when every workload repeats exactly, 1 otherwise.
"""

import contextlib
import copy
import io
import sys

from run import traced_run
from workloads import WORKLOADS

# Items per run: small, but enough to reach every wrapped layer the
# workload uses: a translations program of every pf width up to 11, and one
# scaling report of every size.
SMALL = {"battery": 40, "translations": 9, "scaling": 7}

# Derived from time, so they differ between runs by design.
TIMED = {"tracing_overhead", "trace.self_share"}


def exact_part(metrics: dict) -> dict:
    return {k: v for k, (v, unit) in metrics.items()
            if unit != "s" and k not in TIMED}


def main() -> int:
    problems = []
    for name, workload in WORKLOADS.items():
        before = len(problems)
        small = copy.copy(workload)
        small.trace_items = SMALL[name]
        runs = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                runs.append(traced_run(small, small.default_seed))
        (n1, f1, m1, o1), (n2, f2, m2, o2) = runs
        for label, failures in (("first", f1), ("second", f2)):
            problems += [f"{name}: {label} run, item {k}: {m}" for k, m in failures]
        if n1 != n2 or exact_part(m1) != exact_part(m2):
            diff = sorted(k for k in exact_part(m1)
                          if exact_part(m1)[k] != exact_part(m2).get(k))
            problems.append(f"{name}: counts differ between runs: {diff}")
        if o1 != o2:
            problems.append(f"{name}: outputs differ between runs")
        calls = sum(v for k, (v, _) in m1.items() if k.endswith(".calls"))
        print(f"{name}: {n1} items, {calls} traced calls, "
              f"{'identical' if len(problems) == before else 'NOT identical'}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
