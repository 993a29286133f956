#!/usr/bin/env python3
"""Records the model counts and model-set digests of the scaling family,
n=6..12, with atoms named x0..x{n-1}, into expected_scaling.json.  The
scaling oracle compares every report against this file, so rerun it only
when a semantics is meant to change.

    python3 perfbench/record_expected.py
"""

import json

from run import import_lab
from workloads import EXPECTED_FILE, SCALING_SIZES, cyclic_family, digests


def main() -> None:
    lab = import_lab()
    out = {}
    for n in SCALING_SIZES:
        p = lab.parser.parse_program(cyclic_family(n, [f"x{j}" for j in range(n)]))
        report = lab.compare.compute_report(p)
        out[str(n)] = digests({k: sorted(sorted(m) for m in v)
                               for k, v in report.semantics.items()})
    EXPECTED_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")


if __name__ == "__main__":
    main()
