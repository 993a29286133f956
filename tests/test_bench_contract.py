"""What the benchmark, ``perfbench/``, needs of dlplab.

The tracer (``tracer.py``) wraps the functions its ``LAYERS`` name and
skips a missing one silently, and its work counters bind the first two
arguments of each function in its ``SEMANTICS`` set as (program or fork,
alphabet).  A renamed function or a changed signature would leave its
counters reading zero or wrong without an error, so both are checked here.
The workloads (``workloads.py``) read reports and checks of the package,
and a traced run compares their model sets; one item of each is run here.
Both files are only read, never installed or changed.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_source(name: str) -> ModuleType:
    """A perfbench module run from its source text, so that nothing stays
    imported under its name or is cached beside it.  It is in sys.modules
    only while it runs, where dataclasses look up the module of a class."""
    path = PERFBENCH / f"{name}.py"
    module = ModuleType(f"bench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def test_every_layer_the_tracer_wraps_exists():
    tracer = load_source("tracer")
    for modname, names in tracer.LAYERS.items():
        module = importlib.import_module(f"dlplab.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    wrapped = {f"{m}.{n}" for m, names in tracer.LAYERS.items() for n in names}
    assert tracer.SEMANTICS <= wrapped


def test_every_counted_enumerator_takes_a_theory_and_an_alphabet_first():
    tracer = load_source("tracer")
    for qualified in sorted(tracer.SEMANTICS):
        modname, name = qualified.split(".")
        fn = getattr(importlib.import_module(f"dlplab.{modname}"), name)
        first, second = list(inspect.signature(fn).parameters.values())[:2]
        assert first.name in ("p", "x", "f"), qualified
        assert first.default is inspect.Parameter.empty, qualified
        assert (second.name, second.default) == ("atoms", None), qualified


def test_every_workload_reads_its_models_and_model_sets_off_the_package(tmp_path):
    """One item of each workload is made, run and judged by its oracle, and
    its model sets, which a traced run compares, name every semantics of a
    report."""
    workloads = load_source("workloads")
    lab = SimpleNamespace(**{m: importlib.import_module(f"dlplab.{m}") for m in
                             ("checks", "cli", "compare", "gen", "parser", "syntax")})
    for name, workload in workloads.WORKLOADS.items():
        item = workload.make_inputs(lab, workload.default_seed, 1, tmp_path)[0]
        out = workload.run(lab, item)
        assert workload.oracle(item, out) is None, name
        sets = workload.model_sets(lab, item, out)
        if name == "scaling":
            assert sets == workloads.Scaling.canonical_sets(item, out[1])
        else:
            verdicts, sets = sets
            assert verdicts == out, name
            report = lab.compare.compute_report(item.program)
            assert sets == {k: [list(m) for m in v] for k, v in report.listed.items()}
        assert sorted(sets) == sorted(lab.compare.SEMANTICS_ORDER), name
