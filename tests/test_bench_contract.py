"""What the benchmark's tracer, ``perfbench/tracer.py``, needs of dlplab.

The tracer wraps the functions its ``LAYERS`` name and skips a missing one
silently, and its work counters bind the first two arguments of each
function in its ``SEMANTICS`` set as (program or fork, alphabet).  A
renamed function or a changed signature would leave its counters reading
zero or wrong without an error, so both are checked here.  The tracer is
only read, never installed.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> SimpleNamespace:
    """The tracer's module namespace, run from its source text, so that
    nothing is imported under its name or cached beside it."""
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return SimpleNamespace(**namespace)


def test_every_layer_the_tracer_wraps_exists():
    tracer = load_tracer()
    for modname, names in tracer.LAYERS.items():
        module = importlib.import_module(f"dlplab.{modname}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{modname}.{name}"
    wrapped = {f"{m}.{n}" for m, names in tracer.LAYERS.items() for n in names}
    assert tracer.SEMANTICS <= wrapped


def test_every_counted_enumerator_takes_a_theory_and_an_alphabet_first():
    tracer = load_tracer()
    for qualified in sorted(tracer.SEMANTICS):
        modname, name = qualified.split(".")
        fn = getattr(importlib.import_module(f"dlplab.{modname}"), name)
        first, second = list(inspect.signature(fn).parameters.values())[:2]
        assert first.name in ("p", "x", "f"), qualified
        assert first.default is inspect.Parameter.empty, qualified
        assert (second.name, second.default) == ("atoms", None), qualified
