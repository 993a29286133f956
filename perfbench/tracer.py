"""Span tracer for the benchmark.

It wraps public functions of the dlplab modules from outside: each wrapped
function is replaced on its module object, and on every other dlplab module
that bound the same object with ``from .x import f``, so calls made inside
the package are caught too.  A call records one span (name, start, end,
parent).  Self time is derived from the spans after the run.  A few exact
work counters are taken from the arguments and results of the same calls.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

# module -> public functions wrapped on it (the layers of the benchmark).
LAYERS = {
    "gen": ("gen_program",),
    "parser": ("parse_program",),
    "ht": ("classical_models", "stable_models", "is_stable_model"),
    "forks": ("denotation", "fork_stable_models", "strongly_entails",
              "pf_translate"),
    "justify": ("justified_models", "supported_models_graph",
                "ad_supported_models"),
    "di": ("candidate_stable_models", "reduct", "supported_models_fixpoint"),
    "ssm": ("strongly_supported_models",),
    "compare": ("compute_report",),
}

# The checks registry at the commit that introduced the benchmark.  The
# names are pinned so that the metric set stays the one in BENCHMARK.json;
# a name missing from a later registry reports zero calls.
CHECK_NAMES = ("th3", "th4", "th5", "th7", "th8", "cor1", "ssm-sm", "ad", "t1",
               "t2", "th1", "roundtrip", "ssm-min-strict")

# Enumerators whose repeated calls on the same (program, alphabet, options)
# count towards checks.recompute_ratio.
SEMANTICS = frozenset({
    "ht.classical_models", "ht.stable_models", "forks.fork_stable_models",
    "justify.justified_models", "justify.supported_models_graph",
    "justify.ad_supported_models", "di.candidate_stable_models",
    "di.supported_models_fixpoint", "ssm.strongly_supported_models",
})

ROOT_SPAN = "bench.item"


class Tracer:
    """Spans and counters of one traced pass.

    Spans live in flat arrays so that large runs stay small in memory; the
    stack holds the indices of the spans still open.
    """

    def __init__(self, lab):
        self.lab = lab
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._semantics_keys: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        i = len(self.name_of)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args):
        """Run fn(*args) inside a span of its own."""
        i = self.open(self._id(name))
        try:
            return fn(*args)
        finally:
            self.close(i)

    def self_times(self, since: float = 0.0) -> dict[str, float]:
        """Per name: total span duration minus the time its child spans
        cover, over the spans that started at or after ``since``."""
        n = len(self.name_of)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            if self.start[i] >= since:
                name = self.names[self.name_of[i]]
                out[name] += self.end[i] - self.start[i] - child[i]
        return out

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        name_id = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            i = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[name] += 1
                raise
            finally:
                tracer.close(i)
            if count is not None:
                count(result, args, kwargs)
            return result

        return traced

    def _replace(self, original, wrapped) -> None:
        """Put wrapped in place of every dlplab module binding of original."""
        for modname, mod in list(sys.modules.items()):
            if modname != "dlplab" and not modname.startswith("dlplab."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self) -> "Tracer":
        for modname, fnames in LAYERS.items():
            mod = getattr(self.lab, modname)
            for fname in fnames:
                name = f"{modname}.{fname}"
                original = getattr(mod, fname, None)
                if original is not None:
                    self._replace(original, self._wrap(
                        name, original, self._counter(name, original)))
        table = self.lab.checks.CHECKS
        for check in CHECK_NAMES:
            if check in table:
                fn, desc = table[check]
                self._patched.append((table, check, (fn, desc)))
                table[check] = (self._wrap(f"checks.{check}", fn), desc)
        return self

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- work counters -------------------------------------------------------

    def _counter(self, name: str, fn):
        sig = inspect.signature(fn)
        counts = self.counts

        def semantics(result, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            params = list(bound.arguments.items())
            (_, x), (_, atoms) = params[0], params[1]
            alpha = frozenset(self.lab.syntax.alphabet(x) if atoms is None
                              else atoms)
            counts["semantics.calls"] += 1
            self._semantics_keys.add((name, x, alpha, tuple(params[2:])))
            if name in ("ht.classical_models", "ht.stable_models"):
                counts["ht.interpretations"] += 1 << len(alpha)
            if name == "ht.stable_models":
                counts["ht.stable_models.interpretations"] += 1 << len(alpha)
                counts["ht.stable_models.models"] += len(result)
            if name == "di.candidate_stable_models":
                counts["di.candidates"] += len(result)

        def denotation(result, args, kwargs):
            t_atoms = kwargs["t_atoms"] if "t_atoms" in kwargs else args[1]
            counts["forks.denotation.pairs"] += 1 << len(set(t_atoms))

        if name in SEMANTICS:
            return semantics
        if name == "forks.denotation":
            return denotation
        return None

    @property
    def distinct_semantics(self) -> int:
        return len(self._semantics_keys)
