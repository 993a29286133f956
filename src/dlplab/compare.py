"""Side-by-side computation of all semantics for one program, with the
expected inclusion lattice checked edge by edge and witnesses collected
where a semantics provides them.  ``model_tables`` compiles the most recent
program once and computes each semantics of it once, for all checks alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable

from . import forks as deno
from . import di, ht, justify, ssm
from .syntax import Program

SEMANTICS_ORDER = ("classical", "sm", "fork", "jm", "spm", "ad", "csm",
                   "csm-closed", "di", "ssm")

# name -> the models of the program of a ModelTables, as masks over its
# alphabet in the order of ht.sort_models, or for WITNESSED the (mask,
# witness) pairs with the witness in index form, from the memo's compile
# (the fork engine's from the program).  Enumerators are looked up on their
# modules at call time, so a wrapper put there (a tracer, a test double)
# sees every call.  The fixpoint reading of supported models and the
# equilibrium models of the program read as a formula are in no report.
SEMANTICS: dict[str, Callable[["ModelTables"], list]] = {
    "classical": lambda m: ht.classical_masks(m.cp),
    "sm": lambda m: ht.stable_masks(m.cp),
    "fork": lambda m: deno.forked_stable_masks(m.program, m.atoms),
    "jm": lambda m: justify.justified_masks(m.cp),
    "spm": lambda m: justify.supported_masks(m.cp),
    "ad": lambda m: justify.ad_supported_masks(m.cp),
    "csm": lambda m: di.candidate_masks(m.cp),
    "csm-closed": lambda m: di.candidate_masks(m.cp, closed=True),
    "di": lambda m: ssm.minimal_masks(m.masks("csm-closed")),
    "ssm": lambda m: ssm.strongly_supported_masks(m.cp),
    "spm-fixpoint": lambda m: di.supported_fixpoint_masks(m.cp),
    "sm-formula": lambda m: deno.equilibrium_masks(m.program, m.atoms),
}
WITNESSED = ("jm", "spm", "csm", "csm-closed", "ssm")

# name -> the tables of ht.CompiledProgram its enumerator keeps or prunes by:
# "models" the classical models, "headed" the models whose true atoms each
# head a firing rule, "support" the completion-supported interpretations.
# A semantics reading none of them is an oracle independent of those tables.
READS: dict[str, tuple[str, ...]] = {
    "classical": ("models",), "sm": ("models", "support"), "fork": (),
    "jm": ("headed",), "spm": ("headed",), "ad": ("models", "support"),
    "csm": ("headed",), "csm-closed": ("headed",), "di": ("headed",),
    "ssm": ("headed",), "spm-fixpoint": ("models",), "sm-formula": (),
}

# The expected lattice, and the only place it is written: lhs is included
# in rhs.  Each edge names who asserts it, "models" for the report or fuzz
# checks; an equality is two edges.  The report keeps its edge order.
INCLUSION_EDGES = (
    ("sm", "fork", ("models", "cor1")), ("sm", "jm", ("models", "th3")),
    ("sm", "csm", ("models",)),
    ("fork", "jm", ("models", "th4")), ("jm", "fork", ("models", "th4")),
    ("jm", "csm", ("models",)), ("csm", "jm", ("models",)),
    ("fork", "csm", ("models", "th5")), ("csm", "fork", ("models", "th5")),
    ("fork", "ssm", ("models",)), ("jm", "ssm", ("models",)),
    ("csm", "ssm", ("models", "th7")), ("fork", "spm", ("models",)),
    # jm and spm come from one walk, which keeps a model for jm only after
    # keeping it for spm, so this edge holds by construction; th4 (against
    # fork) and th8 (against spm-fixpoint) test each side against an
    # independent partner
    ("jm", "spm", ("models",)), ("csm", "spm", ("models",)),
    ("sm", "ssm", ("ssm-sm",)), ("ssm", "classical", ("models", "ssm-sm")),
    ("spm", "classical", ("models",)),
    ("sm", "ad", ("models", "ad")), ("ad", "spm", ("models", "ad")),
    ("spm-fixpoint", "spm", ("th8",)), ("spm", "spm-fixpoint", ("th8",)),
    ("csm-closed", "csm", ("models",)), ("di", "csm-closed", ("models",)),
    # the fork engine's reading of sm, sharing no table with ht
    ("sm", "sm-formula", ("sm-eq",)), ("sm-formula", "sm", ("sm-eq",)),
)


@cache
def edges_of(user: str) -> tuple[tuple[str, str], ...]:
    return tuple((lhs, rhs) for lhs, rhs, users in INCLUSION_EDGES if user in users)


def _table(masks: Iterable[int], width: int) -> int:
    """The table of 2^width bits holding the given interpretation masks,
    built in a byte buffer: or-ing bits into an int copies the whole int."""
    buf = bytearray(((1 << width) + 7) // 8)
    for t in masks:
        buf[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(buf, "little")


def _byte_names(atoms: tuple[str, ...]) -> list[list[tuple[str, ...]]]:
    """Per byte of a mask over the atoms, the atoms that each value of the
    byte stands for, sorted."""
    out = []
    for j in range(0, len(atoms), 8):
        names: list[tuple[str, ...]] = [()]
        for a in atoms[j:j + 8]:
            names += [x + (a,) for x in names]
        out.append(names)
    return out


class ModelTables:
    """The semantics of one program over one sorted alphabet, read off one
    compile of it (``cp``), each computed on first use and kept as its
    masks (bit i for atoms[i]) and as a 2^n-bit table: bit t is set iff
    the interpretation of mask t is a model.  Witnesses are kept in index
    form, by model.  Each mask is decoded at most once, into its atom set
    and the sorted tuple of its atoms, for every semantics and witness."""

    def __init__(self, program: Program, atoms: tuple[str, ...]):
        self.program, self.atoms = program, atoms
        self.found: dict[str, list[int]] = {}
        self.tables: dict[str, int] = {}
        self.witnesses: dict[str, dict] = {}
        self._names: dict[int, tuple[frozenset[str], tuple[str, ...]]] = {}

    cp = cached_property(lambda m: ht.CompiledProgram(m.program, m.atoms))
    _bytes = cached_property(lambda m: _byte_names(m.atoms))

    def masks(self, name: str) -> list[int]:
        """The models of a semantics as masks, in the order of
        ht.sort_models: the memo's own list, which callers leave as it is."""
        found = self.found.get(name)
        if found is None:
            found = SEMANTICS[name](self)
            if name in WITNESSED:
                self.witnesses[name] = dict(found)
                found = [t for t, _ in found]
            self.found[name] = found
            self.tables[name] = _table(found, len(self.atoms))
        return found

    def table(self, name: str) -> int:
        self.masks(name)
        return self.tables[name]

    def decode(self, t: int) -> tuple[frozenset[str], tuple[str, ...]]:
        """The atom set of a mask and its atoms sorted, decoded once."""
        names = self._names.get(t)
        if names is None:
            listed, rest = (), t
            for byte in self._bytes:
                listed += byte[rest & 255]
                rest >>= 8
            names = self._names[t] = (frozenset(listed), listed)
        return names

    def models(self, name: str) -> list[frozenset[str]]:
        """The models of a semantics, in the order of ht.sort_models."""
        return [self.decode(t)[0] for t in self.masks(name)]

    def includes(self, lhs: str, rhs: str) -> bool:
        return not self.table(lhs) & ~self.table(rhs)


# the latest program's tables, and their alphabet unless it is p's own atoms
_last: tuple[ModelTables, tuple[str, ...] | None] | None = None


def model_tables(p: Program, atoms: Iterable[str] | None = None) -> ModelTables:
    """The tables of p over the sorted alphabet, p's own atoms by default:
    only the latest program's, matched by identity and alphabet, given or
    not.  Code that patches an enumerator or a compile passes a new p."""
    global _last
    pool = None if atoms is None else tuple(sorted(set(atoms)))
    if _last is None or _last[0].program is not p or pool not in (_last[1], _last[0].atoms):
        own = tuple(sorted(p.atoms()))
        pool = None if pool == own else pool
        _last = (ModelTables(p, own if pool is None else pool), pool)
    return _last[0]


@dataclass(frozen=True, slots=True)
class InclusionCheck:
    lhs: str
    rhs: str
    holds: bool


@dataclass(slots=True)
class ComparisonReport:
    alphabet: tuple[str, ...]
    semantics: dict[str, list[frozenset[str]]]
    inclusions: list[InclusionCheck]
    witnesses: dict[str, list[dict]]
    timings: dict[str, float]

    @property
    def violations(self) -> list[InclusionCheck]:
        return [c for c in self.inclusions if not c.holds]

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "semantics": {name: [sorted(m) for m in models]
                          for name, models in self.semantics.items()},
            "inclusions": [{"lhs": c.lhs, "rhs": c.rhs, "holds": c.holds}
                           for c in self.inclusions],
            "witnesses": self.witnesses,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ComparisonReport":
        return cls(
            alphabet=tuple(data["alphabet"]),
            semantics={name: [frozenset(m) for m in models]
                       for name, models in data["semantics"].items()},
            inclusions=[InclusionCheck(e["lhs"], e["rhs"], e["holds"])
                        for e in data["inclusions"]],
            witnesses=data.get("witnesses", {}),
            timings=data.get("timings", {}),
        )

    def render_text(self) -> str:
        lines = [f"alphabet: {{{','.join(self.alphabet)}}}"]
        for name in self.semantics:
            models = ", ".join("{" + ",".join(sorted(m)) + "}"
                               for m in self.semantics[name]) or "(none)"
            lines.append(f"{name:>10}: {models}")
        bad = self.violations
        if bad:
            lines.append("violated relations:")
            for c in bad:
                lines.append(f"  {c.lhs} not within {c.rhs}")
        else:
            lines.append("all expected inclusion relations hold")
        return "\n".join(lines)


def _witness_fields(m: ModelTables, name: str, masks: list[int]) -> list[dict]:
    """Per model, its witness: the chain, the labels of the first support
    graph (the first acyclic one for jm), or the chosen heads."""
    found = [m.witnesses[name][t] for t in masks]
    if name == "ssm":
        return [{"chain": [list(m.decode(s)[1]) for s in stages]} for stages in found]
    if name in ("jm", "spm"):
        labels = [r.label for r in m.program.labelled().rules]
        return [{"labels": {a: labels[k] for a, k in zip(m.decode(t)[1], labelling)}}
                for t, labelling in zip(masks, found)]
    return [{"selection": {f"rule#{k + 1}": "bot" if a is None else m.atoms[a]
                           for k, a in choices}} for choices in found]


def compute_report(p: Program, selectors: Iterable[str] | None = None,
                   atoms: Iterable[str] | None = None) -> ComparisonReport:
    """Compute the requested semantics (all of them by default) and check
    every inclusion edge whose two sides were computed."""
    names = list(SEMANTICS_ORDER) if selectors is None else list(selectors)
    unknown = [n for n in names if n not in SEMANTICS_ORDER]
    if unknown:
        raise ValueError(f"unknown semantics: {unknown}; "
                         f"available: {list(SEMANTICS_ORDER)}")
    m = model_tables(p, atoms)
    results: dict[str, list[frozenset[str]]] = {}
    witnesses: dict[str, list[dict]] = {}
    timings: dict[str, float] = {}
    for name in (n for n in SEMANTICS_ORDER if n in names):
        t0 = time.perf_counter()
        masks = m.masks(name)
        results[name] = [m.decode(t)[0] for t in masks]
        if name in WITNESSED:
            witnesses[name] = [{"model": list(m.decode(t)[1]), **w} for t, w in
                               zip(masks, _witness_fields(m, name, masks))]
        timings[name] = time.perf_counter() - t0
    inclusions = [InclusionCheck(lhs, rhs, m.includes(lhs, rhs))
                  for lhs, rhs in edges_of("models")
                  if lhs in results and rhs in results]
    return ComparisonReport(m.atoms, results, inclusions, witnesses, timings)
