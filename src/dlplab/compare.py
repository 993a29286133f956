"""Side-by-side computation of all semantics for one program, with the
expected inclusion lattice checked edge by edge and witnesses collected
where a semantics provides them.  ``model_tables`` compiles the most recent
program once, for the tables of ``ht`` and for the fork engine's
registers, and computes each semantics of it once, for all checks and the
public enumerators alike.  The relations the checks assert are rows here:
inclusion edges, equalities on a class of programs, and the semantics a
program transformation preserves.
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
# (the fork engine's from its registers).  Enumerators are looked up on their
# modules at call time, so a wrapper put there (a tracer, a test double)
# sees every call.  Minimal SSM, the fixpoint reading of supported models and
# the equilibrium models of the program read as a formula are in no report.
SEMANTICS: dict[str, Callable[["ModelTables"], list]] = {
    "classical": lambda m: ht.classical_masks(m.cp),
    "sm": lambda m: ht.stable_masks(m.cp),
    "fork": lambda m: deno.forked_stable_masks(m.registers),
    "jm": lambda m: justify.justified_masks(m.cp),
    "spm": lambda m: justify.supported_masks(m.cp),
    "ad": lambda m: justify.ad_supported_masks(m.cp),
    "csm": lambda m: di.candidate_masks(m.cp),
    "csm-closed": lambda m: di.candidate_masks(m.cp, closed=True),
    "di": lambda m: ssm.minimal_masks(m.masks("csm-closed")),
    "ssm": lambda m: ssm.strongly_supported_masks(m.cp),
    "ssm-min": lambda m: ssm.minimal_masks(m.masks("ssm")),
    "spm-fixpoint": lambda m: di.supported_fixpoint_masks(m.cp),
    "sm-formula": lambda m: deno.equilibrium_masks(m.registers),
}
WITNESSED = ("jm", "spm", "csm", "csm-closed", "ssm")

# name -> the tables of ht.CompiledProgram its enumerator keeps or prunes by:
# "models" the classical models, "headed" the models whose true atoms each
# head a firing rule, "paired" the headed models whose every two true atoms
# have two distinct firing rules heading them (built from "headed", so it is
# read with it), "support" the completion-supported interpretations.
# A semantics reading none of them is an oracle independent of those tables.
READS: dict[str, tuple[str, ...]] = {
    "classical": ("models",), "sm": ("models", "support"), "fork": (), "sm-formula": (),
    "jm": ("headed", "paired"), "spm": ("headed", "paired"), "ad": ("models", "support"),
    "csm": ("headed", "paired"), "csm-closed": ("headed", "paired"),
    "di": ("headed", "paired"),
    "ssm": ("headed",), "ssm-min": ("headed",), "spm-fixpoint": ("models",),
}

# The expected lattice, written only here with CLASS_CLAIMS: lhs is included
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
    # the unconditional minimality claim, known to fail (a :- not not a.)
    ("sm", "ssm-min", ("ssm-min-strict",)), ("ssm-min", "sm", ("ssm-min-strict",)),
)

# The equalities that hold on a class of programs, as (check, class, lhs, rhs)
# in the order a check tests them after its edges; messages name the class.
CLASS_CLAIMS = (("th3", "non-disjunctive", "sm", "jm"),
                ("ssm-sm", "negation-free", "ssm-min", "sm"),
                ("ssm-sm", "non-disjunctive", "ssm", "sm"))
CLASSES: dict[str, Callable[[Program], bool]] = {
    "non-disjunctive": lambda p: p.is_normal,
    "negation-free": lambda p: all(not r.bneg and not r.bnegneg for r in p.rules),
}

# name -> a program transformation, looked up on its module at call time like
# the enumerators of SEMANTICS.
TRANSFORMS: dict[str, Callable[[Program], Program]] = {
    "pf": lambda p: deno.pf_translate(p),
    "t1": lambda p: di.eliminate_double_negation(p),
    "t2": lambda p: di.disambiguate_head_sets(p),
}

# The semantics a transformation preserves, as (check, transform, source
# semantics, translation semantics, message) in the order a check tests them
# after its edges and class claims: the source's models equal the
# translation's projected onto the source's atoms.  A failure formats the
# message with the source's models and then the projected ones.
PRESERVES = (
    ("t1", "t1", "sm", "sm", "SM changed: {0} vs projected {1}"),
    ("t2", "t2", "csm", "csm", "open CSM changed: {0} vs {1}"),
    ("t2", "t2", "csm", "csm-closed", "closed CSM of the translation {1} != open CSM {0}"),
)


@cache
def edges_of(user: str) -> tuple[tuple[str, str], ...]:
    return tuple((lhs, rhs) for lhs, rhs, users in INCLUSION_EDGES if user in users)


@cache
def claims_of(check: str) -> tuple[tuple[str, str, str], ...]:
    return tuple((cls, lhs, rhs) for c, cls, lhs, rhs in CLASS_CLAIMS if c == check)


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
    compile of it (``cp``) or of its fork registers (``registers``), each
    computed on first use and kept as its masks (bit i for atoms[i]) and as
    a 2^n-bit table: bit t is set iff the interpretation of mask t is a
    model.  Witnesses are kept in index form, by model.  Each mask is
    decoded at most once, into the sorted tuple of its atoms, for every
    semantics and witness."""

    def __init__(self, program: Program, atoms: tuple[str, ...]):
        self.program, self.atoms = program, atoms
        self.found: dict[str, list[int]] = {}
        self.tables: dict[str, int] = {}
        self.witnesses: dict[str, dict] = {}
        self._names: dict[int, tuple[str, ...]] = {}

    cp = cached_property(lambda m: ht.CompiledProgram(m.program, m.atoms))
    registers = cached_property(lambda m: deno.program_registers(m.program, m.atoms))
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
            self.tables[name] = ht.table_of(found, len(self.atoms))
        return found

    def table(self, name: str) -> int:
        self.masks(name)
        return self.tables[name]

    def decode(self, t: int) -> tuple[str, ...]:
        """The atoms of a mask, sorted, decoded once."""
        names = self._names.get(t)
        if names is None:
            listed, rest = (), t
            for byte in self._bytes:
                listed += byte[rest & 255]
                rest >>= 8
            names = self._names[t] = listed
        return names

    def models(self, name: str) -> list[frozenset[str]]:
        """The models of a semantics, in the order of ht.sort_models."""
        return [frozenset(self.decode(t)) for t in self.masks(name)]

    def includes(self, lhs: str, rhs: str) -> bool:
        return not self.table(lhs) & ~self.table(rhs)


# the latest program's tables, and their alphabet unless it is p's own atoms
_last: tuple[ModelTables, tuple[str, ...] | None] | None = None


def model_tables(p: Program, atoms: Iterable[str] | None = None) -> ModelTables:
    """The tables of p over the sorted alphabet, p's own atoms by default:
    only the latest program's, matched by identity and alphabet, given or
    not.  The public enumerators of a program read it too, so code that
    patches a mask core, an enumerator or a compile passes a new p."""
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
    """The models of each semantics as their atoms sorted (``listed``), the
    inclusion verdicts, the witnesses and the time each semantics took."""
    alphabet: tuple[str, ...]
    listed: dict[str, list[tuple[str, ...]]]
    inclusions: list[InclusionCheck]
    witnesses: dict[str, list[dict]]
    timings: dict[str, float]

    # the models of each semantics as atom sets, read off listed
    semantics = property(lambda r: {k: [frozenset(m) for m in v] for k, v in r.listed.items()})

    @property
    def violations(self) -> list[InclusionCheck]:
        return [c for c in self.inclusions if not c.holds]

    def to_json_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "semantics": dict(self.listed),
            "inclusions": [{"lhs": c.lhs, "rhs": c.rhs, "holds": c.holds}
                           for c in self.inclusions],
            "witnesses": self.witnesses,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ComparisonReport":
        """The report of ``to_json_dict``'s data, its semantics in report
        order, which JSON's sorted keys lose."""
        semantics = data["semantics"]
        return cls(
            alphabet=tuple(data["alphabet"]),
            listed={name: [tuple(sorted(m)) for m in semantics[name]]
                    for name in sorted(semantics, key=SEMANTICS_ORDER.index)},
            inclusions=[InclusionCheck(e["lhs"], e["rhs"], e["holds"])
                        for e in data["inclusions"]],
            witnesses=data.get("witnesses", {}),
            timings=data.get("timings", {}),
        )

    def render_text(self) -> str:
        lines = [f"alphabet: {{{','.join(self.alphabet)}}}"]
        for name, listed in self.listed.items():
            models = ", ".join("{" + ",".join(m) + "}" for m in listed) or "(none)"
            lines.append(f"{name:>10}: {models}")
        bad = self.violations
        if bad:
            lines.append("violated relations:")
            for c in bad:
                lines.append(f"  {c.lhs} not within {c.rhs}")
        else:
            lines.append("all expected inclusion relations hold")
        return "\n".join(lines)

    def witness_lines(self) -> list[str]:
        """The witnesses, one line each, as ``models --verbose`` prints them:
        in report order and rule order, which JSON's sorted keys lose."""
        lines = []
        for name in sorted(self.witnesses, key=SEMANTICS_ORDER.index):
            for e in self.witnesses[name]:
                if "chain" in e:
                    shown = " <= ".join("{" + ",".join(s) + "}" for s in e["chain"])
                elif "labels" in e:
                    shown = ", ".join(f"{a} -> {k}" for a, k in sorted(e["labels"].items()))
                else:  # rule#10 sorts before rule#2 as text
                    shown = ", ".join(f"{k} -> {v}" for k, v in sorted(
                        e["selection"].items(), key=lambda kv: int(kv[0][5:])))
                lines.append(f"witness {name} {{{','.join(e['model'])}}}: {shown}")
        return lines


def _witness_fields(m: ModelTables, name: str, masks: list[int]) -> list[dict]:
    """Per model, its witness: the chain, the labels of the first support
    graph (the first acyclic one for jm), or the chosen heads."""
    found = [m.witnesses[name][t] for t in masks]
    if name == "ssm":
        return [{"chain": [list(m.decode(s)) for s in stages]} for stages in found]
    if name in ("jm", "spm"):
        labels = [r.label for r in m.program.labelled().rules]
        return [{"labels": {a: labels[k] for a, k in zip(m.decode(t), labelling)}}
                for t, labelling in zip(masks, found)]
    return [{"selection": {f"rule#{k + 1}": "bot" if a is None else m.atoms[a]
                           for k, a in choices}} for choices in found]


def compute_report(p: Program, selectors: Iterable[str] | None = None,
                   atoms: Iterable[str] | None = None) -> ComparisonReport:
    """Compute the requested semantics (all of them by default, at least
    one) and check every inclusion edge whose two sides were computed."""
    names = list(SEMANTICS_ORDER) if selectors is None else list(selectors)
    unknown = [n for n in names if n not in SEMANTICS_ORDER]
    if unknown:
        raise ValueError(f"unknown semantics: {unknown}; "
                         f"available: {list(SEMANTICS_ORDER)}")
    if not names:
        raise ValueError(f"no semantics selected; available: {list(SEMANTICS_ORDER)}")
    m = model_tables(p, atoms)
    listed: dict[str, list[tuple[str, ...]]] = {}
    witnesses: dict[str, list[dict]] = {}
    timings: dict[str, float] = {}
    for name in (n for n in SEMANTICS_ORDER if n in names):
        t0 = time.perf_counter()
        masks = m.masks(name)
        listed[name] = [m.decode(t) for t in masks]
        if name in WITNESSED:
            witnesses[name] = [{"model": list(m.decode(t)), **w} for t, w in
                               zip(masks, _witness_fields(m, name, masks))]
        timings[name] = time.perf_counter() - t0
    inclusions = [InclusionCheck(lhs, rhs, m.includes(lhs, rhs))
                  for lhs, rhs in edges_of("models")
                  if lhs in listed and rhs in listed]
    return ComparisonReport(m.atoms, listed, inclusions, witnesses, timings)
