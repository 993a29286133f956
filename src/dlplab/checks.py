"""Cross-semantics theorem checks for fuzzing and the acceptance suite.

Each check takes a program and returns None on success or a short
description of the violated relation.  The default selection covers the
coincidence and inclusion results between the semantics; among them
``sm-eq`` compares the stable models with the equilibrium models of the
program read as a formula, which the fork engine computes without any
table of the program engine.  The remaining checks cover the translations
and the parser round trip.  Every relation between semantics that a check
asserts is a row of ``compare``, an edge of ``INCLUSION_EDGES`` or an
equality on a class of programs of ``CLASS_CLAIMS``, and every semantics a
translation preserves (``t1``, ``t2``) is a row of ``PRESERVES`` over a
transformation of ``TRANSFORMS``.  ``_lattice`` tests a check's rows on the
semantics of ``compare.model_tables``, the source's and the translation's,
so the checks on one program compute each semantics once.  Minimal SSM =
SM is claimed for negation-free programs only; ``ssm-min-strict``, the
unconditional claim, fails on ``a :- not not a.`` and is kept to show it.
Only strong entailment (``cor1``, on the fork registers of the memo) and
the head-splitting check are written out here.  ``th1`` sweeps its whole
context family in one call per engine (``ht.stable_masks_in_contexts``,
``forks.forked_masks_in_contexts``), each reading what was built once for
the family's width over canonical names, onto which the program is renamed
in order; it builds no forked tree.  Both sweeps test every context at once
on context sets, ints with bit 0 for the program alone and bit j + 1 for
the j-th context: the HT sweep builds only the translated program's
tables and reads the contexts' at each source interpretation
(``ht.ContextRules``), the fork sweep reads the contexts' supports sliced
by member at each T (``forks.ContextRegisters``).  Each returns one dict
from a model, a mask over the sorted source alphabet, to its context set,
and th1 compares the two dicts whole.
"""

from __future__ import annotations

import random
import string
import time
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

from . import forks as deno
from . import ht
from .compare import (CLASSES, TRANSFORMS, ModelTables, claims_of, edges_of,
                      model_tables, preserves_of)
from .gen import ATOM_POOL, GenConfig, gen_program
from .parser import parse_program, render_program
from .syntax import ExtendedRule, Program, rule

CheckFn = Callable[[Program], "str | None"]


def _fmt(models: Iterable[frozenset[str]]) -> str:
    return "{" + ", ".join("{" + ",".join(sorted(m)) + "}"
                           for m in ht.sort_models(models)) + "}"


_LABELS = {"sm": "SM", "fork": "fork SM", "jm": "JM", "spm": "SPM",
           "spm-fixpoint": "fixpoint SPM", "ad": "AD", "csm": "CSM", "ssm": "SSM",
           "ssm-min": "minimal SSM", "sm-formula": "equilibrium models"}


def _show(m: ModelTables, name: str, check: str) -> str:
    """A semantics and its models as failure messages name them."""
    if name == "classical":
        return "classical models"
    label = "graph SPM" if (check, name) == ("th8", "spm") else _LABELS[name]
    return f"{label} {_fmt(m.models(name))}"


def _lattice(p: Program, check: str) -> str | None:
    """The first of the check's edges that fails, else of its class claims
    on a program of the class, else of the semantics its transformation
    preserves.  A failing equality (an edge whose reverse is listed too)
    reads "a != b" in the direction of its later edge."""
    m = model_tables(p)
    edges = edges_of(check)
    for lhs, rhs in edges:
        if not m.includes(lhs, rhs):
            if (rhs, lhs) in edges:
                a, b = max((lhs, rhs), (rhs, lhs), key=edges.index)
                return f"{_show(m, a, check)} != {_show(m, b, check)}"
            return f"{_show(m, lhs, check)} not within {_show(m, rhs, check)}"
    for cls, a, b in claims_of(check):
        if CLASSES[cls](p) and m.table(a) != m.table(b):
            return f"{cls} program has {_show(m, a, check)} != {_show(m, b, check)}"
    rows = preserves_of(check)
    if not rows:
        return None
    # the memo holds one program, so the source's models are read first
    source = {a: m.models(a) for _, a, _, _ in rows}
    q, al = TRANSFORMS[rows[0][0]](p), p.atoms()
    mq = model_tables(q, q.atoms() | al)
    for _, a, b, message in rows:
        rhs = deno.project_models(mq.models(b), al)
        if source[a] != rhs:
            return message.format(_fmt(source[a]), _fmt(rhs))
    return None


def check_fork_replacement(p: Program) -> str | None:
    """The program strongly entails its forked version, so its stable
    models survive the replacement.  The entailment is read off the memo's
    registers and their nonempty tables (:func:`forks.entails_forked`): the
    formula reading is the leaf of the fork's shadow, so it is decided by
    the shadow pass alone and no T is swept; the ``sm`` within ``fork`` row
    of the lattice then compares the stable models with the fork's."""
    m = model_tables(p)
    res = deno.entails_forked(m.registers, m.nonempty)
    if not res:
        return (f"no strong entailment into the forked program; witness "
                f"T={{{','.join(sorted(res.witness_t))}}}")
    return _lattice(p, "cor1")


# ---------------------------------------------------------------------------
# Head splitting under contexts
# ---------------------------------------------------------------------------

CONTEXT_SEED = 20250809
RANDOM_CONTEXTS = 50  # the seeded random contexts of every family
# The names of the families th1 keeps: the family of width w is over the
# first w of them, which sort in index order, so renaming an alphabet of w
# atoms onto them in order keeps every mask over the sorted alphabet.
CANONICAL_ATOMS = tuple(string.ascii_lowercase[:ht.MAX_ENUM_ATOMS])
FAMILY_WIDTHS = len(ATOM_POOL)  # families kept, one per width: the generator's widths


def _remap(p: Program, pool: Sequence[str], names: Sequence[str] = ATOM_POOL) -> Program:
    """p with the atom names[i] renamed to pool[i], labels kept; p itself
    when that renames no atom, as for a family over the first names."""
    table = dict(zip(names, pool))
    if all(a == b for a, b in table.items()):
        return p

    def renamed(atoms: Iterable[str]) -> frozenset[str]:
        return frozenset(table[a] for a in atoms)

    return Program(tuple(ExtendedRule(tuple(table[a] for a in r.head), renamed(r.bpos),
                                      renamed(r.bneg), renamed(r.bnegneg), r.label)
                         for r in p.rules))


@dataclass(frozen=True, slots=True)
class _Family:
    """A context family with what th1 reads of it for every program of its
    width: the contexts' rules for the HT sweep and their fork registers
    for the fork sweep, each compiled once."""
    contexts: tuple[Program, ...]
    rules: ht.ContextRules
    forks: deno.ContextRegisters


def context_family(atoms: Iterable[str]) -> tuple[Program, ...]:
    """Contexts over the given atoms: the empty program, every program of
    at most two rules built from facts and constraints, and a fixed set of
    seeded random programs of at most two rules.  The family th1 sweeps
    is this one over canonical names, built once per width."""
    return _make_family(tuple(sorted(set(atoms))))


@lru_cache(maxsize=FAMILY_WIDTHS)
def _family_of(width: int) -> _Family:
    """The family over the first ``width`` canonical names, built once per
    width, so that the caches of its rules and registers serve every
    alphabet of that width; the latest FAMILY_WIDTHS widths' are kept."""
    pool = CANONICAL_ATOMS[:width]
    contexts = _make_family(pool)
    return _Family(contexts, ht.ContextRules(contexts), deno.ContextRegisters(contexts, pool))


def _make_family(pool: tuple[str, ...]) -> tuple[Program, ...]:
    out = [Program(())]
    if not pool:
        return tuple(out)
    shapes = []
    for a in pool:
        shapes.append(rule(head=(a,)))
        shapes.append(rule(pos=(a,)))
    out += [Program((r,)) for r in shapes]
    out += [Program((r1, r2)) for r1, r2 in combinations(shapes, 2)]
    out += [_remap(c, pool) for c in _random_contexts(min(len(pool), 6))]
    return tuple(out)


@cache
def _random_contexts(width: int) -> tuple[Program, ...]:
    """The seeded random contexts of a family, over the first ``width``
    atoms of ATOM_POOL; a family remaps them onto its alphabet."""
    rng = random.Random(CONTEXT_SEED)
    out = []
    for _ in range(RANDOM_CONTEXTS):
        cfg = GenConfig(atoms=width, rules=rng.randint(1, 2), max_head=2,
                        seed=rng.getrandbits(32))
        out.append(gen_program(cfg))
    return tuple(out)


def check_pf_projection(p: Program) -> str | None:
    """Splitting heads through fresh atoms leaves the projected stable
    models equal to the fork stable models, also under every sampled
    context over the source alphabet.

    The whole family is swept at once, with the family's rules and fork
    registers compiled once per width: the program is renamed in order onto
    the family's canonical names, one call computes the stable models of
    its pf alone and with every context, projected onto the source
    alphabet, from pf's tables and what the contexts add at each source
    interpretation, one the fork stable models of the forked program and
    of its conjunction with every context.  Both give one dict from a
    model, a mask over the sorted source alphabet, to its context set (bit
    0 for the program alone, bit j + 1 for the j-th context), and the two
    dicts are compared whole.  On a mismatch the lowest bit in which some
    model's two sets differ names the first failing reading, the bare
    program before the contexts in family order, and only its models are
    decoded, onto the program's own atoms.  The HT sweep runs first, so
    that a pf too wide to enumerate is refused before any fork sweep, but
    a source too wide for the fork sweep is refused first, on its own
    count.
    """
    names = tuple(sorted(p.atoms()))
    ht._check_width(len(names))
    family = _family_of(len(names))
    canonical = CANONICAL_ATOMS[:len(names)]
    q = _remap(p, canonical, names)
    pf = deno.pf_translate(q)
    lhs = ht.stable_masks_in_contexts(pf, family.rules, pf.atoms() | q.atoms(), canonical)
    rhs = deno.forked_masks_in_contexts(q, family.forks)
    if lhs == rhs:
        return None
    differ = 0
    for m in lhs.keys() | rhs.keys():
        differ |= lhs.get(m, 0) ^ rhs.get(m, 0)
    k = (differ & -differ).bit_length() - 1
    sm = deno._decoded(names, [m for m, s in lhs.items() if s >> k & 1])
    fork_sm = deno._decoded(names, [m for m, s in rhs.items() if s >> k & 1])
    if k == 0:
        return f"projected SM {_fmt(sm)} != fork SM {_fmt(fork_sm)}"
    context = _remap(family.contexts[k - 1], names, canonical)
    return (f"context {render_program(context)!r}: projected SM "
            f"{_fmt(sm)} != fork SM {_fmt(fork_sm)}")


def check_roundtrip(p: Program) -> str | None:
    """Rendering then parsing reproduces the program."""
    back = parse_program(render_program(p))
    if back != p:
        return "parse(render(p)) differs from p"
    return None


CHECKS: dict[str, tuple[CheckFn, str]] = {
    "th3": (lambda p: _lattice(p, "th3"), "stable models are justified"),
    "th4": (lambda p: _lattice(p, "th4"), "justified models = fork stable models"),
    "th5": (lambda p: _lattice(p, "th5"), "candidate stable models = fork stable models"),
    "th7": (lambda p: _lattice(p, "th7"), "candidates are strongly supported"),
    "th8": (lambda p: _lattice(p, "th8"), "graph supported = fixpoint supported"),
    "cor1": (check_fork_replacement, "forking heads keeps every stable model"),
    "ssm-sm": (lambda p: _lattice(p, "ssm-sm"), "stable vs strongly supported relations"),
    "ad": (lambda p: _lattice(p, "ad"), "SM within AD within SPM"),
    "sm-eq": (lambda p: _lattice(p, "sm-eq"),
              "stable models = equilibrium models of the program as a formula"),
    "t1": (lambda p: _lattice(p, "t1"), "double negation removal preserves SM"),
    "t2": (lambda p: _lattice(p, "t2"), "head disambiguation preserves CSM"),
    "th1": (check_pf_projection, "head splitting is invisible modulo alphabet"),
    "roundtrip": (check_roundtrip, "parser round trip"),
    "ssm-min-strict": (lambda p: _lattice(p, "ssm-min-strict"),
                       "unconditional minimal-SSM claim (known to fail)"),
}

DEFAULT_CHECKS = ("th3", "th4", "th5", "th7", "th8", "cor1", "ssm-sm", "ad",
                  "sm-eq")


# ---------------------------------------------------------------------------
# Fuzz driver
# ---------------------------------------------------------------------------

SHOWN_SKIPS = 5  # skips listed by the text summary; --json lists them all


@dataclass(frozen=True, slots=True)
class FuzzFailure:
    seed: int
    check: str
    message: str
    program: Program
    shrunk: Program


@dataclass(frozen=True, slots=True)
class FuzzSkip:
    """A check that refused a program as too large (a CapacityError)."""
    seed: int
    check: str
    reason: str


@dataclass(slots=True)
class CheckStats:
    """One check's verdicts and seconds, shrinking included.  The seconds
    include the semantics that the check is the first to need on a
    program; later checks read them from the memo of compare."""
    passes: int = 0
    failures: int = 0
    elapsed: float = 0.0
    skipped: int = 0


def _skipped(count: int) -> str:
    """The summary's skip count, shown only when there are skips."""
    return f", {count} skipped" if count else ""


@dataclass(slots=True)
class FuzzReport:
    iterations: int
    checks: tuple[str, ...]
    failures: list[FuzzFailure] = field(default_factory=list)
    skips: list[FuzzSkip] = field(default_factory=list)
    elapsed: float = 0.0
    per_check: dict[str, CheckStats] = field(default_factory=dict)
    programs: int = 0  # programs checked, fewer on an early stop
    interrupted: bool = False

    @property
    def passes(self) -> int:
        return sum(s.passes for s in self.per_check.values())

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        over = (f"{self.programs} of {self.iterations}"
                if self.programs < self.iterations else self.iterations)
        lines = [f"{self.passes} checks passed, {len(self.failures)} failed"
                 f"{_skipped(len(self.skips))} over {over} programs "
                 f"({self.elapsed:.2f}s)"
                 + (", interrupted" if self.interrupted else "")]
        lines += [f"  {name}: {s.passes} passed, {s.failures} failed"
                  f"{_skipped(s.skipped)} ({s.elapsed:.2f}s)"
                  for name, s in self.per_check.items()]
        lines += [f"seed {s.seed} [{s.check}] skipped: {s.reason}"
                  for s in self.skips[:SHOWN_SKIPS]]
        if len(self.skips) > SHOWN_SKIPS:
            lines.append(f"... and {len(self.skips) - SHOWN_SKIPS} more skips")
        for f in self.failures:
            lines.append(f"seed {f.seed} [{f.check}]: {f.message}")
            lines.append("minimal failing program:")
            lines.append(render_program(f.shrunk).rstrip())
        return "\n".join(lines)


class FuzzInterrupted(KeyboardInterrupt):
    """A KeyboardInterrupt in run_fuzz, with the report of the programs
    checked before it."""

    def __init__(self, report: FuzzReport):
        super().__init__()
        self.report = report


def shrink_program(p: Program, still_fails: Callable[[Program], bool]) -> Program:
    """Greedy rule removal: drop rules one at a time while the predicate
    says the failure persists."""
    current = p
    changed = True
    while changed:
        changed = False
        for k in range(len(current.rules)):
            cand = Program(current.rules[:k] + current.rules[k + 1:])
            if still_fails(cand):
                current = cand
                changed = True
                break
    return current


def _outcome(fn: CheckFn, p: Program) -> tuple[str | None, Exception | None]:
    """The check's message, or for a check that raises a message naming
    the exception, together with the exception."""
    try:
        return fn(p), None
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}", exc


def run_fuzz(cfg: GenConfig, iterations: int,
             checks: Sequence[str] = DEFAULT_CHECKS,
             max_failures: int = 5) -> FuzzReport:
    """Generate programs with seeds cfg.seed, cfg.seed+1, ... and run the
    selected checks on each, a check named twice once, where first named;
    failures are shrunk by rule removal.  A check
    that raises is a failure too, shrunk while the same exception type is
    raised, except that a CapacityError is a skip, unshrunk: the program is
    too large to decide, which violates nothing.  A KeyboardInterrupt
    leaves as FuzzInterrupted, carrying the report so far."""
    checks = tuple(dict.fromkeys(checks))
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; "
                         f"available: {sorted(CHECKS)}")
    if not checks or iterations < 1:
        raise ValueError(f"nothing to run: {iterations} iterations of "
                         f"{len(checks)} checks")
    report = FuzzReport(iterations, checks,
                        per_check={name: CheckStats() for name in checks})
    t0 = time.perf_counter()
    try:
        for i in range(iterations):
            seed = cfg.seed + i
            program = gen_program(replace(cfg, seed=seed))
            for name in checks:
                fn, _ = CHECKS[name]
                stats = report.per_check[name]
                t1 = time.perf_counter()
                message, raised = _outcome(fn, program)
                if message is None:
                    stats.passes += 1
                elif isinstance(raised, ht.CapacityError):
                    report.skips.append(FuzzSkip(seed, name, str(raised)))
                    stats.skipped += 1
                else:
                    def same_failure(q: Program) -> bool:
                        m, r = _outcome(fn, q)
                        return m is not None and type(r) is type(raised)

                    shrunk = shrink_program(program, same_failure)
                    report.failures.append(FuzzFailure(seed, name, message,
                                                       program, shrunk))
                    stats.failures += 1
                stats.elapsed += time.perf_counter() - t1
                if len(report.failures) >= max_failures:
                    break
            report.programs = i + 1
            if len(report.failures) >= max_failures:
                break
    except KeyboardInterrupt as exc:
        report.interrupted = True
        raise FuzzInterrupted(report) from exc
    finally:
        report.elapsed = time.perf_counter() - t0
    return report
