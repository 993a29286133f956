"""Cross-semantics theorem checks for fuzzing and the acceptance suite.

Each check takes a program and returns None on success or a short
description of the violated relation.  The default selection covers the
coincidence and inclusion results between the semantics; among them
``sm-eq`` compares the stable models with the equilibrium models of the
program read as a formula, which the fork engine computes without any
table of the program engine.  The remaining checks cover the translations
and the parser round trip.  The lattice checks read their edges from
``compare.INCLUSION_EDGES`` and the semantics from
``compare.model_tables``, so the checks on one program compute each
semantics once; only the conditional relations are written out here.  The
translation checks read the source's and the translation's semantics from
the same memo.  The head-splitting check ``th1`` sweeps its whole context
family in one call per engine (``ht.stable_masks_in_contexts``,
``forks.forked_masks_in_contexts``), each reading what the family memo
compiled once for its alphabet, and compares the models of the two as
masks; it builds no forked tree.

One deliberate restriction: the minimality link between strongly supported
and stable models is only asserted for negation-free programs.  The
unconditional reading is refuted by the interplay of the other relations
(a program can have a candidate stable model while having no stable model
at all, and candidates are always strongly supported); the strict variant
is kept in the registry for demonstration.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from functools import cache
from itertools import combinations
from typing import Callable, Iterable, Sequence

from . import forks as deno
from . import di, ht, ssm
from .compare import ModelTables, edges_of, model_tables
from .gen import ATOM_POOL, GenConfig, gen_program
from .parser import parse_program, render_program
from .syntax import ExtendedRule, Program, rule

CheckFn = Callable[[Program], "str | None"]


def _fmt(models: Iterable[frozenset[str]]) -> str:
    return "{" + ", ".join("{" + ",".join(sorted(m)) + "}"
                           for m in ht.sort_models(models)) + "}"


_LABELS = {"sm": "SM", "fork": "fork SM", "jm": "JM", "spm": "SPM",
           "spm-fixpoint": "fixpoint SPM", "ad": "AD", "csm": "CSM", "ssm": "SSM",
           "sm-formula": "equilibrium models"}


def _show(m: ModelTables, name: str, check: str = "") -> str:
    """A semantics and its models as failure messages name them."""
    if name == "classical":
        return "classical models"
    label = "graph SPM" if (check, name) == ("th8", "spm") else _LABELS[name]
    return f"{label} {_fmt(m.models(name))}"


def _lattice(p: Program, check: str) -> str | None:
    """The first of the check's lattice edges that fails.  A failing
    equality (an edge whose reverse is listed too) reads "a != b" in the
    direction of its later edge."""
    m = model_tables(p)
    edges = edges_of(check)
    for lhs, rhs in edges:
        if not m.includes(lhs, rhs):
            if (rhs, lhs) in edges:
                a, b = max((lhs, rhs), (rhs, lhs), key=edges.index)
                return f"{_show(m, a, check)} != {_show(m, b, check)}"
            return f"{_show(m, lhs, check)} not within {_show(m, rhs, check)}"
    return None


def _equal_unless_disjunctive(p: Program, a: str, b: str) -> str | None:
    m = model_tables(p)
    if not p.is_disjunctive and m.table(a) != m.table(b):
        return f"non-disjunctive program has {_show(m, a)} != {_show(m, b)}"
    return None


def _minimal_ssm(p: Program, prefix: str = "") -> str | None:
    m = model_tables(p)
    mins = ssm.minimal_masks(m.masks("ssm"))
    if mins != m.masks("sm"):
        return f"{prefix}minimal SSM {_fmt(m.decode(t)[0] for t in mins)} != {_show(m, 'sm')}"
    return None


def check_sm_subset_jm(p: Program) -> str | None:
    """Stable models are justified; equal for non-disjunctive programs."""
    return _lattice(p, "th3") or _equal_unless_disjunctive(p, "sm", "jm")


def check_fork_replacement(p: Program) -> str | None:
    """The program strongly entails its forked version, so its stable
    models survive the replacement."""
    res = deno.entails_forked(p, p.atoms())
    if not res:
        return (f"no strong entailment into the forked program; witness "
                f"T={{{','.join(sorted(res.witness_t))}}}")
    return _lattice(p, "cor1")


def check_ssm_vs_sm(p: Program) -> str | None:
    """Stable models are strongly supported; for negation-free programs the
    minimal strongly supported models are exactly the stable ones, and for
    non-disjunctive programs the two semantics coincide."""
    negation_free = all(not r.bneg and not r.bnegneg for r in p.rules)
    return (_lattice(p, "ssm-sm")
            or (negation_free and _minimal_ssm(p, "negation-free program has "))
            or _equal_unless_disjunctive(p, "ssm", "sm"))


def check_ssm_minimality_strict(p: Program) -> str | None:
    """The unconditional minimality claim; refuted on programs whose
    candidate stable models outrun their stable models."""
    return _minimal_ssm(p)


def check_t1(p: Program) -> str | None:
    """Double-negation removal preserves stable models modulo fresh atoms."""
    q = di.eliminate_double_negation(p)
    al = p.atoms()
    lhs = model_tables(p).models("sm")
    rhs = deno.project_models(model_tables(q, q.atoms() | al).models("sm"), al)
    if lhs != rhs:
        return f"SM changed: {_fmt(lhs)} vs projected {_fmt(rhs)}"
    return None


def check_t2(p: Program) -> str | None:
    """Head-set disambiguation preserves open candidates and makes the
    closed candidates of the result equal the open ones of the source."""
    q = di.disambiguate_head_sets(p)
    al = p.atoms()
    lhs, m = model_tables(p).models("csm"), model_tables(q, q.atoms() | al)
    rhs_open = deno.project_models(m.models("csm"), al)
    if lhs != rhs_open:
        return f"open CSM changed: {_fmt(lhs)} vs {_fmt(rhs_open)}"
    rhs_closed = deno.project_models(m.models("csm-closed"), al)
    if lhs != rhs_closed:
        return f"closed CSM of the translation {_fmt(rhs_closed)} != open CSM {_fmt(lhs)}"
    return None


# ---------------------------------------------------------------------------
# Head splitting under contexts
# ---------------------------------------------------------------------------

CONTEXT_SEED = 20250809


def _remap(p: Program, pool: Sequence[str]) -> Program:
    table = {ATOM_POOL[i]: pool[i % len(pool)] for i in range(len(ATOM_POOL))}
    out = []
    for r in p.rules:
        out.append(ExtendedRule(tuple(dict.fromkeys(table[a] for a in r.head)),
                                frozenset(table[a] for a in r.bpos),
                                frozenset(table[a] for a in r.bneg),
                                frozenset(table[a] for a in r.bnegneg)))
    return Program(tuple(out))


@dataclass(frozen=True, slots=True)
class _Family:
    """A context family with what th1 reads of it for every program over its
    alphabet: the contexts' rules for the HT sweep and their fork registers
    for the fork sweep, each compiled once."""
    key: tuple[tuple[str, ...], int]
    contexts: tuple[Program, ...]
    rules: ht.ContextRules
    forks: deno.ContextRegisters


# The family of the latest alphabet.
_family: _Family | None = None


def context_family(atoms: Iterable[str], extra: int = 50) -> tuple[Program, ...]:
    """Contexts over the given atoms: the empty program, every program of
    at most two rules built from facts and constraints, and a fixed set of
    seeded random programs of at most two rules.  Only the family of the
    latest alphabet is kept, like the one-program memo of compare."""
    return _family_of(atoms, extra).contexts


def _family_of(atoms: Iterable[str], extra: int = 50) -> _Family:
    global _family
    key = (tuple(sorted(set(atoms))), extra)
    if _family is None or _family.key != key:
        contexts = _make_family(*key)
        _family = _Family(key, contexts, ht.ContextRules(contexts),
                          deno.ContextRegisters(contexts, key[0]))
    return _family


def _make_family(pool: tuple[str, ...], extra: int) -> tuple[Program, ...]:
    out = [Program(())]
    if not pool:
        return tuple(out)
    shapes = []
    for a in pool:
        shapes.append(rule(head=(a,)))
        shapes.append(rule(pos=(a,)))
    out += [Program((r,)) for r in shapes]
    out += [Program((r1, r2)) for r1, r2 in combinations(shapes, 2)]
    out += [_remap(c, pool) for c in _random_contexts(min(len(pool), 6), extra)]
    return tuple(out)


@cache
def _random_contexts(width: int, extra: int) -> tuple[Program, ...]:
    """The seeded random contexts of a family, over the first ``width``
    atoms of ATOM_POOL; a family remaps them onto its alphabet."""
    rng = random.Random(CONTEXT_SEED)
    out = []
    for _ in range(extra):
        cfg = GenConfig(atoms=width, rules=rng.randint(1, 2), max_head=2,
                        seed=rng.getrandbits(32))
        out.append(gen_program(cfg))
    return tuple(out)


def check_pf_projection(p: Program) -> str | None:
    """Splitting heads through fresh atoms leaves the projected stable
    models equal to the fork stable models, also under every sampled
    context over the source alphabet.

    The whole family is swept at once, with the family's rules and fork
    registers compiled once per alphabet: one call computes the stable
    models of pf alone and with every context, projected onto the source
    alphabet, one the fork stable models of the forked program and of its
    conjunction with every context, and both give models as masks over the
    sorted source alphabet.  The bare program is compared first, then the
    contexts in family order; only a failing pair is decoded.  The HT sweep
    runs first, so that a pf too wide to enumerate is refused before any
    fork sweep, but a source too wide for the fork sweep is refused first,
    on its own count.
    """
    al = p.atoms()
    ht._check_width(len(al))
    family = _family_of(al)
    pf = deno.pf_translate(p)
    lhs = ht.stable_masks_in_contexts(pf, family.rules, pf.atoms() | al, al)
    rhs = deno.forked_masks_in_contexts(p, family.forks)
    for k, (sm, fork_sm) in enumerate(zip(lhs, rhs)):
        if set(sm) != set(fork_sm):
            pool = family.forks.pool
            sm, fork_sm = ([frozenset(pool[i] for i in ht.set_bits(m)) for m in ms]
                           for ms in (sm, fork_sm))
            if k == 0:
                return f"projected SM {_fmt(sm)} != fork SM {_fmt(fork_sm)}"
            return (f"context {render_program(family.contexts[k - 1])!r}: projected SM "
                    f"{_fmt(sm)} != fork SM {_fmt(fork_sm)}")
    return None


def check_roundtrip(p: Program) -> str | None:
    """Rendering then parsing reproduces the program."""
    back = parse_program(render_program(p))
    if back != p:
        return "parse(render(p)) differs from p"
    return None


CHECKS: dict[str, tuple[CheckFn, str]] = {
    "th3": (check_sm_subset_jm, "stable models are justified"),
    "th4": (lambda p: _lattice(p, "th4"), "justified models = fork stable models"),
    "th5": (lambda p: _lattice(p, "th5"), "candidate stable models = fork stable models"),
    "th7": (lambda p: _lattice(p, "th7"), "candidates are strongly supported"),
    "th8": (lambda p: _lattice(p, "th8"), "graph supported = fixpoint supported"),
    "cor1": (check_fork_replacement, "forking heads keeps every stable model"),
    "ssm-sm": (check_ssm_vs_sm, "stable vs strongly supported relations"),
    "ad": (lambda p: _lattice(p, "ad"), "SM within AD within SPM"),
    "sm-eq": (lambda p: _lattice(p, "sm-eq"),
              "stable models = equilibrium models of the program as a formula"),
    "t1": (check_t1, "double negation removal preserves SM"),
    "t2": (check_t2, "head disambiguation preserves CSM"),
    "th1": (check_pf_projection, "head splitting is invisible modulo alphabet"),
    "roundtrip": (check_roundtrip, "parser round trip"),
    "ssm-min-strict": (check_ssm_minimality_strict,
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
    selected checks on each; failures are shrunk by rule removal.  A check
    that raises is a failure too, shrunk while the same exception type is
    raised, except that a CapacityError is a skip, unshrunk: the program is
    too large to decide, which violates nothing.  A KeyboardInterrupt
    leaves as FuzzInterrupted, carrying the report so far."""
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; "
                         f"available: {sorted(CHECKS)}")
    if not checks or iterations < 1:
        raise ValueError(f"nothing to run: {iterations} iterations of "
                         f"{len(checks)} checks")
    report = FuzzReport(iterations, tuple(checks),
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
