"""Cross-semantics theorem checks for fuzzing and the acceptance suite.

Each check takes a program and returns None on success or a short
description of the violated relation.  The default selection covers the
coincidence and inclusion results between the semantics; the remaining
checks cover the translations and the parser round trip.

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
from itertools import combinations
from typing import Callable, Iterable, Sequence

from . import forks as deno
from . import di, ht, justify, ssm
from .gen import ATOM_POOL, GenConfig, gen_program
from .parser import parse_program, render_program
from .syntax import ExtendedRule, Program, fork_and, forked, rule

CheckFn = Callable[[Program], "str | None"]


def _fmt(models: Iterable[frozenset[str]]) -> str:
    return "{" + ", ".join("{" + ",".join(sorted(m)) + "}"
                           for m in ht.sort_models(models)) + "}"


def check_sm_subset_jm(p: Program) -> str | None:
    """Stable models are justified; equal for non-disjunctive programs."""
    al = p.atoms()
    sm = ht.stable_models(p, al)
    jm = justify.justified_models(p, al)
    if not set(sm) <= set(jm):
        return f"SM {_fmt(sm)} not within JM {_fmt(jm)}"
    if not p.is_disjunctive and sm != jm:
        return f"non-disjunctive program has SM {_fmt(sm)} != JM {_fmt(jm)}"
    return None


def check_jm_equals_fork(p: Program) -> str | None:
    """Justified models coincide with the stable models of the forked program."""
    al = p.atoms()
    jm = justify.justified_models(p, al)
    fk = deno.fork_stable_models(forked(p), al)
    if jm != fk:
        return f"JM {_fmt(jm)} != fork SM {_fmt(fk)}"
    return None


def check_csm_equals_fork(p: Program) -> str | None:
    """Candidate stable models coincide with fork stable models."""
    al = p.atoms()
    cs = di.csm_models(p, al)
    fk = deno.fork_stable_models(forked(p), al)
    if cs != fk:
        return f"CSM {_fmt(cs)} != fork SM {_fmt(fk)}"
    return None


def check_csm_subset_ssm(p: Program) -> str | None:
    """Candidate stable models are strongly supported."""
    al = p.atoms()
    cs = di.csm_models(p, al)
    sm_s = ssm.ssm_models(p, al)
    if not set(cs) <= set(sm_s):
        return f"CSM {_fmt(cs)} not within SSM {_fmt(sm_s)}"
    return None


def check_spm_fixpoint(p: Program) -> str | None:
    """Graph-based supported models match the fixpoint characterisation."""
    al = p.atoms()
    gr = justify.supported_models_graph(p, al)
    fx = di.supported_models_fixpoint(p, al)
    if gr != fx:
        return f"graph SPM {_fmt(gr)} != fixpoint SPM {_fmt(fx)}"
    return None


def check_fork_replacement(p: Program) -> str | None:
    """The program strongly entails its forked version, so its stable
    models survive the replacement."""
    al = p.atoms()
    f = forked(p)
    res = deno.strongly_entails(p.to_formula(), f, al)
    if not res:
        return (f"no strong entailment into the forked program; witness "
                f"T={{{','.join(sorted(res.witness_t))}}}")
    sm = ht.stable_models(p, al)
    fk = deno.fork_stable_models(f, al)
    if not set(sm) <= set(fk):
        return f"SM {_fmt(sm)} not within fork SM {_fmt(fk)}"
    return None


def _negation_free(p: Program) -> bool:
    return all(not r.bneg and not r.bnegneg for r in p.rules)


def check_ssm_vs_sm(p: Program) -> str | None:
    """Stable models are strongly supported; for negation-free programs the
    minimal strongly supported models are exactly the stable ones, and for
    non-disjunctive programs the two semantics coincide."""
    al = p.atoms()
    sm = ht.stable_models(p, al)
    sm_s = ssm.ssm_models(p, al)
    cl = ht.classical_models(p, al)
    if not set(sm) <= set(sm_s):
        return f"SM {_fmt(sm)} not within SSM {_fmt(sm_s)}"
    if not set(sm_s) <= set(cl):
        return f"SSM {_fmt(sm_s)} not within classical models"
    if _negation_free(p) and ssm.minimal_elements(sm_s) != sm:
        return (f"negation-free program has minimal SSM "
                f"{_fmt(ssm.minimal_elements(sm_s))} != SM {_fmt(sm)}")
    if not p.is_disjunctive and sm_s != sm:
        return f"non-disjunctive program has SSM {_fmt(sm_s)} != SM {_fmt(sm)}"
    return None


def check_ssm_minimality_strict(p: Program) -> str | None:
    """The unconditional minimality claim; refuted on programs whose
    candidate stable models outrun their stable models."""
    al = p.atoms()
    sm = ht.stable_models(p, al)
    mins = ssm.minimal_elements(ssm.ssm_models(p, al))
    if mins != sm:
        return f"minimal SSM {_fmt(mins)} != SM {_fmt(sm)}"
    return None


def check_ad_sandwich(p: Program) -> str | None:
    """Completion-style supported models sit between stable and graph-based
    supported models."""
    al = p.atoms()
    sm = ht.stable_models(p, al)
    ad = justify.ad_supported_models(p, al)
    sp = justify.supported_models_graph(p, al)
    if not set(sm) <= set(ad):
        return f"SM {_fmt(sm)} not within AD {_fmt(ad)}"
    if not set(ad) <= set(sp):
        return f"AD {_fmt(ad)} not within SPM {_fmt(sp)}"
    return None


def check_t1(p: Program) -> str | None:
    """Double-negation removal preserves stable models modulo fresh atoms."""
    q = di.eliminate_double_negation(p)
    al = p.atoms()
    lhs = ht.stable_models(p, al)
    rhs = deno.project_models(ht.stable_models(q, q.atoms() | al), al)
    if lhs != rhs:
        return f"SM changed: {_fmt(lhs)} vs projected {_fmt(rhs)}"
    return None


def check_t2(p: Program) -> str | None:
    """Head-set disambiguation preserves open candidates and makes the
    closed candidates of the result equal the open ones of the source."""
    q = di.disambiguate_head_sets(p)
    al = p.atoms()
    lhs = di.csm_models(p, al)
    rhs_open = deno.project_models(di.csm_models(q, q.atoms() | al), al)
    if lhs != rhs_open:
        return f"open CSM changed: {_fmt(lhs)} vs {_fmt(rhs_open)}"
    rhs_closed = deno.project_models(di.csm_models(q, q.atoms() | al, closed=True), al)
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


def context_family(atoms: Iterable[str], extra: int = 50) -> list[Program]:
    """Contexts over the given atoms: the empty program, every program of
    at most two rules built from facts and constraints, and a fixed set of
    seeded random programs of at most two rules."""
    pool = sorted(set(atoms))
    out = [Program(())]
    if not pool:
        return out
    shapes = []
    for a in pool:
        shapes.append(rule(head=(a,)))
        shapes.append(rule(pos=(a,)))
    out += [Program((r,)) for r in shapes]
    out += [Program((r1, r2)) for r1, r2 in combinations(shapes, 2)]
    rng = random.Random(CONTEXT_SEED)
    for _ in range(extra):
        cfg = GenConfig(atoms=min(len(pool), 6), rules=rng.randint(1, 2),
                        max_head=2, seed=rng.getrandbits(32))
        out.append(_remap(gen_program(cfg), pool))
    return out


def check_pf_projection(p: Program) -> str | None:
    """Splitting heads through fresh atoms leaves the projected stable
    models equal to the fork stable models, also under every sampled
    context over the source alphabet."""
    al = p.atoms()
    f = forked(p)
    pf = deno.pf_translate(p)
    rhs = deno.fork_stable_models(f, al)
    lhs = deno.project_models(ht.stable_models(pf, pf.atoms() | al), al)
    if lhs != rhs:
        return f"projected SM {_fmt(lhs)} != fork SM {_fmt(rhs)}"
    for c in context_family(al):
        joint = Program(pf.rules + c.rules)
        lhs = deno.project_models(ht.stable_models(joint, joint.atoms() | al), al)
        rhs = deno.fork_stable_models(fork_and(f, c.to_formula()), al)
        if lhs != rhs:
            return (f"context {render_program(c)!r}: projected SM {_fmt(lhs)} "
                    f"!= fork SM {_fmt(rhs)}")
    return None


def check_roundtrip(p: Program) -> str | None:
    """Rendering then parsing reproduces the program."""
    back = parse_program(render_program(p))
    if back != p:
        return "parse(render(p)) differs from p"
    return None


CHECKS: dict[str, tuple[CheckFn, str]] = {
    "th3": (check_sm_subset_jm, "stable models are justified"),
    "th4": (check_jm_equals_fork, "justified models = fork stable models"),
    "th5": (check_csm_equals_fork, "candidate stable models = fork stable models"),
    "th7": (check_csm_subset_ssm, "candidates are strongly supported"),
    "th8": (check_spm_fixpoint, "graph supported = fixpoint supported"),
    "cor1": (check_fork_replacement, "forking heads keeps every stable model"),
    "ssm-sm": (check_ssm_vs_sm, "stable vs strongly supported relations"),
    "ad": (check_ad_sandwich, "SM within AD within SPM"),
    "t1": (check_t1, "double negation removal preserves SM"),
    "t2": (check_t2, "head disambiguation preserves CSM"),
    "th1": (check_pf_projection, "head splitting is invisible modulo alphabet"),
    "roundtrip": (check_roundtrip, "parser round trip"),
    "ssm-min-strict": (check_ssm_minimality_strict,
                       "unconditional minimal-SSM claim (known to fail)"),
}

DEFAULT_CHECKS = ("th3", "th4", "th5", "th7", "th8", "cor1", "ssm-sm", "ad")


# ---------------------------------------------------------------------------
# Fuzz driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FuzzFailure:
    seed: int
    check: str
    message: str
    program: Program
    shrunk: Program


@dataclass(slots=True)
class FuzzReport:
    iterations: int
    checks: tuple[str, ...]
    passes: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"{self.passes} checks passed, {len(self.failures)} failed "
                 f"over {self.iterations} programs ({self.elapsed:.2f}s)"]
        for f in self.failures:
            lines.append(f"seed {f.seed} [{f.check}]: {f.message}")
            lines.append("minimal failing program:")
            lines.append(render_program(f.shrunk).rstrip())
        return "\n".join(lines)


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


def _outcome(fn: CheckFn, p: Program) -> tuple[str | None, type | None]:
    """The check's message, or for a check that raises a message naming
    the exception, together with the exception's type."""
    try:
        return fn(p), None
    except Exception as exc:
        return f"raised {type(exc).__name__}: {exc}", type(exc)


def run_fuzz(cfg: GenConfig, iterations: int,
             checks: Sequence[str] = DEFAULT_CHECKS,
             max_failures: int = 5) -> FuzzReport:
    """Generate programs with seeds cfg.seed, cfg.seed+1, ... and run the
    selected checks on each; failures are shrunk by rule removal.  A check
    that raises is a failure too, shrunk while the same exception type is
    raised."""
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {unknown}; "
                         f"available: {sorted(CHECKS)}")
    report = FuzzReport(iterations=iterations, checks=tuple(checks))
    t0 = time.perf_counter()
    for i in range(iterations):
        seed = cfg.seed + i
        program = gen_program(replace(cfg, seed=seed))
        for name in checks:
            fn, _ = CHECKS[name]
            message, raised = _outcome(fn, program)
            if message is None:
                report.passes += 1
                continue

            def same_failure(q: Program) -> bool:
                m, r = _outcome(fn, q)
                return m is not None and r is raised

            shrunk = shrink_program(program, same_failure)
            report.failures.append(FuzzFailure(seed, name, message,
                                               program, shrunk))
            if len(report.failures) >= max_failures:
                report.elapsed = time.perf_counter() - t0
                return report
    report.elapsed = time.perf_counter() - t0
    return report
