"""The lattice checks against the recomputing check bodies they replaced.

The checks of ``dlplab.checks`` read each semantics of a program from the
memo of ``dlplab.compare``.  The bodies below are the checks as they were
before it, each computing its own semantics; they are the reference, and
every check must give the same message, or raise the same exception, on
seeded programs.  The fork model sets are read through
``forks.forked_stable_models``, the enumerator the ``fork`` semantics
calls, so that a test double put there shows on both sides; that it
agrees with the forked tree is tested in ``tests/test_forks.py``.
The remaining tests keep the one-program memo from leaking between
programs, alphabets and the program values themselves.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from dlplab import checks, di, ht, justify, ssm, syntax
from dlplab import forks as deno
from dlplab.checks import CHECKS, DEFAULT_CHECKS, context_family, run_fuzz
from dlplab.compare import (INCLUSION_EDGES, SEMANTICS, SEMANTICS_ORDER,
                            ModelTables, compute_report, model_tables)
from dlplab.gen import GenConfig, gen_program
from dlplab.parser import parse_program, render_program
from dlplab.syntax import Program, fork_and, forked


def _fmt(models):
    return "{" + ", ".join("{" + ",".join(sorted(m)) + "}"
                           for m in ht.sort_models(models)) + "}"


# ---------------------------------------------------------------------------
# The reference: the check bodies before the memo
# ---------------------------------------------------------------------------

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
    fk = deno.forked_stable_models(p, al)
    if jm != fk:
        return f"JM {_fmt(jm)} != fork SM {_fmt(fk)}"
    return None


def check_csm_equals_fork(p: Program) -> str | None:
    """Candidate stable models coincide with fork stable models."""
    al = p.atoms()
    cs = di.csm_models(p, al)
    fk = deno.forked_stable_models(p, al)
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
    fk = deno.forked_stable_models(p, al)
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


def check_sm_equals_equilibrium(p: Program) -> str | None:
    """Stable models are the equilibrium models of the program read as a
    formula, here by the fork engine on the formula's tree."""
    al = p.atoms()
    sm = ht.stable_models(p, al)
    eq = deno.fork_stable_models(p.to_formula(), al)
    if sm != eq:
        return f"equilibrium models {_fmt(eq)} != SM {_fmt(sm)}"
    return None


def check_roundtrip(p: Program) -> str | None:
    """Rendering then parsing reproduces the program."""
    back = parse_program(render_program(p))
    if back != p:
        return "parse(render(p)) differs from p"
    return None


REFERENCE = {
    "th3": check_sm_subset_jm,
    "th4": check_jm_equals_fork,
    "th5": check_csm_equals_fork,
    "th7": check_csm_subset_ssm,
    "th8": check_spm_fixpoint,
    "cor1": check_fork_replacement,
    "ssm-sm": check_ssm_vs_sm,
    "ad": check_ad_sandwich,
    "sm-eq": check_sm_equals_equilibrium,
    "t1": check_t1,
    "t2": check_t2,
    "th1": check_pf_projection,
    "roundtrip": check_roundtrip,
    "ssm-min-strict": check_ssm_minimality_strict,
}


def outcome(fn, p):
    """The check's message, or the type and text of what it raised."""
    try:
        return fn(p)
    except Exception as exc:
        return type(exc), str(exc)


def outcomes(p, names):
    """Every named check on p, then every reference on p: the checks run
    back to back on one object, as the fuzz driver runs them."""
    got = {c: outcome(CHECKS[c][0], p) for c in names}
    want = {c: outcome(REFERENCE[c], p) for c in names}
    return got, want


SEED_SETS = [pytest.param(GenConfig(), 300, id="default"),
             pytest.param(GenConfig(atoms=6, rules=8), 100, id="atoms6-rules8")]
TH1_PROGRAMS = 50


def test_reference_covers_every_check():
    assert set(REFERENCE) == set(CHECKS)


@pytest.mark.parametrize("cfg, count", SEED_SETS)
def test_checks_match_the_reference(cfg, count):
    names = [c for c in REFERENCE if c != "th1"]
    failed = 0
    for seed in range(count):
        p = gen_program(replace(cfg, seed=seed))
        got, want = outcomes(p, names)
        assert got == want, seed
        failed += got["ssm-min-strict"] is not None
    # the strict minimality claim is known to fail, so messages are compared
    assert failed


@pytest.mark.parametrize("cfg, count", SEED_SETS)
def test_head_splitting_matches_the_reference(cfg, count):
    for seed in range(TH1_PROGRAMS):
        p = gen_program(replace(cfg, seed=seed))
        got, want = outcomes(p, ["th1"])
        assert got == want, seed


def test_context_families_are_the_seeded_ones_after_alphabet_switches():
    """The seeded random contexts are generated once per width and remapped
    per alphabet: each family ends with the contexts that generating them
    afresh gives, whichever families were built before."""
    def fresh(pool):
        rng = random.Random(checks.CONTEXT_SEED)
        return [checks._remap(gen_program(GenConfig(
                    atoms=min(len(pool), 6), rules=rng.randint(1, 2), max_head=2,
                    seed=rng.getrandbits(32))), pool) for _ in range(50)]

    for atoms in ["abc", "stuvwxyz", "ab", "abc", "pq", "stuvwxyz"]:
        pool = tuple(atoms)
        assert list(context_family(pool)[-50:]) == fresh(pool), atoms


def drop_last_bridge(translate):
    """A faulty pf: the translation less its last bridge rule."""
    def faulty(p: Program) -> Program:
        q = translate(p)
        bridges = [k for k, r in enumerate(q.rules)
                   if len(r.bpos) == 1 and min(r.bpos).startswith("__f")]
        if not bridges:
            return q
        return Program(q.rules[:bridges[-1]] + q.rules[bridges[-1] + 1:])
    return faulty


@pytest.mark.parametrize("cfg, count", [
    pytest.param(GenConfig(), 30, id="default"),
    pytest.param(GenConfig(atoms=3, rules=3, max_head=3), 60, id="atoms3-rules3-head3")])
def test_head_splitting_failures_match_the_reference(monkeypatch, cfg, count):
    """With pf losing a bridge rule th1 fails, on the bare program or only
    under a context; it must report the reference's first failure.  Only
    programs whose pf has at most 12 atoms, to keep the reference quick."""
    monkeypatch.setattr(deno, "pf_translate", drop_last_bridge(deno.pf_translate))
    failed = {"bare": 0, "context": 0}
    seed = checked = 0
    while checked < count:
        p = gen_program(replace(cfg, seed=seed))
        seed += 1
        if len(p.atoms() | deno.pf_translate(p).atoms()) > 12:
            continue
        checked += 1
        got, want = outcomes(p, ["th1"])
        assert got == want, seed - 1
        if got["th1"] is not None:
            failed["context" if got["th1"].startswith("context ") else "bare"] += 1
    assert failed["bare"] and failed["context"], failed


def test_translation_checks_read_the_source_semantics_from_the_memo(monkeypatch):
    """t1 and t2 take the source program's SM and CSM from the memo that
    the lattice checks filled, and the translation's from the same memo:
    a translation that leaves the program as it is adds nothing to
    compute."""
    calls = {"sm": 0, "csm": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ht, "stable_masks", counted("sm", ht.stable_masks))
    monkeypatch.setattr(di, "candidate_masks", counted("csm", di.candidate_masks))
    programs = [gen_program(GenConfig(seed=s)) for s in range(50)]
    kept_t1 = sum(di.eliminate_double_negation(p) is p for p in programs)
    kept_t2 = sum(di.disambiguate_head_sets(p) is p for p in programs)
    assert (kept_t1, kept_t2) == (16, 21)
    # th3 computes the source's SM; t1 the translation's, unless it is the
    # source
    assert run_fuzz(GenConfig(seed=0), 50, ("th3", "t1")).ok
    assert calls == {"sm": 100 - kept_t1, "csm": 0}
    calls["sm"] = 0
    # th5 computes the source's CSM; t2 the translation's, open and closed,
    # of which only the closed when the translation is the source
    assert run_fuzz(GenConfig(seed=0), 50, ("th5", "t2")).ok
    assert calls == {"sm": 0, "csm": 150 - kept_t2}


@pytest.mark.parametrize("cfg", [GenConfig(), GenConfig(atoms=6, rules=8)],
                         ids=["default", "atoms6-rules8"])
def test_passing_default_checks_decode_nothing(monkeypatch, cfg):
    """On passing programs the default checks compare masks and tables
    only: no mask is decoded, by a compile, the memo or the fork engine,
    and no witness object (a head selection, a chain of stages or the
    labelled program of a support graph) is built."""
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in [(ht.CompiledProgram, "unmask"), (ModelTables, "decode"),
                        (deno, "_decoded"),
                        (di, "HeadSelection"), (ssm, "SsmChain"),
                        (syntax.Program, "labelled")]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    report = run_fuzz(replace(cfg, seed=0), 50)
    assert report.ok and report.passes == 50 * len(DEFAULT_CHECKS)
    assert calls == {}


def test_the_forked_program_is_built_once_per_program(monkeypatch):
    """The fork semantics, cor1 and th1 compile the program's rules without
    a forked tree; th1 conjoins the fork with its contexts by one register
    operation each."""
    calls = 0
    original = syntax.forked

    def counted(p):
        nonlocal calls
        calls += 1
        return original(p)

    monkeypatch.setattr(syntax, "forked", counted)
    assert run_fuzz(GenConfig(seed=0), 50).ok
    assert calls == 0
    assert run_fuzz(GenConfig(seed=0), 10, ("cor1", "th4", "th1", "th5")).ok
    assert calls == 0



# The mask core of each enumerator, which compare.SEMANTICS calls and the
# public enumerator named by the id decodes, so that a double put there
# shows on the check side and on the reference side alike.
ENUMERATORS = [(ht, "classical_masks", "classical_models"),
               (ht, "stable_masks", "stable_models"),
               (deno, "forked_stable_masks", "forked_stable_models"),
               (justify, "justified_masks", "justified_models"),
               (justify, "supported_masks", "supported_models_graph"),
               (justify, "ad_supported_masks", "ad_supported_models"),
               (di, "candidate_masks", "candidate_stable_models"),
               (di, "supported_fixpoint_masks", "supported_models_fixpoint"),
               (ssm, "strongly_supported_masks", "strongly_supported_models")]


@pytest.mark.parametrize("module, name", [e[:2] for e in ENUMERATORS],
                         ids=[public for _, _, public in ENUMERATORS])
def test_checks_match_the_reference_on_a_faulty_enumerator(monkeypatch, module, name):
    """With one enumerator losing its first model, relations fail; the
    checks must then report the failures the reference reports."""
    names = [c for c in REFERENCE if c != "th1"]
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: original(*a, **k)[1:])
    failed = 0
    for seed in range(30):
        p = gen_program(GenConfig(seed=seed))
        got, want = outcomes(p, names)
        assert got == want, seed
        failed += sum(got[c] is not None for c in names if c != "ssm-min-strict")
    assert failed

def test_tables_decode_to_the_enumerators_models():
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed))
        m = model_tables(p)
        direct = {
            "classical": ht.classical_models(p),
            "sm": ht.stable_models(p),
            "fork": deno.fork_stable_models(forked(p), p.atoms()),
            "jm": justify.justified_models(p),
            "spm": justify.supported_models_graph(p),
            "ad": justify.ad_supported_models(p),
            "csm": di.csm_models(p),
            "csm-closed": di.csm_models(p, closed=True),
            "di": di.di_stable_models(p),
            "ssm": ssm.ssm_models(p),
            "spm-fixpoint": di.supported_models_fixpoint(p),
            "sm-formula": deno.fork_stable_models(p.to_formula(), p.atoms()),
        }
        assert set(direct) == set(SEMANTICS)
        for name, models in direct.items():
            assert m.models(name) == models, (seed, name)


def test_lattice_names_known_semantics_and_checks():
    for lhs, rhs, users in INCLUSION_EDGES:
        assert lhs in SEMANTICS and rhs in SEMANTICS
        assert all(u == "models" or u in CHECKS for u in users)
    shown = [(lhs, rhs) for lhs, rhs, users in INCLUSION_EDGES if "models" in users]
    assert len(shown) == 21
    assert all(s in SEMANTICS_ORDER for edge in shown for s in edge)


# ---------------------------------------------------------------------------
# Isolation of the one-program memo
# ---------------------------------------------------------------------------

# Two programs over the same atoms with different semantics, so that tables
# served for the wrong one would show.
A = parse_program("a | b. c :- a, not b. :- c, b.")
B = parse_program("a | b. c :- b. a :- not c.")


def test_checks_on_a_then_b_then_a():
    names = [c for c in REFERENCE if c != "th1"]
    assert A.atoms() == B.atoms()
    assert ht.stable_models(A) != ht.stable_models(B)
    for p in (A, B, A):
        got, want = outcomes(p, names)
        assert got == want
        assert model_tables(p).models("sm") == ht.stable_models(p)


def test_a_wider_alphabet_is_computed_afresh():
    for c in REFERENCE:
        CHECKS[c][0](A)
    wide = A.atoms() | {"z"}
    after = compute_report(A, atoms=wide).to_json_dict()
    fresh = compute_report(parse_program(render_program(A)), atoms=wide).to_json_dict()
    after.pop("timings")
    fresh.pop("timings")
    assert after == fresh
    assert after["alphabet"] == ["a", "b", "c", "z"]
    assert ["b", "z"] in after["semantics"]["classical"]


def test_an_equal_program_is_a_new_memo():
    copy = parse_program(render_program(A))
    assert copy == A and copy is not A
    first = model_tables(A)
    assert model_tables(A) is first
    assert model_tables(copy) is not first
    assert model_tables(A) is not first


def test_a_filled_memo_leaves_the_program_unchanged():
    p = gen_program(GenConfig(seed=11))
    before = (hash(p), repr(p), render_program(p))
    copy = parse_program(render_program(p))
    for c in REFERENCE:
        CHECKS[c][0](p)
    compute_report(p)
    assert model_tables(p).tables
    assert (hash(p), repr(p), render_program(p)) == before
    assert p == copy and parse_program(render_program(p)) == p
