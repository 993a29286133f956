"""The lattice checks against the recomputing check bodies they replaced.

The checks of ``dlplab.checks`` read each semantics of a program from the
memo of ``dlplab.compare``.  The bodies below are the checks as they were
before it, each asking the public enumerators for its semantics; they are
the reference, and every check must give the same message, or raise the
same exception, on seeded programs.  The public enumerators read their
rows from the same memo, so a test double put on a mask core shows on
both sides, and the memo's rows themselves are compared with the tree
path of the fork engine and with the AST references of
``tests/test_tables.py`` (``test_tables_decode_to_the_enumerators_models``).
The remaining tests keep the one-program memo from leaking between
programs, alphabets and the program values themselves.
"""

from __future__ import annotations

import random
import re
from dataclasses import replace

import pytest

from dlplab import checks, cli, di, ht, justify, parser, ssm, syntax
from dlplab import forks as deno
from dlplab.checks import CHECKS, DEFAULT_CHECKS, context_family, run_fuzz
from dlplab.compare import (CLASS_CLAIMS, CLASSES, INCLUSION_EDGES, PRESERVES,
                            SEMANTICS, SEMANTICS_ORDER, TRANSFORMS, ModelTables,
                            compute_report, model_tables)
from dlplab.gen import GenConfig, gen_program
from dlplab.parser import parse_program, render_program
from dlplab.syntax import Program, fork_and, forked

from test_sweeps import per_context
from test_tables import Ref


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


def swept_per_alphabet(p: Program) -> str | None:
    """th1 on sweeps built directly from the family over p's own alphabet,
    with no renaming."""
    al = p.atoms()
    contexts = context_family(al)
    pf = deno.pf_translate(p)
    lhs = ht.stable_masks_in_contexts(pf, ht.ContextRules(contexts), pf.atoms() | al, al)
    rhs = deno.forked_masks_in_contexts(p, deno.ContextRegisters(contexts, al))
    lhs, rhs = (per_context(found, len(contexts) + 1) for found in (lhs, rhs))
    for k, (sm, fork_sm) in enumerate(zip(lhs, rhs)):
        if set(sm) != set(fork_sm):
            sm, fork_sm = deno._decoded(sorted(al), sm), deno._decoded(sorted(al), fork_sm)
            shown = f"projected SM {_fmt(sm)} != fork SM {_fmt(fork_sm)}"
            return shown if k == 0 else f"context {render_program(contexts[k - 1])!r}: {shown}"
    return None


# Alphabets renaming a, b, c: upper case sorts before pf's __f atoms, lower
# case after them, and the order of the names need not be a, b, c's.
RENAMED_ALPHABETS = ["ABC", "zyx", "qAm", "bca"]
_WORDS = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")


@pytest.mark.parametrize("faulty", [False, True], ids=["pf", "pf-without-a-bridge"])
def test_th1_on_renamed_alphabets_matches_sweeps_over_the_alphabet(monkeypatch, faulty):
    """th1 renames a program onto the canonical names of its width and
    sweeps that width's family; its verdicts and messages are those of
    sweeps over the family of the program's own alphabet, and a failure
    names the program's own atoms only."""
    if faulty:
        monkeypatch.setattr(deno, "pf_translate", drop_last_bridge(deno.pf_translate))
    failed = {"bare": 0, "context": 0}
    for seed in range(40):
        source = gen_program(GenConfig(atoms=3, rules=3, max_head=3, seed=seed))
        for names in RENAMED_ALPHABETS:
            p = checks._remap(source, names)
            got = CHECKS["th1"][0](p)
            assert got == swept_per_alphabet(p), (seed, names)
            if got is not None:
                failed["context" if got.startswith("context ") else "bare"] += 1
                words = set(_WORDS.findall(got.replace("\\n", " ")))
                words -= {"context", "projected", "SM", "fork", "not"}
                assert words <= set(names), (seed, names, got)
    assert all(failed.values()) if faulty else not any(failed.values()), failed


def test_th1_builds_one_family_per_width(monkeypatch):
    """Programs on different alphabets of one width share one family, and
    at most FAMILY_WIDTHS families are kept."""
    built = []

    def make(pool):
        built.append(pool)
        return make_family(pool)

    make_family = checks._make_family
    monkeypatch.setattr(checks, "_make_family", make)
    checks._family_of.cache_clear()
    try:
        for names in ["abc", "xyz", "ABC", "ab", "pq", "bc", "Q", "c", "abc", "Qq"]:
            assert CHECKS["th1"][0](parse_program(" | ".join(names) + ".")) is None
        assert built == [("a", "b", "c"), ("a", "b"), ("a",)]
        for width in range(checks.FAMILY_WIDTHS + 2):
            CHECKS["th1"][0](parse_program("".join(f"x{i}." for i in range(width))))
        assert checks._family_of.cache_info().currsize == checks.FAMILY_WIDTHS
    finally:
        checks._family_of.cache_clear()


def test_a_family_renamed_is_the_family_of_the_alphabet():
    """The canonical names sort in index order at every width, so the
    family of a width renamed onto an alphabet in order is the family of
    that alphabet, which th1's messages render."""
    names = checks.CANONICAL_ATOMS
    assert len(set(names)) == ht.MAX_ENUM_ATOMS and list(names) == sorted(names)
    assert not any(map(parser.atom_problem, names))
    for atoms in ["", "Q", "ABC", "bca", "stuvwxyz"]:
        pool = tuple(sorted(atoms))
        family = checks._family_of(len(pool)).contexts
        assert tuple(checks._remap(c, pool, names) for c in family) == context_family(pool)
    # The seeded random contexts are over the first names already, so each
    # family holds them as they were generated, not renamed copies.
    family = checks._family_of(3).contexts
    assert all(any(c is d for d in family) for c in checks._random_contexts(3))


def dropping_one_bit(sweep, bit):
    """A faulty sweep: the context bit left out of the context set of the
    least model holding it, whose entry goes when nothing is left."""
    def dropped(*args):
        found = sweep(*args)
        m = min(m for m, s in found.items() if s >> bit & 1)
        found[m] &= ~(1 << bit)
        if not found[m]:
            del found[m]
        return found
    return dropped


@pytest.mark.parametrize("module, name, bit, message", [
    pytest.param(deno, "forked_masks_in_contexts", 40,
                 "context 'z | y :- z, not y.\\nz | y :- x, not z.\\n': projected SM "
                 "{{y}, {x,y}, {x,z}} != fork SM {{x,y}, {x,z}}", id="fork-context"),
    pytest.param(ht, "stable_masks_in_contexts", 0,
                 "projected SM {{x,y}, {x,z}} != fork SM {{y}, {x,y}, {x,z}}",
                 id="ht-bare")])
def test_th1_names_the_first_context_the_sweeps_disagree_on(monkeypatch, module, name,
                                                           bit, message):
    """th1 compares the two sweeps' maps at once and decodes only the
    context of the lowest bit they differ in: bit 40, the family's context
    39 counted from 0, a seeded random one renamed onto the program's
    atoms, or bit 0, the program alone.  The messages are pinned as th1
    gave them when the sweeps returned one model list per context."""
    p = parse_program("x | y :- not z. z :- x, not y. y | z | x :- not not x.")
    assert CHECKS["th1"][0](p) is None
    monkeypatch.setattr(module, name, dropping_one_bit(getattr(module, name), bit))
    assert CHECKS["th1"][0](p) == message


def drop_rules(translate, dropped):
    """A faulty translation: its rules for which ``dropped`` holds left out."""
    return lambda p: Program(tuple(r for r in translate(p).rules if not dropped(r)))


def _fresh(r, prefix):
    """Whether the rule's head or positive body names a fresh atom."""
    return any(a.startswith(prefix) for a in r.head + tuple(r.bpos))


# Faulty t1 and t2 translations, each with the first words of the message of
# the row it fails.
FAULTY_TRANSLATIONS = [
    pytest.param("eliminate_double_negation",
                 lambda t: drop_rules(t, lambda r: _fresh(r, di.T1_PREFIX)),
                 "SM changed: ", id="t1-without-companions"),
    pytest.param("disambiguate_head_sets", lambda t: lambda p: p,
                 "closed CSM of the translation ", id="t2-identity"),
    pytest.param("disambiguate_head_sets",
                 lambda t: drop_rules(t, lambda r: not r.head and _fresh(r, di.T2_PREFIX)),
                 "open CSM changed: ", id="t2-without-constraints"),
]


@pytest.mark.parametrize("name, fault, message", FAULTY_TRANSLATIONS)
def test_translation_failures_match_the_reference(monkeypatch, name, fault, message):
    """With a faulty translation t1 or t2 fails, through the row of
    ``compare.PRESERVES`` that its fault breaks; each check must report
    the reference's message, and a row reading the wrong semantics would
    not."""
    monkeypatch.setattr(di, name, fault(getattr(di, name)))
    seen = 0
    for seed in range(300):
        p = gen_program(GenConfig(seed=seed))
        got, want = outcomes(p, ["t1", "t2"])
        assert got == want, seed
        seen += any(isinstance(m, str) and m.startswith(message) for m in got.values())
    assert seen, message


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
# public enumerator named by the id reads through the memo, so that a double
# put there shows on the check side and on the reference side alike.
ENUMERATORS = [(ht, "classical_masks", "classical_models"),
               (ht, "stable_masks", "stable_models"),
               (deno, "forked_stable_masks", "forked_stable_models"),
               (justify, "justified_masks", "justified_models"),
               (justify, "supported_masks", "supported_models_graph"),
               (justify, "ad_supported_masks", "ad_supported_models"),
               (di, "candidate_masks", "candidate_stable_models"),
               (di, "supported_fixpoint_masks", "supported_models_fixpoint"),
               (ssm, "strongly_supported_masks", "strongly_supported_models")]


# Programs of the classes the class claims assume, which the seeded programs
# seldom are: non-disjunctive ones, negation-free ones, and both.
CLASS_PROGRAMS = [parse_program(text) for text in (
    "a :- not b. b :- not a.",
    "a. b :- a. c :- b, not d.",
    "a :- not not a. b :- a.",
    "a | b. c :- a. c :- b.",
    "a | b :- c. c. a :- b. b :- a.",
    "a :- b. b :- a. c. d :- c.",
)]


@pytest.mark.parametrize("module, name", [e[:2] for e in ENUMERATORS],
                         ids=[public for _, _, public in ENUMERATORS])
def test_checks_match_the_reference_on_a_faulty_enumerator(monkeypatch, module, name):
    """With one enumerator losing its first model, relations fail; the
    checks must then report the failures the reference reports."""
    names = [c for c in REFERENCE if c != "th1"]
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: original(*a, **k)[1:])
    failed = 0
    programs = [gen_program(GenConfig(seed=seed)) for seed in range(30)]
    for p in programs + CLASS_PROGRAMS:
        got, want = outcomes(p, names)
        assert got == want, render_program(p)
        failed += sum(got[c] is not None for c in names if c != "ssm-min-strict")
    assert failed

def test_tables_decode_to_the_enumerators_models():
    """Every row of the memo, decoded, against an enumerator that reads no
    row: the fork engine on the forked tree and on the formula tree, and
    for the rest, which the public enumerators read, the AST references of
    ``tests/test_tables.py``, with minimality taken on atom sets."""
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed))
        ref = Ref(p)
        csm, closed = ([i for i, _ in ref.candidates(c)] for c in (False, True))
        chained = [i for i, _ in ref.chains()]
        direct = {
            "classical": ref.classical,
            "sm": ref.stable(),
            "fork": deno.fork_stable_models(forked(p), p.atoms()),
            "jm": [i for i, _ in ref.graph_witnesses(acyclic=True)],
            "spm": [i for i, _ in ref.graph_witnesses(acyclic=False)],
            "ad": ref.ad(),
            "csm": csm,
            "csm-closed": closed,
            "di": ssm.minimal_elements(closed),
            "ssm": chained,
            "ssm-min": ssm.minimal_elements(chained),
            "spm-fixpoint": ref.fixpoint(),
            "sm-formula": deno.fork_stable_models(p.to_formula(), p.atoms()),
        }
        assert set(direct) == set(SEMANTICS)
        m = model_tables(p)
        for name, models in direct.items():
            assert m.models(name) == models, (seed, name)


def test_lattice_names_known_semantics_and_checks():
    for lhs, rhs, users in INCLUSION_EDGES:
        assert lhs in SEMANTICS and rhs in SEMANTICS
        assert all(u == "models" or u in CHECKS for u in users)
    shown = [(lhs, rhs) for lhs, rhs, users in INCLUSION_EDGES if "models" in users]
    assert len(shown) == 21
    assert all(s in SEMANTICS_ORDER for edge in shown for s in edge)
    for check, cls, lhs, rhs in CLASS_CLAIMS:
        assert check in CHECKS and cls in CLASSES
        assert lhs in SEMANTICS and rhs in SEMANTICS
    met = dict.fromkeys(CLASSES, 0)
    for seed in range(300):
        p = gen_program(GenConfig(seed=seed))
        assert CLASSES["non-disjunctive"](p) == p.is_normal, seed
        negation_free = not any(r.bneg or r.bnegneg for r in p.rules)
        assert CLASSES["negation-free"](p) == negation_free, seed
        for cls, member in CLASSES.items():
            met[cls] += member(p)
    assert all(met.values()), met


def test_preserved_semantics_name_known_transforms_and_semantics():
    """Every row of PRESERVES names a check, a transformation and two
    semantics; the rows of one check share one transformation, which
    ``_lattice`` calls once; and translate offers every transformation."""
    transform_of = {}
    for check, transform, lhs, rhs, message in PRESERVES:
        assert check in CHECKS and transform in TRANSFORMS
        assert lhs in SEMANTICS and rhs in SEMANTICS
        assert "{0}" in message and "{1}" in message
        assert transform_of.setdefault(check, transform) == transform, check
    assert transform_of == {"t1": "t1", "t2": "t2"}
    [sub] = [a for a in cli.build_parser()._actions if a.dest == "command"]
    [passes] = [a for a in sub.choices["translate"]._actions if a.dest == "pass_name"]
    assert passes.choices == sorted(TRANSFORMS) == ["pf", "t1", "t2"]


def test_the_smallest_refutation_of_unconditional_minimality():
    """a :- not not a. has the stable models {} and {a}, and {} is its only
    minimal strongly supported model; it is neither negation-free nor
    disjunctive, so every default check passes on it."""
    p = parse_program("a :- not not a.")
    assert CHECKS["ssm-min-strict"][0](p) == "minimal SSM {{}} != SM {{}, {a}}"
    assert {c: CHECKS[c][0](p) for c in DEFAULT_CHECKS} == dict.fromkeys(DEFAULT_CHECKS)


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
    assert ("b", "z") in after["semantics"]["classical"]


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
