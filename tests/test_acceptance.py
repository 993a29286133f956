"""Acceptance suite: the worked examples, the theorem fuzz battery, the
translation preservation checks and the parser round trip.

Every criterion asserts exact set equality (no tolerances anywhere) and
prints one line so a -s run reads as a checklist.
"""

import random

from dlplab.checks import (CHECKS, DEFAULT_CHECKS, check_pf_projection,
                           run_fuzz)
from dlplab.compare import model_tables
from dlplab.forks import (Support, View, denotation, fork_stable_models,
                          ideal, support_of_formula)
from dlplab.gen import GenConfig, gen_fork, gen_formula, gen_program
from dlplab.ht import classical_models, ht_sat, stable_models, subsets
from dlplab.justify import (justified_models, support_graphs_of,
                            supported_models_graph, ad_supported_models)
from dlplab.parser import parse_fork, parse_program, render
from dlplab.syntax import ForkPair, fork_and, forked

P1 = parse_program("a | b.  a | c.")
P5 = parse_program("a | b.  a.  b :- not b.")
P6 = parse_program("p :- p.")
P7 = parse_program("p.  :- c.  a | b.  b | a :- p.")


def m(*names):
    return [frozenset(n) for n in names]


def report(line):
    print(line)


def test_criterion_1_two_disjunctions():
    fork = fork_stable_models(forked(P1))
    assert stable_models(P1) == m("a", "bc")
    assert fork == m("a", "ab", "ac", "bc")
    assert justified_models(P1) == fork
    assert model_tables(P1).models("csm") == fork
    assert model_tables(P1).models("ssm") == classical_models(P1) \
        == m("a", "ab", "ac", "bc", "abc")
    assert ad_supported_models(P1) == m("a", "bc")
    assert supported_models_graph(P1) == justified_models(P1)
    report("criterion 1: PASS (two-disjunction program, all semantics)")


def test_criterion_2_negative_loop_program():
    assert stable_models(P5) == []
    expected = m("ab")
    assert fork_stable_models(forked(P5)) == expected
    assert justified_models(P5) == expected
    assert model_tables(P5).models("csm") == expected
    report("criterion 2: PASS (negative loop regains coherence under forks)")


def test_criterion_3_open_vs_closed_candidates():
    assert model_tables(P7).models("csm") == m("ap", "bp", "abp")
    assert model_tables(P7).models("csm-closed") == m("ap", "bp")
    assert model_tables(P7).models("di") == m("ap", "bp")
    variant = parse_program("p.  :- c.  a | b.  b | a | c :- p.")
    assert model_tables(variant).models("csm") == m("ap", "bp", "abp")
    assert frozenset("abp") in model_tables(variant).models("csm-closed")
    report("criterion 3: PASS (open/closed candidates and the minimality step)")


def test_criterion_4_positive_loop_program():
    assert supported_models_graph(P6) == m("", "p")
    assert justified_models(P6) == m("")
    assert stable_models(P6) == m("")
    assert model_tables(P6).models("ssm") == m("")
    loops = support_graphs_of(P6, {"p"})
    assert len(loops) == 1 and loops[0].edges == {("p", "p")}
    report("criterion 4: PASS (positive loop; self-loop support graph)")


def test_criterion_5_theorem_battery():
    fuzz = run_fuzz(GenConfig(seed=0), 1000, DEFAULT_CHECKS)
    assert fuzz.ok, fuzz.summary()
    report(f"criterion 5: PASS ({fuzz.passes} checks over 1000 programs, "
           f"{fuzz.elapsed:.1f}s)")


def test_criterion_5_note_unconditional_minimality_is_a_defect():
    # The acceptance list also names the bare minimality claim.  Two other
    # pinned results refute it jointly: the negative loop program has
    # candidate stable models but no stable model (criterion 2), and every
    # candidate is strongly supported (criterion 5), so the minimal
    # strongly supported models cannot always equal the stable models.
    # The claim is therefore checked in restricted form inside the battery
    # (negation-free programs) and its strict form is kept as a registry
    # entry that demonstrably fails.
    strict = CHECKS["ssm-min-strict"][0]
    assert strict(P5) is not None
    failing = run_fuzz(GenConfig(seed=0), 200, ("ssm-min-strict",),
                       max_failures=1)
    assert not failing.ok
    report("criterion 5 note: unconditional minimal-SSM sub-check fails as "
           "stated (documented spec defect); restricted form passes")


def test_criterion_6_head_splitting_modulo_alphabet():
    for seed in range(200):
        p = gen_program(GenConfig(seed=seed, atoms=3, rules=3, max_head=2))
        assert check_pf_projection(p) is None, seed
    report("criterion 6: PASS (200 programs, projection + context family)")


def test_criterion_7_denotation_algebra():
    rng = random.Random(2024)
    for case in range(500):
        atoms = ("a", "b") if case % 2 else ("a", "b", "c")
        f = gen_fork(rng, atoms, 3)
        g = gen_fork(rng, atoms, 3)
        l = gen_fork(rng, atoms, 3)
        for t in subsets(atoms):
            left = denotation(ForkPair(ForkPair(f, g), l), t)
            right = denotation(ForkPair(f, ForkPair(g, l)), t)
            assert left == right, ("associativity", case)
            left = denotation(fork_and(ForkPair(f, g), l), t)
            right = denotation(ForkPair(fork_and(f, l), fork_and(g, l)), t)
            assert left == right, ("distributivity", case)
            v = denotation(f, t)
            assert View.closed(v.base, v.gens) == v, ("idempotence", case)
        union = set(fork_stable_models(f, atoms)) | set(fork_stable_models(g, atoms))
        assert set(fork_stable_models(ForkPair(f, g), atoms)) == union, case
        phi = gen_formula(rng, atoms, 3)
        for t in subsets(atoms):
            view = ideal(support_of_formula(phi, t))
            assert not view.contains(Support.empty(t)), ("empty support", case)
            for h in subsets(t):
                if ht_sat(h, t, phi):
                    assert ht_sat(t, t, phi), ("persistence", case)
    report("criterion 7: PASS (500 cases: associativity, distributivity, "
           "union of stable models, idempotence, persistence)")


def test_criterion_8_translations_preserve_model_sets():
    from dlplab.checks import CHECKS
    check_t1, check_t2 = CHECKS["t1"][0], CHECKS["t2"][0]
    for seed in range(500):
        p = gen_program(GenConfig(seed=seed))
        assert check_t1(p) is None, seed
        assert check_t2(p) is None, seed
    report("criterion 8: PASS (500 programs, double negation removal and "
           "head disambiguation)")


def test_criterion_9_parser_round_trip():
    for seed in range(1000):
        p = gen_program(GenConfig(seed=seed))
        assert parse_program(render(p)) == p, seed
    for seed in range(500):
        f = gen_fork(random.Random(seed), ("a", "b", "c"), 3)
        assert parse_fork(render(f)) == f, seed
    report("criterion 9: PASS (1000 program and 500 fork round trips)")
