import pytest

from dlplab.di import (HeadSelection, NonNormalProgramError, SelectionError,
                       candidate_stable_models, csm_models, di_stable_models,
                       disambiguate_head_sets, eliminate_double_negation,
                       immediate_consequences, reduct, selections,
                       supported_models_fixpoint)
from dlplab.forks import project_models
from dlplab.gen import GenConfig, gen_program
from dlplab.ht import classical_models, classical_sat, stable_models
from dlplab.justify import supported_models_graph
from dlplab.parser import parse_program, render_program
from dlplab.syntax import Program, rule

P7 = parse_program("p.  :- c.  a | b.  b | a :- p.")


def test_selection_counts_open_vs_closed():
    i = frozenset("pab")
    assert len(list(selections(P7, i))) == 4
    assert len(list(selections(P7, i, closed=True))) == 2


def test_closed_selection_groups_by_head_set():
    i = frozenset("pab")
    for sel in selections(P7, i, closed=True):
        m = sel.mapping
        assert m[2] == m[3]


def test_normal_program_has_exactly_one_selection():
    p = parse_program("a. b :- a. :- c.")
    i = frozenset("ab")
    sels = list(selections(p, i))
    assert len(sels) == 1
    assert sels[0].mapping == {0: "a", 1: "b"}


def test_untriggered_rules_not_enumerated():
    p = parse_program("a | b :- c.")
    sels = list(selections(p, frozenset()))
    assert sels == [HeadSelection(())]
    assert reduct(p, frozenset(), sels[0]) == Program(())


def test_reduct_deduplicates():
    p1 = parse_program("a | b. a | c.")
    sel = HeadSelection(((0, "a"), (1, "a")))
    assert reduct(p1, frozenset("a"), sel) == Program((rule(head=("a",)),))


def test_reduct_example_negative_loop():
    # the negative-loop rule has body "not b", which fails in {a,b}, so it
    # never reaches the reduct
    p5 = parse_program("a | b. a. b :- not b.")
    sel = HeadSelection(((0, "b"), (1, "a")))
    r = reduct(p5, frozenset("ab"), sel)
    assert r == parse_program("b. a.")


def test_reduct_empty_when_nothing_triggers():
    p6 = parse_program("p :- p.")
    sel = next(selections(p6, frozenset()))
    assert reduct(p6, frozenset(), sel) == Program(())


def test_reduct_rejects_bad_selection():
    p1 = parse_program("a | b. a | c.")
    with pytest.raises(SelectionError):
        reduct(p1, frozenset("a"), HeadSelection(((0, "b"), (1, "a"))))
    with pytest.raises(SelectionError):
        reduct(p1, frozenset("a"), HeadSelection(((0, "a"),)))


def test_candidate_stable_models_example():
    assert csm_models(P7) == [frozenset("ap"), frozenset("bp"),
                              frozenset("abp")]
    assert csm_models(P7, closed=True) == [frozenset("ap"), frozenset("bp")]


def test_candidate_witnesses_are_valid():
    for m, sel in candidate_stable_models(P7):
        r = reduct(P7, m, sel)
        assert classical_sat(m, r)


def test_closed_membership_is_syntax_sensitive():
    variant = parse_program("p.  :- c.  a | b.  b | a | c :- p.")
    assert csm_models(variant) == csm_models(P7)
    assert frozenset("abp") in csm_models(variant, closed=True)


def test_di_stable_models():
    assert di_stable_models(P7) == [frozenset("ap"), frozenset("bp")]
    p1 = parse_program("a | b. a | c.")
    assert di_stable_models(p1) == stable_models(p1)


def test_csm_equals_stable_for_normal_programs():
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed, max_head=1))
        assert csm_models(p) == stable_models(p), seed
        assert csm_models(p, closed=True) == stable_models(p), seed


def test_di_minimises_stable_models_for_normal_programs():
    # with double negation allowed, stable models of a normal program need
    # not be an antichain, so the DI minimality step can prune; without it
    # the two sets coincide
    from dlplab.ssm import minimal_elements
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed, max_head=1))
        assert di_stable_models(p) == minimal_elements(stable_models(p)), seed
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed, max_head=1, p_negneg=0.0))
        assert di_stable_models(p) == stable_models(p), seed


def test_closed_candidates_within_open_ones():
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed))
        assert set(csm_models(p, closed=True)) <= set(csm_models(p)), seed


def test_immediate_consequences():
    p6 = parse_program("p :- p.")
    assert immediate_consequences(p6, {"p"}) == {"p"}
    p = parse_program("a. b :- a.")
    assert immediate_consequences(p, set()) == {"a"}
    with pytest.raises(NonNormalProgramError):
        immediate_consequences(parse_program("a | b."), set())


def test_supported_fixpoint_example():
    p4 = parse_program("a | b. a | c.")
    assert supported_models_fixpoint(p4) \
        == [frozenset("a"), frozenset("ab"), frozenset("ac"), frozenset("bc")]


def test_supported_fixpoint_matches_graphs():
    for seed in range(150):
        p = gen_program(GenConfig(seed=seed))
        assert supported_models_fixpoint(p) == supported_models_graph(p), seed


def test_eliminate_double_negation_shape():
    p = parse_program("p :- not not q.")
    q = eliminate_double_negation(p)
    assert render_program(q) == "p :- not __t1_q.\n__t1_q :- not q.\n"
    clean = parse_program("a :- b, not c.")
    assert eliminate_double_negation(clean) == clean


def test_eliminate_double_negation_one_aux_per_atom():
    p = parse_program("a :- not not q. b :- not not q, not not r.")
    q = eliminate_double_negation(p)
    aux = {a for a in q.atoms() if a.startswith("__t1_")}
    assert aux == {"__t1_q", "__t1_r"}


def test_eliminate_double_negation_preserves_stable_models():
    for seed in range(200):
        p = gen_program(GenConfig(seed=seed))
        q = eliminate_double_negation(p)
        al = p.atoms()
        assert stable_models(p, al) \
            == project_models(stable_models(q, q.atoms() | al), al), seed


def test_disambiguate_head_sets_shape():
    q = disambiguate_head_sets(P7)
    assert render_program(q) == ("p.\n:- c.\na | b.\nb | a | __t2_4 :- p.\n"
                                 ":- __t2_4.\n")
    distinct = parse_program("a | b. a | c. d.")
    assert disambiguate_head_sets(distinct) == distinct


def test_disambiguate_head_sets_makes_closed_equal_open():
    for seed in range(200):
        p = gen_program(GenConfig(seed=seed))
        q = disambiguate_head_sets(p)
        al = p.atoms()
        heads = [r.head_set for r in q.rules if len(r.head_set) > 1]
        assert len(heads) == len(set(heads)), seed
        open_csm = csm_models(p, al)
        assert open_csm == project_models(csm_models(q, q.atoms() | al), al), seed
        assert open_csm == project_models(
            csm_models(q, q.atoms() | al, closed=True), al), seed


def test_selection_never_picks_falsum_on_models():
    for seed in range(60):
        p = gen_program(GenConfig(seed=seed))
        for i in classical_models(p):
            for sel in selections(p, i):
                assert all(a is not None for _, a in sel.choices)
                break


def test_selection_search_is_not_bounded_by_recursion_depth():
    # one choice point per triggered rule, more than the interpreter's
    # default recursion limit; {a,b} needs b chosen at the last one
    p = Program((rule(head=("a", "b")),) * 1500)
    pairs = candidate_stable_models(p)
    assert [m for m, _ in pairs] == [frozenset("a"), frozenset("b"),
                                     frozenset("ab")]
    assert pairs[-1][1].choices[-2:] == ((1498, "a"), (1499, "b"))
    assert supported_models_fixpoint(p) == [m for m, _ in pairs]
