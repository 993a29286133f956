import random

import pytest

from dlplab.compare import model_tables
from dlplab.gen import GenConfig, gen_program
from dlplab.ht import (CompiledProgram, classical_models, in_model_order,
                       stable_models, subsets)
from dlplab.parser import parse_program
from dlplab.ssm import (NonMonotoneChainError, SsmChain, check_chain,
                        minimal_elements, minimal_masks,
                        strongly_supported_models)

from reference import Ref, assert_chains_match, submasks

P1 = parse_program("a | b. a | c.")
P6 = parse_program("p :- p.")


def chain(target, *stages):
    return SsmChain(tuple(frozenset(s) for s in stages), frozenset(target))


def test_chain_must_be_monotone_and_end_at_target():
    with pytest.raises(NonMonotoneChainError):
        chain("ab", "a", "b")
    with pytest.raises(NonMonotoneChainError):
        chain("ab", "a")
    with pytest.raises(NonMonotoneChainError):
        SsmChain((), frozenset())


def test_check_chain_single_stage_on_disjunctions():
    assert check_chain(chain("abc", "abc"), P1)


def test_check_chain_reports_missed_head():
    verdict = check_chain(chain("abc", "b", "abc"), P1)
    assert not verdict
    assert "misses the head" in verdict.reason


def test_check_chain_reports_unlicensed_atom():
    p = parse_program("p :- q. q.")
    verdict = check_chain(chain("pq", "pq"), p)
    assert not verdict
    assert "not licensed" in verdict.reason
    assert check_chain(chain("pq", "q", "pq"), p)


def test_check_chain_on_unreachable_model():
    verdict = check_chain(chain("p", "p"), P6)
    assert not verdict
    assert "not licensed" in verdict.reason


def test_check_chain_rejects_non_model():
    with pytest.raises(ValueError):
        check_chain(chain("a", "a"), parse_program("a. b."))


def test_empty_program_empty_chain():
    assert check_chain(chain("", ""), parse_program(""))


def test_ssm_examples():
    assert model_tables(P1).models("ssm") == classical_models(P1)
    assert model_tables(P6).models("ssm") == [frozenset()]
    p5 = parse_program("a | b. a. b :- not b.")
    assert model_tables(p5).models("ssm") == [frozenset("ab")]


def test_ssm_equals_classical_for_sets_of_disjunctions():
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed, max_body=0, p_constraint=0.0))
        assert model_tables(p).models("ssm") == classical_models(p), seed


def test_ssm_equals_stable_for_non_disjunctive():
    for seed in range(150):
        p = gen_program(GenConfig(seed=seed, max_head=1))
        assert model_tables(p).models("ssm") == stable_models(p), seed


def test_candidates_are_strongly_supported():
    for seed in range(150):
        p = gen_program(GenConfig(seed=seed))
        m = model_tables(p)
        assert set(m.models("csm")) <= set(m.models("ssm")), seed


def test_witness_chains_verify_and_grow_strictly():
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed))
        for model, ch in strongly_supported_models(p):
            assert check_chain(ch, p)
            assert ch.stages[-1] == model
            for lo, hi in zip(ch.stages, ch.stages[1:]):
                assert lo < hi


def test_search_matches_naive_chain_enumeration():
    for seed in range(60):
        p = gen_program(GenConfig(seed=seed, atoms=3, rules=4))
        ref = Ref(p)
        assert_chains_match(p, ref.atoms, ref, seed)


def monotone_sequences(t, max_len):
    pool = list(subsets(t))
    out = []

    def extend(prefix):
        if prefix and prefix[-1] == frozenset(t):
            out.append(tuple(prefix))
        if len(prefix) == max_len:
            return
        for step in pool:
            if not prefix or prefix[-1] <= step:
                extend(prefix + [step])

    extend([])
    return out


def destutter(stages):
    kept = [stages[0]]
    for s in stages[1:]:
        if s != kept[-1]:
            kept.append(s)
    return tuple(kept)


def test_destuttering_preserves_validity():
    # chains may repeat stages, but dropping the repetitions keeps them
    # valid; and the witness, the chain of maximal stages, contains every
    # valid chain stage by stage, which is why it is found whenever any is
    assert check_chain(chain("abc", "a", "a", "abc"), P1)
    for seed in range(25):
        p = gen_program(GenConfig(seed=seed, atoms=3, rules=3))
        witness = dict(strongly_supported_models(p))
        for t in classical_models(p):
            for stages in monotone_sequences(t, len(t) + 2):
                ch = SsmChain(stages, t)
                if check_chain(ch, p):
                    assert check_chain(SsmChain(destutter(stages), t), p)
                    assert t in witness, (seed, stages)
                    greedy = witness[t].stages
                    for i, stage in enumerate(stages):
                        assert stage <= greedy[min(i, len(greedy) - 1)], \
                            (seed, stages)


def test_applicability_monotone_in_lower_component():
    # a rule applicable at (h1, t) stays applicable at any h2 between h1 and t
    for seed in range(60):
        p = gen_program(GenConfig(seed=seed, atoms=3))
        cp = CompiledProgram(p)
        for t in range(cp.full + 1):
            for h2 in submasks(t):
                for h1 in submasks(h2):
                    assert set(cp.fired(t, h1)) <= set(cp.fired(t, h2))


def test_minimal_elements():
    assert minimal_elements(model_tables(P1).models("ssm")) == stable_models(P1)
    assert minimal_elements([frozenset("a")]) == [frozenset("a")]
    p7 = parse_program("p.  :- c.  a | b.  b | a :- p.")
    m = model_tables(p7)
    assert minimal_elements(m.models("csm-closed")) == m.models("di")


def test_minimal_masks_match_minimal_elements():
    """The mask filter keeps the members minimal_elements keeps, in the
    order of sort_models when the masks come in it."""
    def named(masks):
        return [frozenset(a for i, a in enumerate("abcdef") if t >> i & 1)
                for t in masks]

    rng = random.Random(5)
    for _ in range(300):
        masks = rng.sample(range(64), rng.randint(0, 20))
        want = minimal_elements(named(masks))
        assert set(named(minimal_masks(masks))) == set(want)
        assert named(minimal_masks(in_model_order(masks))) == want


def test_minimality_link_holds_without_negation():
    for seed in range(150):
        p = gen_program(GenConfig(seed=seed, p_neg=0.0, p_negneg=0.0))
        assert minimal_elements(model_tables(p).models("ssm")) == stable_models(p), seed


def test_unconditional_minimality_link_is_refuted():
    # candidates are always strongly supported, and the negative-loop
    # program has a candidate but no stable model, so the minimal strongly
    # supported models cannot match the stable models in general
    p5 = parse_program("a | b. a. b :- not b.")
    assert model_tables(p5).models("csm") == [frozenset("ab")]
    assert stable_models(p5) == []
    assert model_tables(p5).models("ssm") == [frozenset("ab")]
    assert minimal_elements(model_tables(p5).models("ssm")) != stable_models(p5)
