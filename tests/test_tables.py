"""The truth-table enumerators against the per-interpretation code they
replaced, which ``tests/reference.py`` keeps as ``Ref``: model lists must
agree exactly, and so must first witnesses, except chains, which must
agree as ``assert_chains_match`` says.  The families are seeded programs
of four generator configurations, and the cyclic family for chains."""

import pytest

from dlplab import di, justify
from dlplab.compare import model_tables
from dlplab.forks import pf_translate
from dlplab.gen import GenConfig, gen_program
from dlplab.ht import (CompiledProgram, classical_models, is_stable_model,
                       sort_models, stable_models)
from dlplab.syntax import ExtendedRule, Program

from reference import Ref, assert_chains_match, ref_is_stable_model


FAMILIES = {
    "default": [gen_program(GenConfig(seed=s)) for s in range(300)],
    "six-atoms": [gen_program(GenConfig(atoms=6, rules=8, seed=s))
                  for s in range(100)],
    # pf widens these to as many as 12 atoms
    "pf": [pf_translate(gen_program(GenConfig(atoms=3, rules=3, max_head=3,
                                              seed=s)))
           for s in range(100)],
    # rules sharing a head set, where a closed selection differs from an
    # open one and the closed search regroups them
    "shared-heads": [gen_program(GenConfig(atoms=5, rules=8, p_dup_head=0.6, seed=s))
                     for s in range(100)],
}


def test_pf_family_reaches_width_12():
    assert max(len(p.atoms()) for p in FAMILIES["pf"]) == 12


def test_shared_heads_family_has_fewer_closed_candidates():
    assert sum(model_tables(p).models("csm-closed") != model_tables(p).models("csm")
               for p in FAMILIES["shared-heads"]) == 50


def first_labels(graphs):
    return dict(next(iter(graphs)).labels)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_tables_match_reference(family):
    for seed, p in enumerate(FAMILIES[family]):
        ref = Ref(p)
        al = ref.atoms
        case = (family, seed)
        assert classical_models(p, al) == ref.classical, case
        assert stable_models(p, al) == ref.stable(), case
        if family != "pf":  # there is_stable is covered through stable_models
            for i in ref.classical:
                assert is_stable_model(p, i) == ref_is_stable_model(p, i), case
        assert justify.ad_supported_models(p, al) == ref.ad(), case
        for closed in (False, True):
            assert di.candidate_stable_models(p, al, closed) \
                == ref.candidates(closed), (case, closed)
        assert di.supported_models_fixpoint(p, al) == ref.fixpoint(), case
        jm = ref.graph_witnesses(acyclic=True)
        assert justify.justified_models(p, al) == [i for i, _ in jm], case
        assert [(i, first_labels(justify.explanations(p, i)))
                for i, _ in jm] == jm, case
        spm = ref.graph_witnesses(acyclic=False)
        assert justify.supported_models_graph(p, al) == [i for i, _ in spm], case
        assert [(i, first_labels(justify.support_graphs_of(p, i)))
                for i, _ in spm] == spm, case
        assert_chains_match(p, al, ref, case)


def cyclic(n):
    """x_i | x_{i+1} :- not x_{i+2}, indices mod n, built without the parser
    and with unpadded names.  From n = 11 the sorted alphabet is then not
    in index order (x10 sorts between x1 and x2), an atom order that the
    zero-padded ``families.cyclic`` never gives, so this copy stays."""
    return Program(tuple(ExtendedRule((f"x{i}", f"x{(i + 1) % n}"), (),
                                      (f"x{(i + 2) % n}",))
                         for i in range(n)))


@pytest.mark.parametrize("n", range(3, 13))
def test_chains_match_reference_on_cyclic_family(n):
    p = cyclic(n)
    ref = Ref(p)
    assert_chains_match(p, ref.atoms, ref, ("cyclic", n))


def test_selections_match_reference():
    for p in FAMILIES["default"][:100] + FAMILIES["six-atoms"][:30]:
        ref = Ref(p)
        for i in ref.classical:
            for closed in (False, True):
                assert list(di.selections(p, i, closed)) \
                    == list(ref.selections(i, closed))


def test_tables_count_atoms_outside_the_program():
    p = gen_program(GenConfig(seed=3))
    al = p.atoms() | {"zz"}
    cp = CompiledProgram(p, al)
    wide = sort_models(cp.unmask(t) for t in range(cp.full + 1)
                       if cp.sat_classical(t))
    assert classical_models(p, al) == wide
    assert len(wide) == 2 * len(classical_models(p))
    assert stable_models(p, al) == stable_models(p)
