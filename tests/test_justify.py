import itertools

import pytest

from dlplab import ht, justify
from dlplab.gen import GenConfig, gen_program
from dlplab.ht import classical_models, classical_sat, stable_models
from dlplab.justify import (ModelMismatchError, SupportGraph,
                            ad_supported_models, check_support_graph,
                            explanations_of, justified_masks,
                            justified_models, node_forget, support_graphs_of,
                            supported_masks, supported_models_graph, to_dot)
from dlplab.parser import parse_program


P4 = parse_program("l1: a | b.\nl2: a | c.")
P6 = parse_program("l1: p :- p.")


def graph(vertices, edges, labels):
    return SupportGraph.of(vertices, edges, labels)


def test_check_support_graph_valid_acyclic():
    g = graph({"a", "c"}, set(), {"a": "l1", "c": "l2"})
    assert check_support_graph(g, P4, {"a", "c"}).kind == "valid-acyclic"


def test_check_support_graph_self_loop_is_cyclic():
    g = graph({"p"}, {("p", "p")}, {"p": "l1"})
    assert check_support_graph(g, P6, {"p"}).kind == "valid-cyclic"


def test_check_support_graph_needs_enough_rules():
    g = graph({"a", "b", "c"}, set(), {"a": "l1", "b": "l2", "c": "l1"})
    verdict = check_support_graph(g, P4, {"a", "b", "c"})
    assert verdict.kind == "invalid"


def test_check_support_graph_model_mismatch():
    g = graph({"a"}, set(), {"a": "l1"})
    with pytest.raises(ModelMismatchError):
        check_support_graph(g, P4, {"a", "c"})


def test_check_support_graph_requires_exact_positive_body_edges():
    p = parse_program("l1: a.\nl2: b :- a.")
    good = graph({"a", "b"}, {("a", "b")}, {"a": "l1", "b": "l2"})
    assert check_support_graph(good, p, {"a", "b"}).is_valid
    missing = graph({"a", "b"}, set(), {"a": "l1", "b": "l2"})
    assert check_support_graph(missing, p, {"a", "b"}).kind == "invalid"


def test_justified_models_example():
    assert justified_models(P4) == [frozenset("a"), frozenset("ab"),
                                    frozenset("ac"), frozenset("bc")]
    two = explanations_of(P4, {"a"})
    assert [g.labels for g in two] == [(("a", "l1"),), (("a", "l2"),)]


def test_justified_equals_stable_for_non_disjunctive():
    for seed in range(150):
        p = gen_program(GenConfig(seed=seed, max_head=1))
        assert justified_models(p) == stable_models(p), seed


def test_justified_models_negative_loop_program():
    p5 = parse_program("a | b. a. b :- not b.")
    assert justified_models(p5) == [frozenset("ab")]


def test_supported_models_examples():
    assert supported_models_graph(P6) == [frozenset(), frozenset("p")]
    assert supported_models_graph(P4) == justified_models(P4)
    assert supported_models_graph(parse_program("a.")) == [frozenset("a")]


def test_self_loop_witness_graph():
    graphs = support_graphs_of(P6, {"p"})
    assert len(graphs) == 1
    assert graphs[0].edges == {("p", "p")}
    assert not graphs[0].is_acyclic()
    assert explanations_of(P6, {"p"}) == []


def test_ad_supported_example():
    assert ad_supported_models(P4) == [frozenset("a"), frozenset("bc")]


def test_ad_equals_plain_supported_for_normal_programs():
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed, max_head=1))
        al = p.atoms()

        def plainly_supported(i):
            return all(any(r.head == (a,) and classical_sat(i, r.body_formula())
                           for r in p.rules) for a in i)

        expected = [i for i in classical_models(p, al) if plainly_supported(i)]
        assert ad_supported_models(p, al) == expected, seed


def test_ad_between_stable_and_supported():
    for seed in range(150):
        p = gen_program(GenConfig(seed=seed))
        sm = set(stable_models(p))
        ad = set(ad_supported_models(p))
        sp = set(supported_models_graph(p))
        assert sm <= ad <= sp, seed


def test_justified_within_graph_supported():
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed))
        assert set(justified_models(p)) <= set(supported_models_graph(p)), seed


def test_spm_and_ssm_are_incomparable():
    from dlplab.ssm import ssm_models
    # a positive loop is graph-supported but not strongly supported
    assert frozenset("p") in set(supported_models_graph(P6))
    assert frozenset("p") not in set(ssm_models(P6))
    # the full model of two disjunctions is strongly supported but admits
    # no support graph (two rules cannot label three atoms)
    assert frozenset("abc") in set(ssm_models(P4))
    assert frozenset("abc") not in set(supported_models_graph(P4))


def test_relabelling_does_not_change_models_or_explanation_count():
    p = parse_program("x: a | b.\ny: a | c.")
    assert justified_models(p) == justified_models(P4)
    for m in justified_models(p):
        assert len(explanations_of(p, m)) == len(explanations_of(P4, m))


def test_node_forget_identity():
    g = graph({"a", "b"}, {("a", "b")}, {"a": "l1", "b": "l2"})
    assert node_forget(g, set()) == g


def test_node_forget_chain():
    g = graph({"q", "x", "p"}, {("q", "x"), ("x", "p")},
              {"q": "l1", "x": "l2", "p": "l3"})
    h = node_forget(g, {"x"})
    assert h.vertices == {"q", "p"}
    assert h.edges == {("q", "p")}
    assert h.labelling == {"q": "l1", "p": "l3"}


def test_node_forget_preserves_acyclicity():
    g = graph({"a", "b", "c", "d"},
              {("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")},
              {"a": "1", "b": "2", "c": "3", "d": "4"})
    assert g.is_acyclic()
    for drop in ({"b"}, {"c"}, {"b", "c"}):
        assert node_forget(g, drop).is_acyclic()


def test_node_forget_keeps_cycles_outside_dropped_part():
    g = graph({"a", "b", "x"}, {("a", "x"), ("x", "b"), ("b", "a")},
              {"a": "1", "b": "2", "x": "3"})
    h = node_forget(g, {"x"})
    assert h.edges == {("a", "b"), ("b", "a")}
    assert not h.is_acyclic()


def test_dot_output():
    g = support_graphs_of(P6, {"p"})[0]
    text = to_dot(g)
    assert text.startswith("digraph")
    assert '"p" -> "p";' in text
    assert "p [l1]" in text


def test_unlabelled_program_gets_deterministic_labels():
    p = parse_program("a | b. a | c.")
    assert [g.labels for g in explanations_of(p, {"a"})] \
        == [(("a", "r1"),), (("a", "r2"),)]


def test_support_graphs_are_not_bounded_by_recursion_depth():
    # a0. a_i :- a_{i-1}.  for 1500 atoms: one graph, a chain
    p = parse_program("a0.\n" + "".join(f"a{i} :- a{i - 1}.\n" for i in range(1, 1500)))
    model = p.atoms()
    graphs = support_graphs_of(p, model)
    assert len(graphs) == 1 and len(graphs[0].edges) == 1499
    assert graphs[0].is_acyclic()
    assert explanations_of(p, model) == graphs
    assert check_support_graph(graphs[0], p, model).kind == "valid-acyclic"
    ring = SupportGraph.of(graphs[0].vertices, graphs[0].edges | {("a1499", "a0")},
                           graphs[0].labels)
    assert not ring.is_acyclic()


# ---------------------------------------------------------------------------
# The labelling walk shared by jm and spm
# ---------------------------------------------------------------------------

def all_pairs(n):
    """a_i :- a_j for every i != j over n atoms."""
    return parse_program("".join(f"a{i:02d} :- a{j:02d}.\n"
                                 for i in range(n) for j in range(n) if i != j))


def test_all_pairs_program_has_only_the_empty_justified_model():
    # every labelling of the full model is cyclic, and there are 10^11 of
    # them; the derivability check rejects the model without walking them
    p = all_pairs(11)
    assert justified_models(p) == [frozenset()]
    assert supported_models_graph(p) == [frozenset(), p.atoms()]


def test_explanations_are_the_acyclic_support_graphs():
    """explanations_of cuts cyclic labellings instead of filtering every
    graph: the same graphs, in the same order, as the filter."""
    programs = [all_pairs(4), parse_program(
        "a0 | a1. a2 :- a0. a2 :- a3. a3 :- a2. a3 :- a1, not a0. a0 :- a3.")]
    programs += [gen_program(GenConfig(atoms=4, rules=6, seed=s)) for s in range(40)]
    explained = 0
    for p in programs:
        for m in ht.classical_models(p):
            want = [g for g in support_graphs_of(p, m) if g.is_acyclic()]
            assert explanations_of(p, m) == want, (p, m)
            explained += bool(want) and m != frozenset()
    assert explained


def test_negated_triples_program():
    # h :- b, not c over the first 1200 ordered triples of 12 atoms
    names = [f"x{i:02d}" for i in range(12)]
    p = parse_program("".join(f"{h} :- {b}, not {c}.\n" for h, b, c in
                              itertools.islice(itertools.permutations(names, 3), 1200)))
    assert justified_models(p) == [frozenset()]
    spm = supported_models_graph(p)
    assert len(spm) == 2 and spm[0] == frozenset()


def test_the_walk_is_not_served_for_another_headed_table(monkeypatch):
    p = parse_program("a | b. c :- a. a :- c.")
    cp = ht.CompiledProgram(p)
    assert justified_masks(cp) and supported_masks(cp)
    monkeypatch.setattr(ht.CompiledProgram, "headed_table", lambda self: 0)
    other = ht.CompiledProgram(p)
    assert justified_masks(other) == [] and supported_masks(other) == []
    assert justified_models(p) == [] and supported_models_graph(p) == []


def test_the_walk_is_kept_on_its_compile(monkeypatch):
    """jm and spm of one compile share one walk, also when walks of other
    compiles come in between."""
    walked = []
    original = justify._candidates

    def counted(cp, t):
        walked.append(cp)
        return original(cp, t)

    monkeypatch.setattr(justify, "_candidates", counted)
    ps = [parse_program("a | b. c :- a. a :- c."),
          parse_program("a :- b. b :- a. a | c :- not d.")]
    cps = [ht.CompiledProgram(p) for p in ps]
    first = [supported_masks(cps[0]), justified_masks(cps[1])]
    seen = set(map(id, walked))
    assert seen == set(map(id, cps)), "both compiles walked"
    count = len(walked)
    second = [justified_masks(cps[0]), supported_masks(cps[1])]
    assert len(walked) == count, "a walk was repeated"
    for p, cp, spm, jm in zip(ps, cps, (first[0], second[1]), (second[0], first[1])):
        fresh = ht.CompiledProgram(p)
        assert (spm, jm) == (supported_masks(fresh), justified_masks(fresh)), p
    assert first[0] != second[1]


def test_callers_cannot_change_the_kept_walk():
    cp = ht.CompiledProgram(parse_program("a | b. c :- a. a :- c."))
    jm, spm = justified_masks(cp), supported_masks(cp)
    want = (list(jm), list(spm))
    for found in (jm, spm):
        found.pop()
        found.append((0, ()))
    assert (justified_masks(cp), supported_masks(cp)) == want


def test_mask_tests_agree_with_the_graphs():
    """On every labelling of every classical model: the mask acyclicity
    test agrees with SupportGraph.is_acyclic, the cut pass keeps exactly
    the acyclic labellings in their order, and a model with an acyclic
    labelling passes the derivability check."""
    for seed in range(200):
        p = gen_program(GenConfig(seed=seed) if seed % 2
                        else GenConfig(atoms=5, rules=7, seed=seed))
        cp = ht.CompiledProgram(p)
        for t in cp.models_in_order():
            atoms, candidates = ht.set_bits(t), justify._candidates(cp, t)
            graphs = support_graphs_of(p, cp.unmask(t))
            if candidates is None:
                assert graphs == [], seed
                continue
            found = list(justify._labellings(cp, atoms, candidates))
            assert len(found) == len(graphs), seed
            acyclic = []
            for lab, g in zip(found, graphs):
                assert justify._is_acyclic(cp, atoms, lab) == g.is_acyclic(), seed
                if g.is_acyclic():
                    acyclic.append(lab)
            assert list(justify._labellings(cp, atoms, candidates, cut=True)) \
                == acyclic, seed
            if acyclic:
                assert justify._derivable(cp, t, candidates), seed
