"""The truth-table enumerators against the per-interpretation code they
replaced, which is kept here as the reference: a 2^n scan of the program
read as a formula with the AST path ``classical_sat``, which shares no
rule masks with the compile, the submask loop for here-and-there
minimality, formula-based body tests for AD, selections and labellings,
``reduct`` plus the submask loop for candidate stable models, and the
fixpoint reading of supported models, and the breadth-first chain search
for strongly supported models.  Model lists must agree exactly, and so
must first witnesses, except chains: the greedy chain of maximal stages
may differ from the first chain breadth-first search finds, so it must
verify, be no longer, and contain the searched chain stage by stage."""

from itertools import product

import pytest

from dlplab import di, justify, ssm
from dlplab.forks import pf_translate
from dlplab.gen import GenConfig, gen_program
from dlplab.ht import (CompiledProgram, classical_models, classical_sat,
                       is_stable_model, sort_models, stable_models, subsets)
from dlplab.syntax import ExtendedRule, Program


# --- reference implementations ---------------------------------------------

def ref_is_stable(cp, t):
    if not cp.sat_classical(t):
        return False
    h = (t - 1) & t
    while h != t:
        if cp.sat_ht(h, t):
            return False
        if h == 0:
            break
        h = (h - 1) & t
    return True


def ref_is_stable_model(p, model, atoms=None):
    cp = CompiledProgram(p, model | p.atoms() if atoms is None else atoms)
    return ref_is_stable(cp, cp.mask(model))


def submasks(m):
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


def ref_chain(cp, tmask):
    """Breadth-first search over the reachable stages, strictly growing,
    for a shortest chain to tmask."""
    def pool(prev):
        if prev is None:
            return [k for k, (_, bp, bn, bnn) in enumerate(cp.rules)
                    if not (bp | bn | bnn)]
        return [k for k in range(len(cp.rules)) if cp.body_ht(k, prev, tmask)]

    def allowed(rules):
        out = 0
        for k in rules:
            out |= cp.rules[k][0]
        return out & tmask

    def hits_all(s, rules):
        return all(cp.rules[k][0] & s for k in rules)

    pool0 = pool(None)
    parent = {}
    frontier = []
    for s in sorted(submasks(allowed(pool0))):
        if hits_all(s, pool0):
            parent[s] = None
            frontier.append(s)
    while frontier:
        nxt = []
        for h in frontier:
            if h == tmask:
                masks = [h]
                while parent[masks[-1]] is not None:
                    masks.append(parent[masks[-1]])
                return ssm.SsmChain(tuple(cp.unmask(m) for m in reversed(masks)),
                                    cp.unmask(h))
            rules = pool(h)
            for extra in submasks(allowed(rules) & ~h):
                s = h | extra
                if s in parent or not hits_all(s, rules):
                    continue
                parent[s] = h
                nxt.append(s)
        frontier = sorted(nxt)
    return None


class Ref:
    """The reference semantics of one program over its own alphabet; the
    classical models and the body formulas are computed once."""

    def __init__(self, p):
        self.p = p
        self.atoms = p.atoms()
        self.cp = CompiledProgram(p, self.atoms)
        formula = p.to_formula()
        self.classical = sort_models(i for i in subsets(self.atoms)
                                     if classical_sat(i, formula))
        self.bodies = [r.body_formula() for r in p.rules]

    def fires(self, k, i):
        return classical_sat(i, self.bodies[k])

    def stable(self):
        cp = self.cp
        return sort_models(cp.unmask(t) for t in range(cp.full + 1)
                           if ref_is_stable(cp, t))

    def ad(self):
        p = self.p

        def supported(a, i):
            return any(a in r.head_set and self.fires(k, i)
                       and not (r.head_set - {a}) & i
                       for k, r in enumerate(p.rules))

        return [i for i in self.classical if all(supported(a, i) for a in i)]

    def selections(self, i, closed):
        p = self.p
        trig = [k for k in range(len(p.rules)) if self.fires(k, i)]
        if not closed:
            options = []
            for k in trig:
                hits = sorted(p.rules[k].head_set & i)
                options.append([(k, a) for a in hits] if hits else [(k, None)])
            for combo in product(*options):
                yield di.HeadSelection(tuple(combo), closed=False)
            return
        groups = {}
        for k in trig:
            groups.setdefault(p.rules[k].head_set, []).append(k)
        keys = sorted(groups, key=lambda s: tuple(sorted(s)))
        options = [sorted(key & i) or [None] for key in keys]
        for combo in product(*options):
            pairs = [(k, a) for key, a in zip(keys, combo) for k in groups[key]]
            yield di.HeadSelection(tuple(sorted(pairs)), closed=True)

    def reduct(self, sel):
        """The reduct as ``di.reduct`` builds it, without its checks."""
        rules = (self.p.rules[k] for k, _ in sel.choices)
        out = (ExtendedRule((a,) if a is not None else (), r.bpos, r.bneg,
                            r.bnegneg)
               for (_, a), r in zip(sel.choices, rules))
        return Program(tuple(dict.fromkeys(out)))

    def candidates(self, closed):
        out = []
        for i in self.classical:
            for sel in self.selections(i, closed):
                q = self.reduct(sel)
                if ref_is_stable_model(q, i, self.atoms):
                    assert di.reduct(self.p, i, sel) == q
                    out.append((i, sel))
                    break
        return out

    def fixpoint(self):
        out = []
        for i in self.classical:
            for sel in self.selections(i, closed=False):
                q = self.reduct(sel)
                if frozenset(r.head[0] for r in q.rules
                             if r.head and classical_sat(i, r.body_formula())) == i:
                    out.append(i)
                    break
        return out

    def labellings(self, q, model):
        atoms = sorted(model)
        candidates = [[r for k, r in enumerate(q.rules)
                       if a in r.head_set and self.fires(k, model)]
                      for a in atoms]
        for combo in product(*candidates):
            if len({r.label for r in combo}) == len(combo):
                yield {a: r.label for a, r in zip(atoms, combo)}

    def graph_witnesses(self, acyclic):
        """Models with a (for JM acyclic) support graph, each with the
        labels of the first such graph."""
        q = self.p.labelled()
        out = []
        for i in self.classical:
            for labels in self.labellings(q, i):
                edges = {(b, a) for a, l in labels.items()
                         for b in q.rule_by_label(l).bpos}
                if not acyclic or justify.SupportGraph.of(i, edges, labels).is_acyclic():
                    out.append((i, labels))
                    break
        return out

    def chains(self):
        out = []
        for i in self.classical:
            chain = ref_chain(self.cp, self.cp.mask(i))
            if chain is not None:
                out.append((i, chain))
        return out


def assert_chains_match(p, atoms, ref, case):
    found = ssm.strongly_supported_models(p, atoms)
    expected = ref.chains()
    assert [m for m, _ in found] == [m for m, _ in expected], case
    for (m, chain), (_, searched) in zip(found, expected):
        assert ssm.check_chain(chain, p), (case, m)
        assert len(chain.stages) <= len(searched.stages), (case, m)
        last = len(chain.stages) - 1
        for i, stage in enumerate(searched.stages):
            assert stage <= chain.stages[min(i, last)], (case, m, i)


# --- the comparison ---------------------------------------------------------

FAMILIES = {
    "default": [gen_program(GenConfig(seed=s)) for s in range(300)],
    "six-atoms": [gen_program(GenConfig(atoms=6, rules=8, seed=s))
                  for s in range(100)],
    # pf widens these to as many as 12 atoms
    "pf": [pf_translate(gen_program(GenConfig(atoms=3, rules=3, max_head=3,
                                              seed=s)))
           for s in range(100)],
}


def test_pf_family_reaches_width_12():
    assert max(len(p.atoms()) for p in FAMILIES["pf"]) == 12


def first_labels(graphs):
    return dict(graphs[0].labels)


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
        assert [(i, first_labels(justify.explanations_of(p, i)))
                for i, _ in jm] == jm, case
        spm = ref.graph_witnesses(acyclic=False)
        assert justify.supported_models_graph(p, al) == [i for i, _ in spm], case
        assert [(i, first_labels(justify.support_graphs_of(p, i)))
                for i, _ in spm] == spm, case
        assert_chains_match(p, al, ref, case)


def cyclic(n):
    """x_i | x_{i+1} :- not x_{i+2}, indices mod n."""
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
