import inspect
import random
import sys
from dataclasses import replace
from itertools import combinations

import pytest

from dlplab import forks as deno
from dlplab.forks import (BaseMismatchError, Support, View, closure,
                          complement, denotation, entails_forked,
                          equilibrium_models, fork_stable_models,
                          forked_stable_models, ideal, is_vocab_feasible,
                          pf_translate, preceq, project_models,
                          projected_denotation, restrict_support,
                          strongly_entails, strongly_equivalent,
                          support_of_formula)
from dlplab.di import csm_models
from dlplab.gen import GenConfig, gen_fork, gen_formula, gen_program
from dlplab.ht import CapacityError, ht_sat, set_bits, stable_models, subsets
from dlplab.justify import justified_models
from dlplab.parser import parse_fork, parse_formula, parse_program
from dlplab.syntax import (FALSUM, And, Atom, ForkAnd, ForkImplies,
                           ForkPair, Formula, Implies, Or, Program, fork_and,
                           forked, rule)


def sup(base, *member_sets):
    return Support.of(base, [set(m) for m in member_sets])


# ---------------------------------------------------------------------------
# Supports
# ---------------------------------------------------------------------------

def test_support_of_formula_examples():
    assert support_of_formula(parse_formula("a v b"), {"a", "b"}) \
        == sup("ab", "ab", "a", "b")
    assert support_of_formula(Atom("b"), {"a"}) == Support.empty({"a"})
    assert support_of_formula(Atom("a"), {"a", "b"}) == sup("ab", "ab", "a")


def test_support_of_formula_agrees_with_pointwise_satisfaction():
    rng = random.Random(3)
    for _ in range(300):
        phi = gen_formula(rng, ("a", "b", "c"), 3)
        for t in subsets(("a", "b", "c")):
            s = support_of_formula(phi, t)
            expected = {h for h in subsets(t) if ht_sat(h, t, phi)}
            assert {s.decode(m) for m in set_bits(s.members)} == expected


def test_support_invariant_nonempty_contains_base():
    with pytest.raises(ValueError):
        Support.of({"a", "b"}, [{"a"}])


def test_preceq_examples():
    base = "ab"
    empty = Support.empty(base)
    assert preceq(empty, sup(base, "ab", "a"))
    assert preceq(sup(base, "ab", "a", ""), sup(base, "ab", "a"))
    assert not preceq(sup(base, "ab"), empty)
    with pytest.raises(BaseMismatchError):
        preceq(Support.empty("a"), Support.empty("ab"))


def test_complement_examples():
    assert complement(Support.all_subsets({"a"})) == Support.empty({"a"})
    assert complement(sup("ab", "ab", "a")) == sup("ab", "ab", "b", "")
    assert complement(Support.empty({"a"})) == Support.all_subsets({"a"})


def test_complement_involution_on_all_small_supports():
    # holds except on the singleton [T], whose complement is everything
    base = ("a", "b")
    universe = list(subsets(base))
    for k in range(len(universe) + 1):
        for chosen in combinations(universe, k):
            members = set(chosen)
            if members and frozenset(base) not in members:
                continue
            h = Support.of(base, members)
            twice = complement(complement(h))
            if h == Support.top(base):
                assert twice == Support.empty(base)
            else:
                assert twice == h


def test_ideal_and_closure_examples():
    assert ideal(Support.empty({"a"})).is_empty
    v = ideal(sup("a", "a"))
    assert [str(s) for s in v.supports()] == ["[{a}]", "[{a} ∅]"]
    assert closure([sup("a", "a"), Support.empty({"a"})]) == ideal(sup("a", "a"))


def test_closure_idempotent():
    rng = random.Random(11)
    for _ in range(100):
        f = gen_fork(rng, ("a", "b"), 3)
        for t in subsets(("a", "b")):
            v = denotation(f, t)
            again = View.closed(v.base, v.gens)
            assert again == v


# ---------------------------------------------------------------------------
# Denotation
# ---------------------------------------------------------------------------

def test_denotation_falsum_is_empty_view():
    assert denotation(FALSUM, {"a", "b"}).is_empty


def test_denotation_example_program_fork():
    f = parse_fork("(a ; b) & (a ; c)")
    v = denotation(f, {"a", "b"})
    assert v.contains(Support.top({"a", "b"}))


def test_denotation_split_drops_missing_branch():
    v = denotation(parse_fork("a ; b"), {"a"})
    assert v == ideal(sup("a", "a"))


def test_view_membership_and_inclusion():
    v = ideal(sup("ab", "ab", "a"))
    assert v.contains(sup("ab", "ab", "a"))
    assert v.contains(sup("ab", "ab", "a", "b"))
    assert not v.contains(sup("ab", "ab"))
    assert not v.contains(Support.empty("ab"))
    # the singleton [T] generates the largest view of all
    w = ideal(sup("ab", "ab"))
    assert v.includes(w) is False
    assert w.includes(v)


def test_explicit_enumeration_guard():
    base = {"a", "b", "c", "d", "e"}
    v = ideal(Support.top(base))
    with pytest.raises(CapacityError):
        v.supports()


# --- independent oracle: Def. 1 with explicit sets ------------------------

def naive_den(phi, t):
    return frozenset(h for h in subsets(t) if ht_sat(h, t, phi))


def all_supports(t):
    universe = list(subsets(t))
    out = []
    for k in range(len(universe) + 1):
        for chosen in combinations(universe, k):
            members = frozenset(chosen)
            if members and frozenset(t) not in members:
                continue
            out.append(members)
    return out


def naive_ideal(h, t):
    if not h:
        return set()
    return {h2 for h2 in all_supports(t) if h2 and h <= h2}


def naive_closure(supports, t):
    out = set()
    for h in supports:
        out |= naive_ideal(h, t)
    return out


def naive_denotation(f, t):
    t = frozenset(t)
    if isinstance(f, Formula) and f == FALSUM:
        return set()
    if isinstance(f, Atom):
        return naive_ideal(naive_den(f, t), t)
    if isinstance(f, (And, ForkAnd)):
        lv, rv = naive_denotation(f.left, t), naive_denotation(f.right, t)
        return naive_closure({a & b for a in lv for b in rv}, t)
    if isinstance(f, Or):
        lv = naive_denotation(f.left, t) or {frozenset()}
        rv = naive_denotation(f.right, t) or {frozenset()}
        return naive_closure({a | b for a in lv for b in rv}, t)
    if isinstance(f, (Implies, ForkImplies)):
        s = naive_den(f.left, t)
        if not s:
            return {frozenset(subsets(t))}
        comp = frozenset(subsets(t)) - s | {t}
        return naive_closure({comp | h for h in naive_denotation(f.right, t)}, t)
    if isinstance(f, ForkPair):
        return naive_denotation(f.left, t) | naive_denotation(f.right, t)
    raise TypeError(f)


def view_members(v):
    return {frozenset(s.decode(m) for m in set_bits(s.members)) for s in v.supports()}


def test_denotation_matches_naive_oracle():
    rng = random.Random(23)
    for pool, count in ((("a", "b"), 150), (("a", "b", "c"), 40)):
        for _ in range(count):
            f = gen_fork(rng, pool, 3)
            for t in subsets(pool):
                assert view_members(denotation(f, t)) \
                    == naive_denotation(f, t), f


# --- generator-level reference: frozenset set algebra ---------------------

def _mask(base, h):
    return sum(1 << i for i, a in enumerate(base) if a in h)


def _support_key(s):
    return len(s), sorted(s)


def ref_minimize(cands):
    kept = []
    for c in sorted(set(cands), key=_support_key):
        if c and not any(k <= c for k in kept):
            kept.append(c)
    return frozenset(kept)


def ref_gens(f, t):
    """The minimal supports of the view at T, computed clause by clause on
    frozensets of here-masks, with formula supports from naive_den."""
    t = frozenset(t)
    base = tuple(sorted(t))
    everything = frozenset(range(1 << len(base)))
    full = (1 << len(base)) - 1

    def support(phi):
        return frozenset(_mask(base, h) for h in naive_den(phi, t))

    def go(f):
        if f == FALSUM:
            return frozenset()
        if isinstance(f, Atom):
            s = support(f)
            return frozenset((s,)) if s else frozenset()
        if isinstance(f, (And, ForkAnd)):
            return ref_minimize(a & b for a in go(f.left) for b in go(f.right))
        if isinstance(f, Or):
            gl = go(f.left) or frozenset((frozenset(),))
            gr = go(f.right) or frozenset((frozenset(),))
            return ref_minimize(a | b for a in gl for b in gr)
        if isinstance(f, (Implies, ForkImplies)):
            s = support(f.left)
            if not s:
                return frozenset((everything,))
            comp = frozenset() if s == everything else everything - s | {full}
            return ref_minimize(comp | g for g in go(f.right))
        if isinstance(f, ForkPair):
            return ref_minimize(go(f.left) | go(f.right))
        raise TypeError(f)

    return go(f)


def ref_entails(f, g, pool):
    """Strong entailment as a loop over the reference views: the verdict,
    and on failure the first T and its first missing support."""
    for t in subsets(pool):
        left, right = ref_gens(f, t), ref_gens(g, t)
        for gen in sorted(left, key=_support_key):
            if not any(k <= gen for k in right):
                return False, t, gen
    return True, None, None


def entailment_key(res):
    support = res.witness_support
    return res.holds, res.witness_t, support and frozenset(set_bits(support.members))


def test_denotation_generators_match_reference():
    rng = random.Random(43)
    pool = ("a", "b", "c", "d", "e", "f")
    for _ in range(200):
        f = gen_fork(rng, pool, 4)
        for width in range(len(pool) + 1):
            t = rng.sample(pool, width)
            assert denotation(f, t).gens \
                == {sum(1 << m for m in g) for g in ref_gens(f, t)}, (f, t)


def test_formula_denotation_is_ideal_of_support():
    rng = random.Random(29)
    for _ in range(300):
        phi = gen_formula(rng, ("a", "b", "c"), 3)
        for t in subsets(("a", "b", "c")):
            assert denotation(phi, t) == ideal(support_of_formula(phi, t))


# ---------------------------------------------------------------------------
# Fork stable models and entailment
# ---------------------------------------------------------------------------

def test_fork_stable_models_examples():
    p1 = parse_program("a | b. a | c.")
    assert fork_stable_models(forked(p1)) \
        == [frozenset("a"), frozenset("ab"), frozenset("ac"), frozenset("bc")]
    p5 = parse_program("a | b. a. b :- not b.")
    assert fork_stable_models(forked(p5)) == [frozenset("ab")]


def test_fork_stable_models_extend_stable_models_on_formulas():
    rng = random.Random(31)
    for _ in range(150):
        phi = gen_formula(rng, ("a", "b", "c"), 3)
        assert fork_stable_models(phi, ("a", "b", "c")) \
            == stable_models(phi, ("a", "b", "c"))


def test_strong_entailment_examples():
    vee = parse_formula("a v b")
    split = parse_fork("a ; b")
    assert strongly_entails(vee, split)
    res = strongly_entails(split, vee)
    assert not res
    assert res.witness_t == frozenset("ab")
    assert split == parse_fork("a ; b")
    assert strongly_entails(split, split)


def test_strong_equivalence_examples():
    vee = parse_formula("a v b")
    split = parse_fork("a ; b")
    assert strongly_equivalent(split, split)
    assert not strongly_equivalent(vee, split)


def test_strong_equivalence_is_entailment_both_ways(monkeypatch):
    """One compile of the two forks, swept in each order, answers as the
    two entailment calls do."""
    rng = random.Random(17)
    pairs = []
    for _ in range(200):
        f, g = gen_fork(rng, "abc", 3), gen_fork(rng, "abc", 3)
        pairs += [(f, g), (f, fork_and(f, g)), (f, fork_and(f, f)), (g, g)]
    expected = [bool(strongly_entails(f, g, "abc")) and bool(strongly_entails(g, f, "abc"))
                for f, g in pairs]
    assert 0 < sum(expected) < len(pairs)
    compiled = 0
    compile_over = deno._compile_over

    def counted(*args):
        nonlocal compiled
        compiled += 1
        return compile_over(*args)

    monkeypatch.setattr(deno, "_compile_over", counted)
    assert [strongly_equivalent(f, g, "abc") for f, g in pairs] == expected
    assert compiled == len(pairs)


def programs_6x8():
    return [gen_program(GenConfig(seed=seed, atoms=6, rules=8))
            for seed in range(200)]


def test_fork_stable_models_equal_justified_and_candidate_models():
    for p in programs_6x8():
        al = p.atoms()
        assert fork_stable_models(forked(p), al) == justified_models(p, al) \
            == csm_models(p, al), p


def test_strong_entailment_matches_reference_loop():
    rng = random.Random(47)
    failing = 0
    for k, p in enumerate(programs_6x8()):
        al = p.atoms()
        f = forked(p)
        res = strongly_entails(p.to_formula(), f, al)
        assert res, p
        if k % 20 == 0:
            assert entailment_key(res) == ref_entails(p.to_formula(), f, al)
        # splitting a head loses the disjunction, so the reverse direction
        # fails on disjunctive programs, often with several missing supports
        for g in (p.to_formula(), gen_fork(rng, sorted(al), 3) if al else FALSUM):
            res = strongly_entails(f, g, al)
            if not res:
                failing += 1
                assert entailment_key(res) == ref_entails(f, g, al), (p, g)
    assert failing > 300


def test_entailment_implies_stable_model_inclusion():
    rng = random.Random(37)
    pool = ("a", "b", "c")
    for _ in range(100):
        f = gen_fork(rng, pool, 2)
        g = gen_fork(rng, pool, 2)
        if strongly_entails(f, g, pool):
            ctx = gen_fork(rng, pool, 2)
            lhs = set(fork_stable_models(fork_and(f, ctx), pool))
            rhs = set(fork_stable_models(fork_and(g, ctx), pool))
            assert lhs <= rhs


# ---------------------------------------------------------------------------
# Head splitting
# ---------------------------------------------------------------------------

def test_pf_translation_of_two_disjunctions():
    p1 = parse_program("a | b. a | c.")
    q = pf_translate(p1)
    assert [r.head for r in q.rules] == [
        ("__f1_1", "__f1_2"), ("a",), ("b",),
        ("__f2_1", "__f2_2"), ("a",), ("c",)]
    assert q.rules[1].bpos == {"__f1_1"}


def test_pf_translation_keeps_normal_rules():
    p = parse_program("a :- b, not c. :- d.")
    assert pf_translate(p) == p


def test_pf_translation_three_way_head():
    p = parse_program("a | b | c :- d.")
    q = pf_translate(p)
    assert len(q.rules) == 4
    assert q.rules[0].head == ("__f1_1", "__f1_2", "__f1_3")
    assert q.rules[0].bpos == {"d"}


def test_pf_projection_matches_fork_stable_models():
    for seed in range(50):
        p = gen_program(GenConfig(seed=seed, atoms=3, rules=3, max_head=2))
        al = p.atoms()
        q = pf_translate(p)
        lhs = project_models(stable_models(q, q.atoms() | al), al)
        assert lhs == fork_stable_models(forked(p), al)


# ---------------------------------------------------------------------------
# Vocabulary projection
# ---------------------------------------------------------------------------

def test_restrict_support_example():
    h = sup("ax", "ax", "a")
    assert restrict_support(h, {"a"}) == sup("a", "a")


def test_vocab_feasibility_example():
    h = sup("ax", "ax", "a")
    assert not is_vocab_feasible(h, {"a"})
    assert is_vocab_feasible(sup("ax", "ax"), {"a"})
    assert is_vocab_feasible(Support.empty("ax"), {"a"})


def test_projected_denotation_agrees_on_identity_projection():
    rng = random.Random(41)
    pool = ("a", "b")
    for _ in range(50):
        f = gen_fork(rng, pool, 2)
        for t in subsets(pool):
            assert projected_denotation(f, t, pool) == denotation(f, t)


def test_projected_denotation_through_fresh_atom():
    # splitting a head through a switch atom is invisible on the original
    # alphabet, so stability of T transfers through the projected view
    p = parse_program("a | b.")
    q = pf_translate(p)
    f = q.to_formula()
    v = projected_denotation(f, {"a"}, {"a", "b"})
    assert v.contains(Support.top({"a"}))


def explicit_projected_denotation(f, t, vocab, atoms):
    """The projection over every member support of each view at Z, listed
    explicitly: the reference for the loop over generators."""
    t, v = frozenset(t), frozenset(vocab)
    collected = []
    for z in subsets(atoms):
        if z & v == t:
            for h in denotation(f, z).supports():
                if is_vocab_feasible(h, v):
                    collected.append(restrict_support(h, v).members)
    return View.closed(t, collected)


def test_projection_through_generators_matches_the_explicit_loop():
    rng = random.Random(53)
    cases = 0
    for k in range(120):
        pool = ("a", "b", "c", "d")[:2 + k % 3]
        f = gen_fork(rng, pool, 3)
        vocab = [a for a in pool if rng.random() < 0.6]
        for t in subsets(vocab):
            got = projected_denotation(f, t, vocab, pool)
            assert got == explicit_projected_denotation(f, t, vocab, pool), (f, t, vocab)
            cases += 1
    assert cases > 400


def test_projected_denotation_refuses_an_alphabet_missing_atoms():
    """An alphabet must cover the fork and the vocabulary, as it must for
    every other fork entry; the default one, the fork's atoms and the
    vocabulary, does."""
    b = Atom("b")
    assert str(projected_denotation(b, {"a"}, {"a"})) == "{[{a} ∅]}"
    with pytest.raises(ValueError, match=r"alphabet is missing atoms \['b'\]"):
        projected_denotation(b, {"a"}, {"a"}, atoms=["a"])
    with pytest.raises(ValueError, match=r"alphabet is missing atoms \['z'\]"):
        projected_denotation(Atom("a"), {"a"}, {"a", "z"}, atoms=["a"])
    with pytest.raises(CapacityError, match="at most 4 atoms, got 5"):
        projected_denotation(b, {"a"}, {"a"}, atoms="abcde")


def test_project_models():
    ms = [frozenset({"a", "x"}), frozenset({"a"}), frozenset({"b"})]
    assert project_models(ms, {"a", "b"}) \
        == [frozenset("a"), frozenset("b")]


# ---------------------------------------------------------------------------
# The compile walk
# ---------------------------------------------------------------------------

def recursive_compile(forks, pool):
    """The compile walk as plain recursion on both operands: the reference
    for the walk on an explicit stack."""
    from dlplab.forks import _FIMP, _FORK_OPS, _FORMULA_OPS, _LEAF
    index = {a: i for i, a in enumerate(pool)}
    empty = len(pool)
    ops, regs, formulas, views, outside = [], {}, {}, {}, set()

    def emit(op, a, b=0):
        key = (op, a, b)
        if key not in regs:
            ops.append(key)
            regs[key] = empty + len(ops)
        return regs[key]

    def formula(phi):
        if isinstance(phi, Atom):
            if phi.name not in index:
                outside.add(phi.name)
                return empty
            return index[phi.name]
        if phi == FALSUM:
            return empty
        if id(phi) not in formulas:
            formulas[id(phi)] = emit(_FORMULA_OPS[type(phi)],
                                     formula(phi.left), formula(phi.right))
        return formulas[id(phi)]

    def view(f):
        if isinstance(f, Atom):
            return emit(_LEAF, formula(f))
        if id(f) not in views:
            if type(f) in _FORK_OPS:
                views[id(f)] = emit(_FORK_OPS[type(f)], view(f.left), view(f.right))
            elif isinstance(f, Formula):
                views[id(f)] = emit(_LEAF, formula(f))
            else:
                views[id(f)] = emit(_FIMP, formula(f.left), view(f.right))
        return views[id(f)]

    roots = [view(f) for f in forks]
    return ops, roots, outside


def test_compile_emits_what_the_recursive_walk_emits():
    from dlplab.forks import _compile
    rng = random.Random(11)
    cases = []
    for _ in range(300):
        f = gen_fork(rng, ("a", "b", "c", "d"), rng.randint(1, 6))
        g = gen_fork(rng, ("a", "b", "c", "d"), rng.randint(1, 6))
        shared = fork_and(f, fork_and(g, f))
        cases += [[f], [f, g, shared], [shared, f]]
    cases += [[forked(gen_program(GenConfig(atoms=6, rules=8, seed=s)))]
              for s in range(100)]
    for forks in cases:
        for pool in (("a", "b", "c", "d", "e", "f"), ("a", "c")):
            assert _compile(forks, pool) == recursive_compile(forks, pool), forks


def test_compile_walks_a_long_program_without_recursing_per_rule():
    # 1200 rules: the forked conjunction is 600 levels of fork conjunction
    # over a plain conjunction 600 levels deep
    p = parse_program("a | b :- not c.\n" * 600 + "c :- not a.\n" * 600)
    assert fork_stable_models(forked(p)) == justified_models(p) \
        == [frozenset("a"), frozenset("c"), frozenset("ab")]


@pytest.mark.parametrize("nest", ["left", "right"])
def test_compile_walks_a_deep_tree_without_recursing(nest):
    # 5000 levels of each connective, under a recursion limit far below
    # that depth, answer as the first 5 levels do
    from dlplab.forks import _compile
    atoms = [Atom(f"a{i % 5}") for i in range(5001)]

    def tree(kind, parts):
        out = parts[0]
        for a in parts[1:]:
            out = kind(out, a) if nest == "left" else kind(a, out)
        return out

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        for kind in (And, Or, ForkAnd, ForkPair):
            deep, shallow = tree(kind, atoms), tree(kind, atoms[:5])
            ops, roots, outside = _compile([deep], ["a0", "a1", "a2", "a3", "a4"])
            assert len(roots) == 1 and not outside and len(ops) >= 5000
            assert fork_stable_models(deep) == fork_stable_models(shallow)
            assert strongly_equivalent(deep, shallow), kind
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# The program emitter
# ---------------------------------------------------------------------------

TREES = {("forked",): lambda p: [forked(p)],
         ("formula",): lambda p: [p.to_formula()],
         ("formula", "forked"): lambda p: [p.to_formula(), forked(p)],
         ("forked", "formula"): lambda p: [forked(p), p.to_formula()]}


def assert_emits_as_the_trees(p, pool=None):
    from dlplab.forks import _compile, _compile_program
    pool = sorted(p.atoms()) if pool is None else pool
    for readings, trees in TREES.items():
        ops, roots, outside = _compile(trees(p), pool)
        assert not outside
        assert _compile_program(p, pool, readings) == (ops, roots), (readings, p)


@pytest.mark.parametrize("cfg", [GenConfig(), GenConfig(atoms=6, rules=8),
                                 GenConfig(atoms=3, rules=3, max_head=3)],
                         ids=["default", "atoms6-rules8", "atoms3-rules3-head3"])
def test_program_emitter_emits_the_tree_compile(cfg):
    for seed in range(300):
        assert_emits_as_the_trees(gen_program(replace(cfg, seed=seed)))


def test_program_emitter_emits_the_tree_compile_on_edge_programs():
    programs = [parse_program("".join(
        f"x{i:02d} | x{(i + 1) % n:02d} :- not x{(i + 2) % n:02d}.\n"
        for i in range(n))) for n in range(3, 13)]
    programs += [Program(()), Program((rule(),)), Program((rule(), rule()))]
    programs += [parse_program(text) for text in (
        "a.", "a. b. a.", ":- a.", ":- not a.", ":- not not a, b.",
        "a | a.", "a | b | a :- c.", "a | b. a | b.", "c | b | a :- not d.",
        "a | b. c.", "c. a | b.", "a :- b. c | d :- not e, not not f. g.",
        "a :- not not a.", "a | b :- a, b, not c, not not c.")]
    for p in programs:
        assert_emits_as_the_trees(p)
        assert_emits_as_the_trees(p, sorted(p.atoms() | {"zz"}))


def test_program_entries_equal_the_tree_entries():
    for seed in range(60):
        p = gen_program(GenConfig(seed=seed) if seed % 2
                        else GenConfig(atoms=6, rules=8, seed=seed))
        for al in (None, p.atoms() | {"zz"}):
            f, phi = forked(p), p.to_formula()
            assert forked_stable_models(p, al) == fork_stable_models(f, al)
            assert equilibrium_models(p, al) == fork_stable_models(phi, al)
            assert entails_forked(p, al) == strongly_entails(phi, f, al)
    p = parse_program("a | b :- not c.")
    # an alphabet given as an iterator is read once
    al = ("a", "b", "c", "d")
    assert forked_stable_models(p, iter(al)) == fork_stable_models(forked(p), al)
    assert equilibrium_models(p, iter(al)) == fork_stable_models(p.to_formula(), al)
    for entry in (forked_stable_models, equilibrium_models, entails_forked):
        with pytest.raises(ValueError, match=r"missing atoms \['a', 'c'\]"):
            entry(p, {"b"})
    wide = parse_program("".join(f"x{i} | y{i}.\n" for i in range(11)))
    with pytest.raises(CapacityError):
        forked_stable_models(wide)


@pytest.mark.parametrize("cfg", [GenConfig(), GenConfig(atoms=6, rules=8)],
                         ids=["default", "atoms6-rules8"])
def test_the_formula_sweep_runs_only_the_operations_its_root_reads(cfg):
    """``equilibrium_masks`` sweeps the formula reading's own operations,
    as many as the reading emits alone, and finds the masks that a sweep
    of every operation before the root, the forked reading's included,
    finds."""
    from dlplab.forks import (_compile_program, _reached, _stable_masks,
                              equilibrium_masks, program_registers)
    skipped = 0
    for seed in range(300):
        p = gen_program(replace(cfg, seed=seed))
        regs = program_registers(p, p.atoms())
        pool, ops, (_, root) = regs
        n = len(pool)
        prefix = ops[:root - n]
        assert equilibrium_masks(regs) == _stable_masks(n, prefix, root), p
        reached, _ = _reached(ops, root, n)
        assert len(reached) == len(_compile_program(p, pool, ("formula",))[0])
        skipped += len(prefix) - len(reached)
    assert skipped > 0
