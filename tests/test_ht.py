import random

import pytest

from dlplab.di import immediate_consequences, reduct, selections
from dlplab.gen import GenConfig, gen_formula, gen_program
from dlplab.ht import (CapacityError, CompiledProgram, classical_models,
                       classical_sat, ht_equivalent, ht_sat, is_stable_model,
                       stable_models, subsets)
from dlplab.justify import support_graphs_of
from dlplab.parser import parse_formula, parse_program
from dlplab.syntax import Atom, Program, neg


def models(text, atoms=None):
    return stable_models(parse_program(text), atoms)


def test_classical_sat_examples():
    assert classical_sat({"a"}, parse_formula("a v b"))
    assert classical_sat({"a", "b", "c"}, parse_program("a | b. a | c."))
    assert not classical_sat(set(), parse_formula("-b -> b"))


def test_ht_sat_examples():
    assert not ht_sat(set(), {"b"}, neg(Atom("b")))
    assert ht_sat({"a"}, {"a", "b"}, neg(neg(Atom("b"))))
    assert ht_sat(set(), {"p"}, parse_formula("p -> p"))


def test_ht_sat_double_negation_matches_clause_expansion():
    # not not b unfolds to (b -> bot) -> bot; check all pairs on two atoms
    phi = neg(neg(Atom("b")))
    for t in subsets(("a", "b")):
        for h in subsets(t):
            expected = "b" in t
            assert ht_sat(h, t, phi) == expected


def test_ht_here_must_be_within_there():
    with pytest.raises(ValueError):
        ht_sat({"a"}, set(), Atom("a"))


def test_classical_models_examples():
    p1 = parse_program("a | b. a | c.")
    assert classical_models(p1) == [frozenset("a"), frozenset("ab"),
                                    frozenset("ac"), frozenset("bc"),
                                    frozenset("abc")]
    assert classical_models(Program(()), {"a"}) == [frozenset(), frozenset("a")]
    assert classical_models(parse_program("a. :- a.")) == []


def test_stable_models_examples():
    assert models("a | b. a | c.") == [frozenset("a"), frozenset("bc")]
    assert models("a | b. a. b :- not b.") == []
    assert models("p :- p.") == [frozenset()]


def test_stable_models_of_formula_interface():
    phi = parse_formula("a v b")
    assert stable_models(phi) == [frozenset("a"), frozenset("b")]
    assert stable_models(parse_formula("-(-a)"), {"a"}) == []


def test_ht_equivalence_examples():
    nb = neg(Atom("b"))
    assert ht_equivalent(parse_formula("-b -> b"), neg(nb))
    assert not ht_equivalent(Atom("a"), parse_formula("a v b"), {"a", "b"})
    phi = parse_formula("a -> b & c")
    assert ht_equivalent(phi, phi)


def test_total_interpretation_matches_classical():
    rng = random.Random(5)
    for _ in range(200):
        phi = gen_formula(rng, ("a", "b", "c"), 3)
        for t in subsets(("a", "b", "c")):
            assert ht_sat(t, t, phi) == classical_sat(t, phi)


def test_persistence():
    rng = random.Random(7)
    for _ in range(200):
        phi = gen_formula(rng, ("a", "b", "c"), 3)
        for t in subsets(("a", "b", "c")):
            for h in subsets(t):
                if ht_sat(h, t, phi):
                    assert ht_sat(t, t, phi)


def test_stable_within_classical():
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed))
        assert set(stable_models(p)) <= set(classical_models(p))


# --- independent oracle: reduct-based stable models for normal programs ----

def gl_stable_models(p, atoms):
    """Reduct oracle for extended normal programs: fix the negative parts
    against the candidate, then take the least model of the positive part
    by iterating rule heads, and keep candidates that match."""
    out = []
    for t in subsets(sorted(atoms)):
        keep = []
        violated = False
        for r in p.rules:
            if r.bneg & t or not r.bnegneg <= t:
                continue
            if not r.head:
                if r.bpos <= t:
                    violated = True
                    break
                continue
            keep.append((r.head[0], r.bpos))
        if violated:
            continue
        least = set()
        changed = True
        while changed:
            changed = False
            for head, body in keep:
                if body <= least and head not in least:
                    least.add(head)
                    changed = True
        if frozenset(least) == t:
            out.append(t)
    return sorted(out, key=lambda m: (len(m), tuple(sorted(m))))


def test_normal_programs_agree_with_reduct_oracle():
    for seed in range(300):
        p = gen_program(GenConfig(seed=seed, max_head=1))
        al = p.atoms()
        assert stable_models(p, al) == gl_stable_models(p, al), seed


def test_compiled_program_agrees_with_formula_path():
    for seed in range(150):
        p = gen_program(GenConfig(seed=seed))
        al = sorted(p.atoms())
        cp = CompiledProgram(p, al)
        phi = p.to_formula()
        for t in subsets(al):
            tm = cp.mask(t)
            assert cp.sat_classical(tm) == classical_sat(t, phi)
            for h in subsets(t):
                assert cp.sat_ht(cp.mask(h), tm) == ht_sat(h, t, phi)


def test_is_stable_model_matches_enumeration():
    for seed in range(100):
        p = gen_program(GenConfig(seed=seed))
        al = p.atoms()
        sm = set(stable_models(p, al))
        for t in subsets(sorted(al)):
            assert is_stable_model(p, t) == (t in sm)


def test_extra_alphabet_atoms_are_forced_false():
    p = parse_program("a | b. a | c.")
    base = stable_models(p)
    wider = stable_models(p, p.atoms() | {"z"})
    assert base == wider
    assert classical_models(p, p.atoms() | {"z"}) != classical_models(p)


def test_wide_alphabet_closed_form():
    # a | b over 18 atoms: a or b or both, the other 16 atoms free
    p = parse_program("a | b.")
    atoms = p.atoms() | {f"z{i:02d}" for i in range(16)}
    assert len(classical_models(p, atoms)) == 3 * 2 ** 16
    assert stable_models(p, atoms) == [frozenset("a"), frozenset("b")]


def cyclic(n):
    return parse_program("".join(
        f"x{i:02d} | x{(i + 1) % n:02d} :- not x{(i + 2) % n:02d}.\n"
        for i in range(n)))


def test_cyclic_family_stable_models_count_perrin():
    # x_i | x_{i+1} :- not x_{i+2} around a cycle of n atoms has P(n)
    # stable models, P the Perrin numbers 3, 0, 2, P(n) = P(n-2) + P(n-3)
    perrin = [3, 0, 2]
    while len(perrin) <= 12:
        perrin.append(perrin[-2] + perrin[-3])
    assert perrin[12] == 29
    for n in range(6, 13):
        assert len(stable_models(cyclic(n))) == perrin[n], n


def test_capacity_guard():
    atoms = {f"x{i}" for i in range(21)}
    with pytest.raises(CapacityError):
        classical_models(Program(()), atoms)
    # the guard is on tables; tests at one interpretation take any alphabet
    p = parse_program("a | b. " + " ".join(f"z{i:02d}." for i in range(20)))
    m = frozenset({"a"} | {f"z{i:02d}" for i in range(20)})
    assert len(list(selections(p, m))) == 1
    assert immediate_consequences(reduct(p, m, next(selections(p, m))), m) == m
    assert len(support_graphs_of(p, m)) == 1
    with pytest.raises(CapacityError):
        stable_models(p)
    with pytest.raises(CapacityError):
        is_stable_model(p, m)


def test_subset_enumeration_order():
    got = list(subsets(("b", "a")))
    assert got == [frozenset(), frozenset("a"), frozenset("b"),
                   frozenset("ab")]
