import random

import pytest

from dlplab import checks, compare, di, forks, ht, justify, ssm
from dlplab.di import immediate_consequences, reduct, selections
from dlplab.gen import GenConfig, gen_formula, gen_program
from dlplab.ht import (CapacityError, CompiledProgram, classical_models,
                       classical_sat, ht_equivalent, ht_sat, is_stable_model,
                       stable_models, subsets)
from dlplab.justify import support_graphs_of
from dlplab.parser import parse_formula, parse_fork, parse_program
from dlplab.syntax import Atom, Implies, Program, forked, neg

from families import cyclic


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


@pytest.mark.parametrize("op", ["&", "v", "->"])
def test_formulas_of_any_depth_are_evaluated(op):
    """A 1500-term chain, read by parse_fork for & and v (nested to the
    left) and built nested to the right for ->, agrees with a shallow
    formula equivalent to it in HT: every evaluation runs on a stack of
    its own."""
    terms = [f"a{i % 5}" for i in range(1500)]
    if op == "->":
        deep = Atom("a0")
        for name in terms[1:]:
            deep = Implies(Atom("a1"), deep)
        shallow = parse_formula("a1 -> a0")
    else:
        deep = parse_fork(f" {op} ".join(terms))
        shallow = parse_formula(f" {op} ".join(terms[:5]))
    atoms = [f"a{i}" for i in range(5)]
    assert classical_models(deep, atoms) == classical_models(shallow, atoms)
    assert stable_models(deep, atoms) == stable_models(shallow, atoms)
    assert ht_equivalent(deep, shallow, atoms)
    for t in subsets(atoms):
        assert classical_sat(t, deep) == classical_sat(t, shallow)
        assert is_stable_model(deep, t) == is_stable_model(shallow, t)
        for h in subsets(t):
            assert ht_sat(h, t, deep) == ht_sat(h, t, shallow)


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


def test_set_bits_reads_tables_of_every_width_and_density():
    rng = random.Random(11)
    for width in (0, 1, 7, 8, 9, 64, 4096, 1 << 16):
        for density in (0, 1, 3, 8):
            x = rng.getrandbits(width) if width else 0
            for _ in range(density):
                x &= rng.getrandbits(width) if width else 0
            assert ht.set_bits(x) == [i for i in range(width) if x >> i & 1]
    assert ht.set_bits(1 << 20) == [20]


# ---------------------------------------------------------------------------
# Capacity at every public entry point
# ---------------------------------------------------------------------------

WIDE = [f"x{i:02d}" for i in range(ht.MAX_ENUM_ATOMS + 1)]
WIDE_PROGRAM = cyclic(len(WIDE))
WIDE_FORMULA = parse_formula(" & ".join(WIDE))
WIDE_FORK = forked(WIDE_PROGRAM)
WIDE_ENTRIES = {
    "classical_models": lambda: ht.classical_models(WIDE_PROGRAM),
    "stable_models": lambda: ht.stable_models(WIDE_PROGRAM),
    "entails_forked": lambda: forks.entails_forked(
        compare.model_tables(WIDE_PROGRAM).registers),
    "justified_models": lambda: justify.justified_models(WIDE_PROGRAM),
    "supported_models_graph": lambda: justify.supported_models_graph(WIDE_PROGRAM),
    "ad_supported_models": lambda: justify.ad_supported_models(WIDE_PROGRAM),
    "candidate_stable_models": lambda: di.candidate_stable_models(WIDE_PROGRAM),
    "supported_models_fixpoint": lambda: di.supported_models_fixpoint(WIDE_PROGRAM),
    "strongly_supported_models": lambda: ssm.strongly_supported_models(WIDE_PROGRAM),
    "fork_stable_models": lambda: forks.fork_stable_models(WIDE_FORK),
    "strongly_entails": lambda: forks.strongly_entails(WIDE_FORMULA, WIDE_FORK),
    "denotation": lambda: forks.denotation(WIDE_FORK, WIDE),
    "support_of_formula": lambda: forks.support_of_formula(WIDE_FORMULA, WIDE),
    "classical_models-formula": lambda: ht.classical_models(WIDE_FORMULA),
    "stable_models-formula": lambda: ht.stable_models(WIDE_FORMULA),
    "ht_equivalent": lambda: ht.ht_equivalent(WIDE_FORMULA, WIDE_FORMULA),
    "is_stable_model": lambda: ht.is_stable_model(WIDE_PROGRAM, WIDE),
    "is_stable_model-formula": lambda: ht.is_stable_model(WIDE_FORMULA, WIDE),
    "check_pf_projection": lambda: checks.check_pf_projection(WIDE_PROGRAM),
    "Support.top": lambda: forks.Support.top(WIDE),
    # rows read off the memo itself
    **{f"model_tables-{row}":
       lambda row=row: compare.model_tables(WIDE_PROGRAM).models(row)
       for row in ("fork", "sm-formula", "csm-closed", "di", "ssm")},
}


@pytest.mark.parametrize("entry", list(WIDE_ENTRIES))
def test_every_public_enumeration_refuses_a_wide_alphabet(entry, monkeypatch):
    """Each public entry refuses MAX_ENUM_ATOMS + 1 atoms with CapacityError
    before it builds a truth table of that width."""
    for module in (ht, forks):
        for name in ("_columns", "_universe"):
            def spy(width, real=getattr(module, name), name=name):
                assert width <= ht.MAX_ENUM_ATOMS, f"{name}({width})"
                return real(width)
            monkeypatch.setattr(module, name, spy)
    with pytest.raises(CapacityError):
        WIDE_ENTRIES[entry]()
