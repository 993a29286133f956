import pytest

from dlplab.syntax import (FALSUM, TRUTH, And, Atom, ExtendedRule, ForkAnd,
                           ForkGrammarError, ForkImplies, ForkPair, Implies,
                           Or, Program, alphabet, fork_implies, forked,
                           forked_rule, neg, rule, rule_to_formula)


def test_rule_to_formula_disjunctive_fact():
    r = rule(head=("a", "b"))
    # the empty body is dropped rather than written as a verum antecedent
    assert rule_to_formula(r) == Or(Atom("a"), Atom("b"))


def test_rule_to_formula_constraint():
    r = rule(pos=("c",))
    assert rule_to_formula(r) == Implies(Atom("c"), FALSUM)


def test_rule_to_formula_negative_loop():
    r = rule(head=("b",), negated=("b",))
    assert rule_to_formula(r) == Implies(neg(Atom("b")), Atom("b"))


def test_rule_to_formula_empty_rule_is_falsum():
    assert rule_to_formula(rule()) == FALSUM


def test_forked_two_disjunctions():
    p = Program((rule(head=("a", "b")), rule(head=("a", "c"))))
    assert forked(p) == ForkAnd(ForkPair(Atom("a"), Atom("b")),
                                ForkPair(Atom("a"), Atom("c")))


def test_forked_fact_unchanged():
    p = Program((rule(head=("a",)),))
    assert forked(p) == Atom("a")


def test_forked_empty_program_is_truth():
    assert forked(Program(())) == TRUTH


def test_forked_negative_loop_program():
    p = Program((rule(head=("a", "b")), rule(head=("a",)),
                 rule(head=("b",), negated=("b",))))
    f = forked(p)
    assert isinstance(f, ForkAnd)
    assert f.left == ForkPair(Atom("a"), Atom("b"))
    assert f.right == And(Atom("a"), Implies(neg(Atom("b")), Atom("b")))


def test_forked_rule_with_body():
    r = rule(head=("a", "b"), pos=("p",))
    f = forked_rule(r)
    assert isinstance(f, ForkImplies)
    assert f.left == Atom("p")
    assert f.right == ForkPair(Atom("a"), Atom("b"))


def test_forked_matches_formula_on_normal_rules():
    for r in (rule(head=("a",), pos=("b",), negated=("c",)),
              rule(pos=("a",)),
              rule(head=("x",), negneg=("y",))):
        assert forked_rule(r) == rule_to_formula(r)


def test_alphabet():
    p = Program((rule(head=("a", "b")), rule(head=("a", "c"))))
    assert alphabet(p) == {"a", "b", "c"}
    assert alphabet(FALSUM) == frozenset()
    assert alphabet(rule(head=("x",), negated=("y",))) == {"x", "y"}


def test_head_duplicates_collapse_keeping_first_occurrence():
    r = ExtendedRule(("b", "a", "b", "a"))
    assert r.head == ("b", "a")


def test_rules_share_one_empty_body_set():
    """Most body parts are empty; every rule, however built, holds the same
    empty frozenset for them."""
    rules = [ExtendedRule(("a",)), rule(head=("b",), pos=set(), negated=[]),
             ExtendedRule(("c",), frozenset(), frozenset(), frozenset(["d"]))]
    empties = {id(part) for r in rules for part in (r.bpos, r.bneg, r.bnegneg) if not part}
    assert len(empties) == 1
    assert rules[2].bnegneg == {"d"}


def test_programs_keep_their_atoms_out_of_equality_hash_and_repr():
    """A program computes its atoms once and keeps them; a program that has
    computed them equals, hashes and prints as one that has not."""
    rules = (rule(head=("a", "b"), negated=("c",)), rule(head=("c",), pos=("d",)))
    p, q = Program(rules), Program(rules)
    assert p.atoms() == {"a", "b", "c", "d"}
    assert p.atoms() is p.atoms()
    assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
    assert q.atoms() == p.atoms() and p == q and hash(p) == hash(q)
    assert p != Program(rules[:1]) and Program(()).atoms() == frozenset()
    assert {p: 1}[Program(rules)] == 1


def test_rule_category_flags():
    assert rule(pos=("a",)).is_constraint
    assert rule(head=("a",)).is_normal
    assert rule(head=("a",)).is_fact
    assert not rule(head=("a",), pos=("b",)).is_fact
    assert not rule(head=("a", "b")).is_normal


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Program((rule(head=("a",), label="l"), rule(head=("b",), label="l")))


def test_auto_labelling_preserves_existing_and_avoids_clashes():
    p = Program((rule(head=("a",), label="r2"), rule(head=("b",))))
    q = p.labelled()
    assert q.rules[0].label == "r2"
    assert q.rules[1].label == "r2_"
    assert Program((rule(head=("a",)),)).labelled().rules[0].label == "r1"


def test_labelling_keeps_every_field_of_the_rules():
    p = Program((rule(head=("b", "a", "b"), pos=("c",), negated=("d",), negneg=("e",)),
                 rule(head=("a",), label="r1"), rule()))
    q = p.labelled()
    assert [r.label for r in q.rules] == ["r1_", "r1", "r3"]
    for r, s in zip(p.rules, q.rules):
        assert (s.head, s.bpos, s.bneg, s.bnegneg) == (r.head, r.bpos, r.bneg, r.bnegneg)
        built = ExtendedRule(r.head, r.bpos, r.bneg, r.bnegneg, s.label)
        assert s == built and hash(s) == hash(built) and repr(s) == repr(built)
    assert q.rules[0].head == ("b", "a")
    assert q.rules[1] is p.rules[1]


def test_fork_not_allowed_in_disjunction_or_antecedent():
    pair = ForkPair(Atom("a"), Atom("b"))
    with pytest.raises(ForkGrammarError):
        Or(pair, Atom("c"))
    with pytest.raises(ForkGrammarError):
        fork_implies(pair, Atom("c"))


def test_truth_is_expanded_double_negation_of_falsum():
    assert TRUTH == Implies(FALSUM, FALSUM)


def test_deep_trees_compare_and_hash_on_a_stack():
    """Equality and hash walk a tree on a stack of their own, so a 1500-term
    chain and a 1500-deep implication compare, and equality stays
    structural."""
    from dlplab.parser import parse_fork

    text = " & ".join(f"a{i % 5}" for i in range(1500))
    chain, again = parse_fork(text), parse_fork(text)
    assert chain is not again and chain == again and hash(chain) == hash(again)
    other = parse_fork(text[:-len("a4")] + "a9")  # only the last atom differs
    assert chain != other and not chain == other

    def implication(last):
        out = Atom(last)
        for i in range(1500):
            out = Implies(Atom(f"a{i % 5}"), out)
        return out

    deep = implication("z")
    assert deep == implication("z") and hash(deep) == hash(implication("z"))
    assert deep != implication("y")
    forks = [ForkPair(Atom("a"), deep), ForkAnd(deep, ForkPair(Atom("a"), FALSUM)),
             ForkImplies(deep, ForkPair(Atom("a"), Atom("b")))]
    for f in forks:
        copy = type(f)(f.left, f.right)
        assert f == copy and hash(f) == hash(copy)
    assert And(Atom("a"), Atom("b")) != Or(Atom("a"), Atom("b"))
    assert ForkPair(Atom("a"), Atom("b")) != ForkPair(Atom("b"), Atom("a"))
    assert And(Atom("a"), Atom("b")) != "a & b"
    assert len({And(Atom("a"), FALSUM), And(Atom("a"), FALSUM), chain, again}) == 2
