import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlplab.gen import GenConfig, gen_fork, gen_program
from dlplab.parser import (MAX_NESTING, ParseError, parse_fork, parse_formula,
                           parse_program, render, render_program, render_rule)
from dlplab.syntax import (FALSUM, Atom, ForkPair, Implies, Or, Program, neg,
                           rule)


def test_parse_two_disjunctions():
    p = parse_program("a | b.  a | c.")
    assert p == Program((rule(head=("a", "b")), rule(head=("a", "c"))))


def test_parse_labelled_program():
    p = parse_program("l1: a | b.\nl2: a | c.")
    assert [r.label for r in p.rules] == ["l1", "l2"]
    assert p.rules[0].head == ("a", "b")


def test_parse_body_literals():
    p = parse_program("p :- not not q, not r.")
    r = p.rules[0]
    assert r.head == ("p",)
    assert r.bnegneg == {"q"}
    assert r.bneg == {"r"}
    assert not r.bpos


def test_parse_constraint_and_fact():
    p = parse_program("a.  :- c.")
    assert p.rules[0].is_fact
    assert p.rules[1].is_constraint
    assert p.rules[1].bpos == {"c"}


def test_parse_empty_constraint():
    p = parse_program(":-.")
    assert p.rules[0].is_constraint
    assert not p.rules[0].body_atoms


def test_comments_and_whitespace_ignored():
    p = parse_program("% header\n  a   |\n b. % trailing\n")
    assert p.rules[0].head == ("a", "b")


def test_duplicate_label_reported_with_position():
    with pytest.raises(ParseError, match="duplicate rule label"):
        parse_program("l: a.\nl: b.")


def test_not_cannot_name_an_atom():
    with pytest.raises(ParseError, match="keyword"):
        parse_program("not.")


def test_reserved_prefix_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_program("__x.")
    for parse in (parse_fork, parse_formula):
        with pytest.raises(ParseError, match="reserved"):
            parse("a & -__x")


def test_syntax_error_has_line_and_column():
    with pytest.raises(ParseError) as exc:
        parse_program("a |\n| b.")
    assert exc.value.span.line == 2
    assert exc.value.span.column == 1


def test_parse_fork_of_two_splits():
    f = parse_fork("(a ; b) & (a ; c)")
    from dlplab.syntax import ForkAnd
    assert f == ForkAnd(ForkPair(Atom("a"), Atom("b")),
                        ForkPair(Atom("a"), Atom("c")))


def test_split_under_disjunction_rejected():
    with pytest.raises(ParseError, match="not allowed under a disjunction"):
        parse_fork("(a ; b) v c")


def test_split_in_antecedent_rejected():
    with pytest.raises(ParseError, match="antecedent"):
        parse_fork("(a ; b) -> c")


def test_parse_negative_implication():
    assert parse_fork("-b -> b") == Implies(neg(Atom("b")), Atom("b"))


def test_parse_bot_and_derived_truth():
    assert parse_fork("bot") == FALSUM
    assert parse_fork("-bot") == neg(FALSUM)


def test_parse_formula_rejects_split():
    with pytest.raises(ParseError, match="split"):
        parse_formula("a ; b")


@pytest.mark.parametrize("shape", ["implication", "negation", "parentheses"])
def test_nesting_depth_is_a_parse_error(shape):
    def text(depth):
        if shape == "implication":
            return " -> ".join(["a0"] * (depth + 1))
        if shape == "negation":
            return "- " * depth + "a0"
        return "(" * depth + "a0" + ")" * depth
    want = Atom("a0")
    for _ in range(MAX_NESTING if shape != "parentheses" else 0):
        want = Implies(Atom("a0"), want) if shape == "implication" else neg(want)
    for parse in (parse_fork, parse_formula):
        assert parse(text(MAX_NESTING)) == want
        for depth in (MAX_NESTING + 1, 1500):
            with pytest.raises(ParseError, match="nesting is too deep"):
                parse(text(depth))


def test_operator_precedence():
    f = parse_formula("a & b v c -> d")
    assert f == Implies(Or(parse_formula("a & b"), Atom("c")), Atom("d"))
    g = parse_fork("a -> b ; c")
    assert g == ForkPair(Implies(Atom("a"), Atom("b")), Atom("c"))


def test_render_program_canonical():
    p = parse_program("a|b. a|c.")
    assert render(p) == "a | b.\na | c.\n"
    assert render_rule(rule(pos=("c",))) == ":- c."
    assert render_rule(rule(head=("a",))) == "a."
    assert render_rule(rule(head=("a",), pos=("b",), negated=("c",),
                            negneg=("d",), label="l")) \
        == "l: a :- b, not c, not not d."


def test_program_roundtrip_on_seeded_programs():
    for seed in range(300):
        p = gen_program(GenConfig(seed=seed))
        assert parse_program(render_program(p)) == p


def test_fork_roundtrip_on_seeded_forks():
    for seed in range(300):
        f = gen_fork(random.Random(seed), ("a", "b", "c"), 3)
        assert parse_fork(render(f)) == f


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_roundtrip_property(seed):
    p = gen_program(GenConfig(seed=seed, atoms=5, rules=6))
    assert parse_program(render_program(p)) == p
    f = gen_fork(random.Random(seed), ("a", "b"), 3)
    assert parse_fork(render(f)) == f
