import random
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlplab import parser
from dlplab.gen import GenConfig, gen_fork, gen_program
from dlplab.parser import (MAX_NESTING, ParseError, SourceSpan, parse_fork,
                           parse_formula, parse_program, render, render_fork,
                           render_program, render_rule)
from dlplab.syntax import (FALSUM, And, Atom, Falsum, ForkAnd, ForkImplies,
                           ForkPair, Implies, Or, Program, neg, rule)

from test_golden import programs as golden_programs


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


# ---------------------------------------------------------------------------
# Rendering forks of any depth
# ---------------------------------------------------------------------------

def _wrap_recursive(f, chain=()):
    """The operand's text, in parentheses unless it is tight or a left
    operand of the same chain connective (``chain``)."""
    s = render_fork_recursive(f)
    tight = (isinstance(f, (Atom, Falsum))
             or isinstance(f, (Implies, ForkImplies)) and isinstance(f.right, Falsum))
    return s if tight or isinstance(f, chain) else f"({s})"


def render_fork_recursive(f):
    """The reference: one call per nesting level."""
    if isinstance(f, Falsum):
        return "bot"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, (Implies, ForkImplies)) and isinstance(f.right, Falsum):
        return f"-{_wrap_recursive(f.left)}"
    if isinstance(f, (And, ForkAnd)):
        return f"{_wrap_recursive(f.left, (And, ForkAnd))} & {_wrap_recursive(f.right)}"
    if isinstance(f, Or):
        return f"{_wrap_recursive(f.left, Or)} v {_wrap_recursive(f.right)}"
    if isinstance(f, (Implies, ForkImplies)):
        return f"{_wrap_recursive(f.left)} -> {_wrap_recursive(f.right)}"
    if isinstance(f, ForkPair):
        return f"{_wrap_recursive(f.left, ForkPair)} ; {_wrap_recursive(f.right)}"
    raise TypeError(f"cannot render {type(f).__name__}")


def test_render_fork_matches_the_recursive_reference():
    for seed in range(500):
        f = gen_fork(random.Random(seed), ("a", "b", "c"), 1 + seed % 5)
        assert render_fork(f) == render_fork_recursive(f)
    for bad in ("a", 1, None):
        with pytest.raises(TypeError, match=f"cannot render {type(bad).__name__}"):
            render(bad)


@pytest.mark.parametrize("op", ["&", "v", ";"])
def test_render_a_chain_of_any_length(op):
    """The parser nests a chain to the left, and its rendering leaves each
    left operand bare, so a chain of any length renders flat and parses
    back to an equal tree."""
    def chain(n):
        return f" {op} ".join(f"a{i % 5}" for i in range(n))

    for n in (3, MAX_NESTING + 2, 1500):
        f = parse_fork(chain(n))
        assert render(f) == chain(n)
        back = parse_fork(render(f))
        assert back == f and hash(back) == hash(f)
        assert render(back) == render(f)
    # a right operand of the same connective keeps its parentheses
    assert render(parse_fork(f"a0 {op} (a1 {op} a2)")) == f"a0 {op} (a1 {op} a2)"


# ---------------------------------------------------------------------------
# Error positions
# ---------------------------------------------------------------------------

_REFERENCE_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<op>:-|->|[().,:;|&\-])
    """, re.VERBOSE)


@dataclass(frozen=True)
class _ReferenceToken:
    kind: str
    text: str
    span: SourceSpan


def _reference_tokenize(text, ops, keyword_ops=frozenset()):
    """The reference tokenizer: it tracks line and column through every
    lexeme, whitespace and comments included, and builds each span as it
    goes."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REFERENCE_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             SourceSpan(line, col, line, col + 1))
        lexeme, kind = m.group(0), m.lastgroup
        start_line, start_col = line, col
        nl = lexeme.count("\n")
        if nl:
            line += nl
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
        if kind in ("ws", "comment"):
            continue
        span = SourceSpan(start_line, start_col, line, col)
        if kind == "op":
            if lexeme not in ops:
                raise ParseError(f"unexpected symbol {lexeme!r}", span)
            tokens.append(_ReferenceToken(lexeme, lexeme, span))
        elif lexeme in keyword_ops:
            tokens.append(_ReferenceToken(lexeme, lexeme, span))
        else:
            tokens.append(_ReferenceToken("ident", lexeme, span))
    tokens.append(_ReferenceToken("eof", "", SourceSpan(line, col, line, col + 1)))
    return tokens


PARSES = (parse_program, parse_fork, parse_formula)

HAND_CASES = [
    (parse_program, "a.\nb.\n:- c, d e.", "expected '.', found 'e'", (3, 9, 3, 10)),
    (parse_program, "a.\nb :- c.\nd :- !", "unexpected character '!'", (3, 6, 3, 7)),
    (parse_program, "a.\n\nb :- c", "expected '.', found 'end of input'", (3, 7, 3, 8)),
    (parse_program, "a\n% done", "expected '.', found 'end of input'", (2, 7, 2, 8)),
    (parse_program, "a :- b % c", "expected '.', found 'end of input'", (1, 11, 1, 12)),
    (parse_program, "a :-\n", "expected '.', found 'end of input'", (2, 1, 2, 2)),
    (parse_program, "a\t|\t!", "unexpected character '!'", (1, 5, 1, 6)),
    (parse_program, "\ta :- b,\t\tnot .", "expected an atom after 'not', found '.'",
     (1, 15, 1, 16)),
    (parse_program, "a.\r\nb :- c\r\n", "expected '.', found 'end of input'", (3, 1, 3, 2)),
    (parse_program, "a.\r\n% x\r\nl: b.\r\nl: c.", "duplicate rule label 'l'",
     (4, 1, 4, 2)),
    (parse_fork, "a &\r\n\t(b ; c) v d", "a split is not allowed under a disjunction",
     (1, 1, 1, 2)),
    (parse_fork, "a v\r\n\t(b ; c)", "a split is not allowed under a disjunction",
     (2, 2, 2, 3)),
    (parse_fork, "(a ; b) ->\tc", "a split is not allowed in an implication antecedent",
     (1, 1, 1, 2)),
    (parse_fork, "-\t-\n(a;b)", "a split is not allowed under negation", (1, 3, 1, 4)),
    (parse_formula, "a ;\n b", "a split connective is not allowed in a plain formula",
     (1, 1, 1, 2)),
    (parse_formula, "a v\r\n", "expected an atom, 'bot', '-' or '(', found 'end of input'",
     (2, 1, 2, 2)),
]
HAND_ACCEPTED = [(parse_program, "a.\n% done"), (parse_program, "a.\n\n"),
                 (parse_program, "a.\n%\n"), (parse_fork, "a ->\n(b ; c)\n% end\n")]


def _outcome(parse, text):
    """The parse's result, or its error's message and span."""
    try:
        return parse(text)
    except ParseError as e:
        s = e.span
        assert str(e) == f"{s.line}:{s.column}: {e.message}"
        return e.message, (s.line, s.column, s.end_line, s.end_column)


@pytest.mark.parametrize("parse, text, message, span", HAND_CASES)
def test_error_positions(parse, text, message, span):
    assert _outcome(parse, text) == (message, span)


def test_comments_and_blank_lines_at_the_end_are_accepted():
    for parse, text in HAND_ACCEPTED:
        parse(text)


def test_errors_match_a_line_tracking_tokenizer(monkeypatch):
    """On seeded strings over the grammar's characters, tabs, newlines and
    CRLF, each parse gives the result, or the error message and span, that
    it gives over the reference tokenizer."""
    pieces = list("ab :-.,|%()&;v->!#_'not") + ["not", "\t", "\n", "\r\n"]
    rng = random.Random(0)
    corpus = ["".join(rng.choice(pieces) for _ in range(rng.randrange(25)))
              for _ in range(20_000)]
    corpus += [text for _, text, _, _ in HAND_CASES]
    corpus += [text for _, text in HAND_ACCEPTED]
    got = [[_outcome(parse, text) for parse in PARSES] for text in corpus]
    monkeypatch.setattr(parser, "_tokenize", _reference_tokenize)
    want = [[_outcome(parse, text) for parse in PARSES] for text in corpus]
    assert got == want
    for k in range(len(PARSES)):
        accepted = sum(not isinstance(outcome[k], tuple) for outcome in got)
        assert 500 < accepted < len(corpus) - 500


def test_parsing_valid_text_builds_no_span(monkeypatch):
    """A span is worked out only for an error: parsing the golden programs
    and seeded renders constructs none."""
    built = []

    def counting_span(*args):
        built.append(args)
        return SourceSpan(*args)

    texts = [render_program(p) for p in golden_programs()]
    texts += [render_program(gen_program(GenConfig(seed=s))) for s in range(300)]
    assert len(texts) == 510
    monkeypatch.setattr(parser, "SourceSpan", counting_span)
    for text in texts:
        parse_program(text)
    for seed in range(100):
        parse_fork(render(gen_fork(random.Random(seed), ("a", "b", "c"), 3)))
    assert built == []
    with pytest.raises(ParseError):
        parse_program("a")
    assert built == [(1, 2, 1, 3)]
