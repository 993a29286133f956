"""Textual formats for programs and forks.

Program syntax (ASP-Core flavoured)::

    program   ::= { statement }
    statement ::= [ label ":" ] rule "."
    rule      ::= head | head ":-" body | ":-" [ body ]
    head      ::= atom { "|" atom }
    body      ::= literal { "," literal }
    literal   ::= atom | "not" atom | "not" "not" atom
    atom      ::= identifier            (not "not"; "__" prefix reserved)
    label     ::= identifier

Fork syntax::

    fork      ::= imp { ";" imp }                 split connective
    imp       ::= dis [ "->" imp ]                right associative
    dis       ::= con { "v" con }                 plain disjunction
    con       ::= unit { "&" unit }
    unit      ::= "-" unit | atom | "bot" | "(" fork ")"

A split may not occur under "v" or to the left of "->"; violations are
reported as parse errors with their source position.  So is nesting
deeper than MAX_NESTING levels, each "(", "-" and "->" opening one:
the parser descends one call per level.  Chains of "&", "v" and ";" are
read in a loop, so they may be of any length.  In fork syntax the
identifiers "v" and "bot" are operators, so they cannot name atoms there.
Comments run from "%" to end of line in both formats; whitespace is free.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .syntax import (FALSUM, And, Atom, ExtendedRule, Falsum, Fork, ForkAnd,
                     ForkImplies, ForkPair, Formula, Implies, Or, Program,
                     fork_and, fork_implies, neg)

RESERVED_PREFIX = "__"
MAX_NESTING = 100


@dataclass(frozen=True, slots=True)
class SourceSpan:
    """1-based line and column range of a token; never empty."""

    line: int
    column: int
    end_line: int
    end_column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{span}: {message}")
        self.message = message
        self.span = span


@dataclass(frozen=True, slots=True)
class Token:
    kind: str
    text: str
    span: SourceSpan


_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<comment>%[^\n]*)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<op>:-|->|[().,:;|&\-])
    """, re.VERBOSE)


def _tokenize(text: str, ops: set[str],
              keyword_ops: frozenset[str] = frozenset()) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(line, col, line, col + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        lexeme = m.group(0)
        kind = m.lastgroup
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
            tokens.append(Token(lexeme, lexeme, span))
        elif lexeme in keyword_ops:
            tokens.append(Token(lexeme, lexeme, span))
        else:
            tokens.append(Token("ident", lexeme, span))
    end = SourceSpan(line, col, line, col + 1)
    tokens.append(Token("eof", "", end))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.depth = 0

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        t = self.tok
        if t.kind != "eof":
            self.i += 1
        return t

    def accept(self, kind: str) -> Token | None:
        if self.tok.kind == kind:
            return self.advance()
        return None

    def expect(self, kind: str, what: str) -> Token:
        if self.tok.kind != kind:
            raise ParseError(f"expected {what}, found {self.tok.text or 'end of input'!r}",
                             self.tok.span)
        return self.advance()

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.i + offset, len(self.tokens) - 1)]

    def nested(self, parse):
        """parse(self), one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting is too deep (more than {MAX_NESTING} "
                             "levels)", self.tok.span)
        self.depth += 1
        out = parse(self)
        self.depth -= 1
        return out


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

_PROGRAM_OPS = {":-", ".", ",", "|", ":"}


def _check_atom(tok: Token) -> str:
    if tok.text == "not":
        raise ParseError("'not' is a keyword and cannot name an atom", tok.span)
    if tok.text.startswith(RESERVED_PREFIX):
        raise ParseError(f"atom names starting with {RESERVED_PREFIX!r} are reserved",
                         tok.span)
    return tok.text


def parse_program(text: str) -> Program:
    """Parse a program; raises ParseError with line:column on bad input."""
    cur = _Cursor(_tokenize(text, _PROGRAM_OPS))
    rules: list[ExtendedRule] = []
    label_spans: dict[str, SourceSpan] = {}
    while cur.tok.kind != "eof":
        rules.append(_parse_statement(cur, label_spans))
    return Program(tuple(rules))


def _parse_statement(cur: _Cursor, label_spans) -> ExtendedRule:
    label = None
    if cur.tok.kind == "ident" and cur.peek().kind == ":":
        tok = cur.advance()
        cur.advance()
        if tok.text == "not":
            raise ParseError("'not' cannot be used as a rule label", tok.span)
        if tok.text in label_spans:
            raise ParseError(f"duplicate rule label {tok.text!r}", tok.span)
        label_spans[tok.text] = tok.span
        label = tok.text

    head: list[str] = []
    if cur.tok.kind == "ident":
        head.append(_check_atom(cur.advance()))
        while cur.accept("|"):
            head.append(_check_atom(cur.expect("ident", "an atom")))
    elif cur.tok.kind != ":-":
        raise ParseError(f"expected a rule, found {cur.tok.text or 'end of input'!r}",
                         cur.tok.span)

    pos: set[str] = set()
    negated: set[str] = set()
    negneg: set[str] = set()
    if cur.accept(":-") and cur.tok.kind == "ident":
        while True:
            tok = cur.expect("ident", "a body literal")
            if tok.text == "not":
                second = cur.expect("ident", "an atom after 'not'")
                if second.text == "not":
                    negneg.add(_check_atom(cur.expect("ident", "an atom after 'not not'")))
                else:
                    negated.add(_check_atom(second))
            else:
                pos.add(_check_atom(tok))
            if not cur.accept(","):
                break
    cur.expect(".", "'.'")
    return ExtendedRule(tuple(head), frozenset(pos), frozenset(negated),
                        frozenset(negneg), label)


# ---------------------------------------------------------------------------
# Forks
# ---------------------------------------------------------------------------

_FORK_OPS = {";", "->", "&", "(", ")", "-"}
_FORK_KEYWORDS = frozenset({"v"})


def parse_fork(text: str) -> Fork:
    """Parse a fork; rejects splits under 'v' or in antecedents."""
    cur = _Cursor(_tokenize(text, _FORK_OPS, _FORK_KEYWORDS))
    f = _parse_split(cur)
    if cur.tok.kind != "eof":
        raise ParseError(f"unexpected {cur.tok.text!r} after fork", cur.tok.span)
    return f


def parse_formula(text: str) -> Formula:
    """Parse a plain formula (a fork with no split connective)."""
    cur = _Cursor(_tokenize(text, _FORK_OPS, _FORK_KEYWORDS))
    span = cur.tok.span
    f = _parse_split(cur)
    if cur.tok.kind != "eof":
        raise ParseError(f"unexpected {cur.tok.text!r} after formula", cur.tok.span)
    if not isinstance(f, Formula):
        raise ParseError("a split connective is not allowed in a plain formula", span)
    return f


def _parse_split(cur: _Cursor) -> Fork:
    out = _parse_imp(cur)
    while cur.accept(";"):
        out = ForkPair(out, _parse_imp(cur))
    return out


def _parse_imp(cur: _Cursor) -> Fork:
    span = cur.tok.span
    left = _parse_dis(cur)
    if cur.accept("->"):
        if not isinstance(left, Formula):
            raise ParseError("a split is not allowed in an implication antecedent", span)
        return fork_implies(left, cur.nested(_parse_imp))
    return left


def _parse_dis(cur: _Cursor) -> Fork:
    span = cur.tok.span
    out = _parse_con(cur)
    while cur.accept("v"):
        right_span = cur.tok.span
        right = _parse_con(cur)
        if not isinstance(out, Formula):
            raise ParseError("a split is not allowed under a disjunction", span)
        if not isinstance(right, Formula):
            raise ParseError("a split is not allowed under a disjunction", right_span)
        out = Or(out, right)
    return out


def _parse_con(cur: _Cursor) -> Fork:
    out = _parse_unit(cur)
    while cur.accept("&"):
        out = fork_and(out, _parse_unit(cur))
    return out


def _parse_unit(cur: _Cursor) -> Fork:
    tok = cur.tok
    if cur.accept("-"):
        span = tok.span
        inner = cur.nested(_parse_unit)
        if not isinstance(inner, Formula):
            raise ParseError("a split is not allowed under negation", span)
        return neg(inner)
    if cur.accept("("):
        f = cur.nested(_parse_split)
        cur.expect(")", "')'")
        return f
    if tok.kind == "ident":
        cur.advance()
        if tok.text == "bot":
            return FALSUM
        if tok.text == "not":
            raise ParseError("'not' is not fork syntax; use '-' for negation", tok.span)
        return Atom(_check_atom(tok))
    raise ParseError(f"expected an atom, 'bot', '-' or '(', found "
                     f"{tok.text or 'end of input'!r}", tok.span)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_rule(r: ExtendedRule) -> str:
    parts = list(sorted(r.bpos))
    parts += [f"not {a}" for a in sorted(r.bneg)]
    parts += [f"not not {a}" for a in sorted(r.bnegneg)]
    head = " | ".join(r.head)
    label = f"{r.label}: " if r.label is not None else ""
    if head and parts:
        return f"{label}{head} :- {', '.join(parts)}."
    if head:
        return f"{label}{head}."
    if parts:
        return f"{label}:- {', '.join(parts)}."
    return f"{label}:-."


def render_program(p: Program) -> str:
    return "".join(render_rule(r) + "\n" for r in p.rules)


def _is_tight(f: Fork) -> bool:
    if isinstance(f, (Atom, Falsum)):
        return True
    return isinstance(f, (Implies, ForkImplies)) and isinstance(f.right, Falsum)


def _wrap(f: Fork) -> str:
    s = render_fork(f)
    return s if _is_tight(f) else f"({s})"


def render_fork(f: Fork) -> str:
    if isinstance(f, Falsum):
        return "bot"
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, (Implies, ForkImplies)) and isinstance(f.right, Falsum):
        return f"-{_wrap(f.left)}"
    if isinstance(f, (And, ForkAnd)):
        return f"{_wrap(f.left)} & {_wrap(f.right)}"
    if isinstance(f, Or):
        return f"{_wrap(f.left)} v {_wrap(f.right)}"
    if isinstance(f, (Implies, ForkImplies)):
        return f"{_wrap(f.left)} -> {_wrap(f.right)}"
    if isinstance(f, ForkPair):
        return f"{_wrap(f.left)} ; {_wrap(f.right)}"
    raise TypeError(f"cannot render {type(f).__name__}")


def render(x) -> str:
    """Canonical text that parses back to a structurally equal value."""
    if isinstance(x, Program):
        return render_program(x)
    if isinstance(x, ExtendedRule):
        return render_rule(x)
    return render_fork(x)
