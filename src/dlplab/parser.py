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

Text is scanned in one regex pass, and each token keeps its offsets in
the text.  A token's line:column span (``SourceSpan``) is worked out from
its offsets only when a ``ParseError`` reports it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

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


class Token:
    """A token and its offsets in the text; its span is worked out from
    them only when asked, which is when an error reports it."""

    __slots__ = ("kind", "text", "start", "end", "source")

    def __init__(self, kind: str, text: str, start: int, end: int, source: str):
        self.kind = kind
        self.text = text
        self.start = start
        self.end = end
        self.source = source

    @property
    def span(self) -> SourceSpan:
        s, a, b = self.source, self.start, self.end
        return SourceSpan(s.count("\n", 0, a) + 1, a - s.rfind("\n", 0, a),
                          s.count("\n", 0, b) + 1, b - s.rfind("\n", 0, b))


# A token's match takes the whitespace after it, so only comments and
# leading whitespace are matches of their own: a third fewer matches on
# rendered programs, which takes about a fifth off the scan.  A match that
# does not start where the last one ended leaves an unexpected character.
_IDENT = r"[A-Za-z_][A-Za-z0-9_']*"
_IDENT_RE = re.compile(_IDENT)
_TOKEN_RE = re.compile(rf"""
      (?P<ident>{_IDENT})\s*
    | (?P<op>:-|->|[().,:;|&\-])\s*
    | (?P<skip>\s+|%[^\n]*)
    """, re.VERBOSE)


def _tokenize(text: str, ops: set[str],
              keyword_ops: frozenset[str] = frozenset()) -> list[Token]:
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        start, end = m.span()
        if start != pos:
            break
        pos = end
        ident, op, _ = m.groups()
        if op is not None:
            tok = Token(op, op, start, start + len(op), text)
            if op not in ops:
                raise ParseError(f"unexpected symbol {op!r}", tok.span)
            tokens.append(tok)
        elif ident is not None:
            kind = ident if ident in keyword_ops else "ident"
            tokens.append(Token(kind, ident, start, start + len(ident), text))
    if pos != len(text):
        raise ParseError(f"unexpected character {text[pos]!r}",
                         Token("", "", pos, pos + 1, text).span)
    tokens.append(Token("eof", "", len(text), len(text) + 1, text))
    return tokens


class _Cursor:
    """The parser's position in a token list; ``tok`` is the current token.
    No caller advances, accepts or expects "eof", so none passes it."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.tok = tokens[0]
        self.depth = 0

    def advance(self) -> Token:
        t = self.tok
        self.i += 1
        self.tok = self.tokens[self.i]
        return t

    def accept(self, kind: str) -> Token | None:
        t = self.tok
        if t.kind != kind:
            return None
        self.i += 1
        self.tok = self.tokens[self.i]
        return t

    def expect(self, kind: str, what: str) -> Token:
        t = self.tok
        if t.kind != kind:
            raise ParseError(f"expected {what}, found {t.text or 'end of input'!r}", t.span)
        self.i += 1
        self.tok = self.tokens[self.i]
        return t

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


# The identifiers that cannot name an atom: keywords and operators.
PROGRAM_KEYWORDS = frozenset({"not"})
FORK_KEYWORDS = frozenset({"not", "v", "bot"})


# A parse asks once per atom token, mostly of names seen before; uncached,
# the identifier test costs parse_program about 8%.
@lru_cache(maxsize=1024)
def atom_problem(name: str, keywords: frozenset[str] = PROGRAM_KEYWORDS) -> str | None:
    """Why name cannot name an atom in the grammar of the given keywords
    (the program grammar's by default, FORK_KEYWORDS for forks), or None
    when it can: the atom rule of both grammars."""
    if name in keywords:
        return f"{name!r} is a keyword and cannot name an atom"
    if name.startswith(RESERVED_PREFIX):
        return f"atom names starting with {RESERVED_PREFIX!r} are reserved"
    if _IDENT_RE.fullmatch(name) is None:
        return f"{name!r} is not an identifier"
    return None


def _check_atom(tok: Token) -> str:
    problem = atom_problem(tok.text)
    if problem is not None:
        raise ParseError(problem, tok.span)
    return tok.text


def parse_program(text: str) -> Program:
    """Parse a program; raises ParseError with line:column on bad input."""
    cur = _Cursor(_tokenize(text, _PROGRAM_OPS))
    rules: list[ExtendedRule] = []
    labels: set[str] = set()
    while cur.tok.kind != "eof":
        rules.append(_parse_statement(cur, labels))
    return Program(tuple(rules))


def _parse_statement(cur: _Cursor, labels: set[str]) -> ExtendedRule:
    label = None
    # an ident is not the last token, eof is
    if cur.tok.kind == "ident" and cur.tokens[cur.i + 1].kind == ":":
        tok = cur.advance()
        cur.advance()
        if tok.text == "not":
            raise ParseError("'not' cannot be used as a rule label", tok.span)
        if tok.text in labels:
            raise ParseError(f"duplicate rule label {tok.text!r}", tok.span)
        labels.add(tok.text)
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
_FORK_KEYWORD_OPS = frozenset({"v"})


def parse_fork(text: str) -> Fork:
    """Parse a fork; rejects splits under 'v' or in antecedents."""
    cur = _Cursor(_tokenize(text, _FORK_OPS, _FORK_KEYWORD_OPS))
    f = _parse_split(cur)
    if cur.tok.kind != "eof":
        raise ParseError(f"unexpected {cur.tok.text!r} after fork", cur.tok.span)
    return f


def parse_formula(text: str) -> Formula:
    """Parse a plain formula (a fork with no split connective)."""
    cur = _Cursor(_tokenize(text, _FORK_OPS, _FORK_KEYWORD_OPS))
    tok = cur.tok
    f = _parse_split(cur)
    if cur.tok.kind != "eof":
        raise ParseError(f"unexpected {cur.tok.text!r} after formula", cur.tok.span)
    if not isinstance(f, Formula):
        raise ParseError("a split connective is not allowed in a plain formula", tok.span)
    return f


def _parse_split(cur: _Cursor) -> Fork:
    out = _parse_imp(cur)
    while cur.accept(";"):
        out = ForkPair(out, _parse_imp(cur))
    return out


def _parse_imp(cur: _Cursor) -> Fork:
    tok = cur.tok
    left = _parse_dis(cur)
    if cur.accept("->"):
        if not isinstance(left, Formula):
            raise ParseError("a split is not allowed in an implication antecedent", tok.span)
        return fork_implies(left, cur.nested(_parse_imp))
    return left


def _parse_dis(cur: _Cursor) -> Fork:
    first = cur.tok
    out = _parse_con(cur)
    while cur.accept("v"):
        right_first = cur.tok
        right = _parse_con(cur)
        if not isinstance(out, Formula):
            raise ParseError("a split is not allowed under a disjunction", first.span)
        if not isinstance(right, Formula):
            raise ParseError("a split is not allowed under a disjunction", right_first.span)
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
        inner = cur.nested(_parse_unit)
        if not isinstance(inner, Formula):
            raise ParseError("a split is not allowed under negation", tok.span)
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


_INFIX = {And: " & ", ForkAnd: " & ", Or: " v ", Implies: " -> ",
          ForkImplies: " -> ", ForkPair: " ; "}


def render_fork(f: Fork) -> str:
    """The text of a fork, each operand that is not an atom, "bot" or a
    negation in parentheses, except the left operand of the same "&", "v"
    or ";": the parser reads those chains left to right in a loop, so a
    chain of any length renders flat and parses back.  The tree is walked
    on a stack of text pieces and nodes still to render, so a fork of any
    depth renders."""
    if isinstance(f, str):  # the stack holds text pieces as str
        raise TypeError("cannot render str")
    out: list[str] = []
    todo: list = [f]
    while todo:
        node = todo.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, (Atom, Falsum)):
            out.append(node.name if isinstance(node, Atom) else "bot")
        else:
            chained = False
            if isinstance(node, (Implies, ForkImplies)) and isinstance(node.right, Falsum):
                parts = ("-", node.left)
            else:
                sep = _INFIX.get(type(node))
                if sep is None:
                    raise TypeError(f"cannot render {type(node).__name__}")
                parts = (node.left, sep, node.right)
                chained = sep != " -> " and _INFIX.get(type(node.left)) == sep
            for k, part in reversed(tuple(enumerate(parts))):
                tight = isinstance(part, str) or _is_tight(part) or k == 0 and chained
                todo += (part,) if tight else (")", part, "(")
    return "".join(out)


def render(x) -> str:
    """Canonical text that parses back to a structurally equal value."""
    if isinstance(x, Program):
        return render_program(x)
    if isinstance(x, ExtendedRule):
        return render_rule(x)
    return render_fork(x)
