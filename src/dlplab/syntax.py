"""Abstract syntax: propositional formulas, extended disjunctive rules,
labelled programs, and forks.

Atoms are plain strings.  Formulas are built from the five primitive
connectives (falsum, atom, conjunction, disjunction, implication); negation
and verum are stored in expanded form so that evaluation only ever needs the
primitive cases.  Forks extend formulas with the head-level split connective,
which may not occur inside a disjunction or an implication antecedent; this
restriction is enforced at construction time.

All values are immutable and hashable, so they can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Union


class ForkGrammarError(ValueError):
    """A fork was used where only a plain propositional formula is allowed."""


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class Formula:
    """Base class for propositional formulas."""

    __slots__ = ()


def _tree_eq(x, y) -> bool:
    """Structural equality of two formulas or forks, walked on a stack of
    its own, so trees of any depth compare; the binary connectives take it
    as their ``==``."""
    if type(x) is not type(y):
        return NotImplemented
    todo = [(x, y)]
    while todo:
        a, b = todo.pop()
        if a is b:
            continue
        if type(a) is not type(b):
            return False
        if type(a) in _BINARY:
            todo += ((a.right, b.right), (a.left, b.left))
        elif a != b:
            return False
    return True


def _tree_hash(x) -> int:
    """The hash of the tree's nodes in prefix order, connectives by class
    and leaves by value, which determines the tree; consistent with
    :func:`_tree_eq`."""
    prefix, todo = [], [x]
    while todo:
        a = todo.pop()
        if type(a) in _BINARY:
            prefix.append(type(a))
            todo += (a.right, a.left)
        else:
            prefix.append(a)
    return hash(tuple(prefix))


@dataclass(frozen=True, slots=True)
class Falsum(Formula):
    pass


@dataclass(frozen=True, slots=True)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("atom name must be a non-empty string")


@dataclass(frozen=True, slots=True)
class And(Formula):
    left: Formula
    right: Formula

    __eq__, __hash__ = _tree_eq, _tree_hash

    def __post_init__(self):
        _require_formula(self.left, "conjunct")
        _require_formula(self.right, "conjunct")


@dataclass(frozen=True, slots=True)
class Or(Formula):
    left: Formula
    right: Formula

    __eq__, __hash__ = _tree_eq, _tree_hash

    def __post_init__(self):
        _require_formula(self.left, "disjunct")
        _require_formula(self.right, "disjunct")


@dataclass(frozen=True, slots=True)
class Implies(Formula):
    left: Formula
    right: Formula

    __eq__, __hash__ = _tree_eq, _tree_hash

    def __post_init__(self):
        _require_formula(self.left, "antecedent")
        _require_formula(self.right, "consequent")


FALSUM = Falsum()


def _require_formula(x, role: str) -> None:
    if not isinstance(x, Formula):
        raise ForkGrammarError(f"a fork is not allowed as a {role}")


def neg(phi: Formula) -> Formula:
    """Negation, stored expanded as an implication into falsum."""
    return Implies(phi, FALSUM)


TRUTH = neg(FALSUM)


def _nested(join: Callable, items: list, empty: Fork | None) -> Fork:
    """The items joined right-nested; ``empty`` for no items."""
    out = items[-1] if items else empty
    for item in reversed(items[:-1]):
        out = join(item, out)
    return out


def conj(parts: Iterable[Formula]) -> Formula:
    """Right-nested conjunction; empty input yields verum."""
    return _nested(And, list(parts), TRUTH)


def disj(parts: Iterable[Formula]) -> Formula:
    """Right-nested disjunction; empty input yields falsum."""
    return _nested(Or, list(parts), FALSUM)


# ---------------------------------------------------------------------------
# Rules and programs
# ---------------------------------------------------------------------------

_NO_ATOMS: frozenset[str] = frozenset()


@dataclass(frozen=True, slots=True)
class ExtendedRule:
    """An extended disjunctive rule.

    The head is an ordered tuple of atoms (duplicates collapsed, first
    occurrence wins); the three body parts hold the positive, negated and
    doubly negated body atoms.  An empty head makes the rule a constraint.
    """

    head: tuple[str, ...] = ()
    bpos: frozenset[str] = _NO_ATOMS
    bneg: frozenset[str] = _NO_ATOMS
    bnegneg: frozenset[str] = _NO_ATOMS
    label: str | None = None

    def __post_init__(self):
        seen = []
        for a in self.head:
            if not a:
                raise ValueError("atom name must be a non-empty string")
            if a not in seen:
                seen.append(a)
        object.__setattr__(self, "head", tuple(seen))
        # Most body parts are empty, and each empty frozenset is an object
        # of its own, so every rule shares one.
        object.__setattr__(self, "bpos", frozenset(self.bpos) or _NO_ATOMS)
        object.__setattr__(self, "bneg", frozenset(self.bneg) or _NO_ATOMS)
        object.__setattr__(self, "bnegneg", frozenset(self.bnegneg) or _NO_ATOMS)

    @property
    def head_set(self) -> frozenset[str]:
        return frozenset(self.head)

    @property
    def body_atoms(self) -> frozenset[str]:
        return self.bpos | self.bneg | self.bnegneg

    @property
    def is_constraint(self) -> bool:
        return not self.head

    @property
    def is_normal(self) -> bool:
        return len(self.head) <= 1

    @property
    def is_fact(self) -> bool:
        return len(self.head) == 1 and not self.body_atoms

    def atoms(self) -> frozenset[str]:
        return self.head_set | self.body_atoms

    def body_formula(self) -> Formula:
        parts = [Atom(a) for a in sorted(self.bpos)]
        parts += [neg(Atom(a)) for a in sorted(self.bneg)]
        parts += [neg(neg(Atom(a))) for a in sorted(self.bnegneg)]
        return conj(parts)

    def head_formula(self) -> Formula:
        return disj(Atom(a) for a in self.head)

    def with_label(self, label: str | None) -> "ExtendedRule":
        """The rule under another label.  The fields are already normalised,
        so they are copied without running the constructor again."""
        out = object.__new__(ExtendedRule)
        put = object.__setattr__
        put(out, "head", self.head)
        put(out, "bpos", self.bpos)
        put(out, "bneg", self.bneg)
        put(out, "bnegneg", self.bnegneg)
        put(out, "label", label)
        return out


def rule(head: Iterable[str] = (),
         pos: Iterable[str] = (),
         negated: Iterable[str] = (),
         negneg: Iterable[str] = (),
         label: str | None = None) -> ExtendedRule:
    """Convenience constructor; accepts any iterables of atom names."""
    return ExtendedRule(tuple(head), frozenset(pos), frozenset(negated),
                        frozenset(negneg), label)


@dataclass(frozen=True, slots=True)
class Program:
    """An ordered list of rules.  Labels, where present, must be distinct."""

    rules: tuple[ExtendedRule, ...] = ()
    # the atoms, computed on first use; equality, hashing and repr ignore it
    _atoms: frozenset[str] | None = field(default=None, init=False, repr=False,
                                          compare=False)

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        seen: set[str] = set()
        for r in self.rules:
            if r.label is None:
                continue
            if r.label in seen:
                raise ValueError(f"duplicate rule label {r.label!r}")
            seen.add(r.label)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def atoms(self) -> frozenset[str]:
        out = self._atoms
        if out is None:
            out = frozenset().union(*(r.atoms() for r in self.rules))
            object.__setattr__(self, "_atoms", out)
        return out

    @property
    def is_normal(self) -> bool:
        return all(r.is_normal for r in self.rules)

    @property
    def is_disjunctive(self) -> bool:
        return any(len(r.head) > 1 for r in self.rules)

    @property
    def is_labelled(self) -> bool:
        return all(r.label is not None for r in self.rules)

    def labelled(self) -> "Program":
        """Fill in missing labels as r1, r2, ... avoiding clashes."""
        if self.is_labelled:
            return self
        taken = {r.label for r in self.rules if r.label is not None}
        out = []
        for i, r in enumerate(self.rules, start=1):
            if r.label is not None:
                out.append(r)
                continue
            name = f"r{i}"
            while name in taken:
                name = name + "_"
            taken.add(name)
            out.append(r.with_label(name))
        return Program(tuple(out))

    def rule_by_label(self, label: str) -> ExtendedRule:
        for r in self.rules:
            if r.label == label:
                return r
        raise KeyError(label)

    def to_formula(self) -> Formula:
        return conj(rule_to_formula(r) for r in self.rules)


def rule_to_formula(r: ExtendedRule) -> Formula:
    """The rule read as an implication from its body to its head.

    An empty head stands for falsum; an empty body is dropped rather than
    written as an explicit verum antecedent.
    """
    head = r.head_formula()
    if not r.body_atoms:
        return head
    return Implies(r.body_formula(), head)


# ---------------------------------------------------------------------------
# Forks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ForkPair:
    """The split connective between two forks."""

    left: "Fork"
    right: "Fork"

    __eq__, __hash__ = _tree_eq, _tree_hash

    def __post_init__(self):
        _require_fork(self.left)
        _require_fork(self.right)


@dataclass(frozen=True, slots=True)
class ForkAnd:
    """Conjunction where at least one side is a proper fork."""

    left: "Fork"
    right: "Fork"

    __eq__, __hash__ = _tree_eq, _tree_hash

    def __post_init__(self):
        _require_fork(self.left)
        _require_fork(self.right)


@dataclass(frozen=True, slots=True)
class ForkImplies:
    """Implication from a plain formula into a proper fork."""

    left: Formula
    right: "Fork"

    __eq__, __hash__ = _tree_eq, _tree_hash

    def __post_init__(self):
        _require_formula(self.left, "antecedent")
        _require_fork(self.right)


Fork = Union[Formula, ForkPair, ForkAnd, ForkImplies]

_FORK_TYPES = (Formula, ForkPair, ForkAnd, ForkImplies)
_BINARY = frozenset((And, Or, Implies, ForkPair, ForkAnd, ForkImplies))


def _require_fork(x) -> None:
    if not isinstance(x, _FORK_TYPES):
        raise TypeError(f"not a fork: {x!r}")


def fork_and(left: Fork, right: Fork) -> Fork:
    """Conjunction of forks, collapsing to a plain formula when possible."""
    if isinstance(left, Formula) and isinstance(right, Formula):
        return And(left, right)
    return ForkAnd(left, right)


def fork_implies(antecedent: Formula, consequent: Fork) -> Fork:
    if isinstance(consequent, Formula):
        return Implies(antecedent, consequent)
    return ForkImplies(antecedent, consequent)


def fork_conj(parts: Iterable[Fork]) -> Fork:
    return _nested(fork_and, list(parts), TRUTH)


def fork_split(parts: Iterable[Fork]) -> Fork:
    items = list(parts)
    if not items:
        raise ValueError("cannot split zero branches")
    return _nested(ForkPair, items, None)


def forked_rule(r: ExtendedRule) -> Fork:
    """The rule with its head disjunction replaced by the split connective.

    Extended normal rules come out unchanged as plain formulas.
    """
    if r.is_normal:
        return rule_to_formula(r)
    head = fork_split(Atom(a) for a in r.head)
    if not r.body_atoms:
        return head
    return fork_implies(r.body_formula(), head)


def forked(p: Program) -> Fork:
    """Conjunction of the forked rules; the empty program yields verum."""
    return fork_conj(forked_rule(r) for r in p.rules)


# ---------------------------------------------------------------------------
# Alphabets
# ---------------------------------------------------------------------------

def alphabet(x) -> frozenset[str]:
    """The set of atoms occurring in a formula, fork, rule or program."""
    if isinstance(x, (Program, ExtendedRule)):
        return x.atoms()
    # a loop, not recursion: a program's conjunction nests one level per rule
    out: set[str] = set()
    todo = [x]
    while todo:
        y = todo.pop()
        if isinstance(y, Atom):
            out.add(y.name)
        elif isinstance(y, (And, Or, Implies, ForkPair, ForkAnd, ForkImplies)):
            todo += (y.left, y.right)
        elif not isinstance(y, Falsum):
            raise TypeError(f"no alphabet for {type(y).__name__}")
    return frozenset(out)
