"""Classical and here-and-there satisfaction, plus brute-force enumeration
of classical and stable (equilibrium) models.

Formulas are evaluated by direct recursion over the AST.  Programs go
through :class:`CompiledProgram`, which packs each rule into four bitmasks
over a sorted alphabet and enumerates on truth tables (Knuth, TAOCP 4A,
7.1.3): over n atoms a table is an int of 2^n bits whose bit t says
whether the interpretation with mask t has a property, each atom is the
column of its truth table, and a rule's body or head is a single big-int
operation per atom.  The classical models are one table, the
completion-supported ones (every true atom heads a firing rule whose other
head atoms are false) another, and the here-and-there minimality of a
model T is one table over the 2^|T| here-components of T.  The AST path
and the per-interpretation mask tests (:meth:`CompiledProgram.sat_classical`,
:meth:`CompiledProgram.sat_ht`) are the reference the tables are tested
against.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Union

from .syntax import (And, Atom, Falsum, Formula, Implies, Or, Program,
                     alphabet, rule_to_formula)

MAX_ENUM_ATOMS = 20


class CapacityError(ValueError):
    """Enumeration request over an alphabet too large for desk scale."""


Theory = Union[Formula, Program]


def _sorted_alphabet(x: Theory, atoms: Iterable[str] | None) -> tuple[str, ...]:
    own = alphabet(x)
    if atoms is None:
        out = tuple(sorted(own))
    else:
        out = tuple(sorted(set(atoms)))
        missing = own - set(out)
        if missing:
            raise ValueError(f"alphabet is missing atoms {sorted(missing)}")
    return out


def _check_width(n: int) -> None:
    """Refuse to enumerate over more than MAX_ENUM_ATOMS atoms."""
    if n > MAX_ENUM_ATOMS:
        raise CapacityError(
            f"{n} atoms exceed the enumeration bound of {MAX_ENUM_ATOMS}")


def subsets(atoms: Iterable[str]) -> Iterator[frozenset[str]]:
    """All subsets, in ascending cardinality then lexicographic order."""
    pool = sorted(set(atoms))
    for size in range(len(pool) + 1):
        for combo in combinations(pool, size):
            yield frozenset(combo)


def sort_models(models: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    return sorted(set(models), key=lambda m: (len(m), tuple(sorted(m))))


# ---------------------------------------------------------------------------
# Satisfaction on formula ASTs
# ---------------------------------------------------------------------------

def classical_sat(t: Iterable[str], phi: Theory) -> bool:
    """Truth of a formula or program in a classical interpretation."""
    tset = t if isinstance(t, (set, frozenset)) else frozenset(t)
    if isinstance(phi, Program):
        return all(_csat(tset, rule_to_formula(r)) for r in phi.rules)
    return _csat(tset, phi)


def _csat(t, phi: Formula) -> bool:
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Atom):
        return phi.name in t
    if isinstance(phi, And):
        return _csat(t, phi.left) and _csat(t, phi.right)
    if isinstance(phi, Or):
        return _csat(t, phi.left) or _csat(t, phi.right)
    if isinstance(phi, Implies):
        return not _csat(t, phi.left) or _csat(t, phi.right)
    raise TypeError(f"cannot evaluate {type(phi).__name__}")


def ht_sat(here: Iterable[str], there: Iterable[str], phi: Theory) -> bool:
    """Satisfaction at the interpretation pair <here, there>."""
    h = here if isinstance(here, frozenset) else frozenset(here)
    t = there if isinstance(there, frozenset) else frozenset(there)
    if not h <= t:
        raise ValueError("'here' must be a subset of 'there'")
    if isinstance(phi, Program):
        return all(_htsat(h, t, rule_to_formula(r)) for r in phi.rules)
    return _htsat(h, t, phi)


def _htsat(h, t, phi: Formula) -> bool:
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Atom):
        return phi.name in h
    if isinstance(phi, And):
        return _htsat(h, t, phi.left) and _htsat(h, t, phi.right)
    if isinstance(phi, Or):
        return _htsat(h, t, phi.left) or _htsat(h, t, phi.right)
    if isinstance(phi, Implies):
        if not (not _csat(t, phi.left) or _csat(t, phi.right)):
            return False
        return not _htsat(h, t, phi.left) or _htsat(h, t, phi.right)
    raise TypeError(f"cannot evaluate {type(phi).__name__}")


def ht_equivalent(phi: Formula, psi: Formula,
                  atoms: Iterable[str] | None = None) -> bool:
    """Agreement on every interpretation pair over the given alphabet."""
    if atoms is None:
        atoms = alphabet(phi) | alphabet(psi)
    pool = tuple(sorted(set(atoms)))
    _check_width(len(pool))
    for t in subsets(pool):
        for h in subsets(t):
            if _htsat(h, t, phi) != _htsat(h, t, psi):
                return False
    return True


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------

def _universe(width: int) -> int:
    """The table holding every subset of a base of the given width."""
    return (1 << (1 << width)) - 1


def _full_bit(width: int) -> int:
    """The table member standing for the base set itself."""
    return 1 << ((1 << width) - 1)


@lru_cache(maxsize=None)
def _columns(width: int) -> tuple[int, ...]:
    """The truth-table column of each atom of a base of the given width,
    which repeats 2^i clear bits followed by 2^i set bits for the i-th
    atom."""
    out = []
    for i in range(width):
        col, span = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while span < 1 << width:
            col |= col << span
            span <<= 1
        out.append(col)
    return tuple(out)


def set_bits(x: int) -> list[int]:
    """The positions of the set bits of x, ascending.  One scan over its
    binary digits, so the cost is linear in the length of x however many
    bits are set."""
    digits = bin(x)[:1:-1]
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def model_order(table: int) -> list[int]:
    """The members of a table as interpretation masks, in the order of
    :func:`sort_models`."""
    # Two sets of one size compare by the least atom in which they differ,
    # which is the first digit where their masks, read from bit 0, differ;
    # the set holding it has a "1" there and comes first.  So sort by those
    # digits, highest first, and then stably by size.
    by_digits = sorted(set_bits(table), key=lambda t: bin(t)[:1:-1], reverse=True)
    return sorted(by_digits, key=int.bit_count)


def _mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _disj(atoms: Iterable[int], cols: list[int]) -> int:
    out = 0
    for i in atoms:
        out |= cols[i]
    return out


def _conj(atoms: Iterable[int], cols: list[int], everything: int) -> int:
    out = everything
    for i in atoms:
        out &= cols[i]
    return out


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------

class CompiledProgram:
    """Rules packed into bitmasks over a fixed, sorted alphabet.

    Tests at one interpretation take any alphabet; building a table refuses
    one of more than MAX_ENUM_ATOMS atoms.

    ``rules`` holds (head, bpos, bneg, bnegneg) masks per rule, ``lists``
    the same four parts as lists of atom indices.
    """

    __slots__ = ("atoms", "index", "full", "rules", "lists")

    def __init__(self, program: Program, atoms: Iterable[str] | None = None):
        self.atoms = _sorted_alphabet(program, atoms)
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self.full = (1 << len(self.atoms)) - 1
        index = self.index
        lists, rules = [], []
        for r in program.rules:
            parts = ([index[a] for a in r.head], [index[a] for a in r.bpos],
                     [index[a] for a in r.bneg], [index[a] for a in r.bnegneg])
            lists.append(parts)
            rules.append(tuple(map(_mask_of, parts)))
        self.lists = tuple(lists)
        self.rules = tuple(rules)

    def mask(self, atoms: Iterable[str]) -> int:
        m = 0
        for a in atoms:
            m |= 1 << self.index[a]
        return m

    def unmask(self, m: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.atoms) if m >> i & 1)

    # -- one interpretation --------------------------------------------------

    def body_classical(self, ri: int, t: int) -> bool:
        _, bpos, bneg, bnegneg = self.rules[ri]
        return bpos & t == bpos and not bneg & t and bnegneg & t == bnegneg

    def body_ht(self, ri: int, h: int, t: int) -> bool:
        _, bpos, bneg, bnegneg = self.rules[ri]
        return bpos & h == bpos and not bneg & t and bnegneg & t == bnegneg

    def triggered(self, t: int) -> list[int]:
        """Indices of the rules whose body holds in t."""
        return [k for k in range(len(self.rules)) if self.body_classical(k, t)]

    def sat_classical(self, t: int) -> bool:
        for ri, (head, _, _, _) in enumerate(self.rules):
            if self.body_classical(ri, t) and not head & t:
                return False
        return True

    def sat_ht(self, h: int, t: int) -> bool:
        for ri, (head, _, _, _) in enumerate(self.rules):
            if self.body_classical(ri, t) and not head & t:
                return False
            if self.body_ht(ri, h, t) and not head & h:
                return False
        return True

    # -- tables over all 2^n interpretations ---------------------------------

    def _tables(self) -> tuple[list[int], list[int], int]:
        """The atom columns, each rule's body table, and the universe."""
        n = len(self.atoms)
        _check_width(n)
        cols = list(_columns(n))
        everything = _universe(n)
        bodies = []
        for _, bpos, bneg, bnegneg in self.lists:
            body = _conj(bpos, cols, everything) & _conj(bnegneg, cols, everything)
            bodies.append(body & ~_disj(bneg, cols))
        return cols, bodies, everything

    def model_table(self) -> int:
        """The classical models: no rule has a true body and a false head."""
        cols, bodies, out = self._tables()
        for (head, _, _, _), body in zip(self.lists, bodies):
            out &= ~body | _disj(head, cols)
        return out

    def support_table(self) -> int:
        """The interpretations in which every true atom heads a rule whose
        body holds and whose other head atoms are false."""
        cols, bodies, out = self._tables()
        supported = [0] * len(cols)
        for (head, _, _, _), body in zip(self.lists, bodies):
            for a in head:
                supported[a] |= body & ~_disj((b for b in head if b != a), cols)
        for col, sup in zip(cols, supported):
            out &= ~col | sup
        return out

    # -- tables over the 2^|t| here-components of t -------------------------

    def here_columns(self, t: int) -> list[int]:
        """Each atom's column over the here-components of t, a table of
        2^|t| bits; zero for the atoms outside t."""
        _check_width(t.bit_count())
        cols = iter(_columns(t.bit_count()))
        return [next(cols) if t >> i & 1 else 0 for i in range(len(self.atoms))]

    def positive_table(self, ri: int, cols: list[int], everything: int) -> int:
        """The here-components, given by their columns, that contain the
        positive body of the rule."""
        return _conj(self.lists[ri][1], cols, everything)

    def is_stable(self, t: int) -> bool:
        """A classical model with no here-and-there model below it.

        Only the rules whose body holds in t can fail at a pair (h, t), and
        one does exactly when h holds its positive body and none of its
        head; t is stable iff those violations cover every h but t.
        """
        trig = self.triggered(t)
        if any(not self.rules[ri][0] & t for ri in trig):
            return False
        width = t.bit_count()
        everything = _universe(width)
        cols = self.here_columns(t)
        violated = 0
        for ri in trig:
            violated |= (self.positive_table(ri, cols, everything)
                         & ~_disj(self.lists[ri][0], cols))
        return violated == below_top(width)


def below_top(width: int) -> int:
    """The table of every here-component of a width-w model but the model
    itself: the violation table of a stable model."""
    return _full_bit(width) - 1


# ---------------------------------------------------------------------------
# Model enumeration
# ---------------------------------------------------------------------------

def classical_models(x: Theory, atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """All classical models over the alphabet, sorted."""
    if isinstance(x, Program):
        cp = CompiledProgram(x, atoms)
        return [cp.unmask(t) for t in model_order(cp.model_table())]
    pool = _sorted_alphabet(x, atoms)
    _check_width(len(pool))
    return sort_models(t for t in subsets(pool) if _csat(t, x))


def is_stable_model(x: Theory, t: Iterable[str]) -> bool:
    """Total model test plus minimality of the here-component."""
    tset = frozenset(t)
    if isinstance(x, Program):
        cp = CompiledProgram(x, tset | alphabet(x))
        return cp.is_stable(cp.mask(tset))
    if not _csat(tset, x):
        return False
    return all(not _htsat(h, tset, x) for h in subsets(tset) if h != tset)


def stable_models(x: Theory, atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """All stable (equilibrium) models over the alphabet, sorted.

    For programs only the completion-supported classical models reach the
    minimality test: every stable model is one.
    """
    if isinstance(x, Program):
        cp = CompiledProgram(x, atoms)
        survivors = cp.model_table() & cp.support_table()
        return [cp.unmask(t) for t in model_order(survivors) if cp.is_stable(t)]
    pool = _sorted_alphabet(x, atoms)
    _check_width(len(pool))
    out = []
    for t in subsets(pool):
        if not _csat(t, x):
            continue
        if all(not _htsat(h, t, x) for h in subsets(t) if h != t):
            out.append(t)
    return sort_models(out)
