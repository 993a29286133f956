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
model T is one table over the 2^|T| here-components of T.  The headed
models (:meth:`CompiledProgram.headed_table`: classical models in which
every true atom heads a firing rule, whatever its other head atoms) are a
third table; the semantics whose every model meets that condition (the
graph-supported, justified, candidate stable and strongly supported
models) search only its members.  The AST path
and the per-interpretation mask tests (:meth:`CompiledProgram.sat_classical`,
:meth:`CompiledProgram.sat_ht`) are the reference the tables are tested
against.

A compile builds each of its tables once, and the models of its classical
and headed tables in the order of :func:`sort_models` once, so the
enumerators handed one compile share them.  The comparison memo of
:mod:`dlplab.compare` keeps one compile per program and hands it to every
mask core; a public enumerator compiles its program once per call.  Code
that patches a :class:`CompiledProgram` method after a program was compiled
must pass a new program object, or it gets the tables already built.

:func:`stable_masks_in_contexts` sweeps a program under many contexts (the
head-splitting check adds each of its context family to one translated
program): the program is compiled once and the distinct context rules
(:class:`ContextRules`) are added to it, packed once per placement of
their atoms, every rule's tables are built once, each context folds its own
rules into copies of the program's tables, re-checking the support of only
the atoms its rules head, and what every context reaching a model shares
(:class:`_Reached`: the model's here-columns, the program's violation
table and each context rule's) is computed once per model.  One core
(:func:`_sweep`) returns the models as masks: :func:`stable_masks`, the
one-context case, sorts them, and :func:`stable_masks_in_contexts`
projects them onto a vocabulary.

Each enumerator of a program has such a mask core (:func:`classical_masks`
here, and ``*_masks`` in :mod:`dlplab.di`, :mod:`dlplab.justify`,
:mod:`dlplab.ssm` and :mod:`dlplab.forks`): the models as masks over the
sorted alphabet, in the order of :func:`sort_models`.  The cores over the
tables of this module take a compile; the fork engine's take the program
and its alphabet, since they read no table of this module.  The comparison
memo reads the cores, and the public enumerators decode them.
"""

from __future__ import annotations

from functools import lru_cache, wraps
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence, Union

from .syntax import (And, Atom, ExtendedRule, Falsum, Formula, Implies, Or,
                     Program, alphabet, rule_to_formula)

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


@lru_cache(maxsize=None)
def _byte_tables() -> tuple[bytes, tuple[tuple[int, ...], ...]]:
    """Per byte value, 1 if it is nonzero, and the positions of its set
    bits: the tables of :func:`set_bits`, built on its first call."""
    return (bytes([0] + [1] * 255),
            tuple(tuple(b for b in range(8) if v >> b & 1) for v in range(256)))


def set_bits(x: int) -> list[int]:
    """The positions of the set bits of x, ascending.  One scan of its
    bytes finds the nonzero ones at the speed of a copy, and each of those
    is read from a table, so a wide table with few members costs little
    more than its length in bytes."""
    nonzero_of, bits_of = _byte_tables()
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    nonzero = data.translate(nonzero_of)
    out = []
    i = nonzero.find(1)
    while i >= 0:
        base = 8 * i
        for b in bits_of[data[i]]:
            out.append(base + b)
        i = nonzero.find(1, i + 1)
    return out


def model_order(table: int) -> list[int]:
    """The members of a table as interpretation masks, in the order of
    :func:`sort_models`."""
    return in_model_order(set_bits(table))


def in_model_order(masks: Iterable[int]) -> list[int]:
    """Interpretation masks in the order of :func:`sort_models`."""
    # Two sets of one size compare by the least atom in which they differ,
    # which is the first digit where their masks, read from bit 0, differ;
    # the set holding it has a "1" there and comes first.  So sort by those
    # digits, highest first, and then stably by size.
    by_digits = sorted(masks, key=lambda t: bin(t)[:1:-1], reverse=True)
    return sorted(by_digits, key=int.bit_count)


def _mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _disj(atoms: Iterable[int], cols: Sequence[int]) -> int:
    out = 0
    for i in atoms:
        out |= cols[i]
    return out


def _conj(atoms: Iterable[int], cols: Sequence[int], everything: int) -> int:
    out = everything
    for i in atoms:
        out &= cols[i]
    return out


# ---------------------------------------------------------------------------
# Compiled programs
# ---------------------------------------------------------------------------

def built_once(method: Callable) -> Callable:
    """A function of a CompiledProgram, a table method or a search over its
    tables, that computes its result on the first call and keeps it on the
    compile.  The cache sits inside the function, so patching it on its
    class or module still replaces what every caller reads."""
    name = f"{method.__module__}.{method.__qualname__}"

    @wraps(method)
    def once(self):
        built = self._built.get(name)
        if built is None:
            built = self._built[name] = method(self)
        return built
    return once


class CompiledProgram:
    """Rules packed into bitmasks over a fixed, sorted alphabet.

    Tests at one interpretation take any alphabet; building a table refuses
    one of more than MAX_ENUM_ATOMS atoms.

    ``rules`` holds (head, bpos, bneg, bnegneg) masks per rule, ``lists``
    the same four parts as lists of atom indices.
    """

    __slots__ = ("atoms", "index", "full", "rules", "lists", "_built")

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
        self._built: dict[str, object] = {}  # built_once name -> its result

    def _with_rules(self, lists: tuple, rules: tuple) -> "CompiledProgram":
        """A compile of more rules over the same alphabet: these, given as
        ``lists`` and ``rules`` hold them, after this program's."""
        out = object.__new__(CompiledProgram)
        out.atoms, out.index, out.full = self.atoms, self.index, self.full
        out.lists, out.rules = self.lists + lists, self.rules + rules
        out._built = {}
        return out

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
        return [k for k, (_, bpos, bneg, bnegneg) in enumerate(self.rules)
                if bpos & t == bpos and not bneg & t and bnegneg & t == bnegneg]

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

    @built_once
    def head_order(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
        """Per rule, its head atoms as ascending indices, and the rank of
        its head set among the program's distinct head sets, which are
        ordered by those index lists: what a search over head selections
        reads of each rule at every model."""
        heads = tuple(tuple(sorted(parts[0])) for parts in self.lists)
        rank = {h: i for i, h in enumerate(sorted(set(heads)))}
        return heads, tuple(rank[h] for h in heads)

    # -- tables over all 2^n interpretations ---------------------------------

    @built_once
    def _tables(self) -> tuple[tuple[int, ...], tuple[int, ...], int]:
        """The atom columns, each rule's body table, and the universe;
        tuples, as every table of this program shares them."""
        n = len(self.atoms)
        _check_width(n)
        cols = _columns(n)
        everything = _universe(n)
        bodies = []
        for _, bpos, bneg, bnegneg in self.lists:
            body = _conj(bpos, cols, everything) & _conj(bnegneg, cols, everything)
            bodies.append(body & ~_disj(bneg, cols))
        return cols, tuple(bodies), everything

    def _holds(self, cols: Sequence[int], bodies: Sequence[int]) -> list[int]:
        """Per rule, the interpretations where it holds: its body is false
        or its head true.  Only ever and-ed into a table, so it may be
        negative."""
        return [~body | _disj(head, cols)
                for (head, _, _, _), body in zip(self.lists, bodies)]

    def _supports(self, cols: Sequence[int], bodies: Sequence[int]) -> list[int]:
        """Per rule, the interpretations where it supports each true atom
        of its head: the body holds and no other head atom is true, that
        is at most one head atom is."""
        out = []
        for (head, _, _, _), body in zip(self.lists, bodies):
            one = two = 0
            for a in head:
                two |= one & cols[a]
                one |= cols[a]
            out.append(body & ~two)
        return out

    def _add_supports(self, supported: list[int], supports: Sequence[int],
                      rules: Iterable[int]) -> list[int]:
        """Or the given rules' supports into the supported column of each
        of their head atoms, in place."""
        for k in rules:
            for a in self.lists[k][0]:
                supported[a] |= supports[k]
        return supported

    @built_once
    def model_table(self) -> int:
        """The classical models: no rule has a true body and a false head."""
        cols, bodies, out = self._tables()
        for holds in self._holds(cols, bodies):
            out &= holds
        return out

    @built_once
    def support_table(self) -> int:
        """The interpretations in which every true atom heads a rule whose
        body holds and whose other head atoms are false."""
        cols, bodies, everything = self._tables()
        supported = self._add_supports([0] * len(cols), self._supports(cols, bodies),
                                       range(len(bodies)))
        return _supported(cols, supported, everything)

    @built_once
    def headed_table(self) -> int:
        """The classical models in which every true atom heads a rule whose
        body holds, whatever its other head atoms: a rule's body table is
        its support of every head atom."""
        cols, bodies, _ = self._tables()
        headed = self._add_supports([0] * len(cols), bodies, range(len(bodies)))
        return _supported(cols, headed, self.model_table())

    @built_once
    def models_in_order(self) -> tuple[int, ...]:
        """The members of :meth:`model_table` in the order of
        :func:`sort_models`; a tuple, as every caller shares it."""
        return tuple(model_order(self.model_table()))

    @built_once
    def headed_in_order(self) -> tuple[int, ...]:
        """The members of :meth:`headed_table` in the order of
        :func:`sort_models`; a tuple, as every caller shares it."""
        return tuple(model_order(self.headed_table()))

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

    def violation(self, ri: int, t: int, cols: list[int], everything: int) -> int:
        """The here-components of t, given by their columns and their
        table, at which rule ri fails: none unless its body holds in t, else
        those holding its positive body and none of its head."""
        _, bpos, bneg, bnegneg = self.rules[ri]
        if bpos & t != bpos or bneg & t or bnegneg & t != bnegneg:
            return 0
        head, pos, _, _ = self.lists[ri]
        out = everything
        for a in pos:
            out &= cols[a]
        for a in head:
            out &= ~cols[a]
        return out

    def violations(self, t: int, rules: Iterable[int]) -> int:
        """The here-components of t, as a table of 2^|t| bits, at which one
        of the given rules fails (:meth:`violation`)."""
        trig = [ri for ri in rules if self.body_classical(ri, t)]
        if not trig:
            return 0
        everything = _universe(t.bit_count())
        cols = self.here_columns(t)
        out = 0
        for ri in trig:
            out |= self.violation(ri, t, cols, everything)
        return out

    def is_stable(self, t: int) -> bool:
        """A classical model with no here-and-there model below it.

        Only the rules whose body holds in t can fail at a pair (h, t); t is
        stable iff their violations cover every h but t.
        """
        if not self.sat_classical(t):
            return False
        return self.violations(t, range(len(self.rules))) == below_top(t.bit_count())


def below_top(width: int) -> int:
    """The table of every here-component of a width-w model but the model
    itself: the violation table of a stable model."""
    return _full_bit(width) - 1


def _and_tables(out: int, tables: list[int], rules: Iterable[int]) -> int:
    for k in rules:
        out &= tables[k]
    return out


def _supported(cols: Sequence[int], supported: Sequence[int], everything: int) -> int:
    """The interpretations in which every true atom is supported."""
    for col, sup in zip(cols, supported):
        everything &= ~col | sup
    return everything


# ---------------------------------------------------------------------------
# Model enumeration
# ---------------------------------------------------------------------------

def classical_masks(cp: CompiledProgram) -> list[int]:
    """The classical models of a compiled program as masks over its
    alphabet, in the order of :func:`sort_models`."""
    return list(cp.models_in_order())


def classical_models(x: Theory, atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """All classical models over the alphabet, sorted."""
    if isinstance(x, Program):
        cp = CompiledProgram(x, atoms)
        return [cp.unmask(t) for t in classical_masks(cp)]
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

    A program is the one-context case of :func:`stable_masks_in_contexts`:
    the same sweep, with the empty context.
    """
    if isinstance(x, Program):
        cp = CompiledProgram(x, atoms)
        return [cp.unmask(t) for t in stable_masks(cp)]
    pool = _sorted_alphabet(x, atoms)
    _check_width(len(pool))
    out = []
    for t in subsets(pool):
        if not _csat(t, x):
            continue
        if all(not _htsat(h, t, x) for h in subsets(t) if h != t):
            out.append(t)
    return sort_models(out)


def stable_masks(cp: CompiledProgram) -> list[int]:
    """The stable models of a compiled program as masks over its alphabet,
    in the order of :func:`sort_models`."""
    [masks] = _sweep(cp, len(cp.rules), ((),))
    return in_model_order(masks)


class ContextRules:
    """Contexts as their distinct rules, in order of first occurrence, and
    per context the sorted indices of its rules among them (``own``).  The
    rules are packed over their own sorted atoms once, and moved to each
    placement of those atoms in a wider alphabet once, when first asked
    for."""

    __slots__ = ("rules", "own", "atoms", "_lists", "_placed")

    def __init__(self, contexts: Iterable[Program]):
        where: dict[ExtendedRule, int] = {}
        own = []
        for c in contexts:
            for r in c.rules:
                if r not in where:
                    where[r] = len(where)
            own.append(tuple(sorted({where[r] for r in c.rules})))
        self.rules, self.own = tuple(where), tuple(own)
        packed = CompiledProgram(Program(self.rules))
        self.atoms, self._lists = packed.atoms, packed.lists
        self._placed: dict[tuple[int, ...], tuple[tuple, tuple]] = {}

    def joined(self, cp: CompiledProgram) -> CompiledProgram:
        """cp with the rules added after its own, over cp's alphabet, which
        must cover the rules."""
        place = tuple(cp.index.get(a, -1) for a in self.atoms)
        placed = self._placed.get(place)
        if placed is None:
            if -1 in place:
                raise ValueError("alphabet is missing atoms "
                                 f"{sorted(set(self.atoms).difference(cp.index))}")
            lists = tuple(tuple([place[i] for i in part] for part in parts)
                          for parts in self._lists)
            placed = self._placed[place] = (
                lists, tuple(tuple(map(_mask_of, parts)) for parts in lists))
        return cp._with_rules(*placed)


def stable_masks_in_contexts(p: Program, contexts: ContextRules,
                             atoms: Iterable[str], vocab: Iterable[str]
                             ) -> list[list[int]]:
    """The stable models of p alone and then together with each context,
    over the alphabet, each projected onto the vocabulary, which the
    alphabet covers: a mask over the sorted vocabulary, so the projections
    of two models may repeat."""
    cp = contexts.joined(CompiledProgram(p, atoms))
    vocab = sorted(set(vocab))
    outside = [a for a in vocab if a not in cp.index]
    if outside:
        raise ValueError(f"vocabulary atoms {outside} outside the alphabet")
    return _sweep(cp, len(p.rules), ((),) + contexts.own,
                  [cp.index[a] for a in vocab])


class _Reached:
    """A classical model t that a context sweep reaches, with the work every
    context reaching t shares: its mask as the sweep reports it, the
    here-columns of t, the table of every here-component but t, the
    violation table of the program's rules at t, and each context rule's
    violation table at t, built on first use."""

    __slots__ = ("cp", "t", "mask", "cols", "everything", "top", "below", "rules")

    def __init__(self, cp: CompiledProgram, t: int, base: int,
                 keep: Sequence[int] | None):
        self.cp, self.t = cp, t
        if keep is None:
            self.mask = t
        else:
            self.mask = _mask_of(i for i, j in enumerate(keep) if t >> j & 1)
        width = t.bit_count()
        self.cols = cp.here_columns(t)
        self.everything = _universe(width)
        self.top = below_top(width)
        below, cols, everything = 0, self.cols, self.everything
        for ri in range(base):
            below |= cp.violation(ri, t, cols, everything)
        self.below = below
        self.rules: dict[int, int] = {}

    def stable_with(self, rules: Iterable[int]) -> bool:
        """Whether t is stable for the program with the given rules."""
        v = self.below
        tables = self.rules
        for ri in rules:
            table = tables.get(ri)
            if table is None:
                table = tables[ri] = self.cp.violation(ri, self.t, self.cols,
                                                       self.everything)
            v |= table
        return v == self.top


def _sweep(cp: CompiledProgram, base: int, own: Sequence[Sequence[int]],
           keep: Sequence[int] | None = None) -> list[list[int]]:
    """The stable models, as masks in ascending order, of the program made
    of the first ``base`` rules of cp together with each context, given by
    the indices of its rules among the rest.  With ``keep``, a list of atom
    indices, each mask is the model's projection onto those atoms, bit i
    for ``keep[i]``.

    The table where each rule holds and its support of each head atom are
    built once.  The model table and supported columns of the program are
    built once too; a context folds only its own rules into copies of them,
    and re-ands only the support terms of the atoms its rules head, against
    the AND of the other atoms' terms, built once per set of head atoms.
    Only the completion-supported classical models reach the minimality
    test (every stable model is one), where what every context reaching a
    model t shares is computed once (:class:`_Reached`).  Contexts adding
    the same rules share their models, each in a list of its own.
    """
    cols, bodies, everything = cp._tables()
    holds, supports = cp._holds(cols, bodies), cp._supports(cols, bodies)
    program = range(base)
    models = _and_tables(everything, holds, program)
    supported = cp._add_supports([0] * len(cols), supports, program)
    # atom a's term: a is false or supported by the program
    terms = [~col | sup for col, sup in zip(cols, supported)]
    rest: dict[tuple[int, ...], int] = {}  # head atoms -> AND of the others' terms
    reached: dict[int, _Reached] = {}
    found: dict[tuple[int, ...], list[int]] = {}
    out = []
    for mine in own:
        stable = found.get(mine)
        if stable is None:
            rules = [base + k for k in mine]
            survivors = _and_tables(models, holds, rules)
            heads = tuple(sorted({a for k in rules for a in cp.lists[k][0]}))
            if heads not in rest:
                rest[heads] = _and_tables(everything, terms,
                                          (a for a in range(len(cols)) if a not in heads))
            fresh = cp._add_supports(list(supported), supports, rules)
            survivors &= _supported([cols[a] for a in heads], [fresh[a] for a in heads],
                                    rest[heads])
            stable = found[mine] = []
            for t in set_bits(survivors):
                at = reached.get(t)
                if at is None:
                    at = reached[t] = _Reached(cp, t, base, keep)
                if at.stable_with(rules):
                    stable.append(at.mask)
        out.append(list(stable))
    return out
