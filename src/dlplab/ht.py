"""Classical and here-and-there satisfaction, plus brute-force enumeration
of classical and stable (equilibrium) models.

Formulas are evaluated over the AST, walked on a stack of its own
(:func:`_sat`), so a formula of any depth is read.  Programs go
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
third table.  The paired models (:meth:`CompiledProgram.paired_table`)
are the headed ones in which no two true atoms have one rule as the only
firing rule heading each of them, which an injective labelling (every true
atom gets its own firing rule heading it) needs (Hall's condition on
pairs); the table is one pass per head atom of each rule over all 2^n
interpretations.  The graph-supported, justified and candidate stable
models (open and closed: a slot's selection picks one atom) search only
the paired models; the strongly supported models search the headed ones,
as ``a | b.`` has the strongly supported model {a, b}.  The AST path
and the per-interpretation mask tests (:meth:`CompiledProgram.sat_classical`,
:meth:`CompiledProgram.sat_ht`) are the reference the tables are tested
against.  Whether a rule's body holds at one interpretation, or at a
here-and-there pair, is decided in one place, :meth:`CompiledProgram.fired`,
which every test at one interpretation, here and in :mod:`dlplab.di`,
:mod:`dlplab.justify` and :mod:`dlplab.ssm`, reads.

A compile builds each of its tables once, and the models of its classical,
headed and paired tables in the order of :func:`sort_models` once, so the
enumerators handed one compile share them.  The comparison memo of
:mod:`dlplab.compare` keeps one compile per program and hands it to every
mask core.  Code that patches a :class:`CompiledProgram` method, a mask
core or an enumerator after a program was computed must pass a new
program object, or it gets the tables and models already built.

:func:`stable_masks` keeps the completion-supported classical models
whose rules' violations cover every here-component but the model.
:func:`stable_masks_in_contexts` sweeps a program under many contexts (the
head-splitting check adds each of its context family to one translated
program) and builds only the program's tables.  A context mentions only
its own atoms, so what it adds at a model depends only on the model's
projection u onto them; :class:`ContextRules` keeps, per u, the contexts
whose rules hold there, their support of each atom and the contexts each
projected here-component is violated by, as context sets (bit 0 for the
program alone, bit j + 1 for the j-th context), and the sweep tests the
whole family at each candidate at once.  It returns one dict from each
model's projection onto a vocabulary to the context set of those it is a
stable model under.

Each enumerator of a program has such a mask core (:func:`classical_masks`
here, and ``*_masks`` in :mod:`dlplab.di`, :mod:`dlplab.justify`,
:mod:`dlplab.ssm` and :mod:`dlplab.forks`): the models as masks over the
sorted alphabet, in the order of :func:`sort_models`.  The cores over the
tables of this module take a compile; the fork engine's take the program's
fork registers, since they read no table of this module.  Only the
comparison memo calls the cores; the enumerators of a program read its rows.
A formula's stable models are the AST path: :func:`is_stable_model` on
every interpretation.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache, wraps
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence, Union

from . import compare
from .syntax import (And, Atom, ExtendedRule, Falsum, Formula, Implies, Or,
                     Program, alphabet, rule_to_formula)

MAX_ENUM_ATOMS = 20


class CapacityError(ValueError):
    """Enumeration request over an alphabet too large for desk scale."""


Theory = Union[Formula, Program]


def covering_alphabet(needed: frozenset[str],
                      atoms: Iterable[str] | None = None) -> tuple[str, ...]:
    """The given atoms sorted (the needed ones by default), which must
    include every needed atom."""
    if atoms is None:
        return tuple(sorted(needed))
    out = tuple(sorted(set(atoms)))
    missing = needed.difference(out)
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
        return all(_sat(tset, tset, rule_to_formula(r)) for r in phi.rules)
    return _sat(tset, tset, phi)


def ht_sat(here: Iterable[str], there: Iterable[str], phi: Theory) -> bool:
    """Satisfaction at the interpretation pair <here, there>."""
    h = here if isinstance(here, frozenset) else frozenset(here)
    t = there if isinstance(there, frozenset) else frozenset(there)
    if not h <= t:
        raise ValueError("'here' must be a subset of 'there'")
    if isinstance(phi, Program):
        return all(_sat(h, t, rule_to_formula(r)) for r in phi.rules)
    return _sat(h, t, phi)


_THERE, _LEFT, _RIGHT = range(3)  # what a node waits for on the stack of _sat


def _sat(h, t, phi: Formula) -> bool:
    """Truth of a formula at the here-and-there pair (h, t), which is its
    classical truth at t when h is t.  An implication holds at (h, t) iff
    it holds at (t, t) and its antecedent fails at (h, t) or its consequent
    holds.  Operands are read left to right and only until the value is
    decided, on a stack of pending nodes, so a formula of any depth is read;
    an implication's value at (t, t) is kept once read, so no node is read
    twice at one pair.
    """
    pending: list[tuple[Formula, object, int]] = []
    there: dict[int, bool] = {}  # by node id, implications read at (t, t)
    node, world = phi, h
    while True:
        kind = type(node)
        if kind is Atom:
            value = node.name in world
        elif kind is Falsum:
            value = False
        elif kind is Implies and world is not t:
            pending.append((node, world, _THERE))
            value = there.get(id(node))
            if value is None:
                world = t
                continue
        elif kind is And or kind is Or or kind is Implies:
            pending.append((node, world, _LEFT))
            node = node.left
            continue
        else:
            raise TypeError(f"cannot evaluate {type(node).__name__}")
        # hand the value up to the first node with an operand still to read
        while pending:
            node, world, waits = pending.pop()
            if waits == _THERE:
                if not value:
                    continue
                pending.append((node, world, _LEFT))
                node = node.left
                break
            kind = type(node)
            if waits == _LEFT:
                if kind is Implies and not value:
                    value = True
                elif kind is Implies or value != (kind is Or):
                    pending.append((node, world, _RIGHT))
                    node = node.right
                    break
            if kind is Implies and world is t:
                there[id(node)] = value
        else:
            return value


def ht_equivalent(phi: Formula, psi: Formula,
                  atoms: Iterable[str] | None = None) -> bool:
    """Agreement on every interpretation pair over the given alphabet."""
    if atoms is None:
        atoms = alphabet(phi) | alphabet(psi)
    pool = tuple(sorted(set(atoms)))
    _check_width(len(pool))
    for t in subsets(pool):
        for h in subsets(t):
            if _sat(h, t, phi) != _sat(h, t, psi):
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


def table_of(masks: Iterable[int], width: int) -> int:
    """The table of 2^width bits holding the given interpretation masks,
    built in a byte buffer: or-ing bits into an int copies the whole int."""
    buf = bytearray(((1 << width) + 7) // 8)
    for t in masks:
        buf[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(buf, "little")


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
        self.atoms = covering_alphabet(program.atoms(), atoms)
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

    def mask(self, atoms: Iterable[str]) -> int:
        m = 0
        for a in atoms:
            m |= 1 << self.index[a]
        return m

    def unmask(self, m: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.atoms) if m >> i & 1)

    # -- one interpretation --------------------------------------------------

    def fired(self, t: int, here: int | None = None) -> list[int]:
        """Indices of the rules whose body holds in t, or with ``here`` at
        the pair (here, t): their positive atoms in here (t by default),
        their negated ones false in t and their doubly negated ones true in
        t."""
        h = t if here is None else here
        return [ri for ri, (_, bpos, bneg, bnegneg) in enumerate(self.rules)
                if bpos & h == bpos and not bneg & t and bnegneg & t == bnegneg]

    def sat_classical(self, t: int) -> bool:
        return all(self.rules[ri][0] & t for ri in self.fired(t))

    def sat_ht(self, h: int, t: int) -> bool:
        return self.sat_classical(t) and all(self.rules[ri][0] & h
                                             for ri in self.fired(t, h))

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

    def _by_head_atom(self, per_rule: Sequence[int]) -> list[int]:
        """Per atom, the or of the given tables of the rules it heads."""
        out = [0] * len(self.atoms)
        for (head, _, _, _), table in zip(self.lists, per_rule):
            for a in head:
                out[a] |= table
        return out

    def supported_columns(self) -> list[int]:
        """Per atom, the interpretations in which a rule supports it: the
        rule's body holds and its other head atoms are false, that is at
        most one of its head atoms is true."""
        cols, bodies, _ = self._tables()
        supports = []
        for (head, _, _, _), body in zip(self.lists, bodies):
            one = two = 0
            for a in head:
                two |= one & cols[a]
                one |= cols[a]
            supports.append(body & ~two)
        return self._by_head_atom(supports)

    @built_once
    def model_table(self) -> int:
        """The classical models: no rule has a true body and a false head."""
        cols, bodies, out = self._tables()
        for (head, _, _, _), body in zip(self.lists, bodies):
            out &= ~body | _disj(head, cols)
        return out

    @built_once
    def support_table(self) -> int:
        """The interpretations in which every true atom heads a rule whose
        body holds and whose other head atoms are false."""
        cols, _, everything = self._tables()
        return _supported(cols, self.supported_columns(), everything)

    @built_once
    def headed_table(self) -> int:
        """The classical models in which every true atom heads a rule whose
        body holds, whatever its other head atoms: a rule's body table is
        its support of every head atom."""
        cols, bodies, _ = self._tables()
        return _supported(cols, self._by_head_atom(bodies), self.model_table())

    @built_once
    def paired_table(self) -> int:
        """The headed models in which no two true atoms have one rule as
        the only firing rule heading each of them: an injective labelling
        (every true atom gets its own firing rule heading it) needs two
        rules for every two true atoms (Hall's condition on pairs).

        Per atom, ``many`` holds the interpretations where at least two
        rules heading it fire, so where rule k fires, k is the only one
        heading a true atom a outside ``many[a]``; two such atoms of one
        rule close T.  Equal to the headed table when no rule has two head
        atoms or nothing is closed, and then its sorted models are shared
        (:meth:`paired_in_order`)."""
        headed = self.headed_table()
        cols, bodies, _ = self._tables()
        heads = [parts[0] for parts in self.lists]
        wide = [(head, body) for head, body in zip(heads, bodies) if len(head) > 1]
        if not wide:
            return headed
        one, many = [0] * len(cols), [0] * len(cols)
        for head, body in zip(heads, bodies):
            for a in head:
                many[a] |= one[a] & body
                one[a] |= body
        closed = 0
        for head, body in wide:
            one_only = two_only = 0
            for a in head:
                only = cols[a] & body & ~many[a]
                two_only |= one_only & only
                one_only |= only
            closed |= two_only
        return headed & ~closed

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

    @built_once
    def paired_in_order(self) -> tuple[int, ...]:
        """The members of :meth:`paired_table` in the order of
        :func:`sort_models`: :meth:`headed_in_order` itself when the two
        tables are one."""
        paired = self.paired_table()
        if paired == self.headed_table():
            return self.headed_in_order()
        return tuple(model_order(paired))

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
        table, at which rule ri, whose body holds in t (:meth:`fired`),
        fails: those holding its positive body and none of its head."""
        head, pos, _, _ = self.lists[ri]
        out = everything
        for a in pos:
            out &= cols[a]
        for a in head:
            out &= ~cols[a]
        return out

    def violated(self, t: int, cols: list[int]) -> int:
        """The here-components of t, given by their columns, at which some
        rule whose body holds in t fails."""
        everything = _universe(t.bit_count())
        out = 0
        for ri in self.fired(t):
            out |= self.violation(ri, t, cols, everything)
        return out

    def is_minimal(self, t: int) -> bool:
        """Whether the violations of the rules at t cover every
        here-component but t, so that no here-and-there model of the
        rules lies below t."""
        return self.violated(t, self.here_columns(t)) == below_top(t.bit_count())

    def is_stable(self, t: int) -> bool:
        """A classical model with no here-and-there model below it."""
        return self.sat_classical(t) and self.is_minimal(t)


def below_top(width: int) -> int:
    """The table of every here-component of a width-w model but the model
    itself: the violation table of a stable model."""
    return _full_bit(width) - 1


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
    """All classical models over the alphabet, sorted (a program's: row ``classical``)."""
    if isinstance(x, Program):
        return compare.model_tables(x, atoms).models("classical")
    pool = covering_alphabet(alphabet(x), atoms)
    _check_width(len(pool))
    return sort_models(t for t in subsets(pool) if _sat(t, t, x))


def is_stable_model(x: Theory, t: Iterable[str]) -> bool:
    """Total model test plus minimality of the here-component."""
    tset = frozenset(t)
    if isinstance(x, Program):
        cp = CompiledProgram(x, tset | alphabet(x))
        return cp.is_stable(cp.mask(tset))
    if not _sat(tset, tset, x):
        return False
    _check_width(len(tset))
    return all(not _sat(h, tset, x) for h in subsets(tset) if h != tset)


def stable_models(x: Theory, atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """All stable (equilibrium) models over the alphabet, sorted.

    A program's are row ``sm`` of :func:`compare.model_tables`
    (:func:`stable_masks`).
    """
    if isinstance(x, Program):
        return compare.model_tables(x, atoms).models("sm")
    pool = covering_alphabet(alphabet(x), atoms)
    _check_width(len(pool))
    return sort_models(t for t in subsets(pool) if is_stable_model(x, t))


def stable_masks(cp: CompiledProgram) -> list[int]:
    """The stable models of a compiled program as masks over its alphabet,
    in the order of :func:`sort_models`: the completion-supported
    classical models (every stable model is one) that are minimal
    (:meth:`CompiledProgram.is_minimal`)."""
    return [t for t in model_order(cp.model_table() & cp.support_table())
            if cp.is_minimal(t)]


class ContextRules:
    """Contexts as their distinct rules, in order of first occurrence and
    without their labels, which name a rule within its own context only,
    packed over the rules' own sorted atoms (``atoms``), with what a sweep
    reads of them at each source interpretation u, a mask over those
    atoms, built on first use (:meth:`at`).  A context set is an int whose
    bit j + 1 stands for the j-th context and bit 0 for a program alone;
    ``everyone`` is the set of all of them."""

    __slots__ = ("rules", "atoms", "everyone", "_users", "_packed", "_at")

    def __init__(self, contexts: Iterable[Program]):
        users: dict[ExtendedRule, int] = {}
        j = 0
        for j, c in enumerate(contexts, 1):
            for r in c.rules:
                if r.label is not None:
                    r = replace(r, label=None)
                users[r] = users.get(r, 0) | 1 << j
        self.rules, self.everyone = tuple(users), (2 << j) - 1
        self._users = tuple(users.values())  # per rule, the contexts holding it
        self._packed = CompiledProgram(Program(self.rules))
        self.atoms = self._packed.atoms
        self._at: dict[int, _Source] = {}

    def at(self, u: int) -> "_Source":
        """What the contexts add at the source interpretation u."""
        got = self._at.get(u)
        if got is None:
            got = self._at[u] = _Source(self._packed, self._users, self.everyone, u)
        return got


class _Source:
    """What contexts add at a source interpretation u: the contexts whose
    rules all hold in u (``holds``, with bit 0); per atom, the contexts
    with a rule whose body holds in u and whose only true head atom is
    that atom (``supports``); the positive body and head of each rule
    whose body holds in u, with the contexts holding it (``firing``); and the cover sets of
    :meth:`cover` found so far.  It holds no reference to its
    :class:`ContextRules`, so a dropped family is freed at once."""

    __slots__ = ("holds", "supports", "firing", "covers")

    def __init__(self, packed: CompiledProgram, users: Sequence[int], everyone: int,
                 u: int):
        self.holds, self.supports, self.firing = everyone, [0] * len(packed.atoms), []
        self.covers: dict[int, int] = {}
        for k in packed.fired(u):
            head, bpos, _, _ = packed.rules[k]
            true = head & u
            if not true:
                self.holds &= ~users[k]
            elif not true & true - 1:
                self.supports[true.bit_length() - 1] |= users[k]
            self.firing.append((bpos, head, users[k]))

    def cover(self, g: int) -> int:
        """The contexts with a rule whose body holds in u that fails at the
        here-components projecting to g, a subset of u: its positive body
        lies in g and its head outside."""
        got = self.covers.get(g)
        if got is None:
            got = 0
            for bpos, head, holding in self.firing:
                if bpos & g == bpos and not head & g:
                    got |= holding
            self.covers[g] = got
        return got


def stable_masks_in_contexts(p: Program, contexts: ContextRules,
                             atoms: Iterable[str], vocab: Iterable[str]
                             ) -> dict[int, int]:
    """The stable models of p alone and together with each context, over
    the alphabet, projected onto the vocabulary, which the alphabet covers:
    a map from each projection, a mask over the sorted vocabulary, to the
    context set of those it is the projection of a stable model under (bit
    0 for p alone, bit j + 1 for the j-th context), never empty.  Models
    with one projection share its entry.

    Only p's tables are built.  A context mentions only its own atoms, so
    what it adds at a model t depends on t's projection u onto them, read
    off :meth:`ContextRules.at` for all contexts at once, as a context set.
    The candidates are p's classical models in which every atom outside
    the contexts' atoms is supported by p; each atom that p does not
    support must be supported by the context.  The here-components of t
    that p's rules leave unviolated must each be violated by a rule of the
    context, which depends only on the component's projection onto the
    contexts' atoms, so they are grouped by it and tested once per group.
    """
    cp = CompiledProgram(p, atoms)
    place = [cp.index.get(a, -1) for a in contexts.atoms]
    if -1 in place:
        raise ValueError("alphabet is missing atoms "
                         f"{sorted(set(contexts.atoms).difference(cp.index))}")
    vocab = sorted(set(vocab))
    outside = [a for a in vocab if a not in cp.index]
    if outside:
        raise ValueError(f"vocabulary atoms {outside} outside the alphabet")
    keep = [cp.index[a] for a in vocab]
    low = keep[0] if keep else 0
    # a vocabulary of consecutive atoms, as a pf's source alphabet after its
    # fresh atoms, projects by one shift
    shifted = keep == list(range(low, low + len(keep)))
    ones = (1 << len(keep)) - 1
    cols = cp._tables()[0]
    supported = cp.supported_columns()
    others = [a for a in range(len(cols)) if a not in place]
    candidates = _supported([cols[a] for a in others], [supported[a] for a in others],
                            cp.model_table())
    out: dict[int, int] = {}
    for t in set_bits(candidates):
        u, inside = 0, []
        for i, a in enumerate(place):
            if t >> a & 1:
                u |= 1 << i
                inside.append((i, a))
        at = contexts.at(u)
        alive = at.holds
        for i, a in inside:
            if not supported[a] >> t & 1:
                alive &= at.supports[i]
        if not alive:
            continue
        here = cp.here_columns(t)
        left = below_top(t.bit_count()) & ~cp.violated(t, here)
        if left:
            groups = [(left, 0)]
            for i, a in inside:
                col, split = here[a], []
                for table, g in groups:
                    if table & col:
                        split.append((table & col, g | 1 << i))
                    if table & ~col:
                        split.append((table & ~col, g))
                groups = split
            for _, g in groups:
                alive &= at.cover(g)
                if not alive:
                    break
        if alive:
            mask = (t >> low & ones if shifted
                    else _mask_of(i for i, a in enumerate(keep) if t >> a & 1))
            out[mask] = out.get(mask, 0) | alive
    return out
