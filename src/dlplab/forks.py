"""Denotational semantics of forks: supports, views, stable models,
strong entailment, the head-splitting translation into auxiliary atoms,
and vocabulary projection.

A support relative to a set of atoms T is a set of subsets of T that
contains T whenever it is nonempty; it records which here-components
satisfy a formula at T.  Supports are ordered by "less supported than":
the empty support is below everything, and otherwise a support shrinks
(towards the singleton [T]) as it gets closer to making T stable.

A view is a set of supports closed downwards under that order, which is
the same as being closed under supersets of its member supports.  Views
are therefore stored as the antichain of their inclusion-minimal member
supports; this keeps equality and inclusion tests exact at any base size,
while explicit member enumeration (needed only for printing and for the
projection operator) is guarded at 4 base atoms.

Computation runs on truth tables (Knuth, TAOCP 4A, 7.1.3).  Over a base
of width w a support is an int of 2^w bits whose bit m is set iff the
here-mask m (bit i standing for the i-th atom of the sorted base) is a
member; an atom's support is the column of its truth table, and the
connectives become single big-int operations.  A view is a list of such
ints.  The atom columns (``_columns``) and the bit reader are shared
with the program tables of :mod:`dlplab.ht`.  :func:`fork_stable_models`
and :func:`strongly_entails` compile their forks once into a flat list of
register operations and run it for each T, so no formula is hashed or
dispatched on per T.  The public :class:`Support` and :class:`View` keep
their members as frozensets of here-masks; :meth:`Support.member_sets`
gives them back as atom sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from . import ht
from .ht import _columns, _full_bit, _universe, set_bits
from .syntax import (And, Atom, ExtendedRule, Falsum, Fork, ForkAnd,
                     ForkImplies, ForkPair, Formula, Implies, Or, Program,
                     alphabet, rule)

MAX_EXPLICIT_BASE = 4


class BaseMismatchError(ValueError):
    """Two supports or views relative to different atom sets were combined."""


def _canon_base(atoms: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(atoms)))


# ---------------------------------------------------------------------------
# Int supports
# ---------------------------------------------------------------------------

def _pack(members: frozenset[int]) -> int:
    return sum(1 << m for m in members)


def _unpack(x: int) -> frozenset[int]:
    return frozenset(set_bits(x))


def _support_order(x: int) -> tuple[int, list[int]]:
    """Size, then the sorted member masks: the order supports print in."""
    return x.bit_count(), set_bits(x)


def _complement(s: int, everything: int, full_bit: int) -> int:
    """Empty when the support holds all subsets; otherwise the missing
    subsets together with the base set."""
    return 0 if s == everything else everything ^ s | full_bit


def _minimal(cands: list[int]) -> list[int]:
    """Inclusion-minimal supports among nonempty candidates."""
    if len(cands) == 1:
        return cands
    if len(cands) == 2:
        x, y = cands
        if not x & ~y:
            return [x]
        return [y] if not y & ~x else cands
    kept: list[int] = []
    for c in sorted(set(cands), key=int.bit_count):
        for k in kept:
            if not k & ~c:
                break
        else:
            kept.append(c)
    return kept


# ---------------------------------------------------------------------------
# Supports
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Support:
    """A set of subsets of the base, nonempty only if it contains the base."""

    base: tuple[str, ...]
    members: frozenset[int]

    def __post_init__(self):
        full = (1 << len(self.base)) - 1
        for m in self.members:
            if m < 0 or m > full:
                raise ValueError("support member outside the base")
        if self.members and full not in self.members:
            raise ValueError("a nonempty support must contain its base set")

    @classmethod
    def of(cls, base: Iterable[str], member_sets: Iterable[Iterable[str]]) -> "Support":
        b = _canon_base(base)
        index = {a: i for i, a in enumerate(b)}
        members = []
        for s in member_sets:
            m = 0
            for a in s:
                m |= 1 << index[a]
            members.append(m)
        return cls(b, frozenset(members))

    @classmethod
    def empty(cls, base: Iterable[str]) -> "Support":
        return cls(_canon_base(base), frozenset())

    @classmethod
    def top(cls, base: Iterable[str]) -> "Support":
        """The singleton support [T], the maximum of the support order."""
        b = _canon_base(base)
        return cls(b, frozenset(((1 << len(b)) - 1,)))

    @classmethod
    def all_subsets(cls, base: Iterable[str]) -> "Support":
        b = _canon_base(base)
        return cls(b, frozenset(range(1 << len(b))))

    @property
    def full_mask(self) -> int:
        return (1 << len(self.base)) - 1

    @property
    def is_empty(self) -> bool:
        return not self.members

    def decode(self, m: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.base) if m >> i & 1)

    def member_sets(self) -> list[frozenset[str]]:
        out = [self.decode(m) for m in self.members]
        return sorted(out, key=lambda s: (-len(s), tuple(sorted(s))))

    def __contains__(self, s) -> bool:
        if isinstance(s, int):
            return s in self.members
        index = {a: i for i, a in enumerate(self.base)}
        m = 0
        for a in s:
            if a not in index:
                return False
            m |= 1 << index[a]
        return m in self.members

    def __str__(self) -> str:
        if not self.members:
            return "[ ]"
        names = []
        for s in self.member_sets():
            names.append("{" + ",".join(sorted(s)) + "}" if s else "∅")
        return "[" + " ".join(names) + "]"


def _same_base(h1: Support, h2: Support) -> None:
    if h1.base != h2.base:
        raise BaseMismatchError(
            f"supports over different bases: {h1.base} vs {h2.base}")


def preceq(h1: Support, h2: Support) -> bool:
    """The "less supported than" order on supports over a common base."""
    _same_base(h1, h2)
    if not h1.members:
        return True
    return bool(h2.members) and h2.members <= h1.members


def complement(h: Support) -> Support:
    """Empty when the support holds all subsets; otherwise the missing
    subsets together with the base set."""
    width = len(h.base)
    c = _complement(_pack(h.members), _universe(width), _full_bit(width))
    return Support(h.base, _unpack(c))


def restrict_support(h: Support, vocab: Iterable[str]) -> Support:
    """Intersect every member with the vocabulary; the base shrinks too."""
    keep = set(vocab)
    new_base = _canon_base(a for a in h.base if a in keep)
    index = {a: i for i, a in enumerate(new_base)}
    members = set()
    for m in h.members:
        nm = 0
        for i, a in enumerate(h.base):
            if m >> i & 1 and a in index:
                nm |= 1 << index[a]
        members.add(nm)
    return Support(new_base, frozenset(members))


def is_vocab_feasible(h: Support, vocab: Iterable[str]) -> bool:
    """No proper member may agree with the base on the whole vocabulary."""
    vmask = 0
    keep = set(vocab)
    for i, a in enumerate(h.base):
        if a in keep:
            vmask |= 1 << i
    full = h.full_mask
    return not any(m != full and m & vmask == full & vmask for m in h.members)


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class View:
    """A superset-closed family of supports, stored by its minimal members."""

    base: tuple[str, ...]
    gens: frozenset[frozenset[int]]

    @classmethod
    def closed(cls, base: Iterable[str], supports: Iterable[frozenset[int]]) -> "View":
        return cls._of_ints(_canon_base(base),
                            _minimal([x for x in map(_pack, supports) if x]))

    @classmethod
    def _of_ints(cls, base: tuple[str, ...], gens: Iterable[int]) -> "View":
        return cls(base, frozenset(_unpack(g) for g in gens))

    @classmethod
    def nothing(cls, base: Iterable[str]) -> "View":
        return cls(_canon_base(base), frozenset())

    @property
    def is_empty(self) -> bool:
        return not self.gens

    def contains(self, h: Support) -> bool:
        if h.base != self.base:
            raise BaseMismatchError(
                f"support base {h.base} does not match view base {self.base}")
        return bool(h.members) and any(g <= h.members for g in self.gens)

    def includes(self, other: "View") -> bool:
        """Every support of the other view is a support of this one."""
        if other.base != self.base:
            raise BaseMismatchError(
                f"view bases differ: {other.base} vs {self.base}")
        return all(any(g <= og for g in self.gens) for og in other.gens)

    def min_supports(self) -> list[Support]:
        out = [Support(self.base, g) for g in self.gens]
        return sorted(out, key=lambda s: (len(s.members), sorted(s.members)))

    def supports(self) -> list[Support]:
        """Every member support, explicitly.  Guarded at small bases."""
        width = len(self.base)
        if width > MAX_EXPLICIT_BASE:
            raise ht.CapacityError(
                f"explicit view enumeration needs a base of at most "
                f"{MAX_EXPLICIT_BASE} atoms, got {width}")
        gens = [_pack(g) for g in self.gens]
        members = [x for x in range(_universe(width) + 1)
                   if any(not g & ~x for g in gens)]
        return [Support(self.base, _unpack(x))
                for x in sorted(members, key=_support_order)]

    def __str__(self) -> str:
        return "{" + " ".join(str(s) for s in self.supports()) + "}"


def ideal(h: Support) -> View:
    """All supports at or below the given one, except the empty support."""
    if not h.members:
        return View.nothing(h.base)
    return View(h.base, frozenset((h.members,)))


def closure(supports: Iterable[Support]) -> View:
    """Union of the ideals of the given supports."""
    items = list(supports)
    if not items:
        raise ValueError("closure of no supports needs an explicit base; "
                         "use View.nothing")
    base = items[0].base
    for s in items[1:]:
        _same_base(items[0], s)
    return View.closed(base, (s.members for s in items))


# ---------------------------------------------------------------------------
# The compiled kernel
# ---------------------------------------------------------------------------

# Register operations.  Formula operations leave an int support in their
# register, fork operations a view (a list of int supports).
_AND, _OR, _IMP, _LEAF, _FAND, _FPAIR, _FIMP = range(7)

Op = tuple[int, int, int]


def _compile(forks: Sequence[Fork],
             pool: Sequence[str]) -> tuple[list[Op], list[int], set[str]]:
    """Flatten forks over a sorted pool into register operations.

    Registers 0..n-1 hold the supports of the pool atoms and register n the
    empty support; operation k writes register n+1+k.  Operations are keyed
    by opcode and operand registers, so equal subformulas share a register
    without a formula ever being hashed.  Returns the operations, each
    fork's register, and the atoms outside the pool (read as false).
    """
    index = {a: i for i, a in enumerate(pool)}
    empty = len(pool)
    ops: list[Op] = []
    regs: dict[Op, int] = {}
    outside: set[str] = set()

    def emit(op: int, a: int, b: int = 0) -> int:
        key = (op, a, b)
        reg = regs.get(key)
        if reg is None:
            ops.append(key)
            reg = regs[key] = empty + len(ops)
        return reg

    def formula(phi: Formula) -> int:
        if isinstance(phi, Atom):
            reg = index.get(phi.name)
            if reg is None:
                outside.add(phi.name)
                return empty
            return reg
        if isinstance(phi, And):
            return emit(_AND, formula(phi.left), formula(phi.right))
        if isinstance(phi, Implies):
            return emit(_IMP, formula(phi.left), formula(phi.right))
        if isinstance(phi, Or):
            return emit(_OR, formula(phi.left), formula(phi.right))
        if isinstance(phi, Falsum):
            return empty
        raise TypeError(f"cannot evaluate {type(phi).__name__}")

    def view(f: Fork) -> int:
        # a plain formula denotes the ideal of its support
        if isinstance(f, Formula):
            return emit(_LEAF, formula(f))
        if isinstance(f, ForkAnd):
            return emit(_FAND, view(f.left), view(f.right))
        if isinstance(f, ForkPair):
            return emit(_FPAIR, view(f.left), view(f.right))
        if isinstance(f, ForkImplies):
            return emit(_FIMP, formula(f.left), view(f.right))
        raise TypeError(f"cannot evaluate {type(f).__name__}")

    roots = [view(f) for f in forks]
    return ops, roots, outside


def _compile_over(forks: Sequence[Fork],
                  atoms: Iterable[str] | None) -> tuple[list[str], list[Op], list[int]]:
    """Compile forks for enumeration over the given atoms, by default
    their alphabet, which must cover every atom of the forks."""
    if atoms is None:
        pool = sorted(frozenset().union(*(alphabet(f) for f in forks)))
    else:
        pool = sorted(set(atoms))
    ops, roots, outside = _compile(forks, pool)
    if outside:
        raise ValueError(f"alphabet is missing atoms {sorted(outside)}")
    ht._check_width(len(pool))
    return pool, ops, roots


def _run(ops: list[Op], regs: list, width: int) -> list:
    """Execute the operations at one T of the given width; ``regs`` holds
    the atom supports and the empty support and is extended in place."""
    everything = _universe(width)
    full_bit = _full_bit(width)
    push = regs.append
    for op, a, b in ops:
        if op == _AND:
            push(regs[a] & regs[b])
        elif op == _OR:
            push(regs[a] | regs[b])
        elif op == _IMP:
            s = everything ^ regs[a] | regs[b]
            push(s if s & full_bit else 0)
        elif op == _LEAF:
            s = regs[a]
            push([s] if s else [])
        elif op == _FAND:
            push(_minimal([x & y for x in regs[a] for y in regs[b]]))
        elif op == _FPAIR:
            push(_minimal(regs[a] + regs[b]))
        else:
            s = regs[a]
            c = _complement(s, everything, full_bit)
            if not s:
                push([everything])
            elif c:
                push(_minimal([c | g for g in regs[b]]))
            else:
                push(regs[b])
    return regs


def _runs(ops: list[Op], n: int) -> Iterator[tuple[tuple[int, ...], list]]:
    """The registers at every T over a pool of n atoms, with T given by its
    pool indices, in the order of :func:`ht.subsets`."""
    for width in range(n + 1):
        cols = _columns(width)
        for combo in combinations(range(n), width):
            regs = [0] * (n + 1)
            for i, j in enumerate(combo):
                regs[j] = cols[i]
            yield combo, _run(ops, regs, width)


def _view_at(f: Fork, base: tuple[str, ...]) -> list[int]:
    """The view of the fork at T = base, as int supports."""
    ops, (root,), _ = _compile([f], base)
    return _run(ops, [*_columns(len(base)), 0], len(base))[root]


# ---------------------------------------------------------------------------
# Formula supports
# ---------------------------------------------------------------------------

def support_of_formula(phi: Formula, t_atoms: Iterable[str]) -> Support:
    """The here-components within T that satisfy the formula at T."""
    if not isinstance(phi, Formula):
        raise TypeError(f"cannot evaluate {type(phi).__name__}")
    base = _canon_base(t_atoms)
    # a formula's view is the ideal of its support
    gens = _view_at(phi, base)
    return Support(base, _unpack(gens[0]) if gens else frozenset())


# ---------------------------------------------------------------------------
# Denotation of forks
# ---------------------------------------------------------------------------

def denotation(f: Fork, t_atoms: Iterable[str]) -> View:
    """The view of a fork at T, computed clause by clause."""
    base = _canon_base(t_atoms)
    return View._of_ints(base, _view_at(f, base))


def fork_stable_models(f: Fork, atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """All T over the alphabet whose view contains the singleton support [T]."""
    pool, ops, (root,) = _compile_over([f], atoms)
    out = []
    for combo, regs in _runs(ops, len(pool)):
        if _full_bit(len(combo)) in regs[root]:
            out.append(frozenset(pool[j] for j in combo))
    return ht.sort_models(out)


@dataclass(frozen=True, slots=True)
class EntailmentResult:
    holds: bool
    witness_t: frozenset[str] | None = None
    witness_support: Support | None = None

    def __bool__(self) -> bool:
        return self.holds


def strongly_entails(f: Fork, g: Fork,
                     atoms: Iterable[str] | None = None) -> EntailmentResult:
    """View inclusion at every T over the alphabet; on failure reports a
    T and a support of the left view missing from the right one."""
    pool, ops, (rf, rg) = _compile_over([f, g], atoms)
    for combo, regs in _runs(ops, len(pool)):
        right = regs[rg]
        missing = [h for h in regs[rf] if all(k & ~h for k in right)]
        if missing:
            base = tuple(pool[j] for j in combo)
            h = min(missing, key=_support_order)
            return EntailmentResult(False, frozenset(base),
                                    Support(base, _unpack(h)))
    return EntailmentResult(True)


def strongly_equivalent(f: Fork, g: Fork,
                        atoms: Iterable[str] | None = None) -> bool:
    return bool(strongly_entails(f, g, atoms)) and bool(strongly_entails(g, f, atoms))


# ---------------------------------------------------------------------------
# Head splitting translation
# ---------------------------------------------------------------------------

def pf_translate(p: Program) -> Program:
    """Replace each disjunctive head by fresh switch atoms plus bridge rules.

    A rule with head p1 | ... | pm becomes the disjunction of fresh atoms
    __f{i}_1 | ... | __f{i}_m over the same body, together with the bridge
    rules pj :- __f{i}_j.  Extended normal rules are copied verbatim.
    """
    out: list[ExtendedRule] = []
    for i, r in enumerate(p.rules, start=1):
        if r.is_normal:
            out.append(r)
            continue
        fresh = tuple(f"__f{i}_{j}" for j in range(1, len(r.head) + 1))
        out.append(ExtendedRule(fresh, r.bpos, r.bneg, r.bnegneg, r.label))
        for x, a in zip(fresh, r.head):
            out.append(rule(head=(a,), pos=(x,)))
    return Program(tuple(out))


# ---------------------------------------------------------------------------
# Vocabulary projection
# ---------------------------------------------------------------------------

def project_models(models: Iterable[frozenset[str]],
                   vocab: Iterable[str]) -> list[frozenset[str]]:
    keep = frozenset(vocab)
    return ht.sort_models(frozenset(m) & keep for m in models)


def projected_denotation(f: Fork, t_atoms: Iterable[str], vocab: Iterable[str],
                         atoms: Iterable[str] | None = None) -> View:
    """The view of the fork at T as observable through a sub-vocabulary.

    Collects, over every Z in the alphabet that agrees with T on the
    vocabulary, the vocabulary-feasible supports of the view at Z, restricts
    them to the vocabulary, and closes the result.
    """
    t = frozenset(t_atoms)
    v = frozenset(vocab)
    if not t <= v:
        raise ValueError("T must be a subset of the vocabulary")
    pool = sorted((alphabet(f) | v) if atoms is None else set(atoms))
    if len(pool) > MAX_EXPLICIT_BASE:
        raise ht.CapacityError(
            f"projected views need an alphabet of at most {MAX_EXPLICIT_BASE} "
            f"atoms, got {len(pool)}")
    base = _canon_base(t)
    collected: list[frozenset[int]] = []
    for z in ht.subsets(pool):
        if z & v != t:
            continue
        for h in denotation(f, z).supports():
            if not is_vocab_feasible(h, v):
                continue
            restricted = restrict_support(h, v)
            collected.append(restricted.members)
    return View.closed(base, collected)
