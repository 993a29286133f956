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
compiles its fork, and :func:`strongly_entails` its two forks together,
once into a flat list of register operations and runs it for each T, so
no formula is hashed or dispatched on per T.  The compiler (``_compile``)
walks the trees on a stack of its own, so a fork of any depth compiles,
and each node object once, so a subfork that occurs twice, in one fork or
in both, runs its registers once per T.  A stable-model sweep
(``_stable_masks``) and its pre-pass answer one root.  A program
needs no tree: :func:`program_registers` emits the registers of
``syntax.forked(p)`` and then of ``p.to_formula()`` straight from its
rules (``_compile_program``), the operations and roots the tree compile
would give, once per program for the memo of :mod:`dlplab.compare`.
:func:`forked_stable_masks` sweeps the operations up to its root,
:func:`equilibrium_masks` those its root reads, :func:`entails_forked`
all of them, as the tree entries do.  Every compile emits through one emitter
(``_Emitter``), which gives an operation already emitted its register
again.  The head-splitting check conjoins a program's fork with each of
many contexts: :class:`ContextRegisters` emits the contexts' formula
registers once, and keeps what a sweep computes of them alone, and
:func:`forked_masks_in_contexts` emits the program's registers after them,
so each program runs only its own registers.  A context's view has at
most one generator, its support, so the contexts' supports are kept
sliced by member, as context sets (bit 0 for the program alone, bit j + 1
for the j-th context, as in ``ht.ContextRules``), and whether each
conjunction holds [T] is read off them for all contexts at once, with no
conjunction emitted; the sweep returns one dict from each model to the
context set of those it is a model of.  The public
:class:`Support` and :class:`View` hold the same ints, a support's table
and a view's generators; :meth:`Support.member_sets` gives the members as
atom sets.

Before the sweep, a pre-pass runs the same registers once over tables of
2^n bits, one bit per T of the n-atom pool, and the sweep then visits only
the T it leaves open, still in the order of :func:`ht.subsets`.  It reads
no table of :mod:`dlplab.ht`, so the fork engine stays an oracle
independent of the program engine.  Its first pass gives, per register,
the T where the support or the view is nonempty (``_nonempty_tables``).
A support is nonempty iff it holds T, that is iff the formula is
classically true at T, so formula registers are the classical tables.  A
view is nonempty iff it has a generator: a leaf iff its formula's support
is nonempty, a fork conjunction iff both sides are (the intersection of
two nonempty supports holds T), a pair iff either side is, and an implication
iff its antecedent's support is empty (the view of all subsets) or its
consequent's view is nonempty; so the fork connectives read as the formula
ones.  :func:`forked_masks_in_contexts` visits only the T where the
program's view is nonempty, because a conjunction with an empty side is
empty.

Strong entailment needs no T where the left view is empty, which has no
support to miss, and a second pass (``_shadow_tables``) closes further T
where the two roots read one formula.  It gives each fork register its
shadow, the formula register its operation becomes when every fork
connective reads as the formula one (a fork conjunction as a conjunction, a
pair as a disjunction, a fork implication as an implication, a leaf as its
formula), or None where that was never emitted; and its multi table, the T
where the view may have more than one generator:

- a leaf: none;
- a pair: either side's, and the T where both sides are nonempty;
- a fork conjunction: either side's;
- an implication phi -> V: V's where phi's support is nonempty (where it
  is empty the view is all subsets).

By induction on the rules of ``_run``, every generator of a view lies
within its shadow's support, and outside the multi table the view is that
support alone, or nothing where the support is empty; a view is nonempty
where its shadow is.  So where both roots have one shadow, at a T outside
the left root's multi table the left view is one support S and the right
view, nonempty there too, has a generator within S: the inclusion holds.
:func:`strongly_entails` visits only the T where the left view is nonempty
and, if the roots share a shadow, in the left root's multi table.  A
program's formula reading is the leaf of its fork's shadow, so
:func:`entails_forked` visits no T; the other way round, the fork into the
formula, only the T where a split may give the fork two generators.

T is a fork stable model iff the view holds the support [T], which for
every atom d of T excludes T minus d.  So the second pass
(``_open_table``), once per atom d, zeroes d's column and asks of every
fork register E_d: does some support of the view exclude T minus d?  A
view holds every superset of its member supports, so this holds iff some
generator excludes it.
Formula registers then hold the here-and-there truth at (T minus d, T)
(the bit of T minus d in the support), with an implication true iff it is
true at T and its here-antecedent is false or its here-consequent true.
The fork rules, at T holding d, where T minus d is a proper subset:

- a leaf: the support is nonempty and lacks T minus d;
- a pair: the union of two views excludes it iff either does;
- a fork conjunction: its supports are the intersections x & y, which
  exclude T minus d iff x or y does, so some support does iff both views
  are nonempty and one of them excludes it;
- an implication phi -> V: with phi's support empty the view is all
  subsets, which excludes nothing; otherwise its supports are c | g, with
  c the complement of phi's support plus T, which excludes T minus d iff
  phi holds there and g excludes it; with phi's support everything the
  view is V and phi holds everywhere, so the same rule holds.

A root leaves T open iff it is nonempty there and, for each atom d, d is
not in T or E_d holds.

[T] excludes every T minus d at once, so where enough T stay open a pair
stage (``_open_by_pair``) asks, for atoms d < e of T, P_de: does some
support of the view exclude both T minus d and T minus e?  It reads the
pass tables E_d, E_e, the formula registers F_d, F_e at (T minus d, T) and
(T minus e, T), and the nonempty tables N:

- a leaf of phi: N(phi) and not F_d(phi) and not F_e(phi);
- a pair: P(X) or P(Y);
- a fork conjunction: x & y excludes both iff x or y excludes both, or
  one excludes T minus d and the other T minus e, so N(X and Y) and
  (P(X) or P(Y) or E_d(X) and E_e(Y) or E_e(X) and E_d(Y));
- an implication phi -> V: c | g excludes both iff phi holds at both and
  g excludes both, so F_d(phi) and F_e(phi) and P(V).

A root keeps T open iff P_de holds for every pair of atoms of T.  Only a
head split gives a view several generators; without one P_de is E_d and
E_e, so the stage runs only where a ``_FPAIR`` is emitted, and only past
3n + 5 open T, where it costs less than the runs it saves.  It runs on
tables compressed to the w open T, bit i standing for the i-th: every
rule is bitwise, so it commutes with that selection.  The pairs lie side
by side, one slot of w bits each, so a few passes over the packed columns
(two of ``_excluding``, which zero d's column in slot (d, e) and e's)
test them all; slots are then ANDed together by halving.

Every rule is exact for its own question, and the open set is only
necessary for stability, so the sweep finds the same models and
witnesses as a sweep over every T; the entailment sweep skips only T
where the inclusion holds, so it finds the same first failing T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import compare, ht
from .ht import _columns, _full_bit, _universe, set_bits
from .syntax import (And, Atom, ExtendedRule, Falsum, Fork, ForkAnd,
                     ForkImplies, ForkPair, Formula, Implies, Or, Program,
                     alphabet, rule)

MAX_EXPLICIT_BASE = 4
# the widest table of the pair stage, in bits: the width of the per-atom
# passes' tables at the widest pool
_PAIR_BITS = 1 << ht.MAX_ENUM_ATOMS


class BaseMismatchError(ValueError):
    """Two supports or views relative to different atom sets were combined."""


def _canon_base(atoms: Iterable[str]) -> tuple[str, ...]:
    """The sorted base, refused over MAX_ENUM_ATOMS atoms before any table
    of 2^n bits is built."""
    base = tuple(sorted(set(atoms)))
    ht._check_width(len(base))
    return base


def _mask(base: tuple[str, ...], atoms: Iterable[str]) -> int | None:
    """The here-mask of the atoms over the base, None if one is outside it."""
    m = 0
    for a in atoms:
        if a not in base:
            return None
        m |= 1 << base.index(a)
    return m


# ---------------------------------------------------------------------------
# Int supports
# ---------------------------------------------------------------------------

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
    """A set of subsets of the base, nonempty only if it contains the base:
    the table of 2^|base| bits whose bit m is set iff here-mask m is a
    member."""

    base: tuple[str, ...]
    members: int

    def __post_init__(self):
        width = len(self.base)
        ht._check_width(width)
        if self.members < 0 or self.members >> (1 << width):
            raise ValueError("support member outside the base")
        if self.members and not self.members & _full_bit(width):
            raise ValueError("a nonempty support must contain its base set")

    @classmethod
    def of(cls, base: Iterable[str], member_sets: Iterable[Iterable[str]]) -> "Support":
        b = _canon_base(base)
        masks = {_mask(b, s) for s in member_sets}
        if None in masks:
            raise ValueError("support member outside the base")
        return cls(b, sum(1 << m for m in masks))

    @classmethod
    def empty(cls, base: Iterable[str]) -> "Support":
        return cls(_canon_base(base), 0)

    @classmethod
    def top(cls, base: Iterable[str]) -> "Support":
        """The singleton support [T], the maximum of the support order."""
        b = _canon_base(base)
        return cls(b, _full_bit(len(b)))

    @classmethod
    def all_subsets(cls, base: Iterable[str]) -> "Support":
        b = _canon_base(base)
        return cls(b, _universe(len(b)))

    @property
    def is_empty(self) -> bool:
        return not self.members

    def decode(self, m: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.base) if m >> i & 1)

    def member_sets(self) -> list[frozenset[str]]:
        out = [self.decode(m) for m in set_bits(self.members)]
        return sorted(out, key=lambda s: (-len(s), tuple(sorted(s))))

    def __contains__(self, s) -> bool:
        m = s if isinstance(s, int) else _mask(self.base, s)
        return m is not None and m >= 0 and bool(self.members >> m & 1)

    def __str__(self) -> str:
        if not self.members:
            return "[ ]"
        names = []
        for s in self.member_sets():
            names.append("{" + ",".join(sorted(s)) + "}" if s else "∅")
        return "[" + " ".join(names) + "]"


def _same_base(x: Support | View, y: Support | View) -> None:
    if x.base != y.base:
        raise BaseMismatchError(f"different bases: {x.base} vs {y.base}")


def preceq(h1: Support, h2: Support) -> bool:
    """The "less supported than" order on supports over a common base."""
    _same_base(h1, h2)
    x, y = h1.members, h2.members
    return not x or bool(y) and not y & ~x


def complement(h: Support) -> Support:
    """Empty when the support holds all subsets; otherwise the missing
    subsets together with the base set."""
    width = len(h.base)
    return Support(h.base, _complement(h.members, _universe(width), _full_bit(width)))


def restrict_support(h: Support, vocab: Iterable[str]) -> Support:
    """Intersect every member with the vocabulary; the base shrinks too."""
    keep = set(vocab)
    new_base = _canon_base(a for a in h.base if a in keep)
    members = 0
    for m in set_bits(h.members):
        members |= 1 << _mask(new_base, h.decode(m) & keep)
    return Support(new_base, members)


def is_vocab_feasible(h: Support, vocab: Iterable[str]) -> bool:
    """No proper member may agree with the base on the whole vocabulary."""
    vmask = _mask(h.base, set(vocab).intersection(h.base))
    full = (1 << len(h.base)) - 1
    return not any(m != full and m & vmask == vmask for m in set_bits(h.members))


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class View:
    """A superset-closed family of supports, stored by its minimal members
    as int supports."""

    base: tuple[str, ...]
    gens: frozenset[int]

    @classmethod
    def closed(cls, base: Iterable[str], supports: Iterable[int]) -> "View":
        return cls(_canon_base(base), frozenset(_minimal([x for x in supports if x])))

    @classmethod
    def nothing(cls, base: Iterable[str]) -> "View":
        return cls(_canon_base(base), frozenset())

    @property
    def is_empty(self) -> bool:
        return not self.gens

    def contains(self, h: Support) -> bool:
        _same_base(h, self)
        return bool(h.members) and any(not g & ~h.members for g in self.gens)

    def includes(self, other: "View") -> bool:
        """Every support of the other view is a support of this one."""
        _same_base(other, self)
        return all(any(not g & ~og for g in self.gens) for og in other.gens)

    def supports(self) -> list[Support]:
        """Every member support, explicitly.  Guarded at small bases."""
        width = len(self.base)
        if width > MAX_EXPLICIT_BASE:
            raise ht.CapacityError(
                f"explicit view enumeration needs a base of at most "
                f"{MAX_EXPLICIT_BASE} atoms, got {width}")
        members = [x for x in range(_universe(width) + 1)
                   if any(not g & ~x for g in self.gens)]
        return [Support(self.base, x) for x in sorted(members, key=_support_order)]

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
    for s in items[1:]:
        _same_base(items[0], s)
    return View.closed(items[0].base, (s.members for s in items))


# ---------------------------------------------------------------------------
# The compiled kernel
# ---------------------------------------------------------------------------

# Register operations.  Formula operations leave an int support in their
# register, fork operations a view (a list of int supports).
_AND, _OR, _IMP, _LEAF, _FAND, _FPAIR, _FIMP = range(7)

Op = tuple[int, int, int]
Registers = tuple[tuple[str, ...], list[Op], list[int]]  # pool, operations, roots

_FORMULA_OPS = {And: _AND, Or: _OR, Implies: _IMP}
_FORK_OPS = {ForkAnd: _FAND, ForkPair: _FPAIR}


class _Emitter:
    """Register operations over a sorted pool, each emitted once.

    Registers 0..n-1 hold the supports of the pool atoms and register n the
    empty support; operation k writes register n+1+k.  Operations are keyed
    by opcode and operand registers, so equal subformulas share a register
    without a formula ever being hashed.  With ``start``, an emitter over
    the same pool, the operations follow copies of its own.
    """

    __slots__ = ("index", "empty", "ops", "regs")

    def __init__(self, pool: Sequence[str], start: "_Emitter | None" = None):
        self.index = {a: i for i, a in enumerate(pool)}
        self.empty = len(pool)
        self.ops: list[Op] = [] if start is None else list(start.ops)
        self.regs: dict[Op, int] = {} if start is None else dict(start.regs)

    def emit(self, op: int, a: int, b: int = 0) -> int:
        key = (op, a, b)
        reg = self.regs.get(key)
        if reg is None:
            self.ops.append(key)
            reg = self.regs[key] = self.empty + len(self.ops)
        return reg

    def chain(self, op: int, parts: list[int]) -> int:
        """The right-nested connective over nonempty parts."""
        reg = parts[-1]
        for left in parts[-2::-1]:
            reg = self.emit(op, left, reg)
        return reg


_FORMULA, _VIEW = 0, 1  # the two readings of a node


def _operands(node: Fork, reading: int) -> tuple[int, tuple]:
    """The operation of an inner node in a reading, and its operands, each
    with the reading its register takes."""
    if reading == _FORMULA:
        op = _FORMULA_OPS.get(type(node))
        if op is not None:
            return op, ((node.left, _FORMULA), (node.right, _FORMULA))
    elif type(node) in _FORK_OPS:
        return _FORK_OPS[type(node)], ((node.left, _VIEW), (node.right, _VIEW))
    elif isinstance(node, Formula):
        # a plain formula denotes the ideal of its support
        return _LEAF, ((node, _FORMULA),)
    elif isinstance(node, ForkImplies):
        return _FIMP, ((node.left, _FORMULA), (node.right, _VIEW))
    raise TypeError(f"cannot evaluate {type(node).__name__}")


def _compile(forks: Sequence[Fork],
             pool: Sequence[str]) -> tuple[list[Op], list[int], set[str]]:
    """Flatten forks over a sorted pool into register operations
    (:class:`_Emitter`).

    One post-order walk on an explicit stack reads each node as a formula
    (a support) or as a fork (a view), operands left to right, and emits
    its operation after theirs, so a tree of any depth compiles.  Inner
    nodes are memoised by identity in each reading, so a subfork that
    several forks share is walked once.  Returns the operations, each
    fork's register, and the atoms outside the pool (read as false).
    """
    forks = list(forks)  # holds every node, so no id is reused in the walk
    em = _Emitter(pool)
    memos: tuple[dict[int, int], dict[int, int]] = ({}, {})
    outside: set[str] = set()
    done: list[int] = []  # the registers of the operands walked so far
    todo: list[tuple] = [(f, _VIEW, None) for f in reversed(forks)]
    while todo:
        node, reading, op = todo.pop()
        if op is not None:  # the operands are done: emit the node
            b = done.pop() if op != _LEAF else 0
            reg = memos[reading][id(node)] = em.emit(op, done.pop(), b)
        elif isinstance(node, Atom):
            # leaves cost less to read again than to look up, so only inner
            # nodes are memoised
            reg = em.index.get(node.name)
            if reg is None:
                outside.add(node.name)
                reg = em.empty
            if reading == _VIEW:
                reg = em.emit(_LEAF, reg)
        elif reading == _FORMULA and isinstance(node, Falsum):
            reg = em.empty
        else:
            reg = memos[reading].get(id(node))
            if reg is None:
                op, operands = _operands(node, reading)
                todo.append((node, reading, op))
                todo.extend((child, r, None) for child, r in reversed(operands))
                continue
        done.append(reg)
    return em.ops, done, outside


def _compile_over(forks: Sequence[Fork], atoms: Iterable[str] | None) -> Registers:
    """Compile forks for enumeration over the given atoms, by default
    their alphabet, which must cover every atom of the forks."""
    if atoms is None:
        atoms = frozenset().union(*(alphabet(f) for f in forks))
    pool = _canon_base(atoms)
    ops, roots, outside = _compile(forks, pool)
    if outside:
        raise ValueError(f"alphabet is missing atoms {sorted(outside)}")
    return pool, ops, roots


def _compile_program(p: Program, pool: Sequence[str], readings: Sequence[str],
                     em: _Emitter | None = None) -> tuple[list[Op], list[int]]:
    """Flatten readings of a program over a sorted pool that covers it into
    register operations, straight from its rules: "formula" reads the
    program as ``p.to_formula()``, "forked" as ``syntax.forked(p)``.  With
    ``em``, an emitter over the pool, the program's operations are added
    to those it holds, and an operation among them is not emitted again.

    Per rule the body comes first: its positive atoms, each ``not a`` as
    a -> falsum and each ``not not a`` as (a -> falsum) -> falsum, sorted
    within each part, and their right-nested conjunction; then the head,
    a right-nested disjunction for the formula or a split of atom leaves
    for a disjunctive rule's fork; then the implication from the body.
    The formula conjoins every rule; the fork conjoins the rule forks up to
    the last disjunctive rule, each normal rule as the leaf of its formula,
    with one leaf of the conjunction of the normal rules after it, as
    ``syntax.fork_and`` collapses them.  A conjunction emits its parts in
    order and then its connectives innermost first, which is the order of
    :func:`_compile` walking the trees, so the operations and roots are the
    ones it returns for the readings' trees, without a node being built.
    """
    em = _Emitter(pool) if em is None else em
    index, empty, emit, chain = em.index, em.empty, em.emit, em.chain
    rules = p.rules

    def conj(parts: list[int]) -> int:
        # the empty conjunction is verum, falsum -> falsum
        return chain(_AND, parts) if parts else emit(_IMP, empty, empty)

    bodies: list[int | None] = [None] * len(rules)
    formulas: list[int | None] = [None] * len(rules)

    def body(k: int, r: ExtendedRule) -> int | None:
        """The body's register, None for an empty body."""
        reg = bodies[k]
        if reg is None and (r.bpos or r.bneg or r.bnegneg):
            parts = [index[a] for a in sorted(r.bpos)]
            parts += [emit(_IMP, index[a], empty) for a in sorted(r.bneg)]
            parts += [emit(_IMP, emit(_IMP, index[a], empty), empty)
                      for a in sorted(r.bnegneg)]
            reg = bodies[k] = chain(_AND, parts)
        return reg

    def formula(k: int, r: ExtendedRule) -> int:
        reg = formulas[k]
        if reg is None:
            b = body(k, r)
            head = chain(_OR, [index[a] for a in r.head]) if r.head else empty
            reg = formulas[k] = head if b is None else emit(_IMP, b, head)
        return reg

    def fork(k: int, r: ExtendedRule) -> int:
        b = body(k, r)
        split = chain(_FPAIR, [emit(_LEAF, index[a]) for a in r.head])
        return split if b is None else emit(_FIMP, b, split)

    def as_forked() -> int:
        last = max((k for k, r in enumerate(rules) if not r.is_normal), default=-1)
        views = [emit(_LEAF, formula(k, r)) if r.is_normal else fork(k, r)
                 for k, r in enumerate(rules[:last + 1])]
        if last + 1 < len(rules) or not views:
            views.append(emit(_LEAF, conj([formula(k, rules[k])
                                           for k in range(last + 1, len(rules))])))
        return chain(_FAND, views)

    def as_formula() -> int:
        return emit(_LEAF, conj([formula(k, r) for k, r in enumerate(rules)]))

    readers = {"formula": as_formula, "forked": as_forked}
    return em.ops, [readers[name]() for name in readings]


def _run(ops: list[Op], regs: list, width: int) -> list:
    """Execute the operations at one T of the given width; ``regs`` holds
    the atom supports and the empty support and is extended in place."""
    everything = _universe(width)
    full_bit = _full_bit(width)
    push = regs.append
    for op, a, b in ops:
        # the most frequent operations of forked programs first
        if op == _AND:
            push(regs[a] & regs[b])
        elif op == _IMP:
            s = everything ^ regs[a] | regs[b]
            push(s if s & full_bit else 0)
        elif op == _LEAF:
            s = regs[a]
            push([s] if s else [])
        elif op == _FPAIR:
            push(_minimal(regs[a] + regs[b]))
        elif op == _FAND:
            push(_minimal([x & y for x in regs[a] for y in regs[b]]))
        elif op == _OR:
            push(regs[a] | regs[b])
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


def _nonempty_tables(ops: Sequence[Op], start: Sequence[int],
                     everything: int) -> list[int]:
    """Per register, the table over a universe of T (``everything``, for a
    pool of n atoms by default bit t for the T of pool mask t) where its
    support (formula registers) or its view (fork registers) is nonempty:
    the classical reading of the registers, one big-int operation each.
    ``start`` holds the tables of the registers before the operations, at
    first the atoms' and the empty support's."""
    nonempty = list(start)
    push = nonempty.append
    for op, a, b in ops:
        if op == _AND or op == _FAND:
            push(nonempty[a] & nonempty[b])
        elif op == _OR or op == _FPAIR:
            push(nonempty[a] | nonempty[b])
        elif op == _LEAF:
            push(nonempty[a])
        else:
            push(everything ^ nonempty[a] | nonempty[b])
    return nonempty


_SHADOW_OPS = {_FAND: _AND, _FPAIR: _OR, _FIMP: _IMP}


def _shadow_tables(ops: Sequence[Op], nonempty: Sequence[int], n: int
                   ) -> tuple[list[int | None], list[int]]:
    """Per register over a pool of n atoms, its shadow and its multi table
    (the module docstring gives the rules).  The shadow of a fork register
    is the formula register its operation becomes with each fork connective
    read as the formula one, None if that was never emitted; a formula
    register is its own.  The multi table holds the T where the view may
    have more than one generator, 0 for formula registers.  ``nonempty``
    holds every register's nonempty table (:func:`_nonempty_tables`)."""
    emitted = {key: reg for reg, key in enumerate(ops, start=n + 1)}
    shadow: list[int | None] = list(range(n + 1))
    multi = [0] * (n + 1)
    for reg, (op, a, b) in enumerate(ops, start=n + 1):
        if op not in _SHADOW_OPS:  # a leaf's shadow is its formula
            shadow.append(a if op == _LEAF else reg)
            multi.append(0)
            continue
        shadow.append(emitted.get((_SHADOW_OPS[op], shadow[a], shadow[b])))
        if op == _FPAIR:
            multi.append(multi[a] | multi[b] | nonempty[a] & nonempty[b])
        elif op == _FAND:
            multi.append(multi[a] | multi[b])
        else:
            multi.append(nonempty[a] & multi[b])
    return shadow, multi


def _excluding(ops: Sequence[Op], regs: list[int], nonempty: Sequence[int],
               everything: int) -> list[int]:
    """Run the operations in the pass of :func:`_open_table` for an atom d:
    per register, the table over every T of the pool where, with d in T, a
    formula holds at (T minus d, T) or some support of a view excludes T
    minus d (the module docstring gives the rules).  ``regs`` holds the
    pass's tables of the atoms, d's zeroed, and of the empty support, and
    is extended in place; ``nonempty`` holds every register's nonempty
    table."""
    push = regs.append
    for k, (op, a, b) in enumerate(ops, start=len(regs)):
        if op == _AND or op == _FIMP:
            push(regs[a] & regs[b])
        elif op == _IMP:
            push((everything ^ regs[a] | regs[b]) & nonempty[k])
        elif op == _LEAF:
            push(nonempty[a] & ~regs[a])
        elif op == _FAND:
            push(nonempty[k] & (regs[a] | regs[b]))
        else:
            push(regs[a] | regs[b])
    return regs


def _open_table(ops: Sequence[Op], root: int, n: int) -> int:
    """The table of the T over a pool of n atoms that can be a fork stable
    model of the root: its view is nonempty there and, for every atom d of
    T, holds a support that excludes T minus d (:func:`_open_by_atom`), and
    where the pair stage pays, for every two atoms d, e of T one that
    excludes both (:func:`_open_by_pair`)."""
    out = _open_by_atom(ops, root, n)
    # Only a head split gives a view several generators; without one the
    # pair rules are the atom rules conjoined.  The stage costs about six
    # runs of the registers at one T, and it closes about one open T in six
    # of random 4- and 6-atom programs, more than half on the cyclic
    # family: it paid on both only beyond 3n + 5 open T.
    if out.bit_count() > 3 * n + 5 and any(op == _FPAIR for op, _, _ in ops):
        out = _open_by_pair(ops, root, out, n)
    return out


def _open_by_atom(ops: Sequence[Op], root: int, n: int) -> int:
    """The table of the T over a pool of n atoms where the root's view is
    nonempty and, for every atom d of T, holds a support that excludes
    T minus d.  One pass per atom d runs the operations with d's column
    zeroed (:func:`_excluding`), so that a formula register holds the
    here-and-there truth at (T minus d, T) and a fork register whether some
    support of its view excludes T minus d."""
    everything = _universe(n)
    cols = _columns(n)
    nonempty = _nonempty_tables(ops, [*cols, 0], everything)
    opened = nonempty[root]
    for d, col in enumerate(cols):
        regs = [*cols, 0]
        regs[d] = 0
        _excluding(ops, regs, nonempty, everything)
        opened &= everything ^ col | regs[root]
    return opened


def _open_by_pair(ops: Sequence[Op], root: int, opened: int, n: int) -> int:
    """The table ``opened`` of :func:`_open_by_atom`, less the T where, for
    two atoms d, e of T, no support of the root's view excludes both T
    minus d and T minus e (:func:`_pairs_held`).  The pairs are taken in
    groups of consecutive first atoms d, each group's slots no wider
    together than ``_PAIR_BITS``."""
    ts = set_bits(opened)
    w = len(ts)
    if not w:
        return opened
    # bit i of atom j's column is set iff j is in the i-th open T
    rows = [format(t, f"0{n}b") for t in reversed(ts)]
    cols = [int("".join(digits), 2) for digits in zip(*rows)][::-1]
    kept = (1 << w) - 1
    first = 0
    while first < n - 1:
        last, slots = first + 1, n - 1 - first
        while last < n - 1 and (slots + n - 1 - last) * w <= _PAIR_BITS:
            slots += n - 1 - last
            last += 1
        kept &= _pairs_held(ops, root, cols, range(first, last), slots, w)
        first = last
    return ht.table_of([ts[i] for i in set_bits(kept)], n)


def _pairs_held(ops: Sequence[Op], root: int, cols: list[int],
                firsts: range, m: int, w: int) -> int:
    """The table of the w open T, bit i standing for the i-th, where for
    every pair of atoms d < e of T with d among ``firsts`` some support of
    the root's view excludes both T minus d and T minus e.

    ``cols`` holds the atoms' columns over the open T.  The tables pack
    one slot of w bits for each of the m pairs, in the order (d, d+1),
    ..., (d, n-1) for each first atom d.  Two passes of :func:`_excluding`
    zero d's column in slot (d, e) and e's in it, and one pass reads the
    pair rules off them (the module docstring)."""
    n = len(cols)
    slot, everything = (1 << w) - 1, (1 << m * w) - 1
    has_d = has_e = 0  # per slot (d, e), the column of d and of e
    atoms, zero_d, zero_e = [], [], []
    later = start = 0  # the slots (d, j) for d < j; the next slot (j, j+1)
    for j, col in enumerate(cols):
        span = 1
        while span < m:  # one copy per slot, by doubling
            col |= col << span * w
            span <<= 1
        col &= everything
        own = opens = 0
        if j in firsts:  # the slots (j, e)
            own = ((1 << (n - 1 - j) * w) - 1) << start * w
            opens = slot << start * w
            start += n - 1 - j
        atoms.append(col)
        zero_d.append(col & ~own)
        zero_e.append(col & ~later)
        has_d |= col & own
        has_e |= col & later
        later = later << w | opens
    nonempty = _nonempty_tables(ops, [*atoms, 0], everything)
    fd = _excluding(ops, [*zero_d, 0], nonempty, everything)
    fe = _excluding(ops, [*zero_e, 0], nonempty, everything)
    pair = [0] * (n + 1)  # formula registers stay 0
    push = pair.append
    for k, (op, a, b) in enumerate(ops, start=n + 1):
        if op == _LEAF:
            push(nonempty[a] & ~(fd[a] | fe[a]))
        elif op == _FPAIR:
            push(pair[a] | pair[b])
        elif op == _FAND:
            push(nonempty[k] & (pair[a] | pair[b] | fd[a] & fe[b] | fe[a] & fd[b]))
        elif op == _FIMP:
            push(fd[a] & fe[a] & pair[b])
        else:
            push(0)
    held, count = pair[root] | everything ^ has_d & has_e, m
    while count > 1:  # AND the slots together, halving their count
        half = (count + 1) // 2
        held &= held >> half * w | -1 << (count - half) * w
        count = half
    return held & slot


def _runs(ops: Sequence[Op], n: int, table: int
          ) -> Iterator[tuple[int, list[int], list]]:
    """The registers at every T of the table over a pool of n atoms, with T
    given by its pool mask and its pool indices, in the order of
    :func:`ht.subsets`."""
    for t in ht.model_order(table):
        combo = set_bits(t)
        cols = _columns(len(combo))
        regs = [0] * (n + 1)
        for i, j in enumerate(combo):
            regs[j] = cols[i]
        yield t, combo, _run(ops, regs, len(combo))


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
    return Support(base, gens[0] if gens else 0)


# ---------------------------------------------------------------------------
# Denotation of forks
# ---------------------------------------------------------------------------

def denotation(f: Fork, t_atoms: Iterable[str]) -> View:
    """The view of a fork at T, computed clause by clause."""
    base = _canon_base(t_atoms)
    return View(base, frozenset(_view_at(f, base)))


def fork_stable_models(f: Fork, atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """All T over the alphabet, by default the fork's atoms, whose view
    contains the singleton support [T], sorted: the fork is compiled once
    and its registers run at each T the pre-pass leaves open."""
    pool, ops, (root,) = _compile_over([f], atoms)
    return _decoded(pool, _stable_masks(len(pool), ops, root))


def program_registers(p: Program, atoms: Iterable[str]) -> Registers:
    """A program's registers over the given atoms, which must cover it: the
    sorted pool, the operations of ``syntax.forked(p)`` and then of
    ``p.to_formula()`` (:func:`_compile_program`), and the two roots."""
    pool = _canon_base(ht.covering_alphabet(p.atoms(), atoms))
    return (pool, *_compile_program(p, pool, ("forked", "formula")))


def forked_stable_masks(regs: Registers) -> list[int]:
    """The fork stable models of ``syntax.forked(p)``, from a program's
    registers, as masks over the sorted alphabet in the order of
    :func:`ht.sort_models`; the sweep runs the operations up to the root."""
    pool, ops, (root, _) = regs
    return _stable_masks(len(pool), ops[:root - len(pool)], root)


def equilibrium_masks(regs: Registers) -> list[int]:
    """The fork stable models of ``p.to_formula()``, that is its
    equilibrium models, from a program's registers, as masks over the
    sorted alphabet in the order of :func:`ht.sort_models`: an oracle for
    the stable models that shares no table with :mod:`dlplab.ht`."""
    pool, ops, (_, root) = regs
    ops, root = _reached(ops, root, len(pool))
    return _stable_masks(len(pool), ops, root)


def _reached(ops: Sequence[Op], root: int, n: int) -> tuple[list[Op], int]:
    """The operations over a pool of n atoms that the root reads, at any
    depth, renumbered, and the root's new register: most operations before
    the formula reading's root are the forked reading's, which it skips."""
    keep = {root}
    for reg in range(root, n, -1):
        if reg in keep:
            keep.update(ops[reg - n - 1][1:])
    renamed = list(range(n + 1))  # the atoms and the empty support stay
    out: list[Op] = []
    for reg in range(n + 1, root + 1):
        if reg in keep:
            op, a, b = ops[reg - n - 1]
            out.append((op, renamed[a], renamed[b]))
        renamed.append(n + len(out))
    return out, renamed[root]


def _decoded(pool: Sequence[str], masks: list[int]) -> list[frozenset[str]]:
    """Masks over a sorted pool as atom sets."""
    return [frozenset(pool[j] for j in set_bits(t)) for t in masks]


def forked_stable_models(p: Program, atoms: Iterable[str] | None = None
                         ) -> list[frozenset[str]]:
    """The models of :func:`forked_stable_masks`: row ``fork`` of the memo."""
    return compare.model_tables(p, atoms).models("fork")


def equilibrium_models(p: Program, atoms: Iterable[str] | None = None
                       ) -> list[frozenset[str]]:
    """The models of :func:`equilibrium_masks`: row ``sm-formula`` of the memo."""
    return compare.model_tables(p, atoms).models("sm-formula")


def _stable_masks(n: int, ops: Sequence[Op], root: int) -> list[int]:
    """The fork stable models of the root over a pool of n atoms, as masks.
    The sweep visits, in the order of :func:`ht.sort_models`, only the T
    that the pre-pass leaves open."""
    return [t for t, combo, regs in _runs(ops, n, _open_table(ops, root, n))
            if _full_bit(len(combo)) in regs[root]]


class ContextRegisters:
    """Contexts read as formulas (``c.to_formula()``), compiled once over a
    sorted pool, straight from their rules; equal rules share their
    operations.  It keeps their emitter (``emitted``), each context's view
    register (the ideal of its formula's support), and what a sweep
    computes of these registers alone, since it is the same for every
    program swept with them: their nonempty tables, and at each T their
    registers and their supports sliced by member (:meth:`at`), so that
    one sweep tests all of them, each built on first use.
    """

    __slots__ = ("pool", "emitted", "roots", "_nonempty", "_at")

    def __init__(self, contexts: Iterable[Program], atoms: Iterable[str]):
        contexts = list(contexts)
        self.pool = pool = ht.covering_alphabet(
            frozenset().union(*(c.atoms() for c in contexts)), atoms)
        self.emitted = _Emitter(pool)
        self.roots = tuple(_compile_program(c, pool, ("formula",), self.emitted)[1][0]
                           for c in contexts)
        self._nonempty: list[int] | None = None
        self._at: dict[int, tuple[list, int, list[int]]] = {}

    def nonempty(self) -> list[int]:
        """The registers' nonempty tables (:func:`_nonempty_tables`)."""
        if self._nonempty is None:
            n = len(self.pool)
            ht._check_width(n)
            self._nonempty = _nonempty_tables(self.emitted.ops, [*_columns(n), 0],
                                              _universe(n))
        return self._nonempty

    def at(self, t: int) -> tuple[list, int, list[int]]:
        """At the T of pool mask t: the registers, which a sweep copies
        before it extends them, and the contexts' supports sliced by
        member, as context sets (bit j + 1 for the j-th context, the
        convention of ``ht.ContextRules``): the contexts whose support is
        nonempty, and per here-mask h of a proper subset of T those whose
        support holds h.  A context's view is the ideal of its support, so
        it has at most one generator."""
        got = self._at.get(t)
        if got is None:
            # the registers of a sweep over the table of this T alone
            [(_, _, regs)] = _runs(self.emitted.ops, len(self.pool), 1 << t)
            top = _full_bit(t.bit_count())
            live, meets = 0, [0] * (top.bit_length() - 1)
            for j, r in enumerate(self.roots, 1):
                if regs[r]:
                    (s,) = regs[r]
                    live |= 1 << j
                    for h in set_bits(s ^ top):
                        meets[h] |= 1 << j
            got = self._at[t] = regs, live, meets
        return got


def forked_masks_in_contexts(p: Program, contexts: ContextRegisters
                             ) -> dict[int, int]:
    """The fork stable models of ``syntax.forked(p)`` and of its fork
    conjunction with each context: a map from each model, a mask over the
    contexts' pool, which must cover p's atoms, to the context set of
    those it is a model of (bit 0 for p's fork alone, bit j + 1 for the
    j-th context), never empty, in the order of :func:`ht.sort_models`.
    p's registers are emitted after the contexts' and run at every T where
    p's view is nonempty.  The conjunction's supports are the x & s for
    the generators x of p's view and the context's support s, so it holds
    [T] iff some x meets s in T alone: the contexts that x meets beyond T
    are read off the contexts' sliced supports
    (:meth:`ContextRegisters.at`), for all of them at once."""
    pool = contexts.pool
    n = len(pool)
    ht._check_width(n)
    ht.covering_alphabet(p.atoms(), pool)
    em = _Emitter(pool, contexts.emitted)
    ops, (root,) = _compile_program(p, pool, ("forked",), em)
    ops = ops[len(contexts.emitted.ops):]
    found: dict[int, int] = {}
    viewed = _nonempty_tables(ops, contexts.nonempty(), _universe(n))[root]
    for t in ht.model_order(viewed):
        width = t.bit_count()
        top = _full_bit(width)
        regs, live, meets = contexts.at(t)
        view = _run(ops, list(regs), width)[root]
        stable = 1 if top in view else 0  # bit 0: p's fork alone
        for x in view:
            bad = 0
            for h in set_bits(x ^ top):
                bad |= meets[h]
            stable |= live & ~bad
        if stable:
            found[t] = stable
    return found


@dataclass(frozen=True, slots=True)
class EntailmentResult:
    holds: bool
    witness_t: frozenset[str] | None = None
    witness_support: Support | None = None

    def __bool__(self) -> bool:
        return self.holds


def strongly_entails(f: Fork, g: Fork,
                     atoms: Iterable[str] | None = None) -> EntailmentResult:
    """View inclusion at every T over the alphabet; on failure reports the
    first T, in the order of :func:`ht.subsets`, and the least support of
    its left view missing from the right one."""
    return _entailment_sweep(*_compile_over([f, g], atoms))


def entails_forked(p: Program, atoms: Iterable[str] | None = None) -> EntailmentResult:
    """Whether ``p.to_formula()`` strongly entails ``syntax.forked(p)``,
    over p's atoms by default, on the memo's registers, with the witness
    :func:`strongly_entails` gives.  The two roots share a shadow and the
    formula's view never has two generators, so the sweep visits no T."""
    pool, ops, (forked, formula) = compare.model_tables(p, atoms).registers
    return _entailment_sweep(pool, ops, [formula, forked])


def _entailment_sweep(pool: Sequence[str], ops: list[Op], roots: list[int]
                      ) -> EntailmentResult:
    """Whether the view of the first root includes the second's at every T.
    The sweep visits only the T where the left view is nonempty and, if the
    roots share a shadow, may have more than one generator
    (:func:`_shadow_tables`)."""
    rf, rg = roots
    n = len(pool)
    nonempty = _nonempty_tables(ops, [*_columns(n), 0], _universe(n))
    shadow, multi = _shadow_tables(ops, nonempty, n)
    # an empty left view has no support to miss; under a shared shadow a
    # left view of one generator is the shadow's support, and every
    # generator of the (nonempty) right view lies within it
    left = nonempty[rf]
    if shadow[rf] is not None and shadow[rf] == shadow[rg]:
        left &= multi[rf]
    for _, combo, regs in _runs(ops, n, left):
        right = regs[rg]
        missing = [h for h in regs[rf] if all(k & ~h for k in right)]
        if missing:
            base = tuple(pool[j] for j in combo)
            h = min(missing, key=_support_order)
            return EntailmentResult(False, frozenset(base), Support(base, h))
    return EntailmentResult(True)


def strongly_equivalent(f: Fork, g: Fork,
                        atoms: Iterable[str] | None = None) -> bool:
    """Strong entailment both ways, on one compile of the two forks."""
    pool, ops, (rf, rg) = _compile_over([f, g], atoms)
    return bool(_entailment_sweep(pool, ops, [rf, rg])) \
        and bool(_entailment_sweep(pool, ops, [rg, rf]))


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
    vocabulary, the vocabulary-feasible generators of the view at Z,
    restricts them to the vocabulary, and closes the result.  A feasible
    support holds only feasible generators and restriction is monotone, so
    this closes the restrictions of every feasible support of the view.
    The alphabet, by default the fork's atoms and the vocabulary, must
    cover both.
    """
    t = frozenset(t_atoms)
    v = frozenset(vocab)
    if not t <= v:
        raise ValueError("T must be a subset of the vocabulary")
    pool = ht.covering_alphabet(alphabet(f) | v, atoms)
    if len(pool) > MAX_EXPLICIT_BASE:
        raise ht.CapacityError(
            f"projected views need an alphabet of at most {MAX_EXPLICIT_BASE} "
            f"atoms, got {len(pool)}")
    collected: list[int] = []
    for z in ht.subsets(pool):
        if z & v != t:
            continue
        view = denotation(f, z)
        for g in view.gens:
            h = Support(view.base, g)
            if is_vocab_feasible(h, v):
                collected.append(restrict_support(h, v).members)
    return View.closed(t, collected)
