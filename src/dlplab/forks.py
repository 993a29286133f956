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
with the program tables of :mod:`dlplab.ht`.  :func:`fork_stable_models_each`
and :func:`strongly_entails` compile their forks once into a flat list of
register operations and run it for each T, so no formula is hashed or
dispatched on per T.  The compiler walks each node object once, so forks
that share a subfork run its registers once per T for all of them;
:func:`fork_stable_models` is the one-fork case.  A program needs no
tree: :func:`forked_stable_models`, :func:`equilibrium_models` and
:func:`entails_forked` emit the registers of ``syntax.forked(p)`` and of
``p.to_formula()`` straight from its rules (``_compile_program``), the
operations and roots the tree compile would give, and run the same sweeps
as the tree entries.  The head-splitting check conjoins a program's fork
with each of many contexts: :class:`ContextRegisters` emits the contexts'
formula registers once, and keeps what a sweep computes of them alone,
and :func:`forked_masks_in_contexts` emits the program's registers after
them and one fork conjunction per context, so each program runs only its
own registers and the conjunctions.  The public :class:`Support` and
:class:`View` keep their members as frozensets of here-masks;
:meth:`Support.member_sets` gives them back as atom sets.

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
ones.  :func:`strongly_entails` visits only the T where the left view is
nonempty, because an empty view has no support to miss.

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
not in T or E_d holds.  Every rule is exact for its own question, and the
open set is only necessary for stability, so the sweep finds the same
models and witnesses as a sweep over every T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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

_FORMULA_OPS = {And: _AND, Or: _OR, Implies: _IMP}
_FORK_OPS = {ForkAnd: _FAND, ForkPair: _FPAIR}


def _compile(forks: Sequence[Fork],
             pool: Sequence[str]) -> tuple[list[Op], list[int], set[str]]:
    """Flatten forks over a sorted pool into register operations.

    Registers 0..n-1 hold the supports of the pool atoms and register n the
    empty support; operation k writes register n+1+k.  Operations are keyed
    by opcode and operand registers, so equal subformulas share a register
    without a formula ever being hashed.  The walk is memoised by node
    identity, once for nodes read as formulas (a support) and once for
    nodes read as forks (a view), so a subfork that several forks share is
    walked once.  Returns the operations, each fork's register, and the
    atoms outside the pool (read as false).
    """
    forks = list(forks)  # holds every node, so no id is reused in the walk
    index = {a: i for i, a in enumerate(pool)}
    empty = len(pool)
    ops: list[Op] = []
    regs: dict[Op, int] = {}
    formulas: dict[int, int] = {}
    views: dict[int, int] = {}
    outside: set[str] = set()

    def emit(op: int, a: int, b: int = 0) -> int:
        key = (op, a, b)
        reg = regs.get(key)
        if reg is None:
            ops.append(key)
            reg = regs[key] = empty + len(ops)
        return reg

    # Leaves cost less to walk again than to look up, so only inner nodes
    # are memoised.
    def formula(phi: Formula) -> int:
        if isinstance(phi, Atom):
            reg = index.get(phi.name)
            if reg is None:
                outside.add(phi.name)
                return empty
            return reg
        if isinstance(phi, Falsum):
            return empty
        key = id(phi)
        reg = formulas.get(key)
        if reg is None:
            op = _FORMULA_OPS.get(type(phi))
            if op is None:
                raise TypeError(f"cannot evaluate {type(phi).__name__}")
            if op == _AND and type(phi.right) is And:
                return conjunction(phi, formula, formulas)
            # emit, inlined: this and the view walk below are the hot paths
            op = (op, formula(phi.left), formula(phi.right))
            reg = regs.get(op)
            if reg is None:
                ops.append(op)
                reg = regs[op] = empty + len(ops)
            formulas[key] = reg
        return reg

    def view(f: Fork) -> int:
        if isinstance(f, Atom):
            reg = index.get(f.name)
            return emit(_LEAF, formula(f) if reg is None else reg)
        key = id(f)
        reg = views.get(key)
        if reg is None:
            op = _FORK_OPS.get(type(f))
            if op == _FAND and type(f.right) is ForkAnd:
                return conjunction(f, view, views)
            if op is not None:
                op = (op, view(f.left), view(f.right))
            elif isinstance(f, Formula):
                # a plain formula denotes the ideal of its support
                op = (_LEAF, formula(f), 0)
            elif isinstance(f, ForkImplies):
                op = (_FIMP, formula(f.left), view(f.right))
            else:
                raise TypeError(f"cannot evaluate {type(f).__name__}")
            reg = regs.get(op)
            if reg is None:
                ops.append(op)
                reg = regs[op] = empty + len(ops)
            views[key] = reg
        return reg

    # A program is a conjunction nested to the right, one level per rule,
    # and a body one level per atom, so a conjunction's right spine is
    # walked in a loop; its nodes emit their operations on the way back,
    # innermost first, as the recursive walk would.
    def conjunction(node: Fork, walk: Callable[[Fork], int],
                    memo: dict[int, int]) -> int:
        kind = type(node)
        op = _AND if kind is And else _FAND
        spine = []
        while type(node) is kind and id(node) not in memo:
            spine.append((id(node), walk(node.left)))
            node = node.right
        reg = walk(node)
        while spine:
            key, left = spine.pop()
            reg = memo[key] = emit(op, left, reg)
        return reg

    roots = [view(f) for f in forks]
    return ops, roots, outside


def _compile_over(forks: Sequence[Fork],
                  atoms: Iterable[str] | None) -> tuple[list[str], list[Op], list[int]]:
    """Compile forks for enumeration over the given atoms, by default
    their alphabet, which must cover every atom of the forks."""
    if atoms is None:
        atoms = frozenset().union(*(alphabet(f) for f in forks))
    pool = _pool_of(atoms)
    ops, roots, outside = _compile(forks, pool)
    if outside:
        raise ValueError(f"alphabet is missing atoms {sorted(outside)}")
    return pool, ops, roots


def _program_over(p: Program, readings: Sequence[str],
                  atoms: Iterable[str] | None) -> tuple[list[str], list[Op], list[int]]:
    """Compile readings of a program for enumeration over the given atoms,
    by default the program's, which must cover them."""
    own = p.atoms()
    pool = _pool_of(own if atoms is None else atoms)
    outside = own.difference(pool)
    if outside:
        raise ValueError(f"alphabet is missing atoms {sorted(outside)}")
    return (pool, *_compile_program(p, pool, readings))


def _pool_of(atoms: Iterable[str]) -> list[str]:
    pool = sorted(set(atoms))
    ht._check_width(len(pool))
    return pool


def _compile_program(p: Program, pool: Sequence[str], readings: Sequence[str],
                     ops: list[Op] | None = None, regs: dict[Op, int] | None = None
                     ) -> tuple[list[Op], list[int]]:
    """Flatten readings of a program over a sorted pool that covers it into
    register operations, straight from its rules: "formula" reads the
    program as ``p.to_formula()``, "forked" as ``syntax.forked(p)``.
    Operations already emitted over the pool, with their registers, may be
    passed in; the program's are appended to them, and an operation among
    them is not emitted again.

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
    index = {a: i for i, a in enumerate(pool)}
    empty = len(pool)
    ops = [] if ops is None else ops
    regs = {} if regs is None else regs
    rules = p.rules

    def emit(op: int, a: int, b: int = 0) -> int:
        key = (op, a, b)
        reg = regs.get(key)
        if reg is None:
            ops.append(key)
            reg = regs[key] = empty + len(ops)
        return reg

    def chain(op: int, parts: list[int]) -> int:
        """The right-nested connective over nonempty parts."""
        reg = parts[-1]
        for left in parts[-2::-1]:
            # emit, inlined: a program's connectives are mostly chained
            key = (op, left, reg)
            reg = regs.get(key)
            if reg is None:
                ops.append(key)
                reg = regs[key] = empty + len(ops)
        return reg

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
    roots = [readers[name]() for name in readings]
    return ops, roots


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


def _nonempty_tables(ops: Sequence[Op], n: int,
                     start: Sequence[int] | None = None) -> list[int]:
    """Per register, the table over every T of a pool of n atoms (bit t for
    the T of pool mask t) where its support (formula registers) or its
    view (fork registers) is nonempty: the classical reading of the
    registers, one big-int operation each.  ``start`` holds the tables of
    the registers before the operations, by default the atoms' and the
    empty support's."""
    everything = _universe(n)
    nonempty = [*_columns(n), 0] if start is None else list(start)
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


def _pass_start(n: int, d: int) -> list[int]:
    """The tables of the atoms of a pool of n atoms, d's zeroed, and of the
    empty support: the registers before the operations in the pass of
    :func:`_open_table` for atom d."""
    regs = [*_columns(n), 0]
    regs[d] = 0
    return regs


def _excluding(ops: Sequence[Op], regs: list[int], nonempty: Sequence[int],
               everything: int) -> list[int]:
    """Run the operations in the pass of :func:`_open_table` for an atom d:
    per register, the table over every T of the pool where, with d in T, a
    formula holds at (T minus d, T) or some support of a view excludes T
    minus d (the module docstring gives the rules).  ``regs`` holds the
    pass's tables of the registers before the operations
    (:func:`_pass_start` before any) and is extended in place;
    ``nonempty`` holds every register's nonempty table."""
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


def _open_table(ops: Sequence[Op], roots: list[int], n: int,
                start: "ContextRegisters | None" = None) -> int:
    """The table of the T over a pool of n atoms that can be a fork stable
    model of some root: its view is nonempty there and, for every atom d of
    T, holds a support that excludes T minus d.  One pass per atom d runs
    the operations with d's column zeroed (:func:`_excluding`), so that a
    formula register holds the here-and-there truth at (T minus d, T) and a
    fork register whether some support of its view excludes T minus d.
    With ``start``, the operations follow the compiled contexts', whose
    tables it holds."""
    everything = _universe(n)
    cols = _columns(n)
    first, passes = start.prepass() if start else (None, None)
    nonempty = _nonempty_tables(ops, n, first)
    opened = [nonempty[r] for r in roots]
    for d, col in enumerate(cols):
        regs = _pass_start(n, d) if passes is None else list(passes[d])
        _excluding(ops, regs, nonempty, everything)
        lacking = everything ^ col
        opened = [o & (lacking | regs[r]) for o, r in zip(opened, roots)]
    out = 0
    for o in opened:
        out |= o
    return out


def _runs(ops: Sequence[Op], n: int, table: int,
          start: "ContextRegisters | None" = None
          ) -> Iterator[tuple[int, list[int], list]]:
    """The registers at every T of the table over a pool of n atoms, with T
    given by its pool mask and its pool indices, in the order of
    :func:`ht.subsets`.  With ``start``, the operations follow the compiled
    contexts', whose registers at T it gives."""
    for t in ht.model_order(table):
        combo = set_bits(t)
        if start is None:
            cols = _columns(len(combo))
            regs = [0] * (n + 1)
            for i, j in enumerate(combo):
                regs[j] = cols[i]
        else:
            regs = start.registers_at(t)
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
    return Support(base, _unpack(gens[0]) if gens else frozenset())


# ---------------------------------------------------------------------------
# Denotation of forks
# ---------------------------------------------------------------------------

def denotation(f: Fork, t_atoms: Iterable[str]) -> View:
    """The view of a fork at T, computed clause by clause."""
    base = _canon_base(t_atoms)
    return View._of_ints(base, _view_at(f, base))


def fork_stable_models(f: Fork, atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """All T over the alphabet whose view contains the singleton support
    [T]: the one-fork case of :func:`fork_stable_models_each`."""
    return fork_stable_models_each((f,), atoms)[0]


def fork_stable_models_each(forks: Sequence[Fork], atoms: Iterable[str] | None = None
                            ) -> list[list[frozenset[str]]]:
    """The fork stable models of each fork, sorted, over one alphabet: by
    default the atoms of all the forks.  The forks are compiled together
    and run in one sweep over T, so the registers of a subfork they share
    run once per T for all of them."""
    return _stable_sweep(*_compile_over(forks, atoms))


def forked_stable_masks(p: Program, atoms: Iterable[str] | None = None) -> list[int]:
    """The fork stable models of ``syntax.forked(p)``, over p's atoms by
    default, compiled straight from the rules, as masks over the sorted
    alphabet in the order of :func:`ht.sort_models`."""
    pool, ops, roots = _program_over(p, ("forked",), atoms)
    return _stable_masks(len(pool), ops, roots)[0]


def equilibrium_masks(p: Program, atoms: Iterable[str] | None = None) -> list[int]:
    """The fork stable models of ``p.to_formula()``, that is its
    equilibrium models, over p's atoms by default, compiled straight from
    the rules, as masks over the sorted alphabet in the order of
    :func:`ht.sort_models`: an oracle for the stable models that shares no
    table with :mod:`dlplab.ht`."""
    pool, ops, roots = _program_over(p, ("formula",), atoms)
    return _stable_masks(len(pool), ops, roots)[0]


def _decoded(pool: Sequence[str], masks: list[int]) -> list[frozenset[str]]:
    """Masks over a sorted pool as atom sets."""
    return [frozenset(pool[j] for j in set_bits(t)) for t in masks]


def forked_stable_models(p: Program, atoms: Iterable[str] | None = None
                         ) -> list[frozenset[str]]:
    """The models of :func:`forked_stable_masks` as atom sets."""
    masks = forked_stable_masks(p, atoms)
    return _decoded(_pool_of(p.atoms() if atoms is None else atoms), masks)


def equilibrium_models(p: Program, atoms: Iterable[str] | None = None
                       ) -> list[frozenset[str]]:
    """The models of :func:`equilibrium_masks` as atom sets."""
    masks = equilibrium_masks(p, atoms)
    return _decoded(_pool_of(p.atoms() if atoms is None else atoms), masks)


def _stable_sweep(pool: list[str], ops: list[Op], roots: list[int]
                  ) -> list[list[frozenset[str]]]:
    """The fork stable models of each root, as atom sets."""
    return [_decoded(pool, masks) for masks in _stable_masks(len(pool), ops, roots)]


def _stable_masks(n: int, ops: Sequence[Op], roots: list[int],
                  start: "ContextRegisters | None" = None) -> list[list[int]]:
    """The fork stable models of each root over a pool of n atoms, as
    masks.  The sweep visits, in the order of :func:`ht.sort_models`, only
    the T that the pre-pass leaves open for some root.  With ``start``, the
    operations follow the compiled contexts'."""
    found = [(root, []) for root in roots]
    for t, combo, regs in _runs(ops, n, _open_table(ops, roots, n, start), start):
        top = _full_bit(len(combo))
        for root, models in found:
            if top in regs[root]:
                models.append(t)
    return [models for _, models in found]


class ContextRegisters:
    """Contexts read as formulas (``c.to_formula()``), compiled once over a
    sorted pool, straight from their rules; equal rules share their
    operations.  It keeps the operations, the register of each operation,
    each context's view register (the ideal of its formula's support), and
    what a sweep computes of these registers alone, since it is the same
    for every program swept with them: their tables in the pre-pass and
    their registers at each T, each built on first use.
    """

    __slots__ = ("pool", "ops", "regs", "roots", "_prepass", "_at")

    def __init__(self, contexts: Iterable[Program], atoms: Iterable[str]):
        contexts = list(contexts)
        self.pool = pool = tuple(sorted(set(atoms)))
        outside = frozenset().union(*(c.atoms() for c in contexts)).difference(pool)
        if outside:
            raise ValueError(f"alphabet is missing atoms {sorted(outside)}")
        self.ops: list[Op] = []
        self.regs: dict[Op, int] = {}
        self.roots = tuple(_compile_program(c, pool, ("formula",), self.ops, self.regs)[1][0]
                           for c in contexts)
        self._prepass: tuple[list[int], list[list[int]]] | None = None
        self._at: dict[int, list] = {}

    def prepass(self) -> tuple[list[int], list[list[int]]]:
        """The registers' nonempty tables (:func:`_nonempty_tables`) and
        their tables in the pass of each atom (:func:`_excluding`)."""
        if self._prepass is None:
            n = len(self.pool)
            ht._check_width(n)
            nonempty = _nonempty_tables(self.ops, n)
            self._prepass = nonempty, [
                _excluding(self.ops, _pass_start(n, d), nonempty, _universe(n))
                for d in range(n)]
        return self._prepass

    def registers_at(self, t: int) -> list:
        """A fresh list of the registers at the T of pool mask t."""
        regs = self._at.get(t)
        if regs is None:
            # the registers of a sweep over the table of this T alone
            [(_, _, regs)] = _runs(self.ops, len(self.pool), 1 << t)
            self._at[t] = regs
        return list(regs)


def forked_masks_in_contexts(p: Program, contexts: ContextRegisters
                             ) -> list[list[int]]:
    """The fork stable models of ``syntax.forked(p)``, then of its fork
    conjunction with each context, as masks over the contexts' pool, which
    must cover p's atoms.  p's registers are emitted after the contexts',
    each conjunction is one more operation, and one sweep serves them all."""
    pool = contexts.pool
    ht._check_width(len(pool))
    outside = p.atoms().difference(pool)
    if outside:
        raise ValueError(f"alphabet is missing atoms {sorted(outside)}")
    ops, regs = list(contexts.ops), dict(contexts.regs)
    _, (root,) = _compile_program(p, pool, ("forked",), ops, regs)
    roots = [root]
    for c in contexts.roots:
        key = (_FAND, root, c)
        reg = regs.get(key)
        if reg is None:
            ops.append(key)
            reg = regs[key] = len(pool) + len(ops)
        roots.append(reg)
    return _stable_masks(len(pool), ops[len(contexts.ops):], roots, contexts)


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
    over p's atoms by default, compiled straight from the rules, with the
    witness :func:`strongly_entails` gives."""
    return _entailment_sweep(*_program_over(p, ("formula", "forked"), atoms))


def _entailment_sweep(pool: list[str], ops: list[Op], roots: list[int]
                      ) -> EntailmentResult:
    """Whether the view of the first root includes the second's at every T."""
    rf, rg = roots
    # an empty left view has no support to miss
    left = _nonempty_tables(ops, len(pool))[rf]
    for _, combo, regs in _runs(ops, len(pool), left):
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
