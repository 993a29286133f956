"""Head selection functions, reducts and candidate stable models.

A selection picks, for each rule whose body holds in the interpretation,
one true head atom (or falsum if the head has none).  The induced reduct is
an extended normal program; an interpretation is a candidate stable model
when it is stable for the reduct of some selection.  Closed selections must
pick the same atom for rules sharing the same head set; the DI-stable
models are the subset-minimal closed candidates.

Both kinds of candidates come from one walk over the models, kept on the
compile (``_walk``).  A rule with one true head atom has one choice in
either mode, so only the rules with more are searched; the closed search
is the open one, witness and all, when those rules' head sets are
distinct and sort in the rules' order.  :func:`candidate_stable_models`
reads either kind, witnesses included, from the memo's rows ``csm`` and
``csm-closed``; the DI-stable models are its row ``di``.

Also here: the immediate-consequences step and the fixpoint reading of
graph-based supported models, and the two size-preserving reductions that
remove double negation and make head sets pairwise distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from . import compare, ht
from .syntax import ExtendedRule, Program, rule

T1_PREFIX = "__t1_"
T2_PREFIX = "__t2_"


class SelectionError(ValueError):
    """A head selection that violates its defining conditions."""


class NonNormalProgramError(ValueError):
    """An operation restricted to extended normal programs got a disjunction."""


@dataclass(frozen=True, slots=True)
class HeadSelection:
    """Choice of one true head atom (or none) per triggered rule index."""

    choices: tuple[tuple[int, str | None], ...]
    closed: bool = False

    @property
    def mapping(self) -> dict[int, str | None]:
        return dict(self.choices)

    def __str__(self) -> str:
        parts = [f"rule#{i + 1} -> {a if a is not None else 'bot'}"
                 for i, a in self.choices]
        return "{" + ", ".join(parts) + "}"


# A selection in index form: (rule index, chosen atom index or None) per
# triggered rule, ascending by rule.
Choices = tuple[tuple[int, "int | None"], ...]


def _selection(atoms: tuple[str, ...], choices: Choices, closed: bool) -> HeadSelection:
    return HeadSelection(tuple((k, None if a is None else atoms[a])
                               for k, a in choices), closed=closed)


def selections(p: Program, model: Iterable[str],
               closed: bool = False) -> Iterator[HeadSelection]:
    """All head selections for the model, over triggered rules only.

    Untriggered rules never reach the reduct, so their choices are not
    enumerated.  In closed mode the triggered rules are grouped by head set,
    taken in the order of the sorted head sets, and every group member
    receives the same choice.
    """
    i = frozenset(model)
    cp = ht.CompiledProgram(p, i | p.atoms())
    t = cp.mask(i)
    heads, rank = cp.head_order()
    members: dict[int, list[int]] = {}
    for k in cp.fired(t):
        members.setdefault(rank[k] if closed else k, []).append(k)
    slots = [(ks, [a for a in heads[ks[0]] if t >> a & 1] or [None])
             for _, ks in sorted(members.items())]
    for combo in product(*(choices for _, choices in slots)):
        yield _selection(cp.atoms, tuple(sorted(
            (k, a) for (ks, _), a in zip(slots, combo) for k in ks)), closed)


def _first_cover(base: int, options: list[list[int]], target: int) -> list[int] | None:
    """The first choice of one value per slot, in the order of
    :func:`itertools.product`, whose union with the base is the target, as
    the index picked in each slot; None if there is none.

    Unions only grow along a choice, so a branch whose union together with
    every value still on offer misses part of the target is cut.
    """
    n = len(options)
    reach = [0] * (n + 1)
    for d in range(n - 1, -1, -1):
        reach[d] = reach[d + 1]
        for v in options[d]:
            reach[d] |= v
    picks = [-1] * n
    acc = [base] * (n + 1)  # acc[d]: the base and the values picked before slot d
    d = 0
    while d >= 0:
        if d == n:
            if acc[n] == target:
                return picks
            d -= 1
            continue
        j = picks[d] + 1
        if j == len(options[d]) or target & ~(acc[d] | reach[d]):
            picks[d] = -1
            d -= 1
            continue
        picks[d] = j
        acc[d + 1] = acc[d] | options[d][j]
        d += 1
    return None


def reduct(p: Program, model: Iterable[str], sel: HeadSelection) -> Program:
    """The extended normal program picked out by the selection.

    Keeps one copy of syntactically identical rules; a falsum choice turns
    into a constraint (it cannot occur when the model satisfies the program).
    """
    i = frozenset(model)
    cp = ht.CompiledProgram(p, i | p.atoms())
    trig = cp.fired(cp.mask(i))
    chosen = sel.mapping
    if set(chosen) != set(trig):
        raise SelectionError(f"selection covers rules {sorted(chosen)} but the "
                             f"triggered rules are {sorted(trig)}")
    out: dict[ExtendedRule, None] = {}
    for k in trig:
        r = p.rules[k]
        atom = chosen[k]
        hits = r.head_set & i
        if atom is None and hits:
            raise SelectionError(f"rule #{k + 1} has true head atoms, cannot select falsum")
        if atom is not None and atom not in hits:
            raise SelectionError(f"{atom!r} is not a true head atom of rule #{k + 1}")
        out[ExtendedRule(() if atom is None else (atom,), r.bpos, r.bneg, r.bnegneg)] = None
    return Program(tuple(out))


def _first_selection(groups: list, base: int, forced: list, cols: list[int],
                     target: int) -> Choices | None:
    """The forced choices and the first choice per group (its rules, their
    true head atoms and positive table), in the order of :func:`product`,
    whose violations and the base cover the target; None if there is none."""
    picks = _first_cover(base, [[pos & ~cols[a] for a in atoms]
                                for _, atoms, pos in groups], target)
    return None if picks is None else tuple(sorted(forced + [
        (k, atoms[j]) for (ks, atoms, _), j in zip(groups, picks) for k in ks]))


@ht.built_once
def _walk(cp: ht.CompiledProgram) -> tuple[tuple, tuple]:
    """The open and the closed rows of :func:`candidate_masks`."""
    heads, rank = cp.head_order()
    found: tuple[list, list] = ([], [])
    for t in cp.paired_in_order():
        cols = cp.here_columns(t)
        everything, target = ht._universe(t.bit_count()), ht.below_top(t.bit_count())
        base, forced, multi = 0, [], []
        for k in cp.fired(t):  # each heads a true atom, as t is a model
            atoms = [a for a in heads[k] if t >> a & 1]
            pos = cp.positive_table(k, cols, everything)
            if len(atoms) > 1:
                multi.append(([k], atoms, pos))
            else:
                forced.append((k, atoms[0]))
                base |= pos & ~cols[atoms[0]]
        chosen = _first_selection(multi, base, forced, cols, target)
        if chosen is None:
            continue  # a closed selection is an open one
        found[0].append((t, chosen))
        ranks = [rank[ks[0]] for ks, _, _ in multi]
        if any(r >= s for r, s in zip(ranks, ranks[1:])):
            groups: dict[int, list] = {}  # by head set
            for r, (ks, atoms, pos) in zip(ranks, multi):
                group = groups.setdefault(r, [[], atoms, 0])
                group[0] += ks
                group[2] |= pos
            chosen = _first_selection([groups[r] for r in sorted(groups)],
                                      base, forced, cols, target)
        if chosen is not None:
            found[1].append((t, chosen))
    return tuple(found[0]), tuple(found[1])


def candidate_masks(cp: ht.CompiledProgram,
                    closed: bool = False) -> list[tuple[int, Choices]]:
    """The candidate stable models of :func:`candidate_stable_models` as
    masks over the compile's alphabet, in the order of
    :func:`ht.sort_models`, each paired with its first witnessing selection
    in index form: one row of the walk that gives both.

    A selection's reduct gives each triggered rule the chosen head atom, so
    its violation table over the here-components of the model is the union
    of one table per slot: the positive bodies of the slot's rules minus
    the chosen atom's column.  The model is stable for the reduct iff that
    union is every here-component but the model (as in
    :meth:`ht.CompiledProgram.is_stable`).  The slots of one option are
    joined before the search.  The closed search runs only on an open
    candidate, and reuses its witness where its slots are the open ones.

    Only the models of :meth:`ht.CompiledProgram.paired_table` are
    searched.  For an atom a of a candidate T, some slot must violate the
    here-component T minus a.  A slot violates only the components that
    miss its chosen atom, a true head atom of its firing rules, so that
    atom is a, and T is headed.  A slot picks one atom, so two atoms d, e
    of T need two slots, one holding a firing rule that heads d and the
    other one heading e: if a single rule k is the only firing rule
    heading each, both need k's slot.  This holds for closed selections
    too, as the slot of k then holds only rules of k's head set, any other
    of which would head d too.
    """
    return list(_walk(cp)[closed])


def candidate_stable_models(p: Program, atoms: Iterable[str] | None = None,
                            closed: bool = False
                            ) -> list[tuple[frozenset[str], HeadSelection]]:
    """Classical models stable under the reduct of some selection, paired
    with the first witnessing selection found: row ``csm`` or ``csm-closed`` of the memo."""
    m = compare.model_tables(p, atoms)
    name = "csm-closed" if closed else "csm"
    return [(frozenset(m.decode(t)), _selection(m.atoms, m.witnesses[name][t], closed))
            for t in m.masks(name)]


# ---------------------------------------------------------------------------
# Fixpoint reading of supported models
# ---------------------------------------------------------------------------

def immediate_consequences(p: Program, model: Iterable[str]) -> frozenset[str]:
    """Heads of the single-headed rules whose body holds in the model."""
    if any(len(r.head) > 1 for r in p.rules):
        raise NonNormalProgramError(
            "the immediate-consequences step needs an extended normal program")
    i = frozenset(model)
    cp = ht.CompiledProgram(p, i | p.atoms())
    return frozenset(p.rules[k].head[0] for k in cp.fired(cp.mask(i))
                     if p.rules[k].head)


def supported_fixpoint_masks(cp: ht.CompiledProgram) -> list[int]:
    """The models of :func:`supported_models_fixpoint` as masks over the
    compile's alphabet, in the order of :func:`ht.sort_models`.

    A reduct's immediate consequences at the model are the chosen atoms,
    so the model is fixed iff some selection chooses every atom of it; the
    search starts from the atoms that rules of one true head atom force.
    """
    heads, _ = cp.head_order()
    out = []
    for t in cp.models_in_order():
        base, options = 0, []
        for k in cp.fired(t):  # each heads a true atom, as t is a model
            atoms = [1 << a for a in heads[k] if t >> a & 1]
            if len(atoms) > 1:
                options.append(atoms)
            else:
                base |= atoms[0]
        if _first_cover(base, options, t) is not None:
            out.append(t)
    return out


def supported_models_fixpoint(p: Program,
                              atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """Models fixed by the immediate consequences of some selection reduct:
    row ``spm-fixpoint`` of the memo."""
    return compare.model_tables(p, atoms).models("spm-fixpoint")


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------

def eliminate_double_negation(p: Program) -> Program:
    """Replace each doubly negated body atom q by a negated fresh atom,
    defined by the companion rule __t1_q :- not q."""
    doubled = sorted({q for r in p.rules for q in r.bnegneg})
    if not doubled:
        return p
    aux = {q: f"{T1_PREFIX}{q}" for q in doubled}
    out = [ExtendedRule(r.head, r.bpos, r.bneg | {aux[q] for q in r.bnegneg},
                        frozenset(), r.label) if r.bnegneg else r for r in p.rules]
    out += [rule(head=(aux[q],), negated=(q,)) for q in doubled]
    return Program(tuple(out))


def disambiguate_head_sets(p: Program) -> Program:
    """Make disjunctive head sets pairwise distinct.

    Within each group of rules sharing the same multi-atom head set, every
    rule after the first gets a fresh always-false atom __t2_k appended to
    its head (k is the rule's 1-based position) plus a constraint forbidding
    it.  Candidate stable models are unaffected, but closed selections can
    then choose independently per rule.
    """
    groups: dict[frozenset[str], list[int]] = {}
    for k, r in enumerate(p.rules):
        if len(r.head) > 1:
            groups.setdefault(r.head_set, []).append(k)
    retag = {k: f"{T2_PREFIX}{k + 1}" for members in groups.values() for k in members[1:]}
    if not retag:
        return p
    out = [ExtendedRule(r.head + (retag[k],), r.bpos, r.bneg, r.bnegneg, r.label)
           if k in retag else r for k, r in enumerate(p.rules)]
    out += [rule(pos=(retag[k],)) for k in sorted(retag)]
    return Program(tuple(out))
