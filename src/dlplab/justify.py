"""Support graphs and explanations over labelled programs.

A support graph for a classical model assigns to every atom of the model a
distinct rule that fires and has the atom in its head; the incoming edges of
an atom are exactly the positive body of its rule.  Explanations are the
acyclic support graphs.  Since the edges are determined by the labelling,
graphs are searched by enumerating injective atom-to-rule labellings.
:func:`support_graphs_of` lists a model's graphs; :func:`explanations`
yields its acyclic ones lazily, and ``list`` of it lists them.

One enumerator, :func:`_labellings`, serves every search.  It works on the
masks of :class:`ht.CompiledProgram`, depth first and without recursion,
and takes the atoms in ascending order and for each the firing rules that
head it in program order.

The graph-supported models (``spm``) and the justified models (``jm``) come
from one walk over the paired table (:meth:`ht.CompiledProgram.paired_table`),
model by model.  A labelling gives every true atom its own firing rule
heading it, so a model where two true atoms have one rule as the only
firing rule heading each of them has none, and the paired table drops
exactly those from the headed models.  At each model:

- the first labelling is ``spm``'s witness;
- if it is acyclic, it is ``jm``'s witness too;
- otherwise, if the model passes the derivability check (the least
  fixpoint of adding the true head atoms of a firing rule whose positive
  body is already derived reaches the model), the enumerator runs again
  from the root with a cycle cut, which drops every partial labelling
  that closes a cycle, and its first labelling is ``jm``'s witness.

Both are exact.  An acyclic labelling, read in a topological order,
derives every atom of the model one by one, so a model failing the check
has none.  A cycle is made of edges fixed by the labels of its atoms, so
every completion of a cut partial labelling keeps it, and the cut leaves
the order of the labellings that remain as it was: the first labelling of
the cut pass is the first acyclic one.  The pass restarts from the root
because the labellings already walked share prefixes with the ones still
to come, and such a prefix may already hold a cycle.

The walk is kept on the compile it walked, as the compile keeps its
tables (:func:`ht.built_once`), so ``jm`` and ``spm`` of one compile share
it.  It keeps the models as masks and each labelling as rule indices
(:func:`supported_masks`, :func:`justified_masks`); the labelled program
is built only to decode them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import compare, ht
from .syntax import ExtendedRule, Program


class ModelMismatchError(ValueError):
    """Graph vertices differ from the interpretation under scrutiny."""


@dataclass(frozen=True, slots=True)
class SupportGraph:
    """A labelled graph over the atoms of a model.

    Stored as vertices, directed edges, and the atom-to-rule-label
    assignment as a sorted tuple of pairs.
    """

    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]
    labels: tuple[tuple[str, str], ...]

    @classmethod
    def of(cls, vertices: Iterable[str], edges: Iterable[tuple[str, str]],
           labels) -> "SupportGraph":
        pairs = sorted(labels.items()) if isinstance(labels, dict) else sorted(labels)
        return cls(frozenset(vertices), frozenset(edges), tuple(pairs))

    @property
    def labelling(self) -> dict[str, str]:
        return dict(self.labels)

    def is_acyclic(self) -> bool:
        """Whether peeling the vertices without incoming edges, in a loop,
        removes them all."""
        succ: dict[str, list[str]] = {v: [] for v in self.vertices}
        missing = dict.fromkeys(self.vertices, 0)  # incoming edges not peeled
        for a, b in self.edges:
            succ[a].append(b)
            missing[b] += 1
        ready = [v for v, k in missing.items() if not k]
        peeled = 0
        while ready:
            peeled += 1
            for w in succ[ready.pop()]:
                missing[w] -= 1
                if not missing[w]:
                    ready.append(w)
        return peeled == len(self.vertices)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{p} -> {l}" for p, l in self.labels) + "}"


@dataclass(frozen=True, slots=True)
class GraphVerdict:
    kind: str               # "valid-acyclic" | "valid-cyclic" | "invalid"
    reason: str | None = None

    @property
    def is_valid(self) -> bool:
        return self.kind != "invalid"


def check_support_graph(g: SupportGraph, p: Program,
                        model: Iterable[str]) -> GraphVerdict:
    """Classify a candidate graph against the program and model."""
    i = frozenset(model)
    if g.vertices != i:
        raise ModelMismatchError(
            f"graph vertices {sorted(g.vertices)} differ from model {sorted(i)}")
    cp = ht.CompiledProgram(p, i | p.atoms())
    p = p.labelled()
    t = cp.mask(i)
    if not cp.sat_classical(t):
        raise ValueError("the interpretation is not a classical model of the program")
    lab = g.labelling
    if set(lab) != i:
        return GraphVerdict("invalid", "labelling does not cover exactly the model")
    if len(set(lab.values())) != len(lab):
        return GraphVerdict("invalid", "labelling is not injective")
    incoming: dict[str, set[str]] = {v: set() for v in i}
    for a, b in g.edges:
        if a not in i or b not in i:
            return GraphVerdict("invalid", f"edge ({a},{b}) leaves the model")
        incoming[b].add(a)
    rule_at = {r.label: k for k, r in enumerate(p.rules)}
    fired = cp.fired(t)
    for atom in sorted(i):
        k = rule_at.get(lab[atom])
        if k is None:
            return GraphVerdict("invalid", f"unknown rule label {lab[atom]!r}")
        r = p.rules[k]
        if atom not in r.head_set:
            return GraphVerdict("invalid",
                                f"{atom} is not in the head of rule {lab[atom]}")
        if k not in fired:
            return GraphVerdict("invalid", f"body of rule {lab[atom]} does not hold")
        if incoming[atom] != set(r.bpos):
            return GraphVerdict(
                "invalid",
                f"incoming edges of {atom} must be exactly the positive body "
                f"of rule {lab[atom]}")
    return GraphVerdict("valid-acyclic" if g.is_acyclic() else "valid-cyclic")


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def _candidates(cp: ht.CompiledProgram, t: int) -> list[list[int]] | None:
    """Per atom of the model t, ascending, the indices of the rules that
    fire in t and head it, in program order; None if an atom has none."""
    fired = cp.fired(t)
    out = []
    for a in ht.set_bits(t):
        cand = [k for k in fired if cp.rules[k][0] >> a & 1]
        if not cand:
            return None
        out.append(cand)
    return out


def _labellings(cp: ht.CompiledProgram, atoms: list[int], candidates: list[list[int]],
                cut: bool = False) -> Iterator[list[int]]:
    """Injective assignments of the candidate rules to the atoms: per
    atom, the index of its rule.

    Atoms are taken in the given order, the candidates of each in theirs,
    depth first, which makes the enumeration deterministic.  With ``cut``,
    a partial labelling that closes a cycle of its support graph is
    dropped together with all its completions.
    """
    n = len(atoms)
    if not n:
        yield []
        return
    bpos = [r[1] for r in cp.rules]
    preds = [0] * len(cp.atoms)  # per labelled atom, the positive body of its rule
    chosen = [0] * n
    tried = [0] * n  # per depth, the candidates tried so far
    used = 0  # the chosen rules, as a mask over rule indices
    d = 0
    while True:
        if d == n:
            yield list(chosen)
            d -= 1
            used ^= 1 << chosen[d]
        cand = candidates[d]
        i = tried[d]
        while i < len(cand):
            k = cand[i]
            i += 1
            if not (used >> k & 1
                    or cut and _closes_cycle(atoms[d], bpos[k], preds)):
                break
        else:
            tried[d] = preds[atoms[d]] = 0
            if not d:
                return
            d -= 1
            used ^= 1 << chosen[d]
            continue
        tried[d] = i
        chosen[d] = k
        preds[atoms[d]] = bpos[k]
        used |= 1 << k
        d += 1


def _closes_cycle(a: int, body: int, preds: list[int]) -> bool:
    """Whether labelling atom a with a rule of the given positive body
    closes a cycle, the labelled atoms having the positive bodies of their
    rules in preds: whether a is in the body or among its ancestors."""
    seen = 0
    todo = body
    while todo:
        if todo >> a & 1:
            return True
        seen |= todo
        up = 0
        for q in ht.set_bits(todo):
            up |= preds[q]
        todo = up & ~seen
    return False


def _is_acyclic(cp: ht.CompiledProgram, atoms: list[int], labelling: list[int]) -> bool:
    """Whether the support graph of a labelling of the atoms is acyclic:
    whether repeatedly dropping the atoms whose rule's positive body
    misses every atom left drops them all."""
    left = [(1 << a, cp.rules[k][1]) for a, k in zip(atoms, labelling)]
    while left:
        among = 0
        for bit, _ in left:
            among |= bit
        kept = [(bit, body) for bit, body in left if body & among]
        if len(kept) == len(left):
            return False
        left = kept
    return True


def _derivable(cp: ht.CompiledProgram, t: int, candidates: list[list[int]]) -> bool:
    """Whether the least fixpoint of adding the true head atoms of a
    candidate rule whose positive body is derived reaches the model t; it
    does if t has an acyclic labelling."""
    rules = [cp.rules[k] for k in set().union(*candidates)]
    derived = 0
    grew = True
    while grew:
        grew = False
        for head, bpos, _, _ in rules:
            new = head & t & ~derived
            if new and not bpos & ~derived:
                derived |= new
                grew = True
    return derived == t


def _graph_from_labelling(model: frozenset[str],
                          chosen: dict[str, ExtendedRule]) -> SupportGraph:
    edges = set()
    for atom, r in chosen.items():
        for q in r.bpos:
            edges.add((q, atom))
    return SupportGraph.of(model, edges,
                           {a: r.label for a, r in chosen.items()})


def support_graphs_of(p: Program, model: Iterable[str]) -> list[SupportGraph]:
    """All support graphs of the model, cyclic ones included."""
    return list(_graphs(p, model, acyclic=False))


def explanations(p: Program, model: Iterable[str]) -> Iterator[SupportGraph]:
    """All acyclic support graphs of the model, in the order of
    :func:`support_graphs_of`, each built only when it is asked for."""
    return _graphs(p, model, acyclic=True)


def _graphs(p: Program, model: Iterable[str], acyclic: bool) -> Iterator[SupportGraph]:
    """The support graphs of the model, only the acyclic ones if asked: a
    model failing the derivability check has none, and otherwise the
    enumerator cuts every partial labelling that closes a cycle.  Lazy: a
    labelling becomes a graph when the caller asks for the next one."""
    i = frozenset(model)
    cp = ht.CompiledProgram(p, i | p.atoms())
    t = cp.mask(i)
    if not cp.sat_classical(t):
        raise ValueError("the interpretation is not a classical model of the program")
    candidates = _candidates(cp, t)
    if candidates is None or acyclic and not _derivable(cp, t, candidates):
        return
    rules = p.labelled().rules
    atoms = ht.set_bits(t)
    names = [cp.atoms[a] for a in atoms]
    for lab in _labellings(cp, atoms, candidates, cut=acyclic):
        yield _graph_from_labelling(i, {a: rules[k] for a, k in zip(names, lab)})


# models as masks, each with a labelling: per true atom, ascending, the
# index of its rule
Walked = tuple[tuple[int, tuple[int, ...]], ...]


@ht.built_once
def _walk(cp: ht.CompiledProgram) -> tuple[Walked, Walked]:
    """The graph-supported and the justified models of the compiled
    program, each paired with the labelling of its first graph, the first
    acyclic one for jm: one walk over the paired models, which hold
    every model with an injective labelling, kept on the compile."""
    supported, justified = [], []
    for t in cp.paired_in_order():
        candidates = _candidates(cp, t)
        if candidates is None:
            continue
        atoms_of_t = ht.set_bits(t)
        first = next(_labellings(cp, atoms_of_t, candidates), None)
        if first is None:
            continue
        supported.append((t, tuple(first)))
        acyclic = first
        if not _is_acyclic(cp, atoms_of_t, first):
            acyclic = (next(_labellings(cp, atoms_of_t, candidates, cut=True), None)
                       if _derivable(cp, t, candidates) else None)
        if acyclic is not None:
            justified.append((t, tuple(acyclic)))
    return tuple(supported), tuple(justified)


def supported_masks(cp: ht.CompiledProgram) -> list[tuple[int, tuple[int, ...]]]:
    """The models of :func:`supported_models_graph` as masks over the
    compile's alphabet, in the order of :func:`ht.sort_models`, each with
    the labelling of its first support graph as rule indices."""
    return list(_walk(cp)[0])


def justified_masks(cp: ht.CompiledProgram) -> list[tuple[int, tuple[int, ...]]]:
    """The models of :func:`justified_models` as masks over the compile's
    alphabet, in the order of :func:`ht.sort_models`, each with the
    labelling of its first acyclic support graph as rule indices."""
    return list(_walk(cp)[1])


def supported_models_graph(p: Program,
                           atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """Classical models admitting some support graph: row ``spm`` of the memo."""
    return compare.model_tables(p, atoms).models("spm")


def justified_models(p: Program,
                     atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """Classical models admitting some acyclic support graph: row ``jm`` of the memo."""
    return compare.model_tables(p, atoms).models("jm")


def ad_supported_masks(cp: ht.CompiledProgram) -> list[int]:
    """The models of :func:`ad_supported_models` as masks over the
    compile's alphabet, in the order of :func:`ht.sort_models`."""
    return ht.model_order(cp.model_table() & cp.support_table())


def ad_supported_models(p: Program,
                        atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """Completion-style supported models: every atom of the model needs a
    firing rule whose other head atoms are all false: row ``ad`` of the memo."""
    return compare.model_tables(p, atoms).models("ad")


# ---------------------------------------------------------------------------
# Node forgetting
# ---------------------------------------------------------------------------

def node_forget(g: SupportGraph, drop: Iterable[str]) -> SupportGraph:
    """Remove the given atoms, adding an edge for every path whose inner
    nodes were all removed.  Preserves acyclicity."""
    a = frozenset(drop)
    keep = g.vertices - a
    succ: dict[str, set[str]] = {v: set() for v in g.vertices}
    for x, y in g.edges:
        succ[x].add(y)
    edges = set()
    for start in keep:
        frontier = list(succ[start])
        seen_inner: set[str] = set()
        while frontier:
            node = frontier.pop()
            if node in keep:
                edges.add((start, node))
            elif node not in seen_inner:
                seen_inner.add(node)
                frontier.extend(succ[node])
    labels = {p: l for p, l in g.labels if p in keep}
    return SupportGraph.of(keep, edges, labels)


# ---------------------------------------------------------------------------
# DOT output
# ---------------------------------------------------------------------------

def to_dot(g: SupportGraph, name: str = "explanation") -> str:
    lines = [f"digraph {name} {{"]
    lab = g.labelling
    for v in sorted(g.vertices):
        lines.append(f'  "{v}" [label="{v} [{lab[v]}]"];')
    for x, y in sorted(g.edges):
        lines.append(f'  "{x}" -> "{y}";')
    lines.append("}")
    return "\n".join(lines)
