"""Support graphs and explanations over labelled programs.

A support graph for a classical model assigns to every atom of the model a
distinct rule that fires and has the atom in its head; the incoming edges of
an atom are exactly the positive body of its rule.  Explanations are the
acyclic support graphs.  Since the edges are determined by the labelling,
graphs are searched by enumerating injective atom-to-rule labellings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import ht
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

    def label_of(self, atom: str) -> str:
        return self.labelling[atom]

    def is_acyclic(self) -> bool:
        adj: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            adj[a].append(b)
        state: dict[str, int] = {}

        def visit(v: str) -> bool:
            state[v] = 1
            for w in adj[v]:
                s = state.get(w, 0)
                if s == 1 or (s == 0 and not visit(w)):
                    return False
            state[v] = 2
            return True

        return all(visit(v) for v in sorted(self.vertices) if state.get(v, 0) == 0)

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
    p = p.labelled()
    cp = ht.CompiledProgram(p, i | p.atoms())
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
    for atom in sorted(i):
        k = rule_at.get(lab[atom])
        if k is None:
            return GraphVerdict("invalid", f"unknown rule label {lab[atom]!r}")
        r = p.rules[k]
        if atom not in r.head_set:
            return GraphVerdict("invalid",
                                f"{atom} is not in the head of rule {lab[atom]}")
        if not cp.body_classical(k, t):
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

def _graph_from_labelling(p: Program, model: frozenset[str],
                          chosen: dict[str, ExtendedRule]) -> SupportGraph:
    edges = set()
    for atom, r in chosen.items():
        for q in r.bpos:
            edges.add((q, atom))
    return SupportGraph.of(model, edges,
                           {a: r.label for a, r in chosen.items()})


def _labellings(p: Program, cp: ht.CompiledProgram,
                t: int) -> Iterator[dict[str, ExtendedRule]]:
    """Injective assignments of firing rules to the atoms of the model t.

    ``cp`` is the labelled program ``p`` compiled.  Atoms are processed in
    lexicographic order, candidate rules in program order, which makes the
    enumeration deterministic.
    """
    fired = cp.triggered(t)
    indices = ht.set_bits(t)
    atoms = [cp.atoms[a] for a in indices]
    candidates: list[list[ExtendedRule]] = []
    for a in indices:
        cand = [p.rules[k] for k in fired if cp.rules[k][0] >> a & 1]
        if not cand:
            return
        candidates.append(cand)

    used: set[str] = set()
    chosen: dict[str, ExtendedRule] = {}

    def assign(k: int) -> Iterator[dict[str, ExtendedRule]]:
        if k == len(atoms):
            yield dict(chosen)
            return
        for r in candidates[k]:
            if r.label in used:
                continue
            used.add(r.label)
            chosen[atoms[k]] = r
            yield from assign(k + 1)
            del chosen[atoms[k]]
            used.remove(r.label)

    yield from assign(0)


def support_graphs_of(p: Program, model: Iterable[str]) -> list[SupportGraph]:
    """All support graphs of the model, cyclic ones included."""
    i = frozenset(model)
    p = p.labelled()
    cp = ht.CompiledProgram(p, i | p.atoms())
    t = cp.mask(i)
    if not cp.sat_classical(t):
        raise ValueError("the interpretation is not a classical model of the program")
    return [_graph_from_labelling(p, i, c) for c in _labellings(p, cp, t)]


def explanations_of(p: Program, model: Iterable[str]) -> list[SupportGraph]:
    """All acyclic support graphs of the model."""
    return [g for g in support_graphs_of(p, model) if g.is_acyclic()]


def supported_models_graph(p: Program,
                           atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """Classical models admitting some support graph."""
    p = p.labelled()
    cp = ht.CompiledProgram(p, atoms)
    return [cp.unmask(t) for t in ht.model_order(cp.model_table())
            if next(_labellings(p, cp, t), None) is not None]


def justified_models(p: Program,
                     atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """Classical models admitting some acyclic support graph."""
    p = p.labelled()
    cp = ht.CompiledProgram(p, atoms)
    out = []
    for t in ht.model_order(cp.model_table()):
        i = cp.unmask(t)
        for chosen in _labellings(p, cp, t):
            if _graph_from_labelling(p, i, chosen).is_acyclic():
                out.append(i)
                break
    return out


def ad_supported_models(p: Program,
                        atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """Completion-style supported models: every atom of the model needs a
    firing rule whose other head atoms are all false."""
    cp = ht.CompiledProgram(p, atoms)
    return [cp.unmask(t)
            for t in ht.model_order(cp.model_table() & cp.support_table())]


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
