"""Strongly supported models: existence of a monotone chain of
interpretations that ends at the model.

Stage zero must hit the head of every rule with an empty body and may only
use atoms from those heads.  Each later stage must hit the head of every
rule whose body holds at the pair (previous stage, model), and may only use
atoms from those heads.  Body satisfaction is monotone in the lower
component, so the set of applicable rules only grows along a chain; the
search below exploits that by memoizing reached stages per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import ht
from .syntax import Program


class NonMonotoneChainError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SsmChain:
    """A monotone sequence of stages ending at the target model."""

    stages: tuple[frozenset[str], ...]
    target: frozenset[str]

    def __post_init__(self):
        if not self.stages:
            raise NonMonotoneChainError("a chain needs at least one stage")
        for lo, hi in zip(self.stages, self.stages[1:]):
            if not lo <= hi:
                raise NonMonotoneChainError(
                    f"stage {sorted(lo)} is not included in {sorted(hi)}")
        if self.stages[-1] != self.target:
            raise NonMonotoneChainError("the last stage must equal the target")

    def __str__(self) -> str:
        def fmt(s):
            return "{" + ",".join(sorted(s)) + "}"
        return " <= ".join(fmt(s) for s in self.stages)


@dataclass(frozen=True, slots=True)
class ChainVerdict:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _stage_pool(cp: ht.CompiledProgram, prev: int | None, t: int) -> list[int]:
    """Indices of the rules applicable at this stage.

    Stage zero (prev None) uses the rules with empty bodies; later stages
    use body satisfaction at the pair (previous stage, target).
    """
    if prev is None:
        return [k for k, (_, bp, bn, bnn) in enumerate(cp.rules)
                if not (bp | bn | bnn)]
    return [k for k in range(len(cp.rules)) if cp.body_ht(k, prev, t)]


def check_chain(chain: SsmChain, p: Program) -> ChainVerdict:
    """Verify both chain conditions stage by stage; reports the first
    violation found."""
    t = chain.target
    cp = ht.CompiledProgram(p, t | p.atoms())
    tmask = cp.mask(t)
    if not cp.sat_classical(tmask):
        raise ValueError("the target is not a classical model of the program")
    prev: int | None = None
    for idx, stage in enumerate(chain.stages):
        smask = cp.mask(stage)
        pool = _stage_pool(cp, prev, tmask)
        for k in pool:
            if not cp.rules[k][0] & smask:
                return ChainVerdict(
                    False,
                    f"stage {idx} misses the head of applicable rule #{k + 1}")
        allowed = 0
        for k in pool:
            allowed |= cp.rules[k][0]
        if smask & ~allowed:
            stray = sorted(cp.unmask(smask & ~allowed))
            return ChainVerdict(
                False,
                f"stage {idx} contains {stray} not licensed by any applicable head")
        prev = smask
    return ChainVerdict(True)


def _find_chain(cp: ht.CompiledProgram, tmask: int) -> SsmChain | None:
    """Breadth-first search over reachable stages; returns a witness chain."""
    pool0 = _stage_pool(cp, None, tmask)
    allowed0 = 0
    for k in pool0:
        allowed0 |= cp.rules[k][0]
    allowed0 &= tmask

    def hits_all(s: int, pool: list[int]) -> bool:
        return all(cp.rules[k][0] & s for k in pool)

    starts = [s for s in _submasks(allowed0) if hits_all(s, pool0)]
    parent: dict[int, int | None] = {}
    frontier = []
    for s in sorted(starts):
        if s not in parent:
            parent[s] = None
            frontier.append(s)
    while frontier:
        nxt = []
        for h in frontier:
            if h == tmask:
                return _rebuild(cp, parent, h)
            pool = _stage_pool(cp, h, tmask)
            allowed = 0
            for k in pool:
                allowed |= cp.rules[k][0]
            allowed &= tmask
            room = allowed & ~h
            for extra in _submasks(room):
                s = h | extra
                if s in parent or not hits_all(s, pool):
                    continue
                parent[s] = h
                nxt.append(s)
        frontier = sorted(nxt)
    return None


def _submasks(m: int):
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


def _rebuild(cp: ht.CompiledProgram, parent: dict[int, int | None],
             last: int) -> SsmChain:
    masks = [last]
    while parent[masks[-1]] is not None:
        masks.append(parent[masks[-1]])
    stages = tuple(cp.unmask(m) for m in reversed(masks))
    return SsmChain(stages, cp.unmask(last))


def strongly_supported_models(p: Program, atoms: Iterable[str] | None = None
                              ) -> list[tuple[frozenset[str], SsmChain]]:
    """Classical models reachable by a valid chain, each with one witness."""
    cp = ht.CompiledProgram(p, atoms)
    out = []
    for t in ht.model_order(cp.model_table()):
        chain = _find_chain(cp, t)
        if chain is not None:
            out.append((chain.target, chain))
    return out


def ssm_models(p: Program, atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    return ht.sort_models(m for m, _ in strongly_supported_models(p, atoms))


def minimal_elements(models: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    """The subset-minimal members of a family of interpretations."""
    pool = list(set(models))
    return ht.sort_models(m for m in pool if not any(o < m for o in pool))
