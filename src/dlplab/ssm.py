"""Strongly supported models: existence of a monotone chain of
interpretations that ends at the model.

Stage zero must hit the head of every rule with an empty body and may only
use atoms from those heads.  Each later stage must hit the head of every
rule whose body holds at the pair (previous stage, model), and may only use
atoms from those heads.

A chain to a model T exists iff the chain of maximal stages reaches T: each
stage is every head atom, within T, of the rules applicable after the
previous stage, and the chain stops at its first repeated stage.  A maximal
stage hits every applicable head, because a body that holds at (S, T)
holds at T and T is a model.  Body satisfaction is monotone in the lower
component, so the applicable rules only grow along a chain, and by
induction each maximal stage contains the matching stage of any valid
chain; if any chain reaches T, so does this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import compare, ht
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
    return cp.fired(t, prev)


def _heads(cp: ht.CompiledProgram, pool: list[int]) -> int:
    """The atoms in the heads of the given rules, as a mask."""
    out = 0
    for k in pool:
        out |= cp.rules[k][0]
    return out


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
        allowed = _heads(cp, pool)
        if smask & ~allowed:
            stray = sorted(cp.unmask(smask & ~allowed))
            return ChainVerdict(
                False,
                f"stage {idx} contains {stray} not licensed by any applicable head")
        prev = smask
    return ChainVerdict(True)


def _greedy_stages(cp: ht.CompiledProgram, tmask: int) -> tuple[int, ...] | None:
    """The chain of maximal stages, as masks: each holds every atom of the
    target that heads a rule applicable at the previous stage.  It is a
    witness iff it reaches the target; otherwise no chain does."""
    stages: list[int] = []
    prev: int | None = None
    while True:
        stage = _heads(cp, _stage_pool(cp, prev, tmask)) & tmask
        if stage == prev:
            break
        stages.append(stage)
        prev = stage
    if prev != tmask:
        return None
    return tuple(stages)


def strongly_supported_masks(cp: ht.CompiledProgram
                             ) -> list[tuple[int, tuple[int, ...]]]:
    """The models of :func:`strongly_supported_models` as masks over the
    compile's alphabet, in the order of :func:`ht.sort_models`, each with
    the stages of its witness as masks.

    Only the models of :meth:`ht.CompiledProgram.headed_table` are
    searched: an atom enters the maximal stage through a rule applicable at
    (previous stage, T), whose body then holds at T.  One rule may bring
    in several atoms, so the paired table would lose models: ``a | b.``
    has the model {a, b}.
    """
    out = []
    for t in cp.headed_in_order():
        stages = _greedy_stages(cp, t)
        if stages is not None:
            out.append((t, stages))
    return out


def strongly_supported_models(p: Program, atoms: Iterable[str] | None = None
                              ) -> list[tuple[frozenset[str], SsmChain]]:
    """Classical models reachable by a valid chain, each with one witness:
    row ``ssm`` of :func:`compare.model_tables`."""
    m = compare.model_tables(p, atoms)
    out = []
    for t in m.masks("ssm"):
        target = m.decode(t)[0]
        stages = tuple(m.decode(s)[0] for s in m.witnesses["ssm"][t])
        out.append((target, SsmChain(stages, target)))
    return out


def ssm_models(p: Program, atoms: Iterable[str] | None = None) -> list[frozenset[str]]:
    """The models of :func:`strongly_supported_models`."""
    return compare.model_tables(p, atoms).models("ssm")


def minimal_elements(models: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    """The subset-minimal members of a family of interpretations."""
    pool = list(set(models))
    return ht.sort_models(m for m in pool if not any(o < m for o in pool))


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """The subset-minimal members of a family of interpretation masks, in
    the order given, stably sorted by size: the order of
    :func:`ht.sort_models` for masks given in it.  A mask is compared only
    with the minimal ones before it, since every smaller member of the
    family holds a minimal one."""
    out: list[int] = []
    for t in sorted(dict.fromkeys(masks), key=int.bit_count):
        if not any(o & t == o for o in out):
            out.append(t)
    return out
