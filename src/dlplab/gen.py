"""Seedable random generation of programs and forks for differential
testing.  The same seed always produces the same value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .syntax import (FALSUM, And, Atom, ExtendedRule, Fork, ForkPair, Formula,
                     Implies, Or, Program, fork_and, fork_implies, neg)

ATOM_POOL = ("a", "b", "c", "d", "e", "f")

MAX_ATOMS = 6
MAX_RULES = 8
MAX_HEAD = 3
MAX_BODY = 3


class InvalidConfigError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class GenConfig:
    atoms: int = 4
    rules: int = 5
    max_head: int = 3
    max_body: int = 3
    p_neg: float = 0.25
    p_negneg: float = 0.15
    p_constraint: float = 0.08
    p_dup_head: float = 0.10
    seed: int = 0

    def validate(self) -> None:
        if not 1 <= self.atoms <= MAX_ATOMS:
            raise InvalidConfigError(f"atoms must be in 1..{MAX_ATOMS}")
        if not 0 <= self.rules <= MAX_RULES:
            raise InvalidConfigError(f"rules must be in 0..{MAX_RULES}")
        if not 1 <= self.max_head <= MAX_HEAD:
            raise InvalidConfigError(f"max_head must be in 1..{MAX_HEAD}")
        if not 0 <= self.max_body <= MAX_BODY:
            raise InvalidConfigError(f"max_body must be in 0..{MAX_BODY}")
        for name in ("p_neg", "p_negneg", "p_constraint", "p_dup_head"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidConfigError(f"{name} must be a probability")
        if self.p_neg + self.p_negneg > 1.0:
            raise InvalidConfigError("p_neg + p_negneg must not exceed 1")
        if not -(2 ** 63) <= self.seed < 2 ** 64:
            raise InvalidConfigError("seed must fit in 64 bits")


def gen_program(cfg: GenConfig) -> Program:
    """A reproducible extended disjunctive program within the bounds.

    Duplicate head sets are injected now and then so that closed and open
    selections can disagree in fuzzing.
    """
    cfg.validate()
    rng = random.Random(cfg.seed)
    pool = ATOM_POOL[:cfg.atoms]
    rules: list[ExtendedRule] = []
    disjunctive_heads: list[tuple[str, ...]] = []
    for _ in range(cfg.rules):
        u = rng.random()
        if u < cfg.p_constraint:
            head: tuple[str, ...] = ()
        elif disjunctive_heads and u < cfg.p_constraint + cfg.p_dup_head:
            prev = list(rng.choice(disjunctive_heads))
            rng.shuffle(prev)
            head = tuple(prev)
        else:
            size = rng.randint(1, cfg.max_head)
            head = tuple(rng.sample(pool, min(size, len(pool))))
        body_size = rng.randint(0, cfg.max_body)
        pos, negd, negneg = set(), set(), set()
        for _ in range(body_size):
            atom = rng.choice(pool)
            v = rng.random()
            if v < cfg.p_negneg:
                negneg.add(atom)
            elif v < cfg.p_negneg + cfg.p_neg:
                negd.add(atom)
            else:
                pos.add(atom)
        r = ExtendedRule(head, frozenset(pos), frozenset(negd), frozenset(negneg))
        if len(r.head) > 1:
            disjunctive_heads.append(r.head)
        rules.append(r)
    return Program(tuple(rules))


def gen_formula(rng: random.Random, atoms: Sequence[str], depth: int) -> Formula:
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.08:
            return FALSUM
        return Atom(rng.choice(atoms))
    kind = rng.choice(("and", "or", "imp", "neg"))
    if kind == "neg":
        return neg(gen_formula(rng, atoms, depth - 1))
    left = gen_formula(rng, atoms, depth - 1)
    right = gen_formula(rng, atoms, depth - 1)
    if kind == "and":
        return And(left, right)
    if kind == "or":
        return Or(left, right)
    return Implies(left, right)


def gen_fork(rng: random.Random, atoms: Sequence[str], depth: int) -> Fork:
    """A random fork; split connectives appear only where the grammar
    allows them."""
    if depth <= 0 or rng.random() < 0.15:
        if rng.random() < 0.05:
            return FALSUM
        return Atom(rng.choice(atoms))
    kind = rng.choice(("pair", "pair", "and", "imp", "formula"))
    if kind == "pair":
        return ForkPair(gen_fork(rng, atoms, depth - 1),
                        gen_fork(rng, atoms, depth - 1))
    if kind == "and":
        return fork_and(gen_fork(rng, atoms, depth - 1),
                        gen_fork(rng, atoms, depth - 1))
    if kind == "imp":
        return fork_implies(gen_formula(rng, atoms, depth - 1),
                            gen_fork(rng, atoms, depth - 1))
    return gen_formula(rng, atoms, depth)
