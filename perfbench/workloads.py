"""The three benchmark workloads: a fixed pool of inputs made from a seed,
fresh copies of it for every timed round, the timed item, and the output
oracle.

Every workload pins its generator settings and check names here instead of
reading dlplab's defaults, so a later change to those defaults cannot change
what the benchmark measures.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

# GenConfig() at the commit that introduced the benchmark (4 atoms, 5 rules).
BATTERY_CONFIG = dict(atoms=4, rules=5, max_head=3, max_body=3, p_neg=0.25,
                      p_negneg=0.15, p_constraint=0.08, p_dup_head=0.10)
BATTERY_CHECKS = ("th3", "th4", "th5", "th7", "th8", "cor1", "ssm-sm", "ad")

# pf widens these programs to as many as 12 atoms.  max_head=3 rather than
# the 2 of the head-splitting acceptance test, because with 2 the fork
# denotation dominates and the HT enumerator never does.
TRANSLATIONS_CONFIG = dict(BATTERY_CONFIG, atoms=3, rules=3, max_head=3)
TRANSLATIONS_CHECKS = ("th1", "t1", "t2")

# Share of each pf width among TRANSLATIONS_CONFIG programs, over program
# seeds 0..3999 (widths up to 4 pooled).  An item's time grows about
# tenfold from width 5 to width 12, so a pool drawn freely from a seed
# would vary in cost with the seed; a pool filled to these shares does not.
TRANSLATIONS_WIDTH_SHARES = {4: 0.0657, 5: 0.1182, 6: 0.1390, 7: 0.1105,
                             8: 0.1875, 9: 0.1668, 10: 0.0820, 11: 0.0830,
                             12: 0.0473}


def pf_width(program) -> int:
    """Atoms of pf_translate(program), counted without calling it: pf adds
    one fresh atom per head atom of every disjunctive rule."""
    return len(program.atoms()) + sum(len(r.head) for r in program.rules
                                      if not r.is_normal)


def translations_stratum(program) -> int:
    return max(4, pf_width(program))


def quotas(shares: dict, count: int) -> dict:
    """Split count over the strata in proportion to shares, by largest
    remainder, so that every pool of one size has the same make-up."""
    exact = {k: count * v / sum(shares.values()) for k, v in shares.items()}
    out = {k: int(v) for k, v in exact.items()}
    for k in sorted(exact, key=lambda k: (out[k] - exact[k], k))[:count - sum(out.values())]:
        out[k] += 1
    return out


def relabel(lab, program, suffix: str):
    """The program with every atom renamed to name + suffix.  A suffix keeps
    the order of the single-letter atom names, so the work is the same, but
    the program is a new value, which no cache of an earlier round holds."""
    def names(xs):
        return [a + suffix for a in xs]
    return lab.syntax.Program(tuple(
        lab.syntax.ExtendedRule(tuple(names(r.head)), frozenset(names(r.bpos)),
                                frozenset(names(r.bneg)),
                                frozenset(names(r.bnegneg)), r.label)
        for r in program.rules))


SCALING_SIZES = tuple(range(6, 13))
EXPECTED_FILE = Path(__file__).with_name("expected_scaling.json")


def perrin(n: int) -> int:
    """P(0)=3, P(1)=0, P(2)=2, P(n)=P(n-2)+P(n-3): the number of stable
    models of the cyclic family at size n, a closed form independent of
    every enumerator."""
    a, b, c = 3, 0, 2
    for _ in range(n):
        a, b, c = b, c, a + b
    return a


def cyclic_family(n: int, names: list[str]) -> str:
    """x_i | x_{i+1} :- not x_{i+2}, indices mod n, with x_i named names[i]."""
    return "".join(f"{names[i]} | {names[(i + 1) % n]} :- not {names[(i + 2) % n]}.\n"
                   for i in range(n))


@dataclass(frozen=True)
class Item:
    """One generated program, keyed by its program seed's offset from the
    workload seed."""
    key: int
    program: object


@dataclass(frozen=True)
class Report:
    """One file of the cyclic family of size n, with the relabelling of its
    atoms back to x0..x{n-1}."""
    key: int
    path: Path
    canonical: dict[str, str]

    @property
    def n(self) -> int:
        return self.key


class ProgramChecks:
    """Items are generated programs run through a fixed list of checks;
    program seeds run from the workload seed upwards, as in ``dlplab fuzz``.
    With strata, a program is kept only while its stratum is short of its
    share of the pool."""

    def __init__(self, name, config, check_names, default_seed, tail_q,
                 pool_items, trace_items, stratum=None, shares=None):
        self.name = name
        self.config = config
        self.check_names = check_names
        self.default_seed = default_seed
        self.tail_q = tail_q
        self.pool_items = pool_items
        self.trace_items = trace_items
        self.stratum = stratum
        self.shares = shares

    def make_inputs(self, lab, seed: int, count: int, workdir: Path):
        wanted = quotas(self.shares, count) if self.shares else None
        out = []
        i = 0
        while len(out) < count:
            cfg = lab.gen.GenConfig(**self.config, seed=seed + i)
            text = lab.parser.render_program(lab.gen.gen_program(cfg))
            program = lab.parser.parse_program(text)
            if wanted is None:
                out.append(Item(i, program))
            elif wanted[stratum := self.stratum(program)] > 0:
                wanted[stratum] -= 1
                out.append(Item(i, program))
            i += 1
        return out

    def copy(self, lab, item: Item, seed: int, rnd: int, workdir: Path) -> Item:
        """The item for round rnd: round 0 runs the pool as made."""
        return item if rnd == 0 else Item(item.key, relabel(lab, item.program, f"_{rnd}"))

    def run(self, lab, item: Item):
        return tuple(lab.checks.CHECKS[c][0](item.program) for c in self.check_names)

    def oracle(self, item: Item, out) -> str | None:
        bad = [f"{c}: {m}" for c, m in zip(self.check_names, out) if m is not None]
        return "; ".join(bad) or None

    def model_sets(self, lab, item: Item, out):
        """The verdicts plus every semantics of the item's program, for the
        traced-versus-untraced comparison (the checks return only verdicts)."""
        report = lab.compare.compute_report(item.program)
        sets = {k: [sorted(m) for m in v] for k, v in report.semantics.items()}
        return out, sets


class Scaling:
    """Items are in-process ``dlplab models FILE --json`` runs on the cyclic
    family, one per size; the pool is one file of every size.  Every round
    writes each file afresh: the seed and the round relabel the atoms and
    order the rules, so the model counts stay fixed."""

    name = "scaling"
    default_seed = 0
    tail_q = 75
    pool_items = len(SCALING_SIZES)
    trace_items = len(SCALING_SIZES)

    def make_inputs(self, lab, seed: int, count: int, workdir: Path):
        return [self._write(lab, n, seed, 0, workdir) for n in SCALING_SIZES[:count]]

    def copy(self, lab, item: Report, seed: int, rnd: int, workdir: Path) -> Report:
        return item if rnd == 0 else self._write(lab, item.n, seed, rnd, workdir)

    @staticmethod
    def _write(lab, n: int, seed: int, rnd: int, workdir: Path) -> Report:
        rng = random.Random(f"scaling-{seed}-{rnd}-{n}")
        names = [f"x{j}" for j in range(n)]
        rng.shuffle(names)
        lines = cyclic_family(n, names).splitlines(keepends=True)
        rng.shuffle(lines)
        text = "".join(lines)
        lab.parser.parse_program(text)
        path = workdir / f"cyclic_{n}_{rnd}.lp"
        path.write_text(text, encoding="utf-8")
        return Report(n, path, {a: f"x{j}" for j, a in enumerate(names)})

    def run(self, lab, item: Report):
        """Exit code and JSON text of one report."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lab.cli.main(["models", str(item.path), "--json"])
        return code, buf.getvalue()

    @staticmethod
    def canonical_sets(r: Report, text: str) -> dict[str, list[list[str]]]:
        return {k: sorted(sorted(r.canonical[a] for a in m) for m in v)
                for k, v in json.loads(text)["semantics"].items()}

    def oracle(self, r: Report, out) -> str | None:
        code, text = out
        if code != 0:
            return f"n={r.n}: exit code {code}"
        broken = [f"{e['lhs']}<={e['rhs']}" for e in json.loads(text)["inclusions"]
                  if not e["holds"]]
        if broken:
            return f"n={r.n}: inclusions violated: {broken}"
        sets = self.canonical_sets(r, text)
        if not sets["fork"] == sets["jm"] == sets["csm"]:
            return f"n={r.n}: fork, jm and csm differ"
        if len(sets["sm"]) != perrin(r.n):
            return (f"n={r.n}: {len(sets['sm'])} stable models, "
                    f"expected P({r.n}) = {perrin(r.n)}")
        if digests(sets) != load_expected()[str(r.n)]:
            return f"n={r.n}: model sets differ from {EXPECTED_FILE.name}"
        return None

    def model_sets(self, lab, item: Report, out):
        return self.canonical_sets(item, out[1])


def digests(sets: dict[str, list[list[str]]]) -> dict[str, dict]:
    """Per semantics: the model count and a SHA-256 of the sorted model list."""
    return {k: {"count": len(v),
                "sha256": hashlib.sha256(json.dumps(v).encode()).hexdigest()}
            for k, v in sets.items()}


@functools.cache
def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))


WORKLOADS = {
    "battery": ProgramChecks(
        "battery", BATTERY_CONFIG, BATTERY_CHECKS, default_seed=7, tail_q=98,
        pool_items=500, trace_items=300),
    "translations": ProgramChecks(
        "translations", TRANSLATIONS_CONFIG, TRANSLATIONS_CHECKS,
        default_seed=0, tail_q=75, pool_items=96, trace_items=40,
        stratum=translations_stratum, shares=TRANSLATIONS_WIDTH_SHARES),
    "scaling": Scaling(),
}
