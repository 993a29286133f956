"""The headed table and the searches it prunes.

``ht.CompiledProgram.headed_table`` holds the classical models in which
every true atom heads a rule whose body holds.  ``jm``, ``spm``, ``csm``,
``csm-closed`` and ``ssm`` search only those models.  With the method
patched to ``model_table`` they search every classical model, which is the
unpruned reference: model lists and first witnesses must be equal.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from dlplab import forks as deno
from dlplab import di, ht, ssm
from dlplab.checks import DEFAULT_CHECKS
from dlplab.compare import READS, SEMANTICS, ModelTables, edges_of
from dlplab.gen import GenConfig, gen_program
from dlplab.parser import parse_program
from dlplab.syntax import forked

PRUNED = ("jm", "spm", "csm", "csm-closed", "ssm")


def cyclic(n):
    """x_i | x_{i+1} :- not x_{i+2}, indices mod n."""
    return parse_program("".join(
        f"x{i:02d} | x{(i + 1) % n:02d} :- not x{(i + 2) % n:02d}.\n"
        for i in range(n)))


def searched(programs):
    """Per program, the (model, witness) pairs of every pruned semantics."""
    return [{name: SEMANTICS[name](ModelTables(p, tuple(sorted(p.atoms()))))
             for name in PRUNED} for p in programs]


FAMILIES = {
    "default": lambda: [gen_program(GenConfig(seed=s)) for s in range(300)],
    "atoms6-rules8": lambda: [gen_program(GenConfig(atoms=6, rules=8, seed=s))
                              for s in range(100)],
    "cyclic": lambda: [cyclic(n) for n in range(3, 13)],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pruned_searches_match_the_unpruned_scan(family, monkeypatch):
    programs = FAMILIES[family]()
    pruned = searched(programs)
    monkeypatch.setattr(ht.CompiledProgram, "headed_table",
                        ht.CompiledProgram.model_table)
    unpruned = searched(programs)
    for p, got, want in zip(programs, pruned, unpruned):
        assert got == want, p
    assert any(found for got in pruned for found in got.values())


def test_headed_table_pinned_counts_on_cyclic_family():
    """The models the prune leaves on the cyclic family, out of the
    classical ones: the prune is exactly "every true atom heads a firing
    rule", neither weaker nor stronger."""
    headed, classical = [], []
    for n in range(6, 13):
        cp = ht.CompiledProgram(cyclic(n))
        headed.append(cp.headed_table().bit_count())
        classical.append(cp.model_table().bit_count())
    assert headed == [20, 28, 46, 78, 122, 198, 324]
    assert classical == [39, 71, 131, 241, 443, 815, 1499]


def test_headed_table_matches_its_definition():
    for seed in range(100):
        p = gen_program(GenConfig(atoms=5, rules=7, max_head=3, seed=seed))
        cp = ht.CompiledProgram(p)
        want = 0
        for t in range(cp.full + 1):
            fired = cp.triggered(t)
            if cp.sat_classical(t) and all(
                    any(cp.rules[k][0] >> a & 1 for k in fired) for a in ht.set_bits(t)):
                want |= 1 << t
        assert cp.headed_table() == want, seed


# ---------------------------------------------------------------------------
# Which semantics read the shared tables
# ---------------------------------------------------------------------------

# Per shared table, the semantics that read it and have no equality in the
# default battery with one that does not, and why.
AD_REASON = ("AD sits strictly between SM and SPM (the ad check is two "
             "inclusions) and equals no other semantics; it is compared with "
             "Ref.ad() in tests/test_tables.py, which tests each body on the "
             "AST path (classical_sat) within the AST-path classical models")
UNPARTNERED = {
    "headed": {
        "csm-closed": "no result equates closed candidates with another "
                      "semantics of a program; t2 equates them with the open "
                      "candidates of the source only after head disambiguation",
        "di": "the minimal closed candidates, read off the csm-closed table, "
              "are only included in it",
        "ssm": "strongly supported models strictly contain the candidates "
               "(th7 is an inclusion) and equal no other semantics; the chain "
               "of maximal stages is checked against breadth-first search in "
               "tests/test_tables.py",
    },
    "models": {
        "classical": "every semantics is included in the classical models, "
                     "which equal none of them in general; they are compared "
                     "with the 2^n scan of the program read as a formula with "
                     "classical_sat, the AST path, in tests/test_tables.py",
        "ad": AD_REASON,
    },
    "support": {"ad": AD_REASON},
}


def test_every_headed_semantics_has_an_independent_partner():
    assert set(READS) == set(SEMANTICS)
    assert all(set(r) <= set(UNPARTNERED) for r in READS.values())
    equal = {(a, b) for c in DEFAULT_CHECKS for a, b in edges_of(c)
             if (b, a) in edges_of(c)}
    partners = {}
    for table, unpartnered in UNPARTNERED.items():
        partners[table] = {}
        for name, reads in READS.items():
            if table in reads:
                found = sorted(b for a, b in equal if a == name and table not in READS[b])
                assert bool(found) != (name in unpartnered), (table, name)
                partners[table][name] = found
        assert set(unpartnered) <= set(partners[table]), table
    assert partners == {
        "headed": {"jm": ["fork"], "spm": ["spm-fixpoint"], "csm": ["fork"],
                   "csm-closed": [], "di": [], "ssm": []},
        "models": {"classical": [], "sm": ["sm-formula"], "ad": [],
                   "spm-fixpoint": ["spm"]},
        "support": {"sm": ["sm-formula"], "ad": []},
    }


def test_semantics_without_headed_read_no_headed_table(monkeypatch):
    """spm-fixpoint, fork and sm stay partners independent of the prune."""
    def refuse(self):
        raise AssertionError("the headed table was read")

    programs = [parse_program("a | b :- not c. c :- not a. b :- c, not not b."),
                cyclic(6)] + [gen_program(GenConfig(seed=s)) for s in range(20)]
    free = [name for name, reads in READS.items() if "headed" not in reads]
    assert {"spm-fixpoint", "fork", "sm"} <= set(free)
    before = [{name: SEMANTICS[name](ModelTables(p, tuple(sorted(p.atoms()))))
               for name in free} for p in programs]
    monkeypatch.setattr(ht.CompiledProgram, "headed_table", refuse)
    for p, want in zip(programs, before):
        m = ModelTables(p, tuple(sorted(p.atoms())))
        assert {name: SEMANTICS[name](m) for name in free} == want, p
        for name in (n for n, reads in READS.items() if "headed" in reads):
            with pytest.raises(AssertionError, match="headed table"):
                ModelTables(p, m.atoms).table(name)
    p = programs[0]
    assert di.supported_models_fixpoint(p) and ht.stable_models(p)
    assert deno.fork_stable_models(forked(p)) == ht.stable_models(p)
    with pytest.raises(AssertionError):
        ssm.strongly_supported_models(p)
