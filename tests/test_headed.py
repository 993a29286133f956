"""The headed and paired tables and the searches they prune.

``ht.CompiledProgram.headed_table`` holds the classical models in which
every true atom heads a rule whose body holds; ``paired_table`` drops from
it the models where two true atoms have one rule as the only firing rule
heading each of them.  ``jm``, ``spm``, ``csm`` and ``csm-closed`` search
only the paired models, ``ssm`` the headed ones.  With both methods patched
to ``model_table`` they search every classical model, which is the
unpruned reference: model lists and first witnesses must be equal.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from dlplab import forks as deno
from dlplab import di, ht, justify, ssm
from dlplab.checks import DEFAULT_CHECKS
from dlplab.compare import READS, SEMANTICS, ModelTables, edges_of
from dlplab.gen import GenConfig, gen_program
from dlplab.parser import parse_program
from dlplab.syntax import forked

from families import cyclic

PRUNED = ("jm", "spm", "csm", "csm-closed", "ssm")


def searched(programs):
    """Per program, the (model, witness) pairs of every pruned semantics."""
    return [{name: SEMANTICS[name](ModelTables(p, tuple(sorted(p.atoms()))))
             for name in PRUNED} for p in programs]


FAMILIES = {
    "default": lambda: [gen_program(GenConfig(seed=s)) for s in range(300)],
    "atoms6-rules8": lambda: [gen_program(GenConfig(atoms=6, rules=8, seed=s))
                              for s in range(100)],
    "atoms3-rules3-head3": lambda: [gen_program(GenConfig(atoms=3, rules=3, max_head=3,
                                                          seed=s)) for s in range(300)],
    "cyclic": lambda: [cyclic(n) for n in range(3, 13)],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pruned_searches_match_the_unpruned_scan(family, monkeypatch):
    programs = FAMILIES[family]()
    pruned = searched(programs)
    for table in ("headed_table", "paired_table"):
        monkeypatch.setattr(ht.CompiledProgram, table, ht.CompiledProgram.model_table)
    for p in programs:
        cp = ht.CompiledProgram(p)
        assert cp.paired_in_order() == cp.headed_in_order() == cp.models_in_order(), p
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


def test_paired_table_pinned_counts_on_cyclic_family():
    """On the cyclic family the pair prune leaves exactly the candidate
    stable models, out of the headed ones above."""
    paired = []
    for n in range(6, 13):
        p = cyclic(n)
        m = ModelTables(p, tuple(sorted(p.atoms())))
        paired.append(m.cp.paired_table().bit_count())
        assert m.cp.paired_in_order() == tuple(m.masks("csm")), n
    assert paired == [11, 14, 22, 30, 47, 66, 99]


def test_headed_table_matches_its_definition():
    for seed in range(100):
        p = gen_program(GenConfig(atoms=5, rules=7, max_head=3, seed=seed))
        cp = ht.CompiledProgram(p)
        want = 0
        for t in range(cp.full + 1):
            fired = cp.fired(t)
            if cp.sat_classical(t) and all(
                    any(cp.rules[k][0] >> a & 1 for k in fired) for a in ht.set_bits(t)):
                want |= 1 << t
        assert cp.headed_table() == want, seed


def test_paired_table_matches_its_definition():
    """The headed models minus those with two true atoms whose only firing
    rule heading them is one and the same rule."""
    for seed in range(100):
        p = gen_program(GenConfig(atoms=5, rules=7, max_head=3, seed=seed))
        cp = ht.CompiledProgram(p)
        want = 0
        for t in ht.set_bits(cp.headed_table()):
            fired = cp.fired(t)
            only = [[k for k in fired if cp.rules[k][0] >> a & 1] for a in ht.set_bits(t)]
            singles = [ks[0] for ks in only if len(ks) == 1]
            if len(singles) == len(set(singles)):
                want |= 1 << t
        assert cp.paired_table() == want, seed
        assert cp.paired_in_order() == tuple(ht.model_order(want)), seed


def test_paired_models_are_the_headed_ones_when_nothing_is_closed():
    """Without a rule of two head atoms, or when no headed model is closed,
    the paired models are the headed ones, sorted once."""
    programs = [gen_program(GenConfig(max_head=1, seed=s)) for s in range(50)]
    programs += [parse_program("a | b :- c. c. a :- c. b :- c."), cyclic(2)]
    for p in programs:
        cp = ht.CompiledProgram(p)
        assert cp.paired_in_order() is cp.headed_in_order(), p
        assert cp.paired_table() == cp.headed_table(), p


def test_a_rule_of_two_true_head_atoms_keeps_its_ssm_model():
    """``a | b.`` has the strongly supported model {a, b}, which no
    injective labelling reaches: ssm searches the headed models, the
    others only the paired ones."""
    p = parse_program("a | b.")
    m = ModelTables(p, ("a", "b"))
    cp = m.cp
    assert cp.headed_in_order() == (0b01, 0b10, 0b11)
    assert cp.paired_in_order() == (0b01, 0b10)
    assert m.masks("ssm") == [0b01, 0b10, 0b11]
    for name in ("jm", "spm", "csm", "csm-closed", "di", "fork", "spm-fixpoint"):
        assert m.masks(name) == [0b01, 0b10], name


# ---------------------------------------------------------------------------
# Which semantics read the shared tables
# ---------------------------------------------------------------------------

# Per shared table, the semantics that read it and have no equality in the
# default battery with one that does not, and why.
AD_REASON = ("AD sits strictly between SM and SPM (the ad check is two "
             "inclusions) and equals no other semantics; it is compared with "
             "Ref.ad() in tests/test_tables.py, which tests each body on the "
             "AST path (classical_sat) within the AST-path classical models")
CLOSED_REASON = ("no result equates closed candidates with another semantics "
                 "of a program; t2 equates them with the open candidates of "
                 "the source only after head disambiguation")
DI_REASON = ("the minimal closed candidates, read off the csm-closed table, "
             "are only included in it")
UNPARTNERED = {
    "headed": {
        "csm-closed": CLOSED_REASON,
        "di": DI_REASON,
        "ssm": "strongly supported models strictly contain the candidates "
               "(th7 is an inclusion) and equal no other semantics; the chain "
               "of maximal stages is checked against breadth-first search in "
               "tests/test_tables.py",
        "ssm-min": "minimal SSM equals SM only on negation-free programs, a "
                   "class claim of ssm-sm and no edge; its unconditional "
                   "equality is ssm-min-strict, which is known to fail",
    },
    "paired": {"csm-closed": CLOSED_REASON, "di": DI_REASON},
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
                   "csm-closed": [], "di": [], "ssm": [], "ssm-min": []},
        "paired": {"jm": ["fork"], "spm": ["spm-fixpoint"], "csm": ["fork"],
                   "csm-closed": [], "di": []},
        "models": {"classical": [], "sm": ["sm-formula"], "ad": [],
                   "spm-fixpoint": ["spm"]},
        "support": {"sm": ["sm-formula"], "ad": []},
    }


def test_semantics_without_headed_read_no_headed_table(monkeypatch):
    """spm-fixpoint, fork, sm and sm-formula stay partners independent of
    the prune."""
    refused_table_is_read_only_by_its_readers("headed", monkeypatch)


def test_semantics_without_paired_read_no_paired_table(monkeypatch):
    """The same for the pair prune, which ssm does not read either."""
    refused_table_is_read_only_by_its_readers("paired", monkeypatch)


def refused_table_is_read_only_by_its_readers(table, monkeypatch):
    """With the table's method refusing to run, the semantics not reading
    it give what they gave before, and each reading it fails."""
    def refuse(self):
        raise AssertionError(f"the {table} table was read")

    programs = [parse_program("a | b :- not c. c :- not a. b :- c, not not b."),
                cyclic(6)] + [gen_program(GenConfig(seed=s)) for s in range(20)]
    free = [name for name, reads in READS.items() if table not in reads]
    assert {"spm-fixpoint", "fork", "sm", "sm-formula"} <= set(free)
    assert ("ssm" in free) == (table == "paired")
    before = [{name: SEMANTICS[name](ModelTables(p, tuple(sorted(p.atoms()))))
               for name in free} for p in programs]
    monkeypatch.setattr(ht.CompiledProgram, f"{table}_table", refuse)
    for p, want in zip(programs, before):
        m = ModelTables(p, tuple(sorted(p.atoms())))
        assert {name: SEMANTICS[name](m) for name in free} == want, p
        for name in (n for n, reads in READS.items() if table in reads):
            with pytest.raises(AssertionError, match=f"{table} table"):
                ModelTables(p, m.atoms).table(name)
    p = programs[0]
    assert di.supported_models_fixpoint(p) and ht.stable_models(p)
    assert deno.fork_stable_models(forked(p)) == ht.stable_models(p)
    if table == "paired":
        assert ssm.strongly_supported_models(p)
    else:
        with pytest.raises(AssertionError):
            ssm.strongly_supported_models(p)
    with pytest.raises(AssertionError):
        justify.justified_models(p)
