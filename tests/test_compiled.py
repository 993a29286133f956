"""The one-program memo, ``compare.model_tables``, and the compile it keeps.

Every enumerator of a program reads the one ``CompiledProgram`` of its
memo entry, and each of its tables is built once.  The memo must not serve
a program another alphabet's entry, nor an equal but distinct program, an
alphabet equal to the program's atoms must find the default entry, and the
tables a compile shares must be immutable, so that no enumerator can
change another's.
"""

from __future__ import annotations

import pytest

from dlplab import di, ht, justify, ssm
from dlplab import forks as deno
from dlplab.checks import CHECKS, run_fuzz
from dlplab.compare import (SEMANTICS, SEMANTICS_ORDER, ModelTables, compute_report,
                            model_tables)
from dlplab.gen import GenConfig, gen_program
from dlplab.parser import parse_program, render_program


def cyclic(n):
    """x_i | x_{i+1} :- not x_{i+2}, indices mod n."""
    return parse_program("".join(
        f"x{i:02d} | x{(i + 1) % n:02d} :- not x{(i + 2) % n:02d}.\n"
        for i in range(n)))


@pytest.fixture
def constructions(monkeypatch):
    """The number of CompiledProgram constructions since the fixture."""
    count = [0]
    init = ht.CompiledProgram.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(ht.CompiledProgram, "__init__", counted)
    return count


def test_the_default_battery_compiles_each_program_once(constructions):
    assert run_fuzz(GenConfig(seed=0), 50).ok
    assert constructions[0] == 50


def test_the_default_battery_compiles_each_programs_fork_registers_once(monkeypatch):
    """fork, sm-formula and cor1 read one emit of the program's forked and
    formula registers, kept by its memo entry."""
    calls = 0
    original = deno._compile_program

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(deno, "_compile_program", counted)
    assert run_fuzz(GenConfig(seed=0), 50).ok
    assert calls == 50


def test_a_report_compiles_its_program_once(constructions):
    report = compute_report(cyclic(8))
    assert not report.violations and len(report.semantics) == 10
    assert constructions[0] == 1


def test_a_report_decodes_each_mask_once(monkeypatch):
    """Every model and ssm chain stage of a full report is decoded from its
    mask once, into the sorted atoms of ``listed``; ``semantics`` is read
    off them."""
    misses = []
    decode = ModelTables.decode

    def counted(self, t):
        if t not in self._names:
            misses.append(t)
        return decode(self, t)

    monkeypatch.setattr(ModelTables, "decode", counted)
    p = cyclic(8)
    report = compute_report(p)
    m = model_tables(p)
    masks = {t for name in SEMANTICS_ORDER for t in m.masks(name)}
    masks |= {s for stages in m.witnesses["ssm"].values() for s in stages}
    assert sorted(misses) == sorted(masks)
    assert report.semantics == {name: [frozenset(x) for x in listed]
                                for name, listed in report.listed.items()}
    assert all(report.semantics[name] == m.models(name) for name in SEMANTICS_ORDER)


def test_the_public_enumerators_compile_their_program_once(constructions):
    """Each public enumerator of a program returns its row of the memo, so
    all thirteen and then a report on one program compile it once."""
    p = cyclic(6)
    found = {
        "classical": ht.classical_models(p),
        "sm": ht.stable_models(p),
        "fork": deno.forked_stable_models(p),
        "sm-formula": deno.equilibrium_models(p),
        "spm": justify.supported_models_graph(p),
        "jm": justify.justified_models(p),
        "ad": justify.ad_supported_models(p),
        "csm": [m for m, _ in di.candidate_stable_models(p)],
        "csm-closed": di.csm_models(p, closed=True),
        "di": di.di_stable_models(p),
        "spm-fixpoint": di.supported_models_fixpoint(p),
        "ssm": [m for m, _ in ssm.strongly_supported_models(p)],
    }
    assert ssm.ssm_models(p) == found["ssm"]
    assert constructions[0] == 1
    report = compute_report(p)
    assert constructions[0] == 1
    assert all(report.semantics[name] == models for name, models in found.items()
               if name in report.semantics)


def test_a_wider_alphabet_compiles_anew():
    p = parse_program("a | b :- not c. c :- a.")
    narrow = ht.classical_models(p)
    wide = p.atoms() | {"z"}
    got = ht.classical_models(p, wide)
    assert got == ht.sort_models(t for t in ht.subsets(wide) if ht.classical_sat(t, p))
    assert len(got) == 2 * len(narrow) and frozenset({"z"}) not in narrow
    assert ht.classical_models(p) == narrow


def test_the_memo_matches_by_identity_and_alphabet():
    p = gen_program(GenConfig(seed=3))
    first = model_tables(p)
    assert model_tables(p) is first
    assert model_tables(p, sorted(p.atoms())) is first
    assert model_tables(p, p.atoms()) is first and model_tables(p) is first
    copy = parse_program(render_program(p))
    assert copy == p and copy is not p
    assert model_tables(copy) is not first
    assert model_tables(p) is not first


def test_an_alphabet_given_first_is_the_default_entry():
    p = gen_program(GenConfig(seed=3))
    given = model_tables(p, list(p.atoms()))
    assert model_tables(p) is given
    assert given.atoms == tuple(sorted(p.atoms()))


def test_a_wider_alphabet_is_an_entry_of_its_own():
    p = parse_program("a | b :- not c. c :- a.")
    own = model_tables(p)
    narrow = own.models("classical")
    wide = model_tables(p, p.atoms() | {"z"})
    assert wide is not own and wide.atoms == ("a", "b", "c", "z")
    assert wide.cp is not own.cp and wide.cp.atoms == wide.atoms
    assert len(wide.models("classical")) == 2 * len(narrow)
    assert model_tables(p) is not own and model_tables(p).models("classical") == narrow
    assert model_tables(p) is not wide
    assert model_tables(p, p.atoms() | {"z"}) is not wide
    with pytest.raises(ValueError, match="missing atoms"):
        model_tables(p, sorted(p.atoms())[1:]).masks("classical")


def test_shared_tables_are_immutable():
    cp = model_tables(cyclic(5)).cp
    cols, bodies, _ = cp._tables()
    assert cp._tables() is cp._tables()
    assert cp.models_in_order() is cp.models_in_order()
    assert cp.headed_in_order() is cp.headed_in_order()
    assert cp.paired_in_order() is cp.paired_in_order()
    for shared in (cols, bodies, cp.models_in_order(), cp.headed_in_order(),
                   cp.paired_in_order()):
        with pytest.raises(TypeError):
            shared[0] = 0


def test_every_enumerator_leaves_the_shared_tables_as_built():
    """All semantics of a program read one compile; afterwards its tables
    equal those of a fresh compile."""
    for seed in range(40):
        p = gen_program(GenConfig(atoms=5, rules=7, max_head=3, seed=seed))
        m = model_tables(p)
        for name in SEMANTICS:
            m.table(name)
        shared, fresh = m.cp, ht.CompiledProgram(p)
        assert model_tables(p).cp is shared
        assert shared._tables() == fresh._tables(), seed
        for table in ("model_table", "headed_table", "paired_table", "support_table",
                      "models_in_order", "headed_in_order", "paired_in_order"):
            assert getattr(shared, table)() == getattr(fresh, table)(), (seed, table)


def test_a_report_sorts_each_model_table_once(monkeypatch):
    """The classical, the headed and the paired models are sorted once per
    compile, however many semantics read them."""
    sorted_tables = []
    original = ht.model_order

    def counted(table):
        sorted_tables.append(table)
        return original(table)

    monkeypatch.setattr(ht, "model_order", counted)
    p = cyclic(12)
    compute_report(p)
    cp = model_tables(p).cp
    # by identity: the fork sweep may sort an equal table of its own
    assert sum(t is cp.model_table() for t in sorted_tables) == 1
    assert sum(t is cp.headed_table() for t in sorted_tables) == 1
    assert sum(t is cp.paired_table() for t in sorted_tables) == 1


def test_t2_compiles_its_translation_once(constructions):
    """t2 reads the open and the closed candidates of the translation from
    one memo entry: one compile for the source, one for the translation."""
    p = parse_program("a | b. a | b :- not c. c :- not a.")
    assert CHECKS["t2"][0](p) is None
    assert constructions[0] == 2
    assert di.disambiguate_head_sets(p) is not p
