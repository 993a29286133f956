"""The one-program compile memo, ``ht.compiled``.

Every enumerator of a program reads one ``CompiledProgram``, and each of
its tables is built once.  The memo must not serve a program another
alphabet's compile, nor an equal but distinct program, and the tables it
shares must be immutable, so that no enumerator can change another's.
"""

from __future__ import annotations

import pytest

from dlplab import ht
from dlplab.checks import run_fuzz
from dlplab.compare import SEMANTICS, ModelTables, compute_report
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


def test_a_report_compiles_its_program_once(constructions):
    report = compute_report(cyclic(8))
    assert not report.violations and len(report.semantics) == 10
    assert constructions[0] == 1


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
    first = ht.compiled(p)
    assert ht.compiled(p) is first
    assert ht.compiled(p, sorted(p.atoms())) is first
    assert ht.compiled(p, p.atoms() | {"z"}) is not first
    copy = parse_program(render_program(p))
    assert copy == p and copy is not p
    assert ht.compiled(copy) is not first
    assert ht.compiled(p) is not first
    with pytest.raises(ValueError, match="missing atoms"):
        ht.compiled(p, sorted(p.atoms())[1:])


def test_shared_tables_are_immutable():
    cp = ht.compiled(cyclic(5))
    cols, bodies, _ = cp._tables()
    assert cp._tables() is cp._tables()
    for column in (cols, bodies):
        with pytest.raises(TypeError):
            column[0] = 0


def test_every_enumerator_leaves_the_shared_tables_as_built():
    """All semantics of a program read one compile; afterwards its tables
    equal those of a fresh compile."""
    for seed in range(40):
        p = gen_program(GenConfig(atoms=5, rules=7, max_head=3, seed=seed))
        m = ModelTables(p, tuple(sorted(p.atoms())))
        for name in SEMANTICS:
            m.table(name)
        shared, fresh = ht.compiled(p), ht.CompiledProgram(p)
        assert shared._tables() == fresh._tables(), seed
        for table in ("model_table", "headed_table", "support_table"):
            assert getattr(shared, table)() == getattr(fresh, table)(), (seed, table)
