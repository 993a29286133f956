import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from dlplab import checks, cli
from dlplab.checks import (CHECKS, DEFAULT_CHECKS, FuzzInterrupted, run_fuzz,
                           shrink_program)
from dlplab.cli import main
from dlplab.compare import ComparisonReport, compute_report
from dlplab.gen import GenConfig, gen_program
from dlplab.parser import FORK_KEYWORDS, ParseError, atom_problem, parse_program

from families import cyclic

P1_TEXT = "a | b.\na | c.\n"


@pytest.fixture()
def p1_file(tmp_path):
    f = tmp_path / "p1.lp"
    f.write_text(P1_TEXT)
    return str(f)


def test_report_values_and_inclusions():
    report = compute_report(parse_program(P1_TEXT))
    assert report.semantics["sm"] == [frozenset("a"), frozenset("bc")]
    assert report.semantics["fork"] == report.semantics["jm"] \
        == report.semantics["csm"]
    assert report.semantics["ssm"] == report.semantics["classical"]
    assert not report.violations
    assert report.witnesses["jm"][0]["labels"]


def test_report_subset_of_semantics():
    report = compute_report(parse_program(P1_TEXT), ["sm", "ssm"])
    assert set(report.semantics) == {"sm", "ssm"}
    assert {(c.lhs, c.rhs) for c in report.inclusions} == {("sm", "ssm")} \
        or all(c.holds for c in report.inclusions)


def test_report_unknown_semantics():
    with pytest.raises(ValueError, match="unknown semantics"):
        compute_report(parse_program(P1_TEXT), ["nope"])


def test_models_rejects_an_empty_selection(capsys, p1_file):
    """An empty selection computes nothing, so it is bad input, as an
    empty fuzz run is, not a report in which every relation holds."""
    with pytest.raises(ValueError, match="no semantics selected"):
        compute_report(parse_program(P1_TEXT), [])
    for selection in (",", ""):
        for extra in ([], ["--json"], ["--strict"]):
            assert main(["models", p1_file, "--semantics", selection, *extra]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "no semantics selected" in err


def test_report_json_roundtrip():
    report = compute_report(parse_program(P1_TEXT))
    data = json.loads(json.dumps(report.to_json_dict()))
    back = ComparisonReport.from_json_dict(data)
    assert back.semantics == report.semantics
    assert back.inclusions == report.inclusions
    assert back.alphabet == report.alphabet


@pytest.mark.parametrize("n", [8, 11])
def test_a_report_read_back_from_its_json_keeps_its_models_and_witness_lines(n):
    """At n=11 a selection names rule#10 and rule#11, which JSON's sorted
    keys put before rule#2."""
    report = compute_report(cyclic(n))
    back = ComparisonReport.from_json_dict(json.loads(cli.to_json(report.to_json_dict())))
    assert back.listed == report.listed
    assert back.semantics == report.semantics
    assert back.witness_lines() == report.witness_lines()
    assert len(report.witness_lines()) == sum(map(len, report.witnesses.values()))


def test_json_model_lists_are_sorted():
    data = compute_report(parse_program(P1_TEXT)).to_json_dict()
    assert data["semantics"]["sm"] == [("a",), ("b", "c")]
    assert data["semantics"]["classical"][0] == ("a",)


def test_cli_models_text(capsys, p1_file):
    assert main(["models", p1_file]) == 0
    out = capsys.readouterr().out
    assert "sm: {a}, {b,c}" in out
    assert "all expected inclusion relations hold" in out


def test_cli_models_strict_json(capsys, p1_file):
    assert main(["models", p1_file, "--json", "--strict"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"alphabet", "semantics", "inclusions", "witnesses",
                         "timings"}
    assert all(e["holds"] for e in data["inclusions"])


def test_cli_models_ssm_witness_is_the_chain_of_maximal_stages(tmp_path, capsys):
    f = tmp_path / "p.lp"
    f.write_text("a | b.\nc :- a.\n")
    assert main(["models", str(f), "--json", "--semantics", "ssm"]) == 0
    data = json.loads(capsys.readouterr().out)
    chains = {tuple(w["model"]): w["chain"] for w in data["witnesses"]["ssm"]}
    assert chains[("a", "b", "c")] == [["a", "b"], ["a", "b", "c"]]


def test_cli_models_long_program_every_semantics(tmp_path, capsys):
    """1200 rules over three atoms: the fork's conjunction nests 1200
    levels deep, and the report still finishes with fork = JM."""
    f = tmp_path / "long.lp"
    f.write_text("a | b :- not c.\n" * 600 + "c :- not a.\n" * 600)
    assert main(["models", str(f), "--json", "--strict"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["semantics"]["fork"] == data["semantics"]["jm"] \
        == [["a"], ["c"], ["a", "b"]]


def test_cli_models_fork_refuses_a_wide_head_as_input_error(tmp_path, capsys):
    """A head of 1500 atoms is refused as too wide before it is compiled."""
    f = tmp_path / "wide.lp"
    f.write_text(" | ".join(f"a{i}" for i in range(1500)) + ".\n")
    assert main(["models", str(f), "--semantics", "fork"]) == 2
    assert "exceed the enumeration bound" in capsys.readouterr().err


def test_cli_models_alphabet_flag(capsys, p1_file):
    assert main(["models", p1_file, "--alphabet", "z", "--semantics",
                 "classical,sm"]) == 0
    out = capsys.readouterr().out
    assert "alphabet: {a,b,c,z}" in out


@pytest.mark.parametrize("item", ["a b", "not", "__z", "1a", "a."])
def test_cli_models_rejects_alphabet_atoms_the_grammar_rejects(capsys, p1_file, item):
    """--alphabet takes the atoms a program may name: v and bot among them,
    which only fork syntax reserves."""
    with pytest.raises(ParseError):
        parse_program(f"{item}.")
    assert main(["models", p1_file, "--alphabet", f"z,{item}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --alphabet: {atom_problem(item)}\n"
    assert main(["models", p1_file, "--alphabet", "v,bot,x'", "--semantics", "sm"]) == 0
    assert "alphabet: {a,b,bot,c,v,x'}" in capsys.readouterr().out


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_text("a |")
    assert main(["models", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_entails(tmp_path, capsys):
    left = tmp_path / "l.fk"
    right = tmp_path / "r.fk"
    left.write_text("a v b")
    right.write_text("a ; b")
    assert main(["entails", str(left), str(right)]) == 0
    assert "entails" in capsys.readouterr().out
    assert main(["entails", str(right), str(left), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entails"] is False
    assert data["witness_t"] == ["a", "b"]


@pytest.mark.parametrize("op", ["&", ";", "v"])
def test_cli_entails_at_any_length_of_a_chain(tmp_path, capsys, op):
    """The parser builds a chain of "&", ";" or "v" nested to the left, one
    level per term, and the compile walks it without recursing: 1500 terms
    over 5 atoms answer as their first 5 do."""
    terms = [f"a{i % 5}" for i in range(1500)]
    long, short = tmp_path / "long.fk", tmp_path / "short.fk"
    long.write_text(f" {op} ".join(terms))
    short.write_text(f" {op} ".join(terms[:5]))
    for right in ("a0 & a1", "a0 ; a1", "a0 -> a1", "a0 v a1 v a2 v a3 v a4"):
        other = tmp_path / "right.fk"
        other.write_text(right)
        for extra in ([], ["--json"]):
            shown = []
            for left in (long, short):
                assert main(["entails", str(left), str(other), *extra]) == 0
                shown.append(capsys.readouterr().out)
            assert shown[0] == shown[1], (op, right)
        assert main(["entails", str(other), str(long)]) == 0
        back = capsys.readouterr().out
        assert main(["entails", str(other), str(short)]) == 0
        assert back == capsys.readouterr().out, (op, right)


def test_cli_entails_rejects_too_deep_nesting(tmp_path, capsys):
    fine = tmp_path / "fine.fk"
    fine.write_text("a0")
    for text in (" -> ".join(["a0"] * 1500), "- " * 1500 + "a0",
                 "(" * 1500 + "a0" + ")" * 1500):
        deep = tmp_path / "deep.fk"
        deep.write_text(text)
        assert main(["entails", str(deep), str(fine)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "parse error" in err and "too deep" in err


def test_cli_entails_alphabet_widens_the_forks_atoms(tmp_path, capsys):
    left = tmp_path / "l.fk"
    right = tmp_path / "r.fk"
    left.write_text("a v b")
    right.write_text("a ; b")
    # a narrower flag still quantifies over the forks' own atoms
    assert main(["entails", str(right), str(left), "--alphabet", "a", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["entails"] is False and data["witness_t"] == ["a", "b"]
    # a wider one adds its atoms: the first failing T is the same, and z
    # is quantified over too
    assert main(["entails", str(left), str(right), "--alphabet", "z"]) == 0
    assert capsys.readouterr().out == "entails\n"
    assert main(["entails", str(right), str(left), "--alphabet", "z,a",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["witness_t"] == ["a", "b"]


@pytest.mark.parametrize("item", ["v", "bot", "not", "__z", "a b"])
def test_cli_entails_rejects_alphabet_atoms_the_fork_grammar_rejects(tmp_path, capsys, item):
    left = tmp_path / "l.fk"
    right = tmp_path / "r.fk"
    left.write_text("a v b")
    right.write_text("a ; b")
    for extra in ([], ["--json"]):
        assert main(["entails", str(left), str(right), "--alphabet", item, *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == \
            f"error: --alphabet: {atom_problem(item, FORK_KEYWORDS)}\n"


def test_cli_translate(capsys, p1_file):
    assert main(["translate", p1_file, "--pass", "pf"]) == 0
    out = capsys.readouterr().out
    assert "__f1_1 | __f1_2." in out
    assert main(["translate", p1_file, "--pass", "t1"]) == 0
    assert capsys.readouterr().out == P1_TEXT


def test_cli_explain(capsys, p1_file):
    assert main(["explain", p1_file, "--model", "a", "--all"]) == 0
    out = capsys.readouterr().out
    assert "{a}: {a -> r1}" in out
    assert "{a}: {a -> r2}" in out
    assert main(["explain", p1_file, "--model", "a", "--dot"]) == 0
    assert "digraph" in capsys.readouterr().out


@pytest.mark.parametrize("option, item", [("--model", "__q"), ("--model", "not"),
                                          ("--model", "a b"), ("--alphabet", "__q")])
def test_cli_explain_rejects_atoms_the_grammar_rejects(capsys, p1_file, option, item):
    assert main(["explain", p1_file, option, f"a,c,{item}"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {option}: {atom_problem(item)}\n"


def test_cli_explain_answers_a_model_with_only_cyclic_graphs_at_once(capsys, tmp_path):
    # a_i :- a_j for all i != j over 8 atoms: the full model has 7^8
    # support graphs and every one is cyclic
    path = tmp_path / "pairs.lp"
    path.write_text("".join(f"a{i} :- a{j}.\n" for i in range(8)
                            for j in range(8) if i != j))
    model = ",".join(f"a{i}" for i in range(8))
    t0 = time.perf_counter()
    assert main(["explain", str(path), "--model", model, "--all"]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out == \
        "% no explanation for {a0,a1,a2,a3,a4,a5,a6,a7}\n"


def pairs_file(tmp_path, n):
    """a0. plus a_i :- a_j for all i != j over n atoms, and its full model:
    n^(n-2) explanations."""
    path = tmp_path / f"pairs{n}.lp"
    path.write_text("a0.\n" + "".join(f"a{i} :- a{j}.\n" for i in range(n)
                                       for j in range(n) if i != j))
    return str(path), ",".join(f"a{i}" for i in range(n))


def test_cli_explain_prints_the_first_line_of_all(capsys, tmp_path):
    path, model = pairs_file(tmp_path, 5)
    assert main(["explain", path, "--model", model, "--all"]) == 0
    every = capsys.readouterr().out.splitlines()
    assert len(every) == 125
    assert main(["explain", path, "--model", model]) == 0
    assert capsys.readouterr().out.splitlines() == every[:1]


def test_cli_explain_stops_after_the_first_explanation(capsys, tmp_path):
    # 262,144 explanations; the first is the first line of --all
    path, model = pairs_file(tmp_path, 8)
    t0 = time.perf_counter()
    assert main(["explain", path, "--model", model]) == 0
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().out == (
        "{a0,a1,a2,a3,a4,a5,a6,a7}: {a0 -> r1, a1 -> r9, a2 -> r16, a3 -> r23, "
        "a4 -> r30, a5 -> r37, a6 -> r44, a7 -> r51}\n")


def test_main_calls_in_one_process_get_independent_arguments(capsys, monkeypatch):
    """The parser is built once, and a call inherits no argument of an
    earlier one."""
    built = 0
    build = cli.build_parser

    def counted():
        nonlocal built
        built += 1
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert main(["fuzz", "--iterations", "3", "--seed", "4", "--checks", "th3",
                     "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["iterations"], data["checks"]) == (3, ["th3"])
        assert main(["fuzz", "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{2 * len(DEFAULT_CHECKS)} checks passed, 0 failed "
                              f"over 2 programs")
        assert built == 1
    finally:
        cli._parser.cache_clear()


def test_cli_fuzz(capsys):
    assert main(["fuzz", "--iterations", "5", "--seed", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failures"] == []
    assert data["passes"] == 5 * len(DEFAULT_CHECKS)


def test_cli_fuzz_exits_1_when_a_check_fails(capsys, monkeypatch):
    argv = ["fuzz", "--checks", "ssm-min-strict", "--iterations", "30",
            "--seed", "0"]
    assert main(argv) == 1
    assert "27 checks passed, 3 failed" in capsys.readouterr().out
    assert main(argv + ["--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["passes"] == 27 and len(data["failures"]) == 3

    def boom(q):
        raise RuntimeError("check bug")

    monkeypatch.setitem(CHECKS, "boom", (boom, "always raises"))
    assert main(["fuzz", "--checks", "boom", "--iterations", "1"]) == 1


def test_cli_fuzz_rejects_unknown_check(capsys):
    assert main(["fuzz", "--iterations", "1", "--checks", "bogus"]) == 2


def test_readme_lists_the_registered_checks():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Available checks:\s*`([^`]*)`", readme).group(1)
    default = re.search(r"the default set is `([^`]*)`", readme).group(1)
    assert listed.split() == list(CHECKS)
    assert tuple(default.split(",")) == DEFAULT_CHECKS


def test_run_fuzz_reports_and_shrinks_seeded_failures():
    # the strict minimality check is known to fail; use it to exercise the
    # failure path and the shrinker
    report = run_fuzz(GenConfig(seed=0), 40, checks=("ssm-min-strict",),
                      max_failures=1)
    assert report.failures
    failure = report.failures[0]
    assert CHECKS["ssm-min-strict"][0](failure.shrunk) is not None
    assert len(failure.shrunk.rules) <= len(failure.program.rules)
    for k in range(len(failure.shrunk.rules)):
        smaller = failure.shrunk.rules[:k] + failure.shrunk.rules[k + 1:]
        from dlplab.syntax import Program
        if CHECKS["ssm-min-strict"][0](Program(smaller)) is not None:
            raise AssertionError("shrunk program is not 1-minimal")


def test_shrink_program_reaches_fixed_point():
    p = parse_program("a. b. a | b.")
    shrunk = shrink_program(p, lambda q: any(len(r.head) > 1 for r in q.rules))
    assert [r.head for r in shrunk.rules] == [("a", "b")]


def test_shrink_program_lets_a_raising_predicate_raise():
    p = parse_program("a. b. c :- not d. d :- not c. e | f.")

    def crashes(q):
        raise ZeroDivisionError("predicate bug")

    with pytest.raises(ZeroDivisionError):
        shrink_program(p, crashes)


def test_run_fuzz_records_and_shrinks_a_raising_check(monkeypatch):
    def boom(q):
        if any(r.bneg for r in q.rules):
            raise RuntimeError("negation not supported")
        return None

    monkeypatch.setitem(CHECKS, "boom", (boom, "raises on negation"))
    report = run_fuzz(GenConfig(seed=0), 20, checks=("boom",), max_failures=1)
    [failure] = report.failures
    assert failure.check == "boom"
    assert failure.message == "raised RuntimeError: negation not supported"
    with pytest.raises(RuntimeError):
        boom(failure.program)
    # shrunk to the single rule with a negated body literal
    assert len(failure.program.rules) > 1
    assert len(failure.shrunk.rules) == 1 and failure.shrunk.rules[0].bneg
    assert gen_program(replace(GenConfig(seed=0), seed=failure.seed)) \
        == failure.program


def test_run_fuzz_shrinks_a_message_failure_past_raising_candidates(monkeypatch):
    # candidates that raise are a different failure, not this one
    def picky(q):
        if len(q.rules) == 1:
            raise RuntimeError("one rule")
        return "fails" if q.rules else None

    monkeypatch.setitem(CHECKS, "picky", (picky, "fails unless one rule"))
    report = run_fuzz(GenConfig(seed=0), 1, checks=("picky",))
    [failure] = report.failures
    assert failure.message == "fails"
    assert len(failure.shrunk.rules) == 2


def _env_with_src():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cli_exits_quietly_on_a_closed_pipe(p1_file):
    env = _env_with_src()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dlplab.cli", "models", p1_file, "--json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr.decode() == ""
    assert proc.returncode == 141


def test_fuzz_rejects_empty_runs(capsys):
    for iterations, checks in ((-3, DEFAULT_CHECKS), (0, DEFAULT_CHECKS), (5, ())):
        with pytest.raises(ValueError):
            run_fuzz(GenConfig(), iterations, checks)
    assert main(["fuzz", "--iterations", "-3"]) == 2
    assert main(["fuzz", "--iterations", "2", "--checks", ","]) == 2
    assert main(["fuzz", "--iterations", "2", "--checks", ""]) == 2
    assert capsys.readouterr().out == ""


def test_fuzz_counts_and_times_each_check(capsys):
    report = run_fuzz(GenConfig(seed=0), 30, ("th3", "ssm-min-strict"))
    stats = report.per_check
    assert list(stats) == ["th3", "ssm-min-strict"]
    assert (stats["th3"].passes, stats["th3"].failures) == (30, 0)
    assert (stats["ssm-min-strict"].passes, stats["ssm-min-strict"].failures) == (27, 3)
    assert report.passes == 57 and report.programs == 30
    assert all(s.elapsed > 0 for s in stats.values())
    assert "  ssm-min-strict: 27 passed, 3 failed (" in report.summary()

    argv = ["fuzz", "--checks", "th3,ssm-min-strict", "--iterations", "30"]
    assert main(argv + ["--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert {"iterations", "checks", "passes", "failures", "elapsed"} <= set(data)
    assert data["passes"] == 57 and data["interrupted"] is False
    assert {k: (v["passes"], v["failures"]) for k, v in data["per_check"].items()} \
        == {"th3": (30, 0), "ssm-min-strict": (27, 3)}
    assert main(argv) == 1
    assert "  th3: 30 passed, 0 failed (" in capsys.readouterr().out


def test_fuzz_runs_a_check_named_twice_once(capsys):
    """As ``models --semantics fork,fork`` computes fork once."""
    report = run_fuzz(GenConfig(seed=0), 2, ("th1", "t1", "th1"))
    assert report.checks == ("th1", "t1") and list(report.per_check) == ["th1", "t1"]
    assert report.passes == 4 and report.per_check["th1"].passes == 2
    argv = ["fuzz", "--checks", "th1,th1", "--iterations", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("2 checks passed, 0 failed over 2 programs")
    assert main(argv + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["checks"] == ["th1"] and data["passes"] == 2


def test_fuzz_counts_capacity_refusals_as_skips(capsys, monkeypatch):
    """Program seed 3 of atoms=6, rules=8 splits into 25 atoms, more than
    the enumeration bound: th1 skips it, unshrunk, and the run exits 0."""
    def no_shrinking(p, still_fails):
        raise AssertionError("a skip is not shrunk")

    monkeypatch.setattr(checks, "shrink_program", no_shrinking)
    argv = ["fuzz", "--atoms", "6", "--rules", "8", "--checks", "th1",
            "--iterations", "4", "--seed", "0"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("3 checks passed, 0 failed, 1 skipped over 4 programs (")
    assert "  th1: 3 passed, 0 failed, 1 skipped (" in out
    assert ("seed 3 [th1] skipped: 25 atoms exceed the enumeration bound of 20"
            in out)
    assert "minimal failing program" not in out
    assert main(argv + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passes"] == 3 and data["failures"] == []
    assert data["per_check"]["th1"] == {"passes": 3, "failures": 0, "skipped": 1,
                                        "elapsed": data["per_check"]["th1"]["elapsed"]}
    assert data["skips"] == [{"seed": 3, "check": "th1", "reason":
                              "25 atoms exceed the enumeration bound of 20"}]
    # a run without skips prints no skip count
    assert main(["fuzz", "--iterations", "2"]) == 0
    assert "skipped" not in capsys.readouterr().out


def test_fuzz_keeps_the_partial_report_on_interrupt(capsys, monkeypatch):
    seen = []

    def interrupted_on_the_third(q):
        seen.append(q)
        if len(seen) == 3:
            raise KeyboardInterrupt
        return None

    monkeypatch.setitem(CHECKS, "slow", (interrupted_on_the_third, "stops"))
    with pytest.raises(KeyboardInterrupt) as info:
        run_fuzz(GenConfig(seed=0), 10, ("th3", "slow"))
    report = info.value.report
    assert isinstance(info.value, FuzzInterrupted)
    assert report.interrupted and report.programs == 2
    assert (report.per_check["th3"].passes, report.per_check["slow"].passes) == (3, 2)

    seen.clear()
    assert main(["fuzz", "--checks", "th3,slow", "--iterations", "10"]) == 130
    out = capsys.readouterr().out
    assert "5 checks passed, 0 failed over 2 of 10 programs" in out
    assert out.splitlines()[0].endswith(", interrupted")
    seen.clear()
    assert main(["fuzz", "--checks", "slow", "--iterations", "10", "--json"]) == 130
    data = json.loads(capsys.readouterr().out)
    assert data["interrupted"] is True and data["programs"] == 2


def test_python_dash_m_runs_the_command():
    proc = subprocess.run([sys.executable, "-m", "dlplab", "fuzz", "--iterations", "3"],
                          capture_output=True, env=_env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert f"{3 * len(DEFAULT_CHECKS)} checks passed, 0 failed over 3 programs" \
        in proc.stdout.decode()


def test_python_dash_m_fuzzes_the_translation_checks():
    proc = subprocess.run(
        [sys.executable, "-m", "dlplab", "fuzz", "--checks", "th1,t1,t2",
         "--atoms", "3", "--rules", "3", "--max-head", "3", "--iterations", "20",
         "--seed", "0", "--json"],
        capture_output=True, env=_env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    data = json.loads(proc.stdout)
    assert set(data["per_check"]) == {"th1", "t1", "t2"}
    for name, stats in data["per_check"].items():
        assert (stats["passes"], stats["failures"]) == (20, 0), name


# ---------------------------------------------------------------------------
# The JSON writer
# ---------------------------------------------------------------------------

def _same_as_json_dumps(obj):
    assert cli.to_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("program", [parse_program("a | b."), cyclic(8)],
                         ids=["a-or-b", "cyclic8"])
def test_a_report_read_back_from_its_json_renders_the_same_text(program):
    """JSON sorts the semantics by name; the report read back lists them in
    report order again."""
    report = compute_report(program)
    back = ComparisonReport.from_json_dict(json.loads(cli.to_json(report.to_json_dict())))
    assert list(back.listed) == list(report.listed)
    assert back.render_text() == report.render_text()


def test_json_writer_matches_json_dumps_on_reports():
    """The reports of the programs of tests/test_golden.py and of the
    cyclic family n=1..12, timings included."""
    programs = [cyclic(n) for n in range(1, 13)]
    programs += [gen_program(GenConfig(seed=s)) for s in range(100)]
    programs += [gen_program(GenConfig(atoms=6, rules=8, seed=s)) for s in range(50)]
    programs += [gen_program(GenConfig(atoms=3, rules=3, max_head=3, seed=s))
                 for s in range(50)]
    for p in programs:
        _same_as_json_dumps(compute_report(p).to_json_dict())


def test_json_writer_matches_json_dumps_on_a_fuzz_report(capsys):
    """A fuzz report with a failure, shrunk, and skips."""
    argv = ["fuzz", "--atoms", "6", "--rules", "8", "--checks",
            "th1,ssm-min-strict", "--iterations", "12", "--seed", "0", "--json"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["failures"] and data["skips"]
    assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"


def test_json_writer_matches_json_dumps_on_edge_values():
    edges = [
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, "", "plain",
        "quote \" backslash \\ newline \n tab \t nul \0 bell \x07",
        "non-ascii é ✓ 𝄞", ["é", "\n"], {"ключ": "значение", "\n": "\t"},
        0, -1, 10 ** 30, True, False, None, 0.0, -0.0, 1.5, 1e-7, 1e300,
        float("inf"), float("-inf"), float("nan"),
        [True, None, 1, 2.5, "x"], ["x", 1], ["x", ["y"]], [1, "x"],
        (1, "x"), ("a", "b"), [("a",), []], (), ((), ("a",), [()]),
        {"b": 1, "a": [1, [2, {"c": None}]], "c": "s"},
        {"z": {"y": {"x": ["w", "v"]}}, "empty": [[], {}]},
        {1: "int key", 2: [3]}, {"k": {2: "nested int key"}},
        [["a", "b"], ["a", "b"]],
        1e16, 1.0e22, 123456789.125, 5e-324,
        {"timings": {"a": -0.0, "b": 1e-7, "c": 1e16, "d": float("nan"),
                     "e": float("inf"), "f": 0.000123}},
        [-0.0, 1e-7, 1e16, float("nan"), float("inf"), float("-inf")],
    ]
    for obj in edges:
        _same_as_json_dumps(obj)
    _same_as_json_dumps(edges)
    _same_as_json_dumps({"all": edges})
    for bad in ({"a": object()}, [object()], ["x", object()], {"a": [1, object()]}):
        with pytest.raises(TypeError):
            cli.to_json(bad)
