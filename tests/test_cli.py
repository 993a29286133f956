import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dlplab.checks import CHECKS, DEFAULT_CHECKS, run_fuzz, shrink_program
from dlplab.cli import main
from dlplab.compare import ComparisonReport, compute_report
from dlplab.gen import GenConfig, gen_program
from dlplab.parser import parse_program

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


def test_report_json_roundtrip():
    report = compute_report(parse_program(P1_TEXT))
    data = json.loads(json.dumps(report.to_json_dict()))
    back = ComparisonReport.from_json_dict(data)
    assert back.semantics == report.semantics
    assert back.inclusions == report.inclusions
    assert back.alphabet == report.alphabet


def test_json_model_lists_are_sorted():
    data = compute_report(parse_program(P1_TEXT)).to_json_dict()
    assert data["semantics"]["sm"] == [["a"], ["b", "c"]]
    assert data["semantics"]["classical"][0] == ["a"]


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


def test_cli_models_alphabet_flag(capsys, p1_file):
    assert main(["models", p1_file, "--alphabet", "z", "--semantics",
                 "classical,sm"]) == 0
    out = capsys.readouterr().out
    assert "alphabet: {a,b,c,z}" in out


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


def test_cli_fuzz(capsys):
    assert main(["fuzz", "--iterations", "5", "--seed", "1", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["failures"] == []
    assert data["passes"] == 5 * len(DEFAULT_CHECKS)


def test_cli_fuzz_rejects_unknown_check(capsys):
    assert main(["fuzz", "--iterations", "1", "--checks", "bogus"]) == 2


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


def test_cli_exits_quietly_on_a_closed_pipe(p1_file):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
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
