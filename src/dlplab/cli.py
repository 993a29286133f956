"""Command line front end.

Subcommands: models, entails, translate, explain, fuzz.  Inputs are files
in the program or fork grammar of the parser module; exit code 0 means no
input errors and no violated relation, 1 a violated relation (an inclusion
under models --strict, or a failing or raising fuzz check; a check refused
as too large, a CapacityError, is a skip and not a violation), 130 a fuzz
run stopped by Ctrl-C (after printing the report of the programs checked).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from itertools import islice
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path

from . import forks as deno
from . import ht, justify
from .checks import CHECKS, DEFAULT_CHECKS, FuzzInterrupted, run_fuzz
from .compare import SEMANTICS_ORDER, TRANSFORMS, compute_report
from .gen import GenConfig, InvalidConfigError
from .parser import (FORK_KEYWORDS, PROGRAM_KEYWORDS, ParseError, atom_problem,
                     parse_fork, parse_program, render_program)
from .syntax import Program, alphabet

_DEFAULTS = GenConfig()

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERRUPTED = 130  # what the shell reports for a process killed by SIGINT
EXIT_BROKEN_PIPE = 141  # what the shell reports for a process killed by SIGPIPE


_WORDS = {True: "true", False: "false", None: "null"}


def to_json(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, sort_keys=True)``, written
    without the pure-Python encoder that ``indent`` selects: a list or
    tuple of strings, a dict's string values and every key go through the
    C string encoder, dicts and other lists and tuples recurse, and ints
    and finite floats are written as their repr.  Values of any other type
    are left to ``json.dumps`` itself."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj, nl: str, out: list[str]) -> None:
    """Append the text of obj, its nested lines starting with nl."""
    kind = type(obj)
    if kind is str:
        out.append(_encode(obj))
    elif (kind is list or kind is tuple or kind is dict) and not obj:
        out.append("{}" if kind is dict else "[]")
    elif kind is list or kind is tuple:
        inner = nl + "  "
        sep = "," + inner
        if type(obj[0]) is str:
            try:
                out.append("[" + inner + sep.join(map(_encode, obj)) + nl + "]")
                return
            except TypeError:  # not every item is a string
                pass
        lead = "[" + inner
        for x in obj:
            out.append(lead)
            _write_json(x, inner, out)
            lead = sep
        out.append(nl + "]")
    elif kind is dict:
        inner = nl + "  "
        lead, sep = "{" + inner, "," + inner
        start = len(out)
        try:
            for k in sorted(obj):
                v = obj[k]
                if type(v) is str:
                    out.append(lead + _encode(k) + ": " + _encode(v))
                else:
                    out.append(lead + _encode(k) + ": ")
                    _write_json(v, inner, out)
                lead = sep
        except TypeError:  # a key that is not a string, among others
            del out[start:]
            _write_other(obj, nl, out)
        else:
            out.append(nl + "}")
    elif kind is bool or obj is None:
        out.append(_WORDS[obj])
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is float and math.isfinite(obj):
        # json writes a finite float as its repr, and nan and inf by name
        out.append(float.__repr__(obj))
    else:
        _write_other(obj, nl, out)


def _write_other(obj, nl: str, out: list[str]) -> None:
    out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")


def _atom_list(text: str | None) -> list[str] | None:
    """The items of a comma list; None when the option is not given."""
    if text is None:
        return None
    return [a for a in (s.strip() for s in text.split(",")) if a]


def _atoms(text: str | None, option: str,
           keywords: frozenset[str] = PROGRAM_KEYWORDS) -> list[str] | None:
    """The atoms of a comma list option, as :func:`_atom_list` reads it; an
    item that the grammar's atom rule rejects is an input error."""
    atoms = _atom_list(text)
    for a in atoms or ():
        problem = atom_problem(a, keywords)
        if problem is not None:
            raise ValueError(f"{option}: {problem}")
    return atoms


def _load_program(path: str, extra_atoms: list[str] | None) -> tuple[Program, frozenset[str]]:
    p = parse_program(_read(path))
    pool = p.atoms() | frozenset(extra_atoms or ())
    return p, pool


def cmd_models(args) -> int:
    p, pool = _load_program(args.file, _atoms(args.alphabet, "--alphabet"))
    report = compute_report(p, _atom_list(args.semantics), pool)
    if args.json:
        print(to_json(report.to_json_dict()))
    else:
        print(report.render_text())
        if args.verbose:
            for line in report.witness_lines():
                print(line)
    if args.strict and report.violations:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_entails(args) -> int:
    left = parse_fork(_read(args.left))
    right = parse_fork(_read(args.right))
    extra = _atoms(args.alphabet, "--alphabet", FORK_KEYWORDS)
    pool = None if extra is None else alphabet(left) | alphabet(right) | set(extra)
    res = deno.strongly_entails(left, right, pool)
    if args.json:
        out = {"entails": res.holds}
        if not res.holds:
            out["witness_t"] = sorted(res.witness_t)
            out["witness_support"] = str(res.witness_support)
        print(to_json(out))
    elif res.holds:
        print("entails")
    else:
        print("does not entail")
        print(f"witness T = {{{','.join(sorted(res.witness_t))}}}")
        print(f"support in the difference: {res.witness_support}")
    return EXIT_OK


def cmd_translate(args) -> int:
    p = parse_program(_read(args.file))
    out = TRANSFORMS[args.pass_name](p)
    sys.stdout.write(render_program(out))
    return EXIT_OK


def cmd_explain(args) -> int:
    p, pool = _load_program(args.file, _atoms(args.alphabet, "--alphabet"))
    if args.model is not None:
        models = [frozenset(_atoms(args.model, "--model"))]
    else:
        models = justify.justified_models(p, pool)
    for m in models:
        name = "{" + ",".join(sorted(m)) + "}"
        # each graph is printed as it is found; without --all the
        # enumeration stops at the first
        graphs = justify.explanations(p, m)
        shown = 0
        for k, g in enumerate(graphs if args.all else islice(graphs, 1)):
            if args.dot:
                print(justify.to_dot(g, f"explanation_{k}"))
            else:
                print(f"{name}: {g}")
            shown += 1
        if not shown:
            print(f"% no explanation for {name}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    cfg = GenConfig(atoms=args.atoms, rules=args.rules, max_head=args.max_head,
                    max_body=args.max_body, p_neg=args.p_neg,
                    p_negneg=args.p_negneg, p_constraint=args.p_constraint,
                    p_dup_head=args.p_dup_head, seed=args.seed)
    cfg.validate()
    checks = DEFAULT_CHECKS if args.checks is None else tuple(_atom_list(args.checks))
    try:
        report = run_fuzz(cfg, args.iterations, checks)
    except FuzzInterrupted as exc:
        report = exc.report
    if args.json:
        print(to_json({
            "iterations": report.iterations,
            "checks": list(report.checks),
            "passes": report.passes,
            "failures": [{"seed": f.seed, "check": f.check,
                          "message": f.message,
                          "program": render_program(f.program),
                          "shrunk": render_program(f.shrunk)}
                         for f in report.failures],
            "elapsed": round(report.elapsed, 3),
            "per_check": {name: {"passes": s.passes, "failures": s.failures,
                                 "skipped": s.skipped,
                                 "elapsed": round(s.elapsed, 3)}
                          for name, s in report.per_check.items()},
            "skips": [{"seed": s.seed, "check": s.check, "reason": s.reason}
                      for s in report.skips],
            "programs": report.programs,
            "interrupted": report.interrupted,
        }))
    else:
        print(report.summary())
    if report.interrupted:
        return EXIT_INTERRUPTED
    return EXIT_VIOLATION if report.failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dlplab",
        description="compute and cross-check semantics of disjunctive "
                    "logic programs")
    sub = ap.add_subparsers(dest="command", required=True)

    m = sub.add_parser("models", help="compute semantics and check inclusions")
    m.add_argument("file", help="program file")
    m.add_argument("--semantics",
                   help=f"comma list from {','.join(SEMANTICS_ORDER)}")
    m.add_argument("--alphabet", help="extra atoms, comma separated")
    m.add_argument("--json", action="store_true")
    m.add_argument("--strict", action="store_true",
                   help="exit nonzero when an inclusion relation fails")
    m.add_argument("--verbose", action="store_true",
                   help="print witnesses (explanations, selections, chains)")
    m.set_defaults(fn=cmd_models)

    e = sub.add_parser("entails", help="strong entailment between two forks")
    e.add_argument("left", help="fork file")
    e.add_argument("right", help="fork file")
    e.add_argument("--alphabet", help="atoms to quantify over, comma separated")
    e.add_argument("--json", action="store_true")
    e.set_defaults(fn=cmd_entails)

    t = sub.add_parser("translate", help="apply a program transformation")
    t.add_argument("file", help="program file")
    t.add_argument("--pass", dest="pass_name", required=True,
                   choices=sorted(TRANSFORMS),
                   help="pf: split disjunctive heads; t1: remove double "
                        "negation; t2: disambiguate repeated head sets")
    t.set_defaults(fn=cmd_translate)

    x = sub.add_parser("explain", help="print explanations of justified models")
    x.add_argument("file", help="program file")
    x.add_argument("--model", help="atoms of one model, comma separated")
    x.add_argument("--alphabet", help="extra atoms, comma separated")
    x.add_argument("--dot", action="store_true", help="emit DOT graphs")
    x.add_argument("--all", action="store_true",
                   help="all explanations instead of the first")
    x.set_defaults(fn=cmd_explain)

    f = sub.add_parser("fuzz", help="differential testing on random programs")
    f.add_argument("--iterations", type=int, default=100)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--checks", help=f"comma list from {','.join(sorted(CHECKS))}")
    f.add_argument("--atoms", type=int, default=_DEFAULTS.atoms)
    f.add_argument("--rules", type=int, default=_DEFAULTS.rules)
    f.add_argument("--max-head", type=int, default=_DEFAULTS.max_head)
    f.add_argument("--max-body", type=int, default=_DEFAULTS.max_body)
    f.add_argument("--p-neg", type=float, default=_DEFAULTS.p_neg)
    f.add_argument("--p-negneg", type=float, default=_DEFAULTS.p_negneg)
    f.add_argument("--p-constraint", type=float, default=_DEFAULTS.p_constraint)
    f.add_argument("--p-dup-head", type=float, default=_DEFAULTS.p_dup_head)
    f.add_argument("--json", action="store_true")
    f.set_defaults(fn=cmd_fuzz)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of :func:`main` and reused: a
    parse fills a fresh namespace from it, so calls share no arguments."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout went away.  Point stdout at devnull so that
        # the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InvalidConfigError, ht.CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
