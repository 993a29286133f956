"""Command line front end.

Subcommands: models, entails, translate, explain, fuzz.  Inputs are files
in the program or fork grammar of the parser module; exit code 0 means no
input errors and no violated relation, 1 a violated relation (an inclusion
under models --strict, or a failing or raising fuzz check).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import forks as deno
from . import di, ht, justify
from .checks import CHECKS, DEFAULT_CHECKS, run_fuzz
from .compare import SEMANTICS_ORDER, compute_report
from .gen import GenConfig, InvalidConfigError
from .parser import ParseError, parse_fork, parse_program, render_program
from .syntax import Program

_DEFAULTS = GenConfig()

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT_ERROR = 2
EXIT_BROKEN_PIPE = 141  # what the shell reports for a process killed by SIGPIPE


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")


def _atom_list(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [a for a in (s.strip() for s in text.split(",")) if a]


def _load_program(path: str, extra_atoms: list[str] | None) -> tuple[Program, frozenset[str]]:
    p = parse_program(_read(path))
    pool = p.atoms() | frozenset(extra_atoms or ())
    return p, pool


def cmd_models(args) -> int:
    p, pool = _load_program(args.file, _atom_list(args.alphabet))
    selectors = None
    if args.semantics:
        selectors = [s.strip() for s in args.semantics.split(",") if s.strip()]
    report = compute_report(p, selectors, pool)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
        if args.verbose:
            for name, entries in report.witnesses.items():
                for e in entries:
                    model = "{" + ",".join(e["model"]) + "}"
                    if "chain" in e:
                        shown = " <= ".join("{" + ",".join(s) + "}"
                                            for s in e["chain"])
                    elif "selection" in e:
                        shown = ", ".join(f"{k} -> {v}"
                                          for k, v in e["selection"].items())
                    else:
                        shown = ", ".join(f"{p} -> {l}"
                                          for p, l in sorted(e["labels"].items()))
                    print(f"witness {name} {model}: {shown}")
    if args.strict and report.violations:
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_entails(args) -> int:
    left = parse_fork(_read(args.left))
    right = parse_fork(_read(args.right))
    pool = _atom_list(args.alphabet)
    res = deno.strongly_entails(left, right, pool)
    if args.json:
        out = {"entails": res.holds}
        if not res.holds:
            out["witness_t"] = sorted(res.witness_t)
            out["witness_support"] = str(res.witness_support)
        print(json.dumps(out, indent=2, sort_keys=True))
    elif res.holds:
        print("entails")
    else:
        print("does not entail")
        print(f"witness T = {{{','.join(sorted(res.witness_t))}}}")
        print(f"support in the difference: {res.witness_support}")
    return EXIT_OK


TRANSLATIONS = {
    "pf": deno.pf_translate,
    "t1": di.eliminate_double_negation,
    "t2": di.disambiguate_head_sets,
}


def cmd_translate(args) -> int:
    p = parse_program(_read(args.file))
    out = TRANSLATIONS[args.pass_name](p)
    sys.stdout.write(render_program(out))
    return EXIT_OK


def cmd_explain(args) -> int:
    p = parse_program(_read(args.file))
    pool = p.atoms() | frozenset(_atom_list(args.alphabet) or ())
    if args.model is not None:
        models = [frozenset(_atom_list(args.model) or ())]
    else:
        models = justify.justified_models(p, pool)
    for m in models:
        graphs = justify.explanations_of(p, m)
        shown = graphs if args.all else graphs[:1]
        name = "{" + ",".join(sorted(m)) + "}"
        if not graphs:
            print(f"% no explanation for {name}")
            continue
        for k, g in enumerate(shown):
            if args.dot:
                print(justify.to_dot(g, f"explanation_{k}"))
            else:
                print(f"{name}: {g}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    cfg = GenConfig(atoms=args.atoms, rules=args.rules, max_head=args.max_head,
                    max_body=args.max_body, p_neg=args.p_neg,
                    p_negneg=args.p_negneg, p_constraint=args.p_constraint,
                    p_dup_head=args.p_dup_head, seed=args.seed)
    cfg.validate()
    checks = DEFAULT_CHECKS
    if args.checks:
        checks = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    report = run_fuzz(cfg, args.iterations, checks)
    if args.json:
        print(json.dumps({
            "iterations": report.iterations,
            "checks": list(report.checks),
            "passes": report.passes,
            "failures": [{"seed": f.seed, "check": f.check,
                          "message": f.message,
                          "program": render_program(f.program),
                          "shrunk": render_program(f.shrunk)}
                         for f in report.failures],
            "elapsed": round(report.elapsed, 3),
        }, indent=2, sort_keys=True))
    else:
        print(report.summary())
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
                   choices=sorted(TRANSLATIONS),
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


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
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
