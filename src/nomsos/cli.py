"""Command-line front end: static checks, transition derivation, and direct
access to the freshness/alpha/support primitives.

Exit codes: 0 success (or all checks pass), 1 failed check / unprovable
claim / false judgement, 2 usage or parse errors, a state or residual of
the wrong sort, an ill-formed spec given to `derive` or `prove`, or a term
or proof search nested too deeply for the recursion limit.

Each command returns its exit code, JSON document and text lines; `main`
alone reads the spec, builds the budget and prints the one or the other,
turning a document's proof trees into JSON (`tree_dict`) as it prints it."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .alpha import alpha_eq, nt_support
from .atoms import NominalSort, sort_str
from .engine import Budget, enumerate_transitions, prove, transition_str, tree_dict, tree_text
from .formats import check_all
from .freshness import entails, is_consistent_reduced, nf
from .parser import (
    parse_entailment_str,
    parse_env_str,
    parse_spec,
    parse_term_str,
    parse_formula_str,
)
from .printer import atom_str, atoms_str, env_str, term_str
from .spec import Spec
from .terms import RawTerm, SortError, sort_check


def _check_sort(spec: Spec, t: RawTerm, expected: NominalSort, what: str) -> None:
    got = sort_check(spec.signature, t)
    if got != expected:
        raise SortError(f"{what} {term_str(t)} has sort {sort_str(got)}, expected {sort_str(expected)}")


def _cmd_check(spec: Spec, args) -> tuple[int, dict, list[str]]:
    reports = check_all(spec)
    passed = sum(1 for r in reports if r.passed)
    doc = {
        "spec": args.spec,
        "reports": [r.to_dict() for r in reports],
        "passed": passed,
        "total": len(reports),
    }
    lines = [r.text() for r in reports] + [f"{passed}/{len(reports)} checks passed"]
    return 0 if passed == len(reports) else 1, doc, lines


def _cmd_derive(spec: Spec, args) -> tuple[int, dict, list[str]]:
    term = parse_term_str(spec, args.term)
    _check_sort(spec, term, spec.rsig.state_sort, "state")
    enum = enumerate_transitions(spec, term, args.budget)
    transitions, lines = [], []
    for d in enum.derivations:
        transitions.append(
            {
                "residual": term_str(d.transition.residual),
                "fresh_atoms": [atom_str(a) for a in d.fresh_atoms],
                "orbit_representative": bool(d.fresh_atoms),
                "tree": d.tree,
            }
        )
        note = ""
        if d.fresh_atoms:
            note = f"   (orbit representative, fresh {atoms_str(d.fresh_atoms)})"
        lines.append(f"{transition_str(d.transition)}{note}")
        if args.trees:
            lines.append(tree_text(d.tree, indent=1))
    if not enum.derivations:
        lines.append("no transitions")
    doc = {"state": term_str(enum.state), "truncated": enum.truncated, "transitions": transitions}
    if enum.truncated:
        print("warning: search truncated by budget", file=sys.stderr)
    return 0, doc, lines


def _cmd_prove(spec: Spec, args) -> tuple[int, dict, list[str]]:
    formula = parse_formula_str(spec, args.claim)
    _check_sort(spec, formula.source, spec.rsig.state_sort, "state")
    _check_sort(spec, formula.target, spec.rsig.residual_sort, "residual")
    outcome = prove(spec, formula.source, formula.target, args.budget)
    doc = {
        "claim": args.claim,
        "provable": outcome.tree is not None,
        "truncated": outcome.truncated,
        "tree": outcome.tree,
    }
    if outcome.tree is not None:
        line = tree_text(outcome.tree)
    elif outcome.truncated:
        line = "not proved: search truncated by budget"
    else:
        line = "not provable within the atom/depth budget"
    return 0 if outcome.tree is not None else 1, doc, [line]


def _cmd_entail(spec: Spec, args) -> tuple[int, dict, list[str]]:
    left, right = parse_entailment_str(spec, args.judgement)
    verdict = entails(left, right)
    return 0 if verdict else 1, {"holds": verdict}, ["true" if verdict else "false"]


def _cmd_nf(spec: Spec, args) -> tuple[int, dict, list[str]]:
    reduced = nf(parse_env_str(spec, args.env))
    consistent = is_consistent_reduced(reduced)
    doc = {"consistent": consistent, "normal_form": env_str(reduced)}
    return 0, doc, [env_str(reduced) + ("" if consistent else "   (inconsistent)")]


def _cmd_alpha(spec: Spec, args) -> tuple[int, dict, list[str]]:
    s = parse_term_str(spec, args.left)
    t = parse_term_str(spec, args.right)
    verdict = alpha_eq(s, t)
    return 0 if verdict else 1, {"equivalent": verdict}, ["true" if verdict else "false"]


def _cmd_supp(spec: Spec, args) -> tuple[int, dict, list[str]]:
    t = parse_term_str(spec, args.term)
    support = atoms_str(nt_support(t))
    return 0, {"support": support}, [support]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomsos",
        description="Workbench for transition-rule specifications over nominal terms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, budget=False):
        p = sub.add_parser(name, help=help)
        p.add_argument("spec", help="specification file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budget:
            p.add_argument("--depth", type=int, default=Budget().depth)
            p.add_argument("--fresh", type=int, default=Budget().fresh)
        p.set_defaults(run=run)
        return p

    command("check", _cmd_check, "run the static format checks")

    p = command("derive", _cmd_derive, "enumerate the transitions of a state", budget=True)
    p.add_argument("term", help="ground state term")
    p.add_argument("--trees", action="store_true", help="print proof trees")

    p = command("prove", _cmd_prove, "prove a single transition", budget=True)
    p.add_argument("claim", help='transition, e.g. "out(a,b,null) -> (outA(a,b), null)"')

    p = command("entail", _cmd_entail, "decide an entailment between environments")
    p.add_argument("judgement", help='e.g. "{a # x} |- {a # (x, x)}"')

    p = command("nf", _cmd_nf, "normal form of a freshness environment")
    p.add_argument("env", help='e.g. "{a # [a]x, b # f(x)}"')

    p = command("alpha", _cmd_alpha, "alpha-equivalence of two ground terms")
    p.add_argument("left")
    p.add_argument("right")

    p = command("supp", _cmd_supp, "support (free atoms) of a ground term")
    p.add_argument("term")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        text = Path(args.spec).read_text(encoding="utf-8")
        spec = parse_spec(text)
        if "depth" in args:
            args.budget = Budget(depth=args.depth, fresh=args.fresh)
        code, doc, lines = args.run(spec, args)
        if args.json:
            print(json.dumps({"command": args.command, **doc}, indent=2, default=tree_dict))
        else:
            for line in lines:
                print(line)
        return code
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term nests too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
