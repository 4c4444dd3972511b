"""Command-line front end: static checks, transition derivation, and direct
access to the freshness/alpha/support primitives.

Exit codes: 0 success (or all checks pass), 1 failed check / unprovable
claim / false judgement, 2 usage or parse errors, a state or residual of
the wrong sort, an ill-formed spec given to `derive` or `prove`, or a term
nested too deeply for the recursion limit."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .alpha import alpha_eq, nt_support
from .atoms import NominalSort, sort_str
from .engine import Budget, enumerate_transitions, prove, transition_str, tree_dict, tree_text
from .formats import check_all
from .freshness import entails, nf
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


def _load_spec(path: str) -> Spec:
    text = Path(path).read_text(encoding="utf-8")
    return parse_spec(text)


def _check_sort(spec: Spec, t: RawTerm, expected: NominalSort, what: str) -> None:
    got = sort_check(spec.signature, t)
    if got != expected:
        raise SortError(f"{what} {term_str(t)} has sort {sort_str(got)}, expected {sort_str(expected)}")


def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    reports = check_all(spec)
    passed = sum(1 for r in reports if r.passed)
    if args.json:
        doc = {
            "command": "check",
            "spec": args.spec,
            "reports": [r.to_dict() for r in reports],
            "passed": passed,
            "total": len(reports),
        }
        print(json.dumps(doc, indent=2))
    else:
        for r in reports:
            print(r.text())
        print(f"{passed}/{len(reports)} checks passed")
    return 0 if passed == len(reports) else 1


def _cmd_derive(args) -> int:
    spec = _load_spec(args.spec)
    term = parse_term_str(spec, args.term)
    _check_sort(spec, term, spec.rsig.state_sort, "state")
    budget = Budget(depth=args.depth, fresh=args.fresh)
    enum = enumerate_transitions(spec, term, budget)
    if args.json:
        doc = {
            "command": "derive",
            "state": term_str(enum.state),
            "truncated": enum.truncated,
            "transitions": [
                {
                    "residual": term_str(d.transition.residual),
                    "fresh_atoms": [atom_str(a) for a in d.fresh_atoms],
                    "orbit_representative": bool(d.fresh_atoms),
                    "tree": tree_dict(d.tree),
                }
                for d in enum.derivations
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        for d in enum.derivations:
            note = ""
            if d.fresh_atoms:
                note = f"   (orbit representative, fresh {atoms_str(d.fresh_atoms)})"
            print(f"{transition_str(d.transition)}{note}")
            if args.trees:
                print(tree_text(d.tree, indent=1))
        if enum.truncated:
            print("warning: search truncated by budget", file=sys.stderr)
        if not enum.derivations:
            print("no transitions")
    return 0


def _cmd_prove(args) -> int:
    spec = _load_spec(args.spec)
    formula = parse_formula_str(spec, args.claim)
    _check_sort(spec, formula.source, spec.rsig.state_sort, "state")
    _check_sort(spec, formula.target, spec.rsig.residual_sort, "residual")
    budget = Budget(depth=args.depth, fresh=args.fresh)
    outcome = prove(spec, formula.source, formula.target, budget)
    if args.json:
        doc = {
            "command": "prove",
            "claim": args.claim,
            "provable": outcome.tree is not None,
            "truncated": outcome.truncated,
            "tree": tree_dict(outcome.tree) if outcome.tree else None,
        }
        print(json.dumps(doc, indent=2))
    elif outcome.tree is not None:
        print(tree_text(outcome.tree))
    elif outcome.truncated:
        print("not proved: search truncated by budget")
    else:
        print("not provable within the atom/depth budget")
    return 0 if outcome.tree is not None else 1


def _cmd_entail(args) -> int:
    spec = _load_spec(args.spec)
    left, right = parse_entailment_str(spec, args.judgement)
    verdict = entails(left, right)
    if args.json:
        print(json.dumps({"command": "entail", "holds": verdict}))
    else:
        print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_nf(args) -> int:
    spec = _load_spec(args.spec)
    env = parse_env_str(spec, args.env)
    reduced = nf(env)
    if args.json:
        print(
            json.dumps(
                {
                    "command": "nf",
                    "consistent": reduced.is_consistent,
                    "normal_form": env_str(reduced.all),
                }
            )
        )
    else:
        tag = "" if reduced.is_consistent else "   (inconsistent)"
        print(f"{env_str(reduced.all)}{tag}")
    return 0


def _cmd_alpha(args) -> int:
    spec = _load_spec(args.spec)
    s = parse_term_str(spec, args.left)
    t = parse_term_str(spec, args.right)
    verdict = alpha_eq(s, t)
    if args.json:
        print(json.dumps({"command": "alpha", "equivalent": verdict}))
    else:
        print("true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_supp(args) -> int:
    spec = _load_spec(args.spec)
    t = parse_term_str(spec, args.term)
    atoms = sorted(nt_support(t))
    if args.json:
        print(json.dumps({"command": "supp", "support": atoms_str(tuple(atoms))}))
    else:
        print(atoms_str(tuple(atoms)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nomsos",
        description="Workbench for transition-rule specifications over nominal terms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=False):
        p.add_argument("spec", help="specification file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if budget:
            p.add_argument("--depth", type=int, default=Budget().depth)
            p.add_argument("--fresh", type=int, default=Budget().fresh)

    p = sub.add_parser("check", help="run the static format checks")
    common(p)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("derive", help="enumerate the transitions of a state")
    common(p, budget=True)
    p.add_argument("term", help="ground state term")
    p.add_argument("--trees", action="store_true", help="print proof trees")
    p.set_defaults(run=_cmd_derive)

    p = sub.add_parser("prove", help="prove a single transition")
    common(p, budget=True)
    p.add_argument("claim", help='transition, e.g. "out(a,b,null) -> (outA(a,b), null)"')
    p.set_defaults(run=_cmd_prove)

    p = sub.add_parser("entail", help="decide an entailment between environments")
    common(p)
    p.add_argument("judgement", help='e.g. "{a # x} |- {a # (x, x)}"')
    p.set_defaults(run=_cmd_entail)

    p = sub.add_parser("nf", help="normal form of a freshness environment")
    common(p)
    p.add_argument("env", help='e.g. "{a # [a]x, b # f(x)}"')
    p.set_defaults(run=_cmd_nf)

    p = sub.add_parser("alpha", help="alpha-equivalence of two ground terms")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(run=_cmd_alpha)

    p = sub.add_parser("supp", help="support (free atoms) of a ground term")
    common(p)
    p.add_argument("term")
    p.set_defaults(run=_cmd_supp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.run(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: term nests too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
