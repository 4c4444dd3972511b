"""Static rule-format checkers: equivariance, stratification coverage and
decrease, and residual alpha-conversion."""

import dataclasses
import gc

from nomsos import (
    check_acr,
    check_all,
    check_equivariant,
    check_stratification,
    corpus_path,
    enumerate_transitions,
    parse_spec,
    parse_term_str,
)
from nomsos.formats import label_instances


def test_corpus_passes_all_checks(pi_spec):
    reports = check_all(pi_spec)
    assert len(reports) == 4
    assert all(r.passed for r in reports), [r.text() for r in reports]


def test_corpus_defined_order_note(pi_spec):
    report = check_stratification(pi_spec)
    assert report.passed
    joined = "\n".join(report.notes)
    for frag in (
        "Out@outA",
        "Open@boutA",
        "Rep@outA",
        "Rep@boutA",
        "Res@outA",
        "Res@boutA",
    ):
        assert frag in joined, joined
    assert "In@" not in joined  # input has no defined order entry


def test_broken_corpus_fails_acr(pi_broken_spec):
    report = check_acr(pi_broken_spec)
    assert not report.passed
    failures = [c for c in report.checks if c.status == "fail"]
    assert failures
    assert all(c.rule == "ParResL" for c in failures)
    assert any("(iii)" in c.constraint for c in failures)
    assert any(
        "{b # x1} does not entail {b # par(x1, x2)}" in c.witness for c in failures
    )


def test_broken_corpus_other_checks_still_pass(pi_broken_spec):
    assert check_equivariant(pi_broken_spec).passed
    assert check_stratification(pi_broken_spec).passed


def test_missing_order_case_breaks_coverage(pi_spec):
    # drop the scope-opening clause for restriction: the Open rule's
    # bound-output conclusion no longer has a guaranteed matching case
    kept = tuple(
        c
        for c in pi_spec.strat
        if not (c.head.func == "new" and c.label.func == "boutA" and c.base is None
                and not c.constraints)
    )
    assert len(kept) == len(pi_spec.strat) - 1
    trimmed = dataclasses.replace(pi_spec, strat=kept)
    report = check_stratification(trimmed)
    assert not report.passed
    bad = [c for c in report.checks if c.status == "fail"]
    assert any(c.rule == "Open" and "coverage" in c.constraint for c in bad)


def test_concrete_atom_rule_fails_equivariance():
    spec = parse_spec(
        """
atomsort ch ;
basesort pr ;
statesort pr ;
residualsort pr ;
func null : 1 -> pr ;
func emit : ch * pr -> pr ;
var x : pr ;
rule Fixed :
  conclusion emit(a, x) -> x ;
"""
    )
    report = check_equivariant(spec)
    assert not report.passed
    fail = next(c for c in report.checks if c.status == "fail")
    assert fail.rule == "Fixed"
    assert "a" in fail.witness


def test_empty_spec_passes():
    spec = parse_spec(
        """
atomsort ch ;
basesort pr ;
statesort pr ;
residualsort pr ;
"""
    )
    reports = check_all(spec)
    assert all(r.passed for r in reports)


def test_axiom_outside_defined_order_is_skipped():
    # a rule whose conclusion never matches any order clause is outside the
    # defined order, so the decrease condition is vacuous for it
    spec = parse_spec(
        """
atomsort ch ;
basesort pr ac ;
statesort pr ;
residualsort ac * pr ;
func null : 1 -> pr ;
func tick : pr -> pr ;
func tickA : 1 -> ac ;
var x : pr ;
rule Tick :
  conclusion tick(x) -> (tickA, x) ;
order null @ tickA = 0 ;
"""
    )
    report = check_stratification(spec)
    assert report.passed
    statuses = {c.rule: c.status for c in report.checks}
    assert statuses["Tick"] in ("pass", "skipped")


def test_label_constraints_on_one_variable_add_up():
    # Two constraint lines on one label variable exclude the heads of both,
    # in the label instances the checks analyse as in the engine.
    text = corpus_path("pi.spec").read_text(encoding="utf-8")
    line = "rule ParL :\n  label l notin { boutA } ;"
    assert text.count(line) == 1
    spec = parse_spec(text.replace(line, line + "\n  label l notin { inA } ;"))
    instances = label_instances(spec, spec.rule("ParL"))
    assert [i.describe() for i in instances] == ["ParL@tauA", "ParL@outA"]
    state = parse_term_str(spec, "par(in(a, [c]null), null)")
    assert enumerate_transitions(spec, state).derivations == ()


def test_acr_verdict_does_not_depend_on_literal_names():
    # The premise target (l, y) is not fresh for every atom that is fresh
    # for the conclusion residual, so (i) fails for an atom outside the
    # rule, whatever the rule's literal atom is called.
    text = """
atomsort ch ;
basesort pr ac ;
statesort pr ;
residualsort ac * pr ;
func null : 1 -> pr ;
func foo : pr -> pr ;
func outA : ch * ch -> ac ;
var x : pr ;
var y : pr ;
var l : ac ;
rule R :
  premise x -> (l, y) ;
  conclusion foo(x) -> (outA(LIT, LIT), null) ;
order foo(x) @ outA(a,b) = 1 + max(S(x, outA(a,b))) ;
"""
    for literal in ("ch7", "ch500"):
        report = check_acr(parse_spec(text.replace("LIT", literal)))
        verdicts = [(c.rule, c.status, c.constraint) for c in report.checks]
        assert verdicts == [("R", "fail", "(i)")], literal


def test_checks_leave_no_cyclic_garbage(pi_spec, pi_broken_spec):
    gc.collect()
    gc.disable()
    try:
        check_all(pi_spec)
        check_all(pi_broken_spec)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_decrease_failures_of_one_line_mutants():
    # Each mutant of the Rep rule or its order clause fails only the
    # decrease condition of stratification, with its own witness.
    text = corpus_path("pi.spec").read_text(encoding="utf-8")
    rep_premise = "  premise x -> (l, y) ;\n  conclusion rep(x)"
    rep_order = "order rep(x) @ outA(a,b) = 1 + max(S(x, outA(a,b))) ;"
    mutants = [
        (
            rep_premise,
            "  premise par(x, rep(x)) -> (l, y) ;\n  conclusion rep(x)",
            "Rep@outA: premise source par(x, rep(x)) is not a variable",
        ),
        (
            rep_order,
            "order rep(x) @ outA(a,b) = 3 ;",
            "Rep@outA: case with constant measure 3 matches a rule with premises",
        ),
        (
            rep_order,
            "order rep(x) @ outA(a,b) = 1 + max(S(x, boutA(a,b))) ;",
            "Rep@outA: premise x -> ... @ outA(_b1, _b2) has no matching recursive call",
        ),
    ]
    for old, new, witness in mutants:
        assert text.count(old) == 1
        reports = check_all(parse_spec(text.replace(old, new)))
        failed = [
            (r.name, c.rule, c.constraint, c.witness)
            for r in reports
            for c in r.checks
            if c.status not in ("pass", "skipped")
        ]
        assert failed == [("stratification", "Rep", "decrease", witness)], new
