"""Static rule-format checkers: equivariance, stratification coverage and
decrease, and residual alpha-conversion."""

import dataclasses
import gc
import hashlib
import itertools
import random
from collections import Counter

from nomsos import (
    check_acr,
    check_all,
    check_equivariant,
    check_stratification,
    corpus_path,
    enumerate_transitions,
    formats,
    load_corpus,
    parse_spec,
    parse_term_str,
    strat_eval,
    term_str,
    transition_str,
    tree_text,
    validate_spec,
)
from nomsos.atoms import (
    AbsSort,
    Atom,
    AtomSort,
    AtomSortRef,
    BaseSort,
    ProdSort,
    fresh_atoms,
    prod_parts,
)
from nomsos.formats import (
    RuleCheck,
    _Bind,
    _check_acr_instance,
    _sym_match,
    case_matches,
    describe,
    label_instances,
)
from nomsos.freshness import Assertion, entails, is_consistent, nf
from nomsos.printer import atom_str, env_str
from nomsos.spec import bn_eval
from nomsos.terms import (
    Abs,
    App,
    Atm,
    MetaAtom,
    Susp,
    Tup,
    Var,
    Variable,
    subst_apply,
    support,
    term_vars,
)


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
    report = check_acr(pi_broken_spec, check_stratification(pi_broken_spec).defined)
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
    assert [describe(i) for i in instances] == ["ParL@tauA", "ParL@outA"]
    state = parse_term_str(spec, "par(in(a, [c]null), null)")
    assert enumerate_transitions(spec, state).derivations == ()


def test_label_instances_capture_no_rule_variable():
    # The rule writes a variable named as the label's first fresh variable
    # would be: the instance's label skips that name too, so the premise
    # target (l, _v2) keeps its two variables apart.
    spec = parse_spec(
        """
atomsort ch ;
basesort pr ac ;
statesort pr ;
residualsort ac * pr ;
func null : 1 -> pr ;
func wrap : pr -> pr ;
func sendP : ch * pr -> ac ;
var x : pr ;
var l : ac ;
var _v2 : pr ;
rule Wrap :
  premise x -> (l, _v2) ;
  conclusion wrap(x) -> (l, wrap(_v2)) ;
"""
    )
    rule = spec.rule("Wrap")
    rule_names = {v.name for t in rule.terms() for v in term_vars(t)}
    [inst] = label_instances(spec, rule)
    label, _ = spec.split_residual(inst.conclusion.target)
    assert term_str(label) == "sendP(_b1, _v3)"
    assert rule_names.isdisjoint(v.name for v in term_vars(label))


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
        spec = parse_spec(text.replace("LIT", literal))
        report = check_acr(spec, check_stratification(spec).defined)
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
    # Each mutant of the Rep rule or its order clause, and the cyclic Rep of
    # pi-rep.spec, fails only the decrease condition of stratification,
    # with its own witness.
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
    specs = [(load_corpus("pi-rep.spec"), mutants[0][2], "pi-rep.spec")]
    for old, new, witness in mutants:
        assert text.count(old) == 1
        specs.append((parse_spec(text.replace(old, new)), witness, new))
    for spec, witness, what in specs:
        reports = check_all(spec)
        failed = [
            (r.name, c.rule, c.constraint, c.witness)
            for r in reports
            for c in r.checks
            if c.status not in ("pass", "skipped")
        ]
        assert failed == [("stratification", "Rep", "decrease", witness)], what


def test_identification_avoids_concrete_atoms_of_the_env():
    # The case identifies the rule's a and b. The env c # ch1 holds for
    # every c but ch1, so the identification is possible and the case
    # matches.
    spec = parse_spec(
        """
atomsort ch ;
basesort pr ac ;
statesort pr ;
residualsort ac * pr ;
func null : 1 -> pr ;
func emit : ch * ch * ch * pr -> pr ;
func tickA : ch -> ac ;
var x : pr ;
rule R forall a b c :
  fresh c # ch1 ;
  conclusion emit(a, b, c, x) -> (tickA(c), x) ;
order emit(d, d, e, x) @ tickA(e) = 0 ;
"""
    )
    report = check_stratification(spec)
    assert report.notes == ("defined order: R@tickA",)


def test_acr_partitions_avoid_concrete_atoms_of_the_env():
    # The env a # ch0 holds for every a but ch0, so the verdict is that of
    # the rule without it: (i) fails, not a vacuous pass.
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
rule R forall a :
  premise x -> (l, y) ;
  ENV
  conclusion foo(x) -> (outA(a, a), null) ;
order foo(x) @ outA(a,b) = 1 + max(S(x, outA(a,b))) ;
"""
    for env in ("", "fresh a # ch0 ;"):
        spec = parse_spec(text.replace("ENV", env))
        report = check_acr(spec, check_stratification(spec).defined)
        verdicts = [(c.rule, c.status, c.constraint) for c in report.checks]
        assert verdicts == [("R", "fail", "(i)")], env


def test_partitions_are_yielded_lazily():
    # 20 schematic atoms of one sort have Bell(20), about 5e13, partitions;
    # the first three come at once, in the order of the full enumeration.
    m = [MetaAtom(f"m{i:02}", AtomSort("ch")) for i in range(20)]
    first = list(itertools.islice(formats._partitions(m), 3))
    singletons = [[x] for x in m[2:]]
    assert first == [
        [[m[0]], [m[1]]] + singletons,
        [[m[0], m[1]]] + singletons,
        [[m[1]], [m[0], m[2]]] + singletons[1:],
    ]


def test_check_all_matches_each_label_instance_once(pi_spec, monkeypatch):
    # Stratification matches the order cases; the ACR check reads what it
    # found instead of matching again.
    instances = sum(len(label_instances(pi_spec, rule)) for rule in pi_spec.rules)
    calls: Counter[str] = Counter()

    def counted(name):
        f = getattr(formats, name)

        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        monkeypatch.setattr(formats, name, wrapper)

    counted("label_instances")
    counted("case_matches")
    check_all(pi_spec)
    assert calls == {
        "label_instances": len(pi_spec.rules),
        "case_matches": instances,
    }


def test_defined_order_lists_instances_after_a_failing_one():
    # With a constant measure for sum at outA, SumL and SumR fail decrease
    # at their outA instance; their boutA instances are still in the defined
    # order, and the ACR check constrains both.
    text = corpus_path("pi.spec").read_text(encoding="utf-8")
    old = "order sum(x1,x2) @ outA(a,b) = 1 + max(S(x1, outA(a,b)), S(x2, outA(a,b))) ;"
    assert text.count(old) == 1
    spec = parse_spec(text.replace(old, "order sum(x1,x2) @ outA(a,b) = 0 ;"))
    _, _, strat, acr = check_all(spec)
    assert strat.notes == ("defined order: " + ", ".join(map(describe, strat.defined)),)
    for frag in ("SumL@outA, SumL@boutA", "SumR@outA, SumR@boutA"):
        assert frag in strat.notes[0]
    failed = [(c.rule, c.constraint, c.witness) for c in strat.checks if c.status == "fail"]
    witness = "@outA: case with constant measure 0 matches a rule with premises"
    assert failed == [(name, "decrease", name + witness) for name in ("SumL", "SumR")]
    assert acr.text() == "\n".join(
        ["residual alpha-conversion format: pass"]
        + [
            f"  {name}: skipped -- no defined-order instance"
            if name in ("In", "CloseL", "CloseR")
            else f"  {name}: pass"
            for name in (r.name for r in spec.rules)
        ]
    )


_OUT_RULE = "rule Out forall a b :\n  conclusion out(a,b,x) -> (outA(a,b), x) ;"
_OPEN_RULE = (
    "rule Open forall a b :\n  premise x -> (outA(a,b), y) ;\n  fresh b # a ;\n"
    "  conclusion new([b]x) -> (boutA(a,b), y) ;"
)
_REP_RULE = "rule Rep :\n  premise x -> (l, y) ;\n  conclusion rep(x)"
_OUT_ORDER = "order out(a,b,x) @ outA(a,b) = 0 ;"
_OPEN_ORDER = "order new([b]x) @ boutA(a,b) = 1 + max(S(x, outA(a,b))) ;"
_PAR_BOUT = "order par(x1,x2) @ boutA(a,b) ="
_PAR_OUT = "order par(x1,x2) @ outA(a,b) = 1 + max(S(x1, outA(a,b)), S(x2, outA(a,b))) ;"
_REP_ORDER = "order rep(x) @ outA(a,b) = 1 + max(S(x, outA(a,b))) ;"
_REP_PAR = "order rep(par(x1,x2)) @ outA(a,b) = 1 + max(S(x1, outA(a,b))) ;\n" + _REP_ORDER

# (corpus spec, its edits as (old, new) pairs, a line the report must hold):
# each reaches a path of the case matcher or the ACR check that the corpus
# alone does not.
_PINNED_EDITS = [
    ("pi.spec", [], "stratification: pass"),
    ("pi-rep.spec", [], "Rep: fail [decrease]"),
    ("pi-broken.spec", [], "ParResL: fail [(iii)]"),
    # `when b = d` on one rule atom: still guaranteed
    (
        "pi.spec",
        [(_OPEN_ORDER, "order new([b]x) @ boutA(a,d) when b = d = 1 + max(S(x, outA(a,b))) ;")],
        "Open: pass",
    ),
    # `when a = b` on two rule atoms the env leaves apart: not guaranteed
    ("pi.spec", [(_PAR_BOUT, _PAR_BOUT.replace(" =", " when a = b ="))], "ParResL: fail [coverage]"),
    # `when a = b` on two rule atoms `fresh b # a` forces apart: no match
    (
        "pi.spec",
        [(_OPEN_ORDER, "order new([b]x) @ boutA(a,b) when a = b = 1 + max(S(x, outA(a,b))) ;")],
        "Open: skipped -- no defined-order instance",
    ),
    # `when a != b` on two rule atoms the env leaves apart: not guaranteed
    ("pi.spec", [(_PAR_BOUT, _PAR_BOUT.replace(" =", " when a != b ="))], "ParResR: fail [coverage]"),
    # a repeated case variable against two rule variables
    (
        "pi.spec",
        [(_PAR_OUT, "order par(x1,x1) @ outA(a,b) = 1 + max(S(x1, outA(a,b))) ;")],
        "ParL: skipped -- no defined-order instance",
    ),
    # a case structure against a rule variable: the unknown line
    ("pi.spec", [(_REP_ORDER, _REP_PAR)], "Rep: unknown [decrease]"),
    ("pi-rep.spec", [(_REP_ORDER, _REP_PAR)], "Rep: fail [decrease]"),
    # a case structure against a delayed permutation in a rule source
    (
        "pi.spec",
        [
            (_REP_RULE, "rule Rep forall a b :\n  premise x -> (l, y) ;\n  conclusion rep(((a b))*x)"),
            (_REP_ORDER, _REP_PAR),
        ],
        "Rep: fail [(ii)]",
    ),
    # a case schematic atom against a delayed permutation
    (
        "pi.spec",
        [(_OUT_RULE, "rule Out forall a b c :\n  conclusion out(a,((a c))*b,x) -> (outA(a,b), x) ;")],
        "Out: unknown [decrease]",
    ),
    # a case binder against a rule variable of abstraction sort
    (
        "pi.spec",
        [("var l : ac ;", "var l : ac ;\nvar w : [ch]pr ;\nrule NewV forall a b :\n  conclusion new(w) -> (outA(a,b), null) ;")],
        "NewV: unknown [decrease]",
    ),
    # a delayed permutation in a case pattern
    (
        "pi.spec",
        [(_REP_ORDER, "order rep(((a b))*x) @ outA(a,b) = 1 + max(S(x, outA(a,b))) ;\n" + _REP_ORDER)],
        "Rep: unknown [decrease]",
    ),
    # `when a != b` on two concrete atoms: guaranteed
    (
        "pi.spec",
        [
            (
                _OPEN_RULE,
                "rule Open :\n  premise x -> (outA(c,d), y) ;\n  fresh d # c ;\n"
                "  conclusion new([d]x) -> (boutA(c,d), y) ;",
            ),
            (_OPEN_ORDER, _OPEN_ORDER.replace(" =", " when a != b =", 1)),
        ],
        "Open: pass",
    ),
    # a case identifying two concrete atoms: no match
    (
        "pi.spec",
        [
            (_OUT_RULE, "rule Out :\n  conclusion out(c,d,x) -> (outA(c,d), x) ;"),
            (_OUT_ORDER, "order out(a,a,x) @ outA(a,a) = 0 ;"),
        ],
        "Out: skipped -- no defined-order instance",
    ),
    # an action constructor with a non-atom argument: `_v` names
    (
        "pi.spec",
        [
            ("func boutA : ch * ch -> ac ;", "func boutA : ch * ch -> ac ;\nfunc stepA : pr * ch -> ac ;"),
            (_REP_ORDER, _REP_ORDER + "\norder rep(x) @ stepA(y,a) = 1 + max(S(x, stepA(null,a))) ;"),
        ],
        "Rep: fail [decrease] -- Rep@stepA: premise x -> ... @ stepA(_v1, _b2) has no matching recursive call",
    ),
    # ACR (ii): no closed term of the sort of a variable only the source has
    (
        "pi.spec",
        [
            ("basesort pr ac ;", "basesort pr ac void ;"),
            (
                "var l : ac ;",
                "var l : ac ;\nvar z : void ;\nfunc hold : void * pr -> pr ;\nfunc mk : void -> void ;\n"
                "rule Hold :\n  premise x -> (l, y) ;\n  conclusion hold(z, x) -> (l, y) ;\n"
                "order hold(z, x) @ outA(a,b) = 1 + max(S(x, outA(a,b))) ;",
            ),
        ],
        "Hold: fail [(ii)] -- Hold@outA: no closed term inhabits the sort of z",
    ),
    # ACR (ii): a failure witness
    (
        "pi.spec",
        [(_OUT_RULE, "rule Out forall a b c :\n  fresh c # x ;\n  conclusion out(a,b,x) -> (outA(a,b), null) ;")],
        "Out: fail [(ii)] -- Out@outA with atoms {a} {b} {c}, candidate d: ",
    ),
]

# SHA-256 of the `check_all` texts of the edits above, one line per report.
_PINNED_DIGEST = "85cc85bef49922eec683e67f1670d47addd0e60b787b490ea8a9ba4d91679ee3"


def test_check_reports_of_pi_edits_are_pinned():
    texts = []
    for name, edits, line in _PINNED_EDITS:
        text = corpus_path(name).read_text(encoding="utf-8")
        for old, new in edits:
            assert text.count(old) == 1, old
            text = text.replace(old, new)
        report = "\n".join(r.text() for r in check_all(parse_spec(text)))
        assert line in report, (edits, report)
        texts.append(report)
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == _PINNED_DIGEST


def test_case_shapes_the_parser_cannot_write():
    # Concrete atoms and binders, and tuples of other arities, in a case
    # pattern: built by hand and matched directly.
    ch = AtomSort("ch")
    a, b = Atom(ch, 0), Atom(ch, 1)
    m = MetaAtom("m", ch)
    v = Var(Variable("v", BaseSort("pr")))
    susp = Susp(((a, b),), v)
    body = App("null", Tup(()))
    cases = [
        (Atm(a), Atm(a), None),
        (Atm(a), body, None),
        (Atm(a), v, None),
        (Abs(a, v), Abs(a, body), None),
        (Abs(a, v), Abs(m, body), None),
        (Abs(a, v), v, None),
        (Abs(a, v), susp, None),
        (Abs(a, v), body, False),
        (Abs(m, v), Abs(b, body), True),
        (Abs(m, v), Atm(a), False),
        (Atm(m), body, False),
        (Atm(m), Tup(()), False),
        (Atm(m), v, None),
        (Atm(m), susp, None),
        (Tup((v, v)), Tup((body,)), False),
        (Tup((v,)), v, None),
        (Tup((v,)), susp, None),
        (Tup((v,)), body, False),
        (Tup((Atm(m), Atm(m))), Tup((Atm(a), Atm(b))), True),
        (App("f", v), App("g", v), False),
        (App("f", v), Tup(()), False),
        (App("f", v), susp, None),
        (App("f", Tup((v, v))), App("f", Tup((body, body))), True),
        (App("f", Tup((v, v))), App("f", Tup((body, v))), False),
        (susp, body, None),
        (susp, susp, None),
    ]
    for case, rule, want in cases:
        assert _sym_match(case, rule, _Bind()) is want, (case, rule)
    bind = _Bind()
    assert _sym_match(Tup((Atm(m), Abs(m, v))), Tup((Atm(a), Abs(b, body))), bind)
    assert (bind.metas, bind.identifications, bind.vars) == ({"m": a}, [(a, b)], {v.var: body})


def test_constraint_on_an_unbound_case_atom_is_unknown(pi_spec):
    # Validation rejects a constraint on an atom the case does not write;
    # the matcher, called directly, reports it as unknown.
    case = dataclasses.replace(pi_spec.strat[0], constraints=(("a", "zz", True),))
    spec = dataclasses.replace(pi_spec, strat=(case,))
    assert case_matches(spec, spec.rule("Out")) == ([], True)


def _pinned_texts():
    for name, edits, _ in _PINNED_EDITS:
        text = corpus_path(name).read_text(encoding="utf-8")
        for old, new in edits:
            text = text.replace(old, new)
        yield text


def _reference_smallest_closed(sig, sort, avoid):
    """The smallest ground term of a sort as the checker first built it: a
    fixpoint over the whole signature per call, the least atom of each atom
    sort outside `avoid` free and the next one bound."""
    atoms = {alpha: fresh_atoms(alpha, avoid, 2) for alpha in sig.atom_sorts}

    def closed(s, best):
        match s:
            case AtomSortRef(alpha):
                return 1, Atm(atoms[alpha][0])
            case AbsSort(alpha, body):
                b = closed(body, best)
                return None if b is None else (1 + b[0], Abs(atoms[alpha][1], b[1]))
            case ProdSort(parts):
                rs = [closed(p, best) for p in parts]
                if any(r is None for r in rs):
                    return None
                return 1 + sum(r[0] for r in rs), Tup(tuple(r[1] for r in rs))
            case BaseSort(name):
                return best.get(name)

    best = {}
    for _ in range(len(sig.functions) + 1):
        changed = False
        for f in sig.functions:
            r = closed(f.arg, best)
            if r is not None and (f.result not in best or 1 + r[0] < best[f.result][0]):
                best[f.result] = (1 + r[0], App(f.name, r[1]))
                changed = True
        if not changed:
            break
    r = closed(sort, best)
    return None if r is None else r[1]


def _reference_acr_instance(spec, inst):
    """Constraints (i)-(iii) decided as the checker first did: one `entails`
    call on unreduced environments per obligation and candidate atom, on
    every partition, its env included each time."""
    prem = formats._premise_parts(inst)
    label, target = spec.split_residual(inst.conclusion.target)
    d_vars = term_vars(inst.conclusion.source).difference(
        *(term_vars(t) for s, _, t2 in prem for t in (s, t2)),
        term_vars(target),
        *(term_vars(a.term) for a in inst.env),
    )
    literals = inst.atoms()
    taken = set(literals)
    for sort in {m.sort for m in inst.metas}:
        taken |= set(fresh_atoms(sort, literals, len(inst.metas)))
    gamma = {}
    for v in sorted(d_vars, key=lambda v: v.name):
        t = _reference_smallest_closed(spec.signature, v.sort, taken)
        if t is None:
            witness = f"{describe(inst)}: no closed term inhabits the sort of {v.name}"
            return RuleCheck(inst.name, "fail", "(ii)", witness)
        gamma[v] = t
        taken |= support(t)

    metas = sorted(set(inst.metas), key=lambda m: m.name)
    for partition in formats._partitions(metas):

        def fail(constraint, atom, lhs, rhs):
            ident = " ".join("{" + ",".join(m.name for m in b) + "}" for b in partition)
            return RuleCheck(
                inst.name,
                "fail",
                constraint,
                f"{describe(inst)} with atoms {ident}, candidate {atom_str(atom)}: "
                f"{env_str(lhs)} does not entail {env_str(rhs)}",
            )

        asg = formats._assignment(partition, literals)
        r = inst.instance(asg)
        source, target_pair, env = r.conclusion.source, r.conclusion.target, frozenset(r.env)
        prem = formats._premise_parts(r)
        gamma_source = subst_apply(gamma, source)
        rule_atoms = set(asg.values()).union(
            support(source), support(target_pair), *(support(s) | support(t) for s, _, t in prem)
        )
        excluded = {c for c in support(source) if not nf([Assertion(c, source)])}
        candidates = sorted(rule_atoms - excluded)
        for sort in sorted(spec.signature.atom_sorts, key=lambda s: s.name):
            candidates += fresh_atoms(sort, taken, 1)
        for a in candidates:
            lhs1 = frozenset({Assertion(a, target_pair)}) | env
            rhs1 = frozenset(Assertion(a, t) for _, _, t in prem)
            if not entails(lhs1, rhs1):
                return fail("(i)", a, lhs1, rhs1)
            lhs2 = lhs1 | frozenset(Assertion(a, s) for s, _, _ in prem)
            rhs2 = frozenset({Assertion(a, gamma_source)})
            if not entails(lhs2, rhs2):
                return fail("(ii)", a, lhs2, rhs2)
        for b in bn_eval(spec, spec.split_residual(target_pair)[0]):
            lhs3 = env | frozenset(Assertion(b, s) for s, l, _ in prem if b in bn_eval(spec, l))
            rhs3 = frozenset({Assertion(b, gamma_source)})
            if not entails(lhs3, rhs3):
                return fail("(iii)", b, lhs3, rhs3)
    return None


# R's env is inconsistent on the partition {a,b} {c}, and R fails (i) only on
# a later one, {b} {a,c}, where a is bound in the conclusion target; S fails
# (i) on its one partition.
_SKIPPED_PARTITION = """
atomsort ch ;
basesort pr ac ;
statesort pr ;
residualsort ac * pr ;
func null : 1 -> pr ;
func out : ch * ch * pr -> pr ;
func par : pr * pr -> pr ;
func new : [ch]pr -> pr ;
func foo : pr -> pr ;
func bar : pr -> pr ;
func outA : ch * ch -> ac ;
var x : pr ;
var y : pr ;
var l : ac ;
rule R forall a b c :
  premise x -> (outA(a, a), y) ;
  fresh a # b ;
  conclusion foo(x) -> (outA(b, b), par(new([c]out(a, a, null)), y)) ;
rule S forall a :
  premise x -> (l, y) ;
  conclusion bar(x) -> (outA(a, a), null) ;
order foo(x) @ outA(a, b) = 1 + max(S(x, outA(a, b))) ;
order bar(x) @ outA(a, b) = 1 + max(S(x, outA(a, b))) ;
"""


def test_acr_decision_agrees_with_entailment_oracle():
    # On every defined instance of the corpus, the pinned edits and a rule
    # with a partition whose env is inconsistent, deciding (i)-(iii) on
    # sets reduced once gives the same verdict and witness as an `entails`
    # call per obligation.
    specs = [parse_spec(text) for text in _pinned_texts()]
    specs.append(parse_spec(_SKIPPED_PARTITION))
    verdicts = Counter()
    for spec in specs:
        for inst in check_stratification(spec).defined:
            got = _check_acr_instance(spec, inst, formats._ClosedTerms(spec.signature))
            assert got == _reference_acr_instance(spec, inst), describe(inst)
            verdicts[(got.status, got.constraint) if got else "pass"] += 1
    assert verdicts.keys() == {"pass", ("fail", "(i)"), ("fail", "(ii)"), ("fail", "(iii)")}

    # The closed terms stored once per check, moved to the least atoms
    # outside `avoid`, are those of a fixpoint per call, for every sort.
    ch = AtomSort("ch")
    for spec in specs:
        sig = spec.signature
        closed = formats._ClosedTerms(sig)
        sorts = {BaseSort(b) for b in sig.base_sorts}
        sorts |= {p for f in sig.functions for p in (f.arg, *prod_parts(f.arg))}
        for sort in sorts:
            for avoid in [set(), {Atom(ch, 0)}, {Atom(ch, 1)}, {Atom(ch, 0), Atom(ch, 2)}]:
                assert closed.smallest(sort, avoid) == _reference_smallest_closed(sig, sort, avoid)

    # R's partition {a,b} {c} is skipped, and the partitions after it are
    # still decided
    spec = specs[-1]
    inst = next(i for i in check_stratification(spec).defined if i.name == "R")
    a, b, c = sorted(inst.metas)
    identified = inst.instance(formats._assignment([[a, b], [c]], inst.atoms()))
    assert not is_consistent(identified.env)
    closed = formats._ClosedTerms(spec.signature)
    assert _check_acr_instance(spec, inst, closed).witness.startswith("R@outA with atoms {b} {a,c}, ")


def test_premise_residual_that_is_not_a_pair_is_unknown():
    # Outside NTS mode a premise residual may be a variable: the decrease of
    # stratification and the ACR constraints of such an instance are unknown,
    # and validation, which the engine shares, accepts it.
    spec = parse_spec(
        """
atomsort ch ;
basesort pr ac ;
statesort pr ;
residualsort pr * ch ;
func null : 1 -> pr ;
func foo : pr -> pr ;
var x : pr ;
var y : pr * ch ;
rule R forall a :
  premise x -> y ;
  conclusion foo(x) -> (null, a) ;
order foo(x) @ null = 1 + max(S(x, null)) ;
"""
    )
    _, _, strat, acr = check_all(spec)
    assert strat.checks[0].status == "unknown" and strat.defined
    assert acr.checks == (
        RuleCheck("R", "unknown", "", "R@null: rule shape outside the syntactic sufficient conditions"),
    )


# R's env, `a # [c]b`, is inconsistent on the partition {a,b} {c} but holds on
# {a,b,c}: there a # [a]a, so a valid instance identifies a and b, and the
# case, which needs them apart, is not guaranteed to match.
_PAIR_TRAP = """
atomsort ch ;
basesort pr ac ;
statesort pr ;
residualsort ac * pr ;
func null : 1 -> pr ;
func out : ch * ch * pr -> pr ;
func boutA : ch * ch -> ac ;
var x : pr ;
bn boutA = { 2 } ;
rule R forall a b c :
  fresh a # [c]b ;
  conclusion out(a,b,x) -> (boutA(a,b), x) ;
order out(a,b,x) @ boutA(a,b) when a != b = 0 ;
"""


def test_coverage_reads_every_consistent_partition():
    spec = parse_spec(_PAIR_TRAP)
    assert check_stratification(spec).checks == (
        RuleCheck(
            "R",
            "fail",
            "coverage",
            "R@boutA: the conclusion label binds b but no stratification case is guaranteed to match",
        ),
    )
    # the instance the case misses: the engine fires R on it, and the order
    # is undefined there
    [d] = enumerate_transitions(spec, parse_term_str(spec, "out(a, a, null)")).derivations
    assert transition_str(d.transition) == "out(a, a, null) -> (boutA(a, a), null)"
    label, _ = spec.split_residual(d.transition.residual)
    assert strat_eval(spec, d.transition.state, label) is None


_EMIT_HEADER = """
atomsort ch ;
basesort pr ac ;
statesort pr ;
residualsort ac * pr ;
func null : 1 -> pr ;
var x : pr ;
"""


def test_case_pairs_are_decided_jointly():
    # Each pair alone can hold: a = b, and b = c. Together they need a = c,
    # where the env reads a # a, so no valid instance matches the case, the
    # order is defined nowhere and ACR constrains nothing.
    spec = parse_spec(
        _EMIT_HEADER
        + """
func emit : ch * ch * ch * pr -> pr ;
func outA : ch * ch -> ac ;
rule R forall a b c :
  fresh a # c ;
  conclusion emit(a, b, c, x) -> (outA(a, b), x) ;
order emit(p, q, r, x) @ outA(p, q) when p = q, q = r = 0 ;
"""
    )
    reports = check_all(spec)
    assert all(r.passed for r in reports), [r.text() for r in reports]
    assert reports[2].notes == ("defined order: none",)


def test_mixed_pair_matches_but_is_never_guaranteed():
    # No partition identifies the schematic a with the concrete e, but the
    # engine does: R fires on emit(e, e, null). So `p != q` and `p = q` both
    # match, and neither is guaranteed.
    rule = """
func emit : ch * ch * pr -> pr ;
func outA : ch * ch -> ac ;
rule R forall a :
  conclusion emit(a, e, x) -> (outA(a, e), x) ;
"""
    for guard, order_at_ee in (("p != q", None), ("p = q", 0)):
        spec = parse_spec(_EMIT_HEADER + rule + f"order emit(p, q, x) @ outA(p, q) when {guard} = 0 ;")
        [inst] = label_instances(spec, spec.rules[0])
        assert [(m.case, m.guaranteed) for m in case_matches(spec, inst)[0]] == [(spec.strat[0], False)]
        [d] = enumerate_transitions(spec, parse_term_str(spec, "emit(e, e, null)")).derivations
        assert transition_str(d.transition) == "emit(e, e, null) -> (outA(e, e), null)"
        label, _ = spec.split_residual(d.transition.residual)
        assert strat_eval(spec, d.transition.state, label) == order_at_ee


def _reference_case_matches(spec, inst):
    """The cases `case_matches` finds, with their `guaranteed` flags, all
    pairs of a case decided jointly by brute force: over every map of the
    instance's schematic atoms to its first n atoms outside the rule's
    concrete atoms, n the number of schematic atoms, that leaves the env
    consistent, or, when none does, the map that keeps them all apart. A
    case matches when some map satisfies every pair of two schematic or two
    concrete atoms, and is guaranteed when every map does and no pair mixes
    a schematic with a concrete atom."""
    metas = sorted(set(inst.metas), key=lambda m: m.name)
    names = [m.name for m in metas]
    pools = [fresh_atoms(m.sort, inst.atoms(), len(metas)) for m in metas]
    maps = (dict(zip(names, images)) for images in itertools.product(*pools))
    valid = [asg for asg in maps if is_consistent(inst.instance(asg).env)]
    valid = valid or [dict(zip(names, (pool[i] for i, pool in enumerate(pools))))]

    def image(x, asg):
        return asg[x.name] if isinstance(x, MetaAtom) else x

    label, _ = spec.split_residual(inst.conclusion.target)
    out = []
    for case in spec.strat:
        bind = _Bind()
        if not (_sym_match(case.label, label, bind) and _sym_match(case.head, inst.conclusion.source, bind)):
            continue
        pairs = [(x, y, True) for x, y in bind.identifications] + [
            (bind.metas.get(m1), bind.metas.get(m2), eq) for m1, m2, eq in case.constraints
        ]
        if any(x is None or y is None for x, y, _ in pairs):
            continue
        mixed = [isinstance(x, MetaAtom) != isinstance(y, MetaAtom) for x, y, _ in pairs]
        holds = [
            all((image(x, asg) == image(y, asg)) == eq for (x, y, eq), m in zip(pairs, mixed) if not m)
            for asg in valid
        ]
        if any(holds):
            out.append((case, all(holds) and not any(mixed)))
    return out


_RANDOM_PAIR_SIGNATURE = (
    _EMIT_HEADER
    + """
func emit : ch * ch * ch * ch * pr -> pr ;
func boutA : ch * ch -> ac ;
bn boutA = { 2 } ;
"""
)


def test_identification_every_partition_makes_is_guaranteed():
    # a # [c]a holds only when a = c, so every consistent partition
    # identifies a and c, and the case, which needs them equal, is
    # guaranteed to match.
    spec = parse_spec(
        _RANDOM_PAIR_SIGNATURE
        + """
rule R forall a b c :
  fresh a # [c]a ;
  conclusion emit(a, b, c, b, x) -> (boutA(b, a), x) ;
order emit(p, q, p, q, x) @ boutA(q, p) = 0 ;
"""
    )
    assert check_stratification(spec).checks == (RuleCheck("R", "pass"),)
    [d] = enumerate_transitions(spec, parse_term_str(spec, "emit(a, b, a, b, null)")).derivations
    assert transition_str(d.transition) == "emit(a, b, a, b, null) -> (boutA(b, a), null)"
    assert not enumerate_transitions(spec, parse_term_str(spec, "emit(a, b, c, b, null)")).derivations


def _random_pair_spec(rng):
    """One rule over 3 or 4 schematic atoms, with 1-3 freshness conditions
    on terms built from atoms, abstractions and tuples, and 1-3 order cases
    that identify atoms by repeating a case atom or constrain them by
    `when`."""
    metas = "abcd"[: rng.choice((3, 4))]

    def term(depth):
        r = rng.random()
        if depth == 0 or r < 0.3:
            return rng.choice(metas)
        if r < 0.7:
            return f"[{rng.choice(metas)}]{term(depth - 1)}"
        return "(" + ", ".join(term(depth - 1) for _ in range(rng.choice((2, 3)))) + ")"

    fresh = "".join(f"  fresh {rng.choice(metas)} # {term(3)} ;\n" for _ in range(rng.randint(1, 3)))
    args = [rng.choice(metas) for _ in range(4)]
    lines = [
        f"rule R forall {' '.join(metas)} :\n{fresh}"
        f"  conclusion emit({', '.join(args)}, x) -> (boutA({args[0]}, {args[1]}), x) ;"
    ]
    for _ in range(rng.randint(1, 3)):
        head = [rng.choice("pqrs") for _ in range(4)]
        used = sorted(set(head))
        when = []
        if len(used) > 1:
            for _ in range(rng.randint(0, 2)):
                u, v = rng.sample(used, 2)
                when.append(f"{u} {rng.choice(('=', '!='))} {v}")
        guard = " when " + ", ".join(when) if when else ""
        lines.append(f"order emit({', '.join(head)}, x) @ boutA({head[0]}, {head[1]}){guard} = 0 ;")
    return _RANDOM_PAIR_SIGNATURE + "\n".join(lines)


def test_pair_decision_agrees_with_partition_oracle():
    # On every label instance of the corpus, the pinned edits, R and seeded
    # one-rule specs, the cases `case_matches` finds and their guarantees
    # are those of all pairs decided jointly over every consistent map.
    rng = random.Random(5)
    texts = [*_pinned_texts(), _PAIR_TRAP] + [_random_pair_spec(rng) for _ in range(50)]
    flags = Counter()
    for text in texts:
        spec = parse_spec(text)
        assert not validate_spec(spec), text
        for rule in spec.rules:
            for inst in label_instances(spec, rule):
                got = [(m.case, m.guaranteed) for m in case_matches(spec, inst)[0]]
                assert got == _reference_case_matches(spec, inst), (describe(inst), text)
                flags.update(g for _, g in got)
    assert flags[True] and flags[False]


def _exporting_state(rng, depth):
    """A pi process over a, b and c, biased to export a bound name:
    `new([b]out(a, b, ...))` is one of its six shapes."""
    if depth == 0:
        return "null"
    x, y = rng.sample("abc", 2) if rng.random() < 0.7 else rng.choice("abc") * 2
    shapes = (
        lambda: f"out({x}, {y}, {_exporting_state(rng, depth - 1)})",
        lambda: f"new([{y}]{_exporting_state(rng, depth - 1)})",
        lambda: f"new([{y}]out({x}, {y}, {_exporting_state(rng, depth - 1)}))",
        lambda: f"par({_exporting_state(rng, depth - 1)}, {_exporting_state(rng, depth - 1)})",
        lambda: f"sum({_exporting_state(rng, depth - 1)}, {_exporting_state(rng, depth - 1)})",
        lambda: f"in({x}, [{y}]{_exporting_state(rng, depth - 1)})",
    )
    return rng.choice(shapes)()


def test_stratification_promise_holds_on_derived_trees(pi_spec, pi_broken_spec):
    # Stratification promises an order that is defined on every transition
    # whose label binds a name and that decreases from a node to its
    # premises. Both specs pass it; every derived tree must keep the promise.
    for spec in (pi_spec, pi_broken_spec):
        assert check_stratification(spec).passed
        rng = random.Random(1)

        def order(tree):
            label, _ = spec.split_residual(tree.transition.residual)
            return strat_eval(spec, tree.transition.state, label), bn_eval(spec, label)

        trees = []
        for _ in range(60):
            state = parse_term_str(spec, _exporting_state(rng, 4))
            trees += [d.tree for d in enumerate_transitions(spec, state).derivations]
        binding = 0
        while trees:
            tree = trees.pop()
            value, bound = order(tree)
            if bound:
                binding += 1
                assert value is not None, tree_text(tree)
            for child in tree.children:
                child_value, _ = order(child)
                if value is not None and child_value is not None:
                    assert child_value < value, tree_text(tree)
                trees.append(child)
        assert binding >= 50


def test_stratification_promise_holds_on_seeded_specs():
    # On 50 seeded one-rule specs that pass stratification, the order is
    # defined on every transition whose label binds a name, over every emit
    # state of a, b and c.
    rng = random.Random(5)
    passing = binding = 0
    while passing < 50:
        spec = parse_spec(_random_pair_spec(rng))
        if not check_stratification(spec).passed:
            continue
        passing += 1
        for args in itertools.product("abc", repeat=4):
            state = parse_term_str(spec, f"emit({', '.join(args)}, null)")
            for d in enumerate_transitions(spec, state).derivations:
                label, _ = spec.split_residual(d.transition.residual)
                if bn_eval(spec, label):
                    binding += 1
                    assert strat_eval(spec, d.transition.state, label) is not None, transition_str(d.transition)
    assert binding >= 300
