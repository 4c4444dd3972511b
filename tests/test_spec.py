"""Specification-level semantics: binding names, stratification order,
side-condition constraints."""

import random

import pytest

from nomsos import (
    act,
    bn_eval,
    instantiate,
    normalize,
    parse_term_str,
    strat_eval,
    subst_apply,
    validate_spec,
)
from nomsos import spec as spec_module
from nomsos.atoms import Atom, BaseSort
from nomsos.matching import matcher
from nomsos.spec import check_constraints
from nomsos.terms import Var, resolve, term_vars

from conftest import atoms, random_perm, random_state, random_term


def _t(spec, s):
    return parse_term_str(spec, s)


def test_validate_corpus(pi_spec):
    assert validate_spec(pi_spec) == []


def test_bn_eval(pi_spec):
    a, b = atoms(2)
    assert bn_eval(pi_spec, _t(pi_spec, "boutA(a, b)")) == frozenset({b})
    assert bn_eval(pi_spec, _t(pi_spec, "outA(a, b)")) == frozenset()
    assert bn_eval(pi_spec, _t(pi_spec, "inA(a, b)")) == frozenset()
    assert bn_eval(pi_spec, _t(pi_spec, "tauA")) == frozenset()


def test_check_constraints():
    a, b = atoms(2)
    cs = (("c", "a", False), ("c", "b", False))
    assert check_constraints(cs, {"c": b, "a": a, "b": a})
    assert not check_constraints(cs, {"c": a, "a": a, "b": b})
    assert check_constraints((("m", "n", True),), {"m": a, "n": a})


def test_order_base_cases(pi_spec):
    out = _t(pi_spec, "out(a, b, null)")
    assert strat_eval(pi_spec, out, _t(pi_spec, "outA(a, b)")) == 0
    inn = _t(pi_spec, "in(a, [c]null)")
    assert strat_eval(pi_spec, inn, _t(pi_spec, "inA(a, b)")) is None
    assert strat_eval(pi_spec, out, _t(pi_spec, "tauA")) is None
    assert strat_eval(pi_spec, out, _t(pi_spec, "boutA(a, b)")) is None


def test_order_compiles_each_clause_pattern_once_per_call(pi_spec, monkeypatch):
    # A clause's label pattern is compiled when the search reaches the
    # clause, its head pattern when the label matches, and neither again
    # within the call, however often the recursion or another clause meets
    # an equal pattern.
    compiled = []

    def counted(pat):
        compiled.append(pat)
        return matcher(pat)

    monkeypatch.setattr(spec_module, "matcher", counted)
    labels = [case.label for case in pi_spec.strat]
    patterns = labels + [case.head for case in pi_spec.strat]
    assert strat_eval(pi_spec, _t(pi_spec, "par(null, null)"), _t(pi_spec, "tauA")) is None
    assert compiled == list(dict.fromkeys(labels))
    state = _t(pi_spec, "par(sum(new([c]out(a, b, null)), null), par(rep(out(a, b, null)), null))")
    for _ in range(2):
        compiled.clear()
        assert strat_eval(pi_spec, state, _t(pi_spec, "outA(a, b)")) == 3
        assert compiled == list(dict.fromkeys(compiled)) and all(pat in patterns for pat in compiled)


def test_bn_eval_prints_a_label_that_is_not_constructor_headed(pi_spec):
    with pytest.raises(ValueError) as e:
        bn_eval(pi_spec, Var(pi_spec.variables["l"]))
    assert str(e.value) == "not a constructor-headed action: l"


def test_order_scope_opening(pi_spec):
    p = _t(pi_spec, "new([b]out(a, b, null))")
    assert strat_eval(pi_spec, p, _t(pi_spec, "boutA(a, b)")) == 1
    # the generic restriction case applies when the binder is untouched
    q = _t(pi_spec, "new([c]out(a, b, null))")
    assert strat_eval(pi_spec, q, _t(pi_spec, "outA(a, b)")) == 1
    # generic case still matches at a bound-output action when the local
    # binder differs from both action atoms; the undefined body measure
    # contributes 0
    assert strat_eval(pi_spec, q, _t(pi_spec, "boutA(a, b)")) == 1


def test_order_first_match_wins(pi_spec):
    # new([b]x) @ boutA(a,b) must hit the specific scope-opening clause,
    # measuring the body at the free-output action, not the generic
    # restriction clause (whose constraints would reject it anyway).
    p = _t(pi_spec, "new([b]new([c]out(a, b, null)))")
    assert strat_eval(pi_spec, p, _t(pi_spec, "boutA(a, b)")) == 2


def test_order_congruence_cases(pi_spec):
    par = _t(pi_spec, "par(out(a, b, null), null)")
    assert strat_eval(pi_spec, par, _t(pi_spec, "outA(a, b)")) == 1
    summ = _t(pi_spec, "sum(null, out(a, b, null))")
    assert strat_eval(pi_spec, summ, _t(pi_spec, "outA(a, b)")) == 1
    rep = _t(pi_spec, "rep(out(a, b, null))")
    assert strat_eval(pi_spec, rep, _t(pi_spec, "outA(a, b)")) == 1


def test_order_undefined_contributes_zero(pi_spec):
    # the measured subterm has no defined order at the requested action,
    # so the max over recursive calls treats it as 0
    p = _t(pi_spec, "par(null, out(a, b, null))")
    assert strat_eval(pi_spec, p, _t(pi_spec, "outA(a, b)")) == 1


def test_order_alpha_invariant(pi_spec):
    p1 = _t(pi_spec, "new([b]out(a, b, null))")
    p2 = _t(pi_spec, "new([c]out(a, c, null))")
    lab = _t(pi_spec, "boutA(a, b)")
    assert strat_eval(pi_spec, p1, lab) == strat_eval(pi_spec, p2, lab) == 1


def test_order_equivariant(pi_spec):
    # A clause's schematic atoms may take atoms outside the state and the
    # action, so the order does not depend on which atoms are named.
    p = _t(pi_spec, "new([a]sum(null, null))")
    assert strat_eval(pi_spec, p, _t(pi_spec, "outA(a, b)")) == 2
    assert strat_eval(pi_spec, p, _t(pi_spec, "outA(a, d)")) == 2
    rng = random.Random(7)
    defined = 0
    for _ in range(300):
        p = random_state(rng, pi_spec)
        lab = random_term(rng, pi_spec, BaseSort("ac"), 2, atoms(4))
        perm = random_perm(rng, atoms(6))
        n = strat_eval(pi_spec, p, lab)
        assert strat_eval(pi_spec, act(perm, p), act(perm, lab)) == n, (p, lab, perm)
        defined += n is not None
    assert defined > 20


@pytest.mark.parametrize("name", ["pi_spec", "pi_broken_spec"])
def test_rule_instance_is_instantiate_then_substitute(name, request):
    # One pass of `Rule.instance` gives each term what resolving the
    # schematic atoms and then substituting the variables gives.
    spec = request.getfixturevalue(name)
    rng = random.Random(11)
    for rule in spec.rules:
        assert rule.instance({}, {}) == rule
        variables = set().union(*map(term_vars, rule.terms()))
        for _ in range(20):
            asg = {m.name: Atom(m.sort, rng.randrange(4)) for m in rule.metas}
            subst = {
                v: normalize(random_term(rng, spec, v.sort, 2, atoms(4)))
                for v in sorted(variables)
            }
            r = rule.instance(asg, subst)
            assert (r.name, r.metas, r.label_excluded) == (
                rule.name,
                rule.metas,
                rule.label_excluded,
            )
            for t, u in zip(rule.terms(), r.terms(), strict=True):
                assert u == subst_apply(subst, instantiate(t, asg))
            assert [a.atom for a in r.env] == [resolve(a.atom, asg) for a in rule.env]


# One-line edits of pi.spec and the full report `validate_spec` gives each.
_INVALID = [
    ("rule Out forall a b :", "rule In forall a b :", ["duplicate rule name: In"]),
    (
        "conclusion out(a,b,x) -> (outA(a,b), x) ;",
        "conclusion outA(a,b) -> (outA(a,b), x) ;",
        [
            "rule Out: conclusion source has sort ac, expected state sort",
            "rule Out: conclusion target mentions unbindable x",
        ],
    ),
    (
        "conclusion out(a,b,x) -> (outA(a,b), x) ;",
        "conclusion out(a,b,x) -> x ;",
        [
            "rule Out: conclusion target has sort pr, expected residual sort",
            "rule Out: residual is not a (label, target) pair: out(a, b, x) -> x",
        ],
    ),
    (
        "conclusion out(a,b,x) -> (outA(a,b), x) ;",
        "conclusion out(a,x,x) -> (outA(a,b), x) ;",
        ["rule Out: conclusion: out: argument has sort ch * pr * pr, expected ch * ch * pr"],
    ),
    (
        "conclusion sum(x1,x2) -> (l, y1) ;",
        "conclusion sum(x1,x2) -> (x1, y1) ;",
        [
            "rule SumL: conclusion target has sort pr * pr, expected residual sort",
            "rule SumL: label variable x1 is not action-sorted",
        ],
    ),
    (
        "conclusion rep(x) -> (l, par(y, rep(x))) ;",
        "conclusion rep(x) -> (((a b))*l, par(y, rep(x))) ;",
        ["rule Rep: action must be ground: ((a b))*l in rep(x) -> (((a b))*l, par(y, rep(x)))"],
    ),
    (
        "premise x1 -> (boutA(a,b), y1) ;\n  fresh b # x2 ;",
        "premise x1 -> (boutA(a,((a b))*a), y1) ;\n  fresh b # x2 ;",
        ["rule ParResL: premise 1: binding position 2 of boutA is not an atom: ((a b))*a"],
    ),
    (
        "conclusion new([b]x) -> (boutA(a,b), y) ;",
        "conclusion new([b]x) -> (boutA(a,((a b))*a), y) ;",
        ["rule Open: conclusion: binding position 2 of boutA is not an atom: ((a b))*a"],
    ),
    (
        "fresh b # a ;",
        "fresh b # out(a) ;",
        ["rule Open: freshness assertion: out: argument has sort ch, expected ch * ch * pr"],
    ),
    (
        "premise x -> (outA(a,b), y) ;",
        "premise x1 -> (outA(a,b), y) ;",
        ["rule Open: unschedulable premise 1: unbound x1"],
    ),
    (
        "conclusion out(a,b,x) -> (outA(a,b), x) ;",
        "conclusion out(a,b,x) -> (outA(a,b), y) ;",
        ["rule Out: conclusion target mentions unbindable y"],
    ),
    (
        "fresh b # x2 ;\n  conclusion par(x1,x2) -> (boutA(a,b), par(y1,x2)) ;",
        "fresh b # y2 ;\n  conclusion par(x1,x2) -> (boutA(a,b), par(y1,x2)) ;",
        ["rule ParResL: freshness assertion mentions unbindable y2"],
    ),
    (
        "rule ParL :\n  label l notin { boutA } ;",
        "rule ParL :\n  label x notin { boutA } ;",
        ["rule ParL: label constraint on non-action variable x"],
    ),
    (
        "rule ParL :\n  label l notin { boutA } ;",
        "rule ParL :\n  label l notin { null, nosuch } ;",
        [
            "rule ParL: label constraint names non-action constructor null",
            "rule ParL: label constraint names non-action constructor nosuch",
        ],
    ),
    ("bn boutA = { 2 } ;", "bn nosuch = { 2 } ;", ["bn: unknown constructor nosuch"]),
    (
        "bn boutA = { 2 } ;",
        "bn boutA = { 0, 3 } ;",
        ["bn: boutA has no argument position 0", "bn: boutA has no argument position 3"],
    ),
    ("bn boutA = { 2 } ;", "bn out = { 3 } ;", ["bn: position 3 of out is not of atom sort"]),
    (
        "order out(a,b,x) @ outA(a,b) = 0 ;",
        "order x @ outA(a,b) = 0 ;",
        ["order clause 1: head pattern is not constructor-headed"],
    ),
    (
        "order rep(x) @ outA(a,b) = 1 + max(S(x, outA(a,b))) ;",
        "order rep(x) @ outA(a,b) = 1 + max(S(y, outA(a,b))) ;",
        ["order clause 10: recursive call on y, absent from the head pattern"],
    ),
    (
        "order new([c]x) @ outA(a,b) when c != a, c != b",
        "order new([c]x) @ outA(a,b) when c != a, c = d",
        ["order clause 4: constraint names unknown atom d"],
    ),
]


@pytest.mark.parametrize("old, new, report", _INVALID, ids=[r[2][0][:48] for r in _INVALID])
def test_validate_spec_messages(old, new, report):
    from nomsos import corpus_path, parse_spec

    text = corpus_path("pi.spec").read_text(encoding="utf-8")
    assert text.count(old) == 1
    assert validate_spec(parse_spec(text.replace(old, new))) == report


def test_validate_spec_ill_formed_state_and_residual_sorts(pi_spec):
    # The parser admits only declared sorts, so build such a spec by hand.
    from dataclasses import replace

    rsig = replace(pi_spec.rsig, state_sort=BaseSort("zz"), residual_sort=BaseSort("yy"))
    report = validate_spec(replace(pi_spec, rsig=rsig, rules=(), strat=()))
    assert report[:2] == ["state sort is ill-formed: zz", "residual sort is ill-formed: yy"]
