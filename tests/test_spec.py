"""Specification-level semantics: binding names, stratification order,
side-condition constraints."""

import random

from nomsos import act, bn_eval, parse_term_str, strat_eval, validate_spec
from nomsos.atoms import BaseSort
from nomsos.spec import check_constraints

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
