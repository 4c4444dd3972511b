"""Freshness environments: the six local simplification rules, confluence
of the rewrite system under random reduction orders, and entailment."""

import random

from nomsos import (
    Abs,
    App,
    Atm,
    Assertion,
    Permutation,
    Susp,
    Tup,
    Var,
    Variable,
    app,
    entails,
    is_consistent,
    nf,
    tautology,
)
from nomsos.alpha import nt_fresh
from nomsos.terms import subst_apply

from conftest import PR, atoms, random_term

X = Variable("x", PR)
Y = Variable("y", PR)
A, B, C = atoms(3)


def test_rule_atom_same():
    r = nf([Assertion(A, Atm(A))])
    assert not r.is_consistent and r.all == {Assertion(A, Atm(A))}


def test_rule_atom_other():
    assert nf([Assertion(A, Atm(B))]).all == frozenset()


def test_rule_variable_is_reduced():
    r = nf([Assertion(A, Var(X))])
    assert r.is_consistent and r.all == {Assertion(A, Var(X))}


def test_rule_suspension_moves_atom():
    assert nf([Assertion(A, Susp(((A, B),), Var(X)))]).all == {Assertion(B, Var(X))}


def test_rule_abstraction_same_binder_vanishes():
    assert nf([Assertion(A, Abs(A, Var(X)))]).all == frozenset()


def test_rule_abstraction_other_binder_descends():
    assert nf([Assertion(A, Abs(B, Var(X)))]).all == {Assertion(A, Var(X))}


def test_rule_tuple_and_constructor():
    t = app("out", Atm(A), Atm(B), Var(X))
    assert nf([Assertion(C, t)]).all == {Assertion(C, Var(X))}
    assert nf([Assertion(A, t)]).all == {
        Assertion(A, Atm(A)),
        Assertion(A, Var(X)),
    }


# --- confluence oracle ----------------------------------------------------------


def _one_step(a, t):
    """A single root rewrite of one assertion; None when already reduced."""
    match t:
        case Atm(b):
            return [] if b != a else None
        case Var(_):
            return None
        case Susp(p, s):
            return [(Permutation.from_swaps(p).inverse()(a), s)]
        case Abs(b, s):
            return [] if b == a else [(a, s)]
        case Tup(items):
            return [(a, i) for i in items]
        case App(_, arg):
            return [(a, arg)]
    raise AssertionError(t)


def slow_nf(env, rng):
    """Normalise by repeatedly rewriting a randomly chosen reducible
    assertion; must agree with nf() whatever the order."""
    work = list(env)
    out = []
    steps = 0
    while work:
        steps += 1
        assert steps < 10_000, "rewriting failed to terminate"
        i = rng.randrange(len(work))
        a, t = work.pop(i)
        reduct = _one_step(a, t)
        if reduct is None:
            out.append((a, t))
        else:
            work.extend(reduct)
    return frozenset(Assertion(a, t) for a, t in out)


def test_confluence_and_termination(pi_spec):
    rng = random.Random(41)
    for _ in range(200):
        env = [
            Assertion(
                rng.choice(atoms(3)),
                random_term(rng, pi_spec, depth=5, susp=True, variables=[X, Y]),
            )
            for _ in range(rng.randrange(1, 4))
        ]
        expected = nf(env).all
        for _ in range(10):
            assert slow_nf([(e.atom, e.term) for e in env], rng) == expected


# --- entailment ----------------------------------------------------------------


def test_entails_reflexive_and_monotone():
    env = [Assertion(A, Var(X)), Assertion(B, Var(Y))]
    assert entails(env, env)
    assert entails(env, [Assertion(A, Var(X))])
    assert not entails([Assertion(A, Var(X))], env)


def test_inconsistent_entails_anything():
    bottom = [Assertion(A, Atm(A))]
    assert not is_consistent(bottom)
    assert entails(bottom, [Assertion(B, Var(X))])


def test_tautology():
    assert tautology([Assertion(A, Atm(B))])
    assert not tautology([Assertion(A, Var(X))])


def test_nf_sound_and_complete_under_ground_valuations(pi_spec):
    """a # phi holds under a ground valuation of its variables iff every
    assertion b # y of nf([a # phi]) does: the normal form neither drops nor
    adds a condition, checked against the nominal-term freshness of the
    valued terms."""
    rng = random.Random(43)
    open_checks = 0
    for _ in range(500):
        phi = random_term(rng, pi_spec, depth=4, susp=True, variables=[X, Y])
        val = {v: random_term(rng, pi_spec, depth=3, susp=True) for v in (X, Y)}
        for a in atoms(4):
            reduced = nf([Assertion(a, phi)]).all
            expected = all(nt_fresh(r.atom, subst_apply(val, r.term)) for r in reduced)
            assert nt_fresh(a, subst_apply(val, phi)) == expected, (a, phi, val)
            open_checks += any(isinstance(r.term, Var) for r in reduced)
    assert open_checks > 500
