"""Canonical forms and alpha-equivalence, checked against a brute-force
rebinding oracle and the interpretation laws for moderated terms."""

import random

from nomsos import (
    Abs,
    App,
    Atm,
    Permutation,
    Susp,
    Tup,
    alpha_eq,
    act,
    app,
    normalize,
    nt_fresh,
    nt_support,
)

from conftest import (
    atoms,
    oracle_alpha,
    random_perm,
    random_state,
    random_term,
)


def test_canonical_binder_is_least_available():
    a, b, c = atoms(3)
    # [c]out(a, c, null): the least atom not free in the body is b
    t = Abs(c, app("out", Atm(a), Atm(c), app("null")))
    assert normalize(t) == Abs(b, app("out", Atm(a), Atm(b), app("null")))


def _subterms(t):
    yield t
    match t:
        case Abs(_, s) | App(_, s):
            yield from _subterms(s)
        case Tup(items):
            for s in items:
                yield from _subterms(s)


def test_normalize_idempotent(pi_spec):
    # and local: every subterm of a normal form is a normal form, and so are
    # tuples and applications of normal forms
    rng = random.Random(23)
    for _ in range(300):
        t = random_term(rng, pi_spec, susp=True)
        n = normalize(t)
        assert normalize(n) == n
        m = normalize(random_term(rng, pi_spec, susp=True))
        assert normalize(Tup((n, m))) == Tup((n, m))
        assert normalize(App("rep", n)) == App("rep", n)
        for sub in _subterms(n):
            assert normalize(sub) == sub


def test_normalize_discharges_suspensions():
    a, b = atoms(2)
    t = Susp(Permutation.swap(a, b), app("out", Atm(a), Atm(b), app("null")))
    assert normalize(t) == app("out", Atm(b), Atm(a), app("null"))


def test_shadowing():
    a, b, c = atoms(3)
    s = Abs(a, Abs(a, Atm(a)))
    t = Abs(b, Abs(c, Atm(c)))
    assert alpha_eq(s, t)
    assert not alpha_eq(s, Abs(b, Abs(c, Atm(b))))


def test_alpha_eq_agrees_with_oracle_random(pi_spec):
    rng = random.Random(29)
    hits = 0
    for _ in range(400):
        s = random_state(rng, pi_spec)
        t = random_state(rng, pi_spec)
        expected = oracle_alpha(s, t)
        assert alpha_eq(s, t) == expected
        hits += expected
        # alpha-variants made by swapping a binder must stay equivalent
        n = normalize(s)
        assert alpha_eq(s, n) and oracle_alpha(s, n)


def test_interpretation_of_moderated_terms(pi_spec):
    """normalize(susp(p, t)) == normalize(act(p, t)), and interpretation is
    equivariant: permuting before or after taking canonical forms agrees."""
    rng = random.Random(31)
    pool = atoms(4)
    for _ in range(300):
        t = random_term(rng, pi_spec, susp=True)
        p = random_perm(rng, pool)
        assert normalize(Susp(p, t)) == normalize(act(p, t))
        assert normalize(act(p, normalize(t))) == normalize(act(p, t))


def test_support_equivariance(pi_spec):
    rng = random.Random(37)
    pool = atoms(4)
    for _ in range(200):
        t = random_state(rng, pi_spec)
        p = random_perm(rng, pool)
        assert nt_support(act(p, t)) == {p(a) for a in nt_support(t)}


def test_nt_support_ignores_bound_atoms():
    a, b = atoms(2)
    t = app("new", Abs(b, app("out", Atm(a), Atm(b), app("null"))))
    assert nt_support(t) == {a}
    assert nt_fresh(b, t)
    assert not nt_fresh(a, t)
