"""Raw terms: permutation action, raw support, substitution as a
homomorphism, and the action/substitution interplay."""

import random

import pytest

from nomsos import (
    Abs,
    App,
    Atm,
    Atom,
    Permutation,
    Susp,
    Tup,
    Var,
    Variable,
    MetaAtom,
    act,
    app,
    is_ground,
    sort_check,
    subst_apply,
    support,
)
from nomsos.terms import SortError, meta_atoms, subst_act, term_vars

from conftest import CH, PR, atoms, random_perm, random_term

X = Variable("x", PR)
Y = Variable("y", PR)


def test_action_on_variable_is_identity():
    p = Permutation.swap(Atom(CH, 0), Atom(CH, 1))
    assert act(p, Var(X)) == Var(X)


def test_action_on_suspension_conjugates():
    a, b, c = atoms(3)
    inner = ((b, c),)
    outer = Permutation.swap(a, b)
    moved = act(outer, Susp(inner, Var(X)))
    assert isinstance(moved, Susp) and moved.term == Var(X)
    conjugate = outer.conjugate(Permutation.from_swaps(inner))
    assert Permutation.from_swaps(moved.perm) == conjugate


def test_action_is_group_action(pi_spec):
    rng = random.Random(11)
    pool = atoms(4)
    for _ in range(100):
        t = random_term(rng, pi_spec, susp=True, variables=[X, Y])
        p = random_perm(rng, pool)
        q = random_perm(rng, pool)
        assert act(Permutation.identity(), t) == t
        assert act(p, act(q, t)) == act(p.compose(q), t)


def test_raw_support_counts_binders():
    a, b, c = atoms(3)
    t = Abs(a, App("out", Tup((Atm(a), Atm(b), app("null")))))
    assert support(t) == {a, b}
    assert support(Susp(((b, c),), t)) == {a, b, c}


def test_raw_support_includes_permutation():
    a, b, c = atoms(3)
    t = Susp(((a, b),), app("null"))
    assert support(t) == {a, b}
    assert support(app("par", t, Susp(((b, c),), Var(X)))) == {a, b, c}
    # the transpositions as written, even when they cancel out
    assert support(Susp(((a, b), (a, b)), app("null"))) == {a, b}
    mixed = Susp(((a, MetaAtom("m", CH)),), Atm(MetaAtom("m", CH)))
    assert support(mixed) == {a}


def test_collectors_on_a_rule_pattern(pi_spec):
    """The conclusion target of In, (inA(a,b), ((c b))*x), has only
    schematic atoms: its swap list is kept as written."""
    rule = next(r for r in pi_spec.rules if r.name == "In")
    target = rule.conclusion.target
    assert {m.name for m in meta_atoms(target)} == {"a", "b", "c"}
    assert support(target) == frozenset()
    assert term_vars(target) == {X}


def test_collectors_on_a_deep_term():
    a, b = atoms(2)
    t = app("out", Atm(a), Atm(b), Var(X))
    for _ in range(5000):
        t = App("rep", t)
    assert support(t) == {a, b}
    assert term_vars(t) == {X}


def test_substitution_permits_capture():
    a, b = atoms(2)
    body = Abs(a, Var(X))
    out = subst_apply({X: Atm(a)}, body)
    assert out == Abs(a, Atm(a))  # the binder is not renamed


def test_substitution_below_suspension_is_delayed():
    a, b = atoms(2)
    p = ((a, b),)
    t = Susp(p, Var(X))
    assert subst_apply({X: Atm(a)}, t) == Susp(p, Atm(a))


def test_subst_and_action_commute(pi_spec):
    """act(p, phi(t)) == (p . phi)(act(p, t)) on random triples."""
    rng = random.Random(13)
    pool = atoms(4)
    for _ in range(200):
        t = random_term(rng, pi_spec, susp=True, variables=[X, Y])
        phi = {
            X: random_term(rng, pi_spec, susp=True, variables=[Y]),
            Y: random_term(rng, pi_spec, susp=True),
        }
        p = random_perm(rng, pool)
        assert act(p, subst_apply(phi, t)) == subst_apply(
            subst_act(p, phi), act(p, t)
        )


def test_extension_of_substitution_is_equivariant(pi_spec):
    """p . extend(phi) == extend(p . phi) as functions on raw terms."""
    rng = random.Random(17)
    pool = atoms(4)
    for _ in range(200):
        t = random_term(rng, pi_spec, susp=True, variables=[X, Y])
        phi = {X: random_term(rng, pi_spec), Y: random_term(rng, pi_spec)}
        p = random_perm(rng, pool)
        left = act(p, subst_apply(phi, act(p.inverse(), t)))
        right = subst_apply(subst_act(p, phi), t)
        assert left == right


def test_sort_check_accepts_corpus_terms(pi_spec):
    rng = random.Random(19)
    for _ in range(50):
        t = random_term(rng, pi_spec, susp=True, variables=[X])
        assert sort_check(pi_spec.signature, t) == PR


def test_sort_check_rejects_bad_arity(pi_spec):
    a, b = atoms(2)
    with pytest.raises(SortError):
        sort_check(pi_spec.signature, App("out", Tup((Atm(a), Atm(b)))))


def test_is_ground(pi_spec):
    assert is_ground(app("null"))
    assert not is_ground(Var(X))
