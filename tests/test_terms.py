"""Raw terms: permutation action, raw support, substitution as a
homomorphism, and the action/substitution interplay."""

import random
from itertools import combinations

import pytest

from nomsos import (
    Abs,
    App,
    Atm,
    Atom,
    AtomSort,
    Permutation,
    Susp,
    Tup,
    Var,
    Variable,
    MetaAtom,
    act,
    app,
    is_ground,
    normalize,
    sort_check,
    subst_apply,
    support,
)
from nomsos.alpha import _free_atoms
from nomsos.atoms import AtomSortRef, BaseSort
from nomsos.terms import SortError, meta_atoms, subst_act, term_vars

from conftest import CH, PR, atoms, random_perm, random_term

X = Variable("x", PR)
Y = Variable("y", PR)


def test_tuple_equality_never_crosses_node_types():
    """Nodes are named tuples, so == is tuple equality on the fields. Nodes
    of one arity still never compare equal across types, because their
    fields never do."""
    a = Atom(CH, 0)
    m = MetaAtom("a", CH)
    v = Variable("a", AtomSortRef(CH))
    t = Atm(a)
    groups = [
        [Var(v), Atm(a), Atm(m), Tup((t,)), Tup(())],
        [Susp(((a, a),), t), Susp((), t), Abs(a, t), Abs(m, t), App("a", t)],
        [a, m, v],
    ]
    for group in groups:
        for x, y in combinations(group, 2):
            assert x != y and y != x
    assert Atm(a) == (a,)  # a node equals the plain tuple of its fields


def test_atom_sorts_stay_apart_from_nominal_sorts():
    # A nominal sort is a dataclass: as a tuple, BaseSort("x") would equal
    # AtomSort("x").
    assert AtomSort("x") != BaseSort("x")
    loc = AtomSort("loc")
    shuffled = [Atom(loc, 0), Atom(CH, 2), Atom(loc, 1), Atom(CH, 0)]
    assert sorted(shuffled) == [Atom(CH, 0), Atom(CH, 2), Atom(loc, 0), Atom(loc, 1)]


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


def test_free_atoms_of_a_deep_canonical_term():
    # Every tenth level binds c, the least atom not free below it, so the
    # term stays canonical; the kernel's walk must not recurse on depth.
    a, b, c = atoms(3)
    t = app("out", Atm(a), Atm(b), app("null"))
    for i in range(5000):
        if i % 10:
            t = App("rep", t)
        else:
            t = app("new", Abs(c, app("out", Atm(c), Atm(c), t)))
        if i == 50:
            assert normalize(t) == t
    assert _free_atoms(t) == {a, b}


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
