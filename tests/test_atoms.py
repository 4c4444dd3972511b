"""Permutations: group laws, transposition decomposition, fresh atom
supply."""

import random

import pytest
from hypothesis import given, strategies as st

from nomsos import Atom, AtomSort, Permutation, fresh_atoms
from nomsos.atoms import PermutationError
from nomsos.terms import MetaAtom, perm_of

CH = AtomSort("ch")
LOC = AtomSort("loc")


def swap_lists(pool_size=5, max_swaps=4):
    atom = st.integers(0, pool_size - 1).map(lambda i: Atom(CH, i))
    return st.lists(st.tuples(atom, atom), max_size=max_swaps)


def perms(pool_size=5, max_swaps=4):
    return swap_lists(pool_size, max_swaps).map(Permutation.from_swaps)


@given(perms(), perms(), perms())
def test_compose_associative(p, q, r):
    assert p.compose(q).compose(r) == p.compose(q.compose(r))


@given(perms())
def test_inverse_cancels(p):
    ident = Permutation.identity()
    assert p.compose(p.inverse()) == ident
    assert p.inverse().compose(p) == ident


@given(perms(), st.integers(0, 6))
def test_compose_is_function_composition(p, i):
    q = Permutation.swap(Atom(CH, 0), Atom(CH, 3))
    a = Atom(CH, i)
    assert p.compose(q)(a) == p(q(a))


@given(perms())
def test_decompose_recompose(p):
    swaps = []
    q = p
    # peel the permutation one transposition at a time
    while not q.is_identity:
        a = min(q.support())
        swaps.append((q(a), a))
        q = Permutation.swap(q(a), a).compose(q)
    assert Permutation.from_swaps(swaps) == p


@given(perms())
def test_support_is_moved_atoms(p):
    assert p.support() == frozenset(a for a in p.support() if p(a) != a)
    for i in range(8):
        a = Atom(CH, i)
        if a not in p.support():
            assert p(a) == a


def test_sort_preservation():
    p = Permutation.swap(Atom(CH, 0), Atom(CH, 1))
    assert p(Atom(LOC, 0)) == Atom(LOC, 0)


def test_fresh_atoms_deterministic_and_fresh():
    avoid = [Atom(CH, 0), Atom(CH, 2)]
    got = fresh_atoms(CH, avoid, 3)
    assert got == [Atom(CH, 1), Atom(CH, 3), Atom(CH, 4)]
    assert fresh_atoms(CH, avoid, 3) == got


def test_conjugate():
    rng = random.Random(7)
    pool = [Atom(CH, i) for i in range(5)]
    for _ in range(50):
        swaps = [tuple(rng.sample(pool, 2)) for _ in range(3)]
        p = Permutation.from_swaps(swaps[:2])
        q = Permutation.from_swaps(swaps[1:])
        conj = p.conjugate(q)
        for a in pool:
            assert conj(a) == p(q(p.inverse()(a)))


@given(swap_lists(), swap_lists())
def test_equal_maps_are_equal_and_hash_alike(xs, ys):
    # One permutation built by `of`, `from_swaps`, `compose` and `inverse`,
    # its map filled in different orders.
    p = Permutation.from_swaps(xs + ys)
    built = [
        Permutation.from_swaps(xs).compose(Permutation.from_swaps(ys)),
        Permutation.of(dict(reversed(list(p.image.items())))),
        Permutation.of({Atom(CH, i): p(Atom(CH, i)) for i in (4, 2, 0, 3, 1, 5)}),
        Permutation.from_swaps([(b, a) for a, b in reversed(xs + ys)]).inverse(),
        p.inverse().inverse(),
    ]
    for q in built:
        assert q == p and hash(q) == hash(p)
        assert q.image == p.image and all(a != b for a, b in q.image.items())
    assert (p == Permutation.identity()) == p.is_identity


@given(swap_lists(max_swaps=6), st.integers(0, 4), st.integers(0, 4))
def test_reversed_swap_list_is_the_inverse(swaps, i, j):
    # Schematic atoms resolve through `metas` before the swaps compose.
    x, y = MetaAtom("x", CH), MetaAtom("y", CH)
    metas = {"x": Atom(CH, i), "y": Atom(CH, j)}
    pattern = [(x, y), *swaps, (y, x)]
    p = perm_of(pattern, metas)
    assert p == Permutation.from_swaps([(metas["x"], metas["y"]), *swaps, (metas["y"], metas["x"])])
    assert perm_of(reversed(pattern), metas) == p.inverse()


def test_from_swaps_keeps_sorts():
    a, b, loc = Atom(CH, 0), Atom(CH, 1), Atom(LOC, 0)
    for swaps in ([(a, loc)], [(a, b), (loc, a)], [(loc, loc), (b, loc)]):
        with pytest.raises(PermutationError, match="does not preserve sorts"):
            Permutation.from_swaps(swaps)
    with pytest.raises(PermutationError):
        Permutation.swap(loc, a)
