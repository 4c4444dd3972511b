"""Canonical forms and alpha-equivalence, checked against a brute-force
rebinding oracle and the interpretation laws for moderated terms."""

import random

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
    alpha_eq,
    act,
    app,
    normalize,
    nt_fresh,
    nt_support,
    enumerate_transitions,
    parse_spec,
)
from nomsos import alpha
from nomsos.alpha import _close, _free_atoms, _rename, _swap, builder, search_memo
from nomsos.atoms import PermutationError, fresh_atoms
from nomsos.matching import MatchState
from nomsos.terms import perm_of

from conftest import (
    CH,
    PR,
    atoms,
    memo_closed,
    oracle_alpha,
    oracle_free_atoms,
    random_perm,
    random_state,
    random_swaps,
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
    t = Susp(((a, b),), app("out", Atm(a), Atm(b), app("null")))
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
        swaps = random_swaps(rng, pool)
        p = Permutation.from_swaps(swaps)
        assert normalize(Susp(swaps, t)) == normalize(act(p, t))
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


# --- the kernel over two atom sorts --------------------------------------------

LOC = AtomSort("loc")

TWO_SORTS = parse_spec(
    """
    atomsort ch loc ;
    basesort pr ;
    statesort pr ;
    residualsort pr ;
    func nil : 1 -> pr ;
    func go : ch * loc * pr -> pr ;
    func nu : [ch]pr -> pr ;
    func at : [loc][ch](ch * loc * pr) -> pr ;
    func two : pr * pr -> pr ;
    """
)

TWO_SORT_POOL = [Atom(sort, i) for sort in (CH, LOC) for i in range(3)]


def _sorted_swaps(rng: random.Random) -> tuple[tuple[Atom, Atom], ...]:
    """Up to five sort-preserving transpositions over three atoms of each
    sort, so atoms repeat across them and a swap may fix its atom."""
    swaps = []
    for _ in range(rng.randrange(6)):
        sort = rng.choice((CH, LOC))
        swaps.append((Atom(sort, rng.randrange(3)), Atom(sort, rng.randrange(3))))
    return tuple(swaps)


def _two_sort_cases(seed: int, n: int):
    rng = random.Random(seed)
    for _ in range(n):
        t = random_term(rng, TWO_SORTS, depth=5, pool=TWO_SORT_POOL)
        yield t, _sorted_swaps(rng)


def _shadowing():
    """Terms where a binder shadows another or binds one sort only, each with
    its free atoms."""
    a, b = atoms(2)
    l0, l1 = Atom(LOC, 0), Atom(LOC, 1)
    return [
        (Abs(a, Abs(a, Atm(a))), set()),  # [a][a]a
        (Abs(a, Tup((Atm(a), Abs(a, Atm(b))))), {b}),  # [a](a, [a]b)
        (Tup((Abs(a, Atm(a)), Atm(a))), {a}),  # a binder scopes over its body only
        (Abs(a, Atm(l0)), {l0}),  # a binder binds atoms of its own sort only
        # [l0][a](a, l0, l1, [l1](l1, b)): binders of two sorts nested
        (
            Abs(l0, Abs(a, Tup((Atm(a), Atm(l0), Atm(l1), Abs(l1, Tup((Atm(l1), Atm(b)))))))),
            {l1, b},
        ),
    ]


def test_free_atoms_agree_with_the_recursive_definition(pi_spec):
    # The kernel's iterative walk against the textbook recursion
    # (`oracle_free_atoms`), on raw and canonical terms of both signatures.
    rng = random.Random(47)
    terms = [random_state(rng, pi_spec) for _ in range(300)]
    terms += [t for t, _ in _two_sort_cases(53, 300)]
    terms += [normalize(t) for t in terms]
    a, b = atoms(2)
    for t in terms:
        assert _free_atoms(t) == oracle_free_atoms(t)
    for t, free in _shadowing():
        assert _free_atoms(t) == oracle_free_atoms(t) == free
    # Both kernel walks take canonical terms only.
    x = Var(Variable("x", PR))
    for bad in (x, Susp(((a, b),), app("null"))):
        for t in (bad, app("par", app("null"), Abs(a, bad))):
            with pytest.raises(TypeError):
                _free_atoms(t)
            with pytest.raises(TypeError):
                _rename({a: b, b: a}, t)


def test_the_search_memo_agrees_with_the_plain_walk(pi_spec):
    # Inside a search the kernel answers from its memo; every answer must be
    # the one the walk gives outside a search. Canonical pi.spec states and
    # their residuals, two-sort terms and the shadowing cases; each body is
    # closed under its own binder, an atom free in it and an atom of the
    # other sort, and under the first two with the swap of both.
    rng = random.Random(59)
    states = [normalize(random_state(rng, pi_spec)) for _ in range(40)]
    terms = [*states, *(normalize(t) for t, _ in _two_sort_cases(61, 200))]
    terms += [normalize(t) for t, _ in _shadowing()]
    for s in states[:20]:
        terms += [d.transition.residual for d in enumerate_transitions(pi_spec, s).derivations]
    assert memo_closed()
    subterms = [u for t in terms for u in _subterms(t)]
    closes = []
    # A binder swap: the abstraction's binder with an atom free in its body,
    # an atom with itself, and atoms of each sort under any binder.
    swaps = [(a, b, u) for u in subterms for a, b in _SWAPS]
    for u in subterms:
        if type(u) is Abs:
            a = u.binder
            x = min(_free_atoms(u.body) - {a}, default=Atom(a.sort, 7))
            if x.sort == a.sort:
                closes += [({a: x, x: a}, a, u.body), ({a: x, x: a}, x, u.body)]
                swaps += [(a, x, u.body), (x, a, u.body)]
            other = Atom(LOC if a.sort == CH else CH, 0)
            closes += [({}, c, u.body) for c in (a, x, other)]

    def walks():
        return (
            [_free_atoms(u) for u in subterms],
            [_close(*c) for c in closes],
            [_swap(*s) for s in swaps],
        )

    plain = walks()
    assert plain[2] == [_rename({a: b, b: a}, t) for a, b, t in swaps]
    with search_memo():
        for _ in range(2):  # the first round fills the memo, the second reads it
            memo = walks()
            assert memo == plain
        assert all(_free_atoms(u) is alpha._free_memo[u] for u in subterms)
        assert alpha._close_memo and all(
            _close(*c) is alpha._close_memo[c[1:]] for c in closes if not c[0]
        )
        assert all(_swap(*s) is alpha._swap_memo[s] for s in swaps)
    assert memo_closed()
    # A free-atom set, memoised or not, cannot be changed by its caller.
    for free in [*plain[0], *memo[0]]:
        assert type(free) is frozenset


_SWAPS = [
    (Atom(CH, 0), Atom(CH, 1)),
    (Atom(CH, 1), Atom(CH, 1)),
    (Atom(LOC, 0), Atom(LOC, 2)),
]


def _nodes_are_well_formed(t) -> None:
    """Each node of a canonical term, and each atom in it, is a node or atom
    of its type's arity, equal to what its public constructor builds."""
    todo = [t]
    while todo:
        n = todo.pop()
        kind = type(n)
        assert kind in (App, Tup, Atm, Abs, Atom), n
        assert len(n) == len(kind._fields) and n == kind(*n), n
        if kind is App:
            todo.append(n.arg)
        elif kind is Tup:
            todo += n.items
        elif kind is Atm:
            todo.append(n.atom)
        elif kind is Abs:
            todo += [n.binder, n.body]


def test_the_kernel_builds_well_formed_nodes(pi_spec):
    # The kernel builds nodes by `tuple.__new__(Cls, fields)`, which checks
    # no arity: `tuple.__new__(Tup, items)` without the wrapping 1-tuple
    # would build a Tup with one field per item. Every node that
    # `normalize`, `_rename`, `_close`, `_swap` and a rule's builders return
    # must be the node the public constructors build.
    rng = random.Random(67)
    states = [random_state(rng, pi_spec) for _ in range(60)]
    cases = [(t, ()) for t in states] + list(_two_sort_cases(71, 200))
    cases += [(t, ()) for t, _ in _shadowing()]
    built = []
    for t, perm in cases:
        n = normalize(t)
        built += [n, _rename(perm_of(perm).image, n)]
        for u in _subterms(n):
            built += [_swap(a, b, u) for a, b in _SWAPS]
            if type(u) is Abs:
                a = u.binder
                x = min(_free_atoms(u.body) - {a}, default=Atom(a.sort, 7))
                built += [_close({}, x, u.body), _close({a: x, x: a}, a, u.body)]
    # Each rule's builders, at the bindings of every node of every tree.
    trees = [d.tree for s in states[:30] for d in enumerate_transitions(pi_spec, s).derivations]
    while trees:
        tree = trees.pop()
        trees += tree.children
        rule = pi_spec.rule(tree.rule_name)
        metas, subst = dict(tree.atoms), dict(tree.subst)
        made = [builder(p)(metas, subst) for p in rule.terms()]
        assert made[1] == tree.transition.residual
        built += made
    assert len(built) > 5000
    for n in built:
        _nodes_are_well_formed(n)
    for a in fresh_atoms(CH, [Atom(CH, 1)], 3):
        _nodes_are_well_formed(a)
    state = MatchState().with_meta("a", Atom(CH, 0)).with_var(Variable("x", PR), built[0])
    assert type(state) is MatchState and len(state) == 2 and state == MatchState(*state)
    assert state.metas == {"a": Atom(CH, 0)} and state.subst == {Variable("x", PR): built[0]}
    assert MatchState() == ({}, {})  # the shared defaults stay empty


def test_kernel_move_is_the_action_over_two_sorts():
    # Moving a canonical term by an atom map agrees with acting on it and
    # normalising, binders of both sorts nested.
    rebound = 0
    for t, swaps in _two_sort_cases(41, 400):
        n = normalize(t)
        p = perm_of(swaps)
        moved = _rename(p.image, n)
        assert moved == normalize(act(p, n))
        rebound += moved != act(p, n)
    assert rebound  # some moves had to pick a new binder


def test_kernel_suspension_is_the_action_over_two_sorts():
    # A swap list composed into a map, leftmost swap applied last, is the
    # permutation `perm_of` builds from it.
    c = Atom(CH, 0)
    for t, swaps in _two_sort_cases(43, 400):
        p = perm_of(swaps)
        assert normalize(Susp(swaps, t)) == normalize(act(p, t))
        # and the reversed list is its inverse: p·[c](p^-1·t) is [p(c)]t
        nested = Susp(swaps, Abs(c, Susp(tuple(reversed(swaps)), t)))
        assert normalize(nested) == normalize(Abs(p(c), t))


def test_kernel_rejects_a_sort_changing_swap():
    a, loc = Atom(CH, 0), Atom(LOC, 0)
    with pytest.raises(PermutationError):
        normalize(Susp(((a, loc),), Atm(a)))
    with pytest.raises(PermutationError):
        normalize(Susp(((a, a), (loc, a)), app("nil")))
