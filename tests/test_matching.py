"""Pattern matching modulo alpha: every solution instantiates the pattern to
the subject, and no solution is returned twice. The compiled matchers and
builders agree with the interpreted references."""

import random

import pytest

from nomsos import Abs, App, Atm, Susp, Tup, Var, Variable, normalize
from nomsos.alpha import NotGroundError, _free_atoms, builder
from nomsos.matching import AtomPool, MatchState, matcher
from nomsos.terms import MetaAtom, meta_atoms, term_vars

import interpreted
from conftest import CH, PR, atoms

METAS = [MetaAtom(f"m{i}", CH) for i in range(3)]
VARS = [Variable(f"x{i}", PR) for i in range(2)]


def _pattern(rng, depth):
    """A pattern mixing swap-list suspensions of schematic atoms,
    abstractions with schematic binders, tuples and applications."""
    roll = rng.random()
    if depth <= 0 or roll < 0.15:
        if rng.random() < 0.4:
            return Var(rng.choice(VARS))
        return Atm(rng.choice(METAS + atoms(2)))
    if roll < 0.4:
        swaps = tuple(
            (rng.choice(METAS), rng.choice(METAS + atoms(2)))
            for _ in range(rng.randrange(1, 3))
        )
        return Susp(swaps, _pattern(rng, depth - 1))
    if roll < 0.65:
        return Abs(rng.choice(METAS), _pattern(rng, depth - 1))
    if roll < 0.85:
        return Tup((_pattern(rng, depth - 1), _pattern(rng, depth - 1)))
    return App("f", _pattern(rng, depth - 1))


def _ground(rng, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        return Atm(rng.choice(atoms(4)))
    if roll < 0.55:
        return Abs(rng.choice(atoms(4)), _ground(rng, depth - 1))
    if roll < 0.8:
        return Tup((_ground(rng, depth - 1), _ground(rng, depth - 1)))
    return App("f", _ground(rng, depth - 1))


def test_match_suspension_patterns():
    rng = random.Random(17)
    several = 0
    for _ in range(250):
        p = _pattern(rng, 4)
        metas = {m.name: rng.choice(atoms(4)) for m in METAS}
        subst = {v: normalize(_ground(rng, 2)) for v in VARS}
        subject = interpreted.instance(p, metas, subst)
        pool = AtomPool(
            tuple(sorted(_free_atoms(subject) | set(metas.values()))), 1
        )
        states = matcher(p)(subject, MatchState(), pool)
        assert states, p  # the instance the subject was built from
        for st in states:
            assert interpreted.instance(p, st.metas, st.subst) == subject, (p, st)
            assert st.metas.keys() == {m.name for m in meta_atoms(p)}
            assert st.subst.keys() == term_vars(p)
        for i, st in enumerate(states):
            assert st not in states[i + 1 :], (p, st)
        several += len(states) > 1
    assert several > 40


def test_compiled_closures_agree_with_the_interpreted_references():
    # The matcher returns the interpreted matcher's solutions in the same
    # order, with and without an unobserved binder, on the subject the
    # pattern was instantiated to and on an unrelated one. The builder
    # gives the normalised instance, and raises on an unbound variable.
    rng = random.Random(23)
    solutions = unobserved_solutions = 0
    for _ in range(400):
        p = _pattern(rng, 4)
        metas = {m.name: rng.choice(atoms(4)) for m in METAS}
        subst = {v: normalize(_ground(rng, 2)) for v in VARS}
        build = builder(p)
        subject = build(metas, subst)
        assert subject == interpreted.instance(p, metas, subst), p
        if term_vars(p):
            with pytest.raises(NotGroundError):
                build(metas, {})
        other = normalize(_ground(rng, 3))
        pool = AtomPool(tuple(sorted(_free_atoms(subject) | set(metas.values()))), 1)
        binders = {t.binder for t in _subterms(p) if isinstance(t, Abs)}
        for unobserved in (frozenset(), frozenset(binders)):
            match = matcher(p, unobserved)
            for s in (subject, other):
                want = interpreted.match_term(p, s, MatchState(), pool, unobserved)
                assert match(s, MatchState(), pool) == want, (p, s, unobserved)
                solutions += len(want)
                unobserved_solutions += len(want) * bool(unobserved)
    assert solutions > 6000 and unobserved_solutions > 1000


def _subterms(t):
    yield t
    match t:
        case Susp(_, s) | Abs(_, s) | App(_, s):
            yield from _subterms(s)
        case Tup(items):
            for s in items:
                yield from _subterms(s)
