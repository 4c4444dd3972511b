"""Pattern matching modulo alpha: every solution instantiates the pattern to
the subject, and no solution is returned twice."""

import random

from nomsos import Abs, App, Atm, Susp, Tup, Var, Variable, normalize
from nomsos.alpha import _free_atoms
from nomsos.matching import AtomPool, MatchState, match_term
from nomsos.terms import MetaAtom, meta_atoms, term_vars

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
        subject = normalize(p, metas, subst)
        pool = AtomPool(
            tuple(sorted(_free_atoms(subject) | set(metas.values()))), 1
        )
        states = match_term(p, subject, MatchState(), pool)
        assert states, p  # the instance the subject was built from
        for st in states:
            assert normalize(p, st.metas, st.subst) == subject, (p, st)
            assert st.metas.keys() == {m.name for m in meta_atoms(p)}
            assert st.subst.keys() == term_vars(p)
        for i, st in enumerate(states):
            assert st not in states[i + 1 :], (p, st)
        several += len(states) > 1
    assert several > 40
