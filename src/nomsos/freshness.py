"""Freshness assertions a # t over raw terms: simplification to normal form,
consistency, and entailment between environments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .atoms import Atom
from .printer import assertion_str
from .terms import (
    Abs,
    App,
    Atm,
    AtomLike,
    RawTerm,
    Substitution,
    Susp,
    Tup,
    Var,
    _concrete_perm,
    subst_apply,
)
from .alpha import nt_fresh


@dataclass(frozen=True)
class Assertion:
    """A freshness assertion a # t. In a rule's side condition the atom may
    be schematic; `nf` and `entails` take concrete atoms only."""

    atom: AtomLike
    term: RawTerm

    def __str__(self) -> str:
        return assertion_str(self)


FreshnessEnv = frozenset[Assertion]


@dataclass(frozen=True)
class ReducedEnv:
    """The normal form of an environment, split into the inconsistent
    assertions (a # a) and the consistent ones (a # x)."""

    inconsistent: FreshnessEnv
    consistent: FreshnessEnv

    @property
    def all(self) -> FreshnessEnv:
        return self.inconsistent | self.consistent

    @property
    def is_consistent(self) -> bool:
        return not self.inconsistent


def _reduce_one(a: Atom, t: RawTerm) -> frozenset[Assertion]:
    """Exhaustively simplify a single assertion; the rewrite rules never mix
    assertions, so an environment's normal form is the union of these."""
    match t:
        case Atm(b):
            assert isinstance(b, Atom)
            return frozenset({Assertion(a, t)}) if b == a else frozenset()
        case Var(_):
            return frozenset({Assertion(a, t)})
        case Susp(p, s):
            return _reduce_one(_concrete_perm(p).inverse()(a), s)
        case Abs(b, s):
            assert isinstance(b, Atom)
            if b == a:
                return frozenset()
            return _reduce_one(a, s)
        case Tup(items):
            out: frozenset[Assertion] = frozenset()
            for s in items:
                out |= _reduce_one(a, s)
            return out
        case App(_, s):
            return _reduce_one(a, s)
    raise TypeError(f"not a raw term: {t!r}")


def nf(nabla: Iterable[Assertion]) -> ReducedEnv:
    """Unique normal form of a freshness environment."""
    reduced: frozenset[Assertion] = frozenset()
    for assertion in nabla:
        reduced |= _reduce_one(assertion.atom, assertion.term)
    bad = frozenset(r for r in reduced if isinstance(r.term, Atm))
    return ReducedEnv(inconsistent=bad, consistent=reduced - bad)


def is_consistent(nabla: Iterable[Assertion]) -> bool:
    return nf(nabla).is_consistent


def entails(nabla: Iterable[Assertion], nabla2: Iterable[Assertion]) -> bool:
    """nabla |- nabla2: nabla is inconsistent, or nf(nabla2) is included in
    nf(nabla)."""
    left = nf(nabla)
    if not left.is_consistent:
        return True
    return nf(nabla2).all <= left.all


def tautology(nabla: Iterable[Assertion]) -> bool:
    """|- nabla, i.e. the empty environment entails nabla."""
    return entails(frozenset(), nabla)


def holds_ground(a: Atom, v: RawTerm, phi: Substitution) -> bool:
    """Whether a # NT[[phi(v)]] holds, for phi grounding v."""
    return nt_fresh(a, subst_apply(phi, v))
