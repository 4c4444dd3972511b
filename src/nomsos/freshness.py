"""Freshness assertions a # t over raw terms: simplification to normal form,
consistency, and entailment between environments.

`reduce(a, t)` is the unit: it simplifies one assertion exhaustively, to a
set of assertions a # x on variables (consistent) and a # a (inconsistent).
The rewrite rules never mix assertions, so the normal form of an
environment is the union of the reductions of its assertions (`reduce_all`).
`nf` is that union, split by consistency, and `entails` compares two such
unions with `entails_reduced`. A caller that decides many entailments over
the same assertions reduces each of them once, unions the sets itself and
decides on them with `entails_reduced` and `is_consistent_reduced`."""

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
    Susp,
    Tup,
    Var,
    perm_of,
)


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


def reduce(a: Atom, t: RawTerm) -> frozenset[Assertion]:
    """Exhaustively simplify the single assertion a # t."""
    match t:
        case Atm(b):
            assert isinstance(b, Atom)
            return frozenset({Assertion(a, t)}) if b == a else frozenset()
        case Var(_):
            return frozenset({Assertion(a, t)})
        case Susp(p, s):
            return reduce(perm_of(p).inverse()(a), s)
        case Abs(b, s):
            assert isinstance(b, Atom)
            if b == a:
                return frozenset()
            return reduce(a, s)
        case Tup(items):
            out: frozenset[Assertion] = frozenset()
            for s in items:
                out |= reduce(a, s)
            return out
        case App(_, s):
            return reduce(a, s)
    raise TypeError(f"not a raw term: {t!r}")


def reduce_all(nabla: Iterable[Assertion]) -> frozenset[Assertion]:
    """The union of the reductions of the assertions of an environment."""
    return frozenset().union(*(reduce(x.atom, x.term) for x in nabla))


def nf(nabla: Iterable[Assertion]) -> ReducedEnv:
    """Unique normal form of a freshness environment."""
    reduced = reduce_all(nabla)
    bad = frozenset(r for r in reduced if isinstance(r.term, Atm))
    return ReducedEnv(inconsistent=bad, consistent=reduced - bad)


def is_consistent(nabla: Iterable[Assertion]) -> bool:
    return nf(nabla).is_consistent


def entails(nabla: Iterable[Assertion], nabla2: Iterable[Assertion]) -> bool:
    """nabla |- nabla2: nabla is inconsistent, or nf(nabla2) is included in
    nf(nabla)."""
    return entails_reduced(reduce_all(nabla), reduce_all(nabla2))


def is_consistent_reduced(reduced: frozenset[Assertion]) -> bool:
    """A reduced set (a union of `reduce`) is consistent unless it holds
    some a # a."""
    return not any(isinstance(r.term, Atm) for r in reduced)


def entails_reduced(left: frozenset[Assertion], right: frozenset[Assertion]) -> bool:
    """The entailment between two reduced sets: right is included in left,
    or left is inconsistent."""
    return right <= left or not is_consistent_reduced(left)


def tautology(nabla: Iterable[Assertion]) -> bool:
    """|- nabla, i.e. the empty environment entails nabla."""
    return entails(frozenset(), nabla)

