"""Freshness assertions a # t over raw terms: simplification to normal form,
consistency, and entailment between environments.

`reduce(a, t)` is the unit: it simplifies one assertion exhaustively, to a
set of assertions a # x on variables (consistent) and a # a (inconsistent).
The rewrite rules never mix assertions, so the normal form of an
environment, `nf`, is the frozenset union of the reductions of its
assertions. `is_consistent_reduced` and `entails_reduced` decide on such
sets; `is_consistent` and `entails` reduce their arguments first. A caller
that decides many entailments over the same assertions reduces each of them
once and unions the sets itself."""

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
        return assertion_str(self.atom, self.term)


def reduce(a: Atom, t: RawTerm) -> frozenset[Assertion]:
    """Exhaustively simplify the single assertion a # t."""
    match t:
        case Atm(b):
            assert isinstance(b, Atom)
            return frozenset({Assertion(a, t)}) if b == a else frozenset()
        case Var(_):
            return frozenset({Assertion(a, t)})
        case Susp(p, s):
            # The reversed swap list denotes the inverse permutation.
            return reduce(perm_of(reversed(p))(a), s)
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


def nf(nabla: Iterable[Assertion]) -> frozenset[Assertion]:
    """Unique normal form of a freshness environment: the union of the
    reductions of its assertions."""
    return frozenset().union(*(reduce(x.atom, x.term) for x in nabla))


def is_consistent(nabla: Iterable[Assertion]) -> bool:
    return is_consistent_reduced(nf(nabla))


def entails(nabla: Iterable[Assertion], nabla2: Iterable[Assertion]) -> bool:
    """nabla |- nabla2: nabla is inconsistent, or nf(nabla2) is included in
    nf(nabla)."""
    return entails_reduced(nf(nabla), nf(nabla2))


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

