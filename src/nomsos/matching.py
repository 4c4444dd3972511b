"""Matching of rule patterns (with variables and schematic atoms) against
canonical ground subjects, modulo alpha-equivalence."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from .atoms import Atom, AtomSort, fresh_atoms
from .alpha import _free_atoms, _rename
from .terms import (
    Abs,
    App,
    Atm,
    AtomLike,
    MetaAtom,
    RawTerm,
    Susp,
    Tup,
    Var,
    Variable,
    perm_of,
    resolve,
)


@dataclass(frozen=True)
class MatchState:
    """A partial solution: schematic atoms to atoms, variables to canonical
    ground terms. Instantiating the pattern with both yields a term
    alpha-equivalent to the subject."""

    metas: dict[str, Atom] = field(default_factory=dict)
    subst: dict[Variable, RawTerm] = field(default_factory=dict)

    def with_meta(self, name: str, atom: Atom) -> "MatchState":
        return MatchState({**self.metas, name: atom}, self.subst)

    def with_var(self, var: Variable, term: RawTerm) -> "MatchState":
        return MatchState(self.metas, {**self.subst, var: term})


@dataclass(frozen=True)
class AtomPool:
    """Candidate atoms per sort for schematic atoms that matching alone does
    not determine (binders, delayed permutations, received names)."""

    atoms: tuple[Atom, ...] = ()
    fresh: int = 1

    def candidates(self, sort: AtomSort) -> list[Atom]:
        known = sorted(a for a in self.atoms if a.sort == sort)
        return known + fresh_atoms(sort, self.atoms, self.fresh)


def bind_metas(
    atoms: Iterable[AtomLike], state: MatchState, pool: AtomPool
) -> list[MatchState]:
    """Every extension of `state` that binds the schematic atoms among
    `atoms` it leaves unbound, each to a candidate of the pool. The first
    atom varies slowest, so the order of the solutions follows the order of
    `atoms`."""
    states = [state]
    for m in dict.fromkeys(atoms):
        if isinstance(m, MetaAtom) and m.name not in state.metas:
            cands = pool.candidates(m.sort)
            states = [st.with_meta(m.name, a) for st in states for a in cands]
    return states


def match_term(
    pattern: RawTerm,
    subject: RawTerm,
    state: MatchState,
    pool: AtomPool,
    unobserved: frozenset[MetaAtom] = frozenset(),
) -> list[MatchState]:
    """All extensions of `state` under which the instantiated pattern is
    alpha-equivalent to the (canonical, ground) subject. Completeness is
    relative to the pool, which supplies the candidates for schematic atoms
    the subject does not determine, except for a schematic binder in
    `unobserved`: it takes the subject's own binder alone. A caller puts a
    binder there only when every other candidate would give an
    alpha-equivalent instance that it cannot tell apart.

    Each solution binds exactly the pattern's variables and schematic atoms
    that `state` leaves unbound, and two solutions differ in the atom of some
    schematic atom, so the solutions are pairwise distinct."""
    match pattern:
        case Var(v):
            bound = state.subst.get(v)
            if bound is None:
                return [state.with_var(v, subject)]
            return [state] if bound == subject else []
        case Atm(a):
            if not isinstance(subject, Atm):
                return []
            sa = subject.atom
            a = resolve(a, state.metas)
            if isinstance(a, MetaAtom):
                return [state.with_meta(a.name, sa)] if a.sort == sa.sort else []
            return [state] if a == sa else []
        case Susp(swaps, inner):
            out: list[MatchState] = []
            for st in bind_metas(chain.from_iterable(swaps), state, pool):
                # The reversed swap list denotes the inverse permutation.
                flipped = _rename(perm_of(reversed(swaps), st.metas).image, subject)
                out.extend(match_term(inner, flipped, st, pool, unobserved))
            return out
        case Abs(binder, body):
            if not isinstance(subject, Abs):
                return []
            d = subject.binder
            q = subject.body
            binder = resolve(binder, state.metas)
            if binder.sort != d.sort:
                return []
            if binder == d:
                return match_term(body, q, state, pool, unobserved)
            if isinstance(binder, MetaAtom):
                # The subject's own binder first; a binder in `unobserved`
                # takes it alone.
                out = match_term(body, q, state.with_meta(binder.name, d), pool, unobserved)
                if binder in unobserved:
                    return out
                options = [
                    (c, state.with_meta(binder.name, c))
                    for c in pool.candidates(binder.sort)
                    if c != d
                ]
            else:
                out, options = [], [(binder, state)]
            # Any other binder must not be free in the body, which the swap
            # with the subject's binder then moves.
            free_q = _free_atoms(q)
            for a, st in options:
                if a not in free_q:
                    out.extend(match_term(body, _rename({a: d, d: a}, q), st, pool, unobserved))
            return out
        case Tup(items):
            if not isinstance(subject, Tup) or len(subject.items) != len(items):
                return []
            states = [state]
            for pat, sub in zip(items, subject.items):
                states = [
                    st2
                    for st in states
                    for st2 in match_term(pat, sub, st, pool, unobserved)
                ]
                if not states:
                    return []
            return states
        case App(f, arg):
            if not isinstance(subject, App) or subject.func != f:
                return []
            return match_term(arg, subject.arg, state, pool, unobserved)
    raise TypeError(f"not a pattern: {pattern!r}")

