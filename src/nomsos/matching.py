"""Matching of rule patterns (with variables and schematic atoms) against
canonical ground subjects, modulo alpha-equivalence. `matcher` compiles a
pattern once into closures that match it."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, NamedTuple

from .atoms import Atom, AtomSort, _new, fresh_atoms
from .alpha import _free_atoms, _rename, _swap, normalize
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
    is_ground,
    meta_atoms,
    perm_of,
    resolve,
)


class MatchState(NamedTuple):
    """A partial solution: schematic atoms to atoms, variables to canonical
    ground terms. Instantiating the pattern with both yields a term
    alpha-equivalent to the subject. The default maps are shared: a state
    is never changed, each binding copies its map."""

    metas: dict[str, Atom] = {}
    subst: dict[Variable, RawTerm] = {}

    def with_meta(self, name: str, atom: Atom) -> "MatchState":
        return _new(MatchState, ({**self.metas, name: atom}, self.subst))

    def with_var(self, var: Variable, term: RawTerm) -> "MatchState":
        return _new(MatchState, (self.metas, {**self.subst, var: term}))


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


Matcher = Callable[[RawTerm, MatchState, AtomPool], list[MatchState]]


def matcher(pattern: RawTerm, unobserved: frozenset[MetaAtom] = frozenset()) -> Matcher:
    """The matcher of a pattern: a function of a (canonical, ground) subject,
    a state and a pool that returns all extensions of the state under which
    the instantiated pattern is alpha-equivalent to the subject.
    Completeness is relative to the pool, which supplies the candidates for
    schematic atoms the subject does not determine, except for a schematic
    binder in `unobserved`: it takes the subject's own binder alone. A
    caller puts a binder there only when every other candidate would give
    an alpha-equivalent instance that it cannot tell apart.

    Each solution binds exactly the pattern's variables and schematic atoms
    that the state leaves unbound, and two solutions differ in the atom of
    some schematic atom, so the solutions are pairwise distinct.

    The pattern is read once, here: each node becomes a closure over the
    closures of its children, with what the node fixes (its constructor,
    arity, binder, swap list and whether its binder is unobserved) worked
    out in advance. A subpattern without variables or schematic atoms is
    normalised once and compared with the subject."""
    if is_ground(pattern) and not meta_atoms(pattern):
        canon = normalize(pattern)
        return lambda subject, state, pool: [state] if subject == canon else []
    match pattern:
        case Var(v):

            def match_var(subject, state, pool):
                bound = state.subst.get(v)
                if bound is None:
                    return [state.with_var(v, subject)]
                return [state] if bound == subject else []

            return match_var
        case Atm(MetaAtom(name, sort)):

            def match_atom(subject, state, pool):
                if not isinstance(subject, Atm):
                    return []
                sa = subject.atom
                a = state.metas.get(name)
                if a is None:
                    return [state.with_meta(name, sa)] if sort == sa.sort else []
                return [state] if a == sa else []

            return match_atom
        case Susp(swaps, inner):
            body = matcher(inner, unobserved)
            metas = [m for m in dict.fromkeys(chain.from_iterable(swaps)) if isinstance(m, MetaAtom)]
            # The reversed swap list denotes the inverse permutation.
            undo = tuple(reversed(swaps))

            def match_susp(subject, state, pool):
                out: list[MatchState] = []
                for st in bind_metas(metas, state, pool):
                    out.extend(body(_rename(perm_of(undo, st.metas).image, subject), st, pool))
                return out

            return match_susp
        case Abs(binder, inner):
            body = matcher(inner, unobserved)
            alone = binder in unobserved

            def match_abs(subject, state, pool):
                if not isinstance(subject, Abs):
                    return []
                d, q = subject
                b = resolve(binder, state.metas)
                if b.sort != d.sort:
                    return []
                if b == d:
                    return body(q, state, pool)
                if isinstance(b, MetaAtom):
                    # The subject's own binder first; an unobserved binder
                    # takes it alone.
                    out = body(q, state.with_meta(b.name, d), pool)
                    if alone:
                        return out
                    options = [
                        (c, state.with_meta(b.name, c)) for c in pool.candidates(b.sort) if c != d
                    ]
                else:
                    out, options = [], [(b, state)]
                # Any other binder must not be free in the body, which the
                # swap with the subject's binder then moves.
                free_q = _free_atoms(q)
                for a, st in options:
                    if a not in free_q:
                        out.extend(body(_swap(a, d, q), st, pool))
                return out

            return match_abs
        case Tup(items):
            parts = tuple(matcher(item, unobserved) for item in items)
            arity = len(parts)

            def match_tup(subject, state, pool):
                if not isinstance(subject, Tup) or len(subject.items) != arity:
                    return []
                states = [state]
                for part, sub in zip(parts, subject.items):
                    if len(states) == 1:
                        states = part(sub, states[0], pool)
                    else:
                        states = [st2 for st in states for st2 in part(sub, st, pool)]
                    if not states:
                        return []
                return states

            return match_tup
        case App(f, arg):
            body = matcher(arg, unobserved)

            def match_app(subject, state, pool):
                if not isinstance(subject, App) or subject.func != f:
                    return []
                return body(subject.arg, state, pool)

            return match_app
    raise TypeError(f"not a pattern: {pattern!r}")
