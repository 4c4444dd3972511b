"""References for the compiled pattern closures: the interpreted matcher,
which walks the pattern again on every call, and the canonical form of a
pattern instance by full normalisation."""

from __future__ import annotations

from itertools import chain
from typing import Mapping

from nomsos.alpha import _free_atoms, _rename, normalize
from nomsos.atoms import Atom
from nomsos.matching import AtomPool, MatchState, bind_metas
from nomsos.terms import (
    Abs,
    App,
    Atm,
    MetaAtom,
    RawTerm,
    Susp,
    Tup,
    Var,
    Variable,
    instantiate,
    perm_of,
    resolve,
    subst_apply,
)


def instance(
    pattern: RawTerm, metas: Mapping[str, Atom], subst: Mapping[Variable, RawTerm]
) -> RawTerm:
    """The canonical form of an instance of a pattern, built in full and
    then normalised."""
    return normalize(subst_apply(dict(subst), instantiate(pattern, metas)))


def match_term(
    pattern: RawTerm,
    subject: RawTerm,
    state: MatchState,
    pool: AtomPool,
    unobserved: frozenset[MetaAtom] = frozenset(),
) -> list[MatchState]:
    """The solutions of `nomsos.matching.matcher(pattern, unobserved)` on the
    subject, in the same order, found by walking the pattern node by node
    on every call."""
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

