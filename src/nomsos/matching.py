"""Matching of rule patterns (with variables and schematic atoms) against
canonical ground subjects, modulo alpha-equivalence."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .atoms import Atom, AtomSort, Permutation, fresh_atoms
from .alpha import _canon, _free_atoms, _push, canon_abs
from .terms import Abs, App, Atm, MetaAtom, RawTerm, Susp, Tup, Var, Variable


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

    def key(self) -> tuple:
        return (
            tuple(sorted(self.metas.items())),
            tuple(sorted(self.subst.items(), key=lambda kv: kv[0].name)),
        )


@dataclass(frozen=True)
class AtomPool:
    """Candidate atoms per sort for schematic atoms that matching alone does
    not determine (binders, delayed permutations, received names)."""

    atoms: tuple[Atom, ...] = ()
    fresh: int = 1

    def candidates(self, sort: AtomSort) -> list[Atom]:
        known = sorted(a for a in self.atoms if a.sort == sort)
        return known + fresh_atoms(sort, self.atoms, self.fresh)


def _meta_candidates(
    meta: MetaAtom, state: MatchState, pool: Optional[AtomPool], extra: list[Atom]
) -> list[tuple[Atom, MatchState]]:
    if meta.name in state.metas:
        a = state.metas[meta.name]
        return [(a, state)]
    cands = list(extra)
    if pool is not None:
        for c in pool.candidates(meta.sort):
            if c not in cands:
                cands.append(c)
    return [(a, state.with_meta(meta.name, a)) for a in cands if a.sort == meta.sort]


def match_term(
    pattern: RawTerm,
    subject: RawTerm,
    state: MatchState,
    pool: Optional[AtomPool],
) -> list[MatchState]:
    """All extensions of `state` under which the instantiated pattern is
    alpha-equivalent to the (canonical, ground) subject. Completeness is
    relative to the pool supplied for underdetermined schematic atoms; when
    pool is None only forced choices plus one fresh fallback are tried."""
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
            assert isinstance(sa, Atom)
            if isinstance(a, MetaAtom):
                if a.name in state.metas:
                    return [state] if state.metas[a.name] == sa else []
                if a.sort != sa.sort:
                    return []
                return [state.with_meta(a.name, sa)]
            return [state] if a == sa else []
        case Susp(perm, inner):
            out: list[MatchState] = []
            for st in _bind_perm_metas(perm, state, pool):
                concrete = _instantiate_perm(perm, st.metas)
                flipped = _canon(_push(concrete.inverse(), subject))
                out.extend(match_term(inner, flipped, st, pool))
            return _dedup(out)
        case Abs(binder, body):
            if not isinstance(subject, Abs):
                return []
            d = subject.binder
            assert isinstance(d, Atom)
            q = subject.body
            options: list[tuple[Atom, MatchState]] = []
            if isinstance(binder, MetaAtom):
                free_q = _free_atoms(q)
                extra = [d]
                if pool is not None:
                    extra += [
                        c
                        for c in pool.candidates(binder.sort)
                        if c != d and c not in free_q
                    ]
                else:
                    extra += fresh_atoms(binder.sort, free_q | {d}, 1)
                options = _meta_candidates(binder, state, None, extra)
            else:
                options = [(binder, state)]
            out = []
            for a, st in options:
                if a.sort != d.sort:
                    continue
                if a == d:
                    body_subject = q
                elif a not in _free_atoms(q):
                    body_subject = _canon(_push(Permutation.swap(a, d), q))
                else:
                    continue
                out.extend(match_term(body, body_subject, st, pool))
            return _dedup(out)
        case Tup(items):
            if not isinstance(subject, Tup) or len(subject.items) != len(items):
                return []
            states = [state]
            for pat, sub in zip(items, subject.items):
                states = _dedup(
                    [st2 for st in states for st2 in match_term(pat, sub, st, pool)]
                )
                if not states:
                    return []
            return states
        case App(f, arg):
            if not isinstance(subject, App) or subject.func != f:
                return []
            return match_term(arg, subject.arg, state, pool)
    raise TypeError(f"not a pattern: {pattern!r}")


def _bind_perm_metas(
    perm, state: MatchState, pool: Optional[AtomPool]
) -> list[MatchState]:
    """Bind any schematic atoms still free in a delayed permutation."""
    if isinstance(perm, Permutation):
        return [state]
    states = [state]
    for a, b in perm:
        for m in (a, b):
            if isinstance(m, MetaAtom):
                states = [
                    st2
                    for st in states
                    for _, st2 in _meta_candidates(m, st, pool, [])
                ]
    return states


def _instantiate_perm(perm, metas: dict[str, Atom]) -> Permutation:
    if isinstance(perm, Permutation):
        return perm

    def resolve(x):
        return metas[x.name] if isinstance(x, MetaAtom) else x

    return Permutation.from_swaps((resolve(a), resolve(b)) for a, b in perm)


def _dedup(states: list[MatchState]) -> list[MatchState]:
    if len(states) < 2:
        return states
    seen = set()
    out = []
    for st in states:
        k = st.key()
        if k not in seen:
            seen.add(k)
            out.append(st)
    return out


def instantiate_canon(t: RawTerm, state: MatchState) -> RawTerm:
    """The canonical form of a pattern instantiated by a match solution.
    Matching binds variables to canonical terms only, and canonical form is
    local (see `alpha`), so a bound term is used as it is and only the
    pattern's own abstractions and delayed permutations are normalised."""
    match t:
        case Var(v):
            return state.subst[v]
        case Atm(a):
            return Atm(state.metas[a.name]) if isinstance(a, MetaAtom) else t
        case Susp(perm, s):
            concrete = _instantiate_perm(perm, state.metas)
            return _canon(_push(concrete, instantiate_canon(s, state)))
        case Abs(a, s):
            binder = state.metas[a.name] if isinstance(a, MetaAtom) else a
            return canon_abs(binder, instantiate_canon(s, state))
        case Tup(items):
            return Tup(tuple(instantiate_canon(s, state) for s in items))
        case App(f, s):
            return App(f, instantiate_canon(s, state))
    raise TypeError(f"not a pattern: {t!r}")
