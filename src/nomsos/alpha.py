"""Canonical representatives of alpha-equivalence classes of ground terms.

A ground raw term is normalized by discharging every delayed permutation and
renaming each binder to the least-index atom of its sort that is not free in
the abstraction. Structural equality of canonical forms then coincides with
alpha-equivalence.

Canonical form is local: whether `[a]t` is canonical depends only on `a`
being the least atom not free in `t` and on `t` being canonical. So every
subterm of a canonical term is canonical, and a tuple or application of
canonical terms is canonical. `normalize` is therefore one bottom-up pass:
it closes each canonical body under its canonical binder, and discharges a
delayed permutation over a canonical term with `_move`. The same pass
instantiates a rule pattern, given the images of its schematic atoms and
canonical terms for its variables."""

from __future__ import annotations

from typing import Mapping

from .atoms import Atom, Permutation, fresh_atoms
from .terms import Abs, App, Atm, RawTerm, Susp, Tup, Var, Variable, _concrete_perm, resolve


class NotGroundError(ValueError):
    pass


def _free_atoms(t: RawTerm) -> frozenset[Atom]:
    """Free atoms of a susp-free ground term; each binder removes itself."""
    match t:
        case Atm(a):
            assert isinstance(a, Atom)
            return frozenset({a})
        case Abs(a, s):
            assert isinstance(a, Atom)
            return _free_atoms(s) - {a}
        case Tup(items):
            out: frozenset[Atom] = frozenset()
            for s in items:
                out |= _free_atoms(s)
            return out
        case App(_, s):
            return _free_atoms(s)
    raise TypeError(f"unexpected node in susp-free term: {t!r}")


def _close(perm: Permutation, a: Atom, body: RawTerm) -> RawTerm:
    """The canonical form of `perm·[a]body` for a canonical `body`. Its
    binder is the least atom of the sort not free in the moved abstraction;
    the body is then moved once, by `perm` followed by the swap of the
    moved binder with that atom."""
    c = fresh_atoms(a.sort, {perm(x) for x in _free_atoms(body) if x != a}, 1)[0]
    return Abs(c, _move(Permutation.swap(perm(a), c).compose(perm), body))


def _move(perm: Permutation, t: RawTerm) -> RawTerm:
    """The canonical form of `perm·t` for a canonical `t`."""
    if perm.is_identity:
        return t
    match t:
        case Atm(a):
            return Atm(perm(a))
        case Abs(a, s):
            return _close(perm, a, s)
        case Tup(items):
            return Tup(tuple(_move(perm, s) for s in items))
        case App(f, s):
            return App(f, _move(perm, s))
    raise TypeError(f"unexpected node in canonical term: {t!r}")


def normalize(
    t: RawTerm,
    metas: Mapping[str, Atom] = {},
    subst: Mapping[Variable, RawTerm] = {},
) -> RawTerm:
    """Canonical form of a ground raw term: susp-free, binders canonically
    renamed. normalize(p) == normalize(q) iff p and q are alpha-equivalent.

    Given an assignment of schematic atoms and a substitution of canonical
    terms, the canonical form of that instance of a pattern:
    normalize(p, metas, subst) == normalize(subst_apply(subst,
    instantiate(p, metas))). A variable's term is used as it is."""
    match t:
        case Var(v):
            if v not in subst:
                raise NotGroundError(f"term is not ground: variable {v.name}")
            return subst[v]
        case Atm(a):
            return Atm(resolve(a, metas))
        case Susp(p, s):
            return _move(_concrete_perm(p, metas), normalize(s, metas, subst))
        case Abs(a, s):
            body = normalize(s, metas, subst)
            return _close(Permutation.identity(), resolve(a, metas), body)
        case Tup(items):
            return Tup(tuple(normalize(s, metas, subst) for s in items))
        case App(f, s):
            return App(f, normalize(s, metas, subst))
    raise TypeError(f"not a raw term: {t!r}")


def alpha_eq(p: RawTerm, q: RawTerm) -> bool:
    return normalize(p) == normalize(q)


def nt_support(p: RawTerm) -> frozenset[Atom]:
    """Support of the nominal term denoted by a ground term: the free atoms
    of its canonical form."""
    return _free_atoms(normalize(p))


def nt_fresh(a: Atom, p: RawTerm) -> bool:
    """a # p at the nominal-term level."""
    return a not in nt_support(p)
