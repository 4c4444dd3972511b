"""Canonical representatives of alpha-equivalence classes of ground terms.

A ground raw term is normalized by discharging every delayed permutation and
renaming each binder, outside-in, to the least-index atom of its sort that is
not free in the abstraction body. Structural equality of canonical forms then
coincides with alpha-equivalence.

Canonical form is local: whether `[a]t` is canonical depends only on `a`
being the least atom not free in `t` and on `t` being canonical. So every
subterm of a canonical term is canonical, a tuple or application of
canonical terms is canonical, and `canon_abs` closes a canonical body under
a binder by renaming that binder alone (and re-normalising the body only
when the binder moves)."""

from __future__ import annotations

from .atoms import Atom, Permutation, fresh_atoms
from .terms import Abs, App, Atm, RawTerm, Susp, Tup, Var, _concrete_perm, act


class NotGroundError(ValueError):
    pass


def _push(perm: Permutation, t: RawTerm) -> RawTerm:
    """Apply perm structurally, discharging every delayed permutation."""
    match t:
        case Var(v):
            raise NotGroundError(f"term is not ground: variable {v.name}")
        case Atm(a):
            assert isinstance(a, Atom)
            return Atm(perm(a))
        case Susp(p, s):
            return _push(perm.compose(_concrete_perm(p)), s)
        case Abs(a, s):
            assert isinstance(a, Atom)
            return Abs(perm(a), _push(perm, s))
        case Tup(items):
            return Tup(tuple(_push(perm, s) for s in items))
        case App(f, s):
            return App(f, _push(perm, s))
    raise TypeError(f"not a raw term: {t!r}")


def strip_susp(t: RawTerm) -> RawTerm:
    """Discharge all delayed permutations of a ground term."""
    return _push(Permutation.identity(), t)


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


def _least_binder(a: Atom, body: RawTerm) -> Atom:
    """The canonical binder of `[a]body`: the least atom of its sort not
    free in the abstraction."""
    return fresh_atoms(a.sort, _free_atoms(body) - {a}, 1)[0]


def _canon(t: RawTerm) -> RawTerm:
    match t:
        case Atm(_):
            return t
        case Abs(a, s):
            assert isinstance(a, Atom)
            c = _least_binder(a, s)
            return Abs(c, _canon(s if c == a else act(Permutation.swap(a, c), s)))
        case Tup(items):
            return Tup(tuple(_canon(s) for s in items))
        case App(f, s):
            return App(f, _canon(s))
    raise TypeError(f"unexpected node in susp-free term: {t!r}")


def canon_abs(a: Atom, body: RawTerm) -> RawTerm:
    """Canonical form of `[a]body` for a canonical `body`; the body is kept
    as it is when `a` is already the canonical binder."""
    c = _least_binder(a, body)
    if c == a:
        return Abs(a, body)
    return Abs(c, _canon(act(Permutation.swap(a, c), body)))


def normalize(t: RawTerm) -> RawTerm:
    """Canonical form of a ground raw term: susp-free, binders canonically
    renamed. normalize(p) == normalize(q) iff p and q are alpha-equivalent."""
    return _canon(strip_susp(t))


def alpha_eq(p: RawTerm, q: RawTerm) -> bool:
    return normalize(p) == normalize(q)


def nt_support(p: RawTerm) -> frozenset[Atom]:
    """Support of the nominal term denoted by a ground term: its free atoms,
    after discharging delayed permutations."""
    return _free_atoms(strip_susp(p))


def nt_fresh(a: Atom, p: RawTerm) -> bool:
    """a # p at the nominal-term level."""
    return a not in nt_support(p)
