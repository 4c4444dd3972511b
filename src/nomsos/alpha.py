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
delayed permutation over a canonical term by moving it. `builder` compiles
a rule pattern into closures that run the same pass on an instance: given
the images of its schematic atoms and canonical terms for its variables,
they return the canonical form of the instance without building the raw
instance first.

The kernel (`_rename` and `_close`) moves a term by `Permutation.image`, the
dict that maps each atom a permutation moves to its image, and closing a
binder extends a copy of that dict by one swap. No `Permutation` is built
per node: a delayed permutation is composed once, by `perm_of`, and the
kernel reads its `image`."""

from __future__ import annotations

from typing import Callable, Mapping

from .atoms import Atom
from .terms import (
    Abs,
    App,
    Atm,
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


def _close(image: dict[Atom, Atom], a: Atom, body: RawTerm) -> RawTerm:
    """The canonical form of `π·[a]body` for a canonical `body`, where π
    moves each key of `image` to its value. Its binder is the least atom of
    the sort not free in the moved abstraction; the body is then moved
    once, by π followed by the swap of the moved binder with that atom."""
    sort = a.sort
    taken = {image.get(x, x).index for x in _free_atoms(body) if x != a and x.sort == sort}
    i = 0
    while i in taken:
        i += 1
    c = Atom(sort, i)
    moved = image.get(a, a)
    if c != moved:
        # Followed by the swap of π(a) and c, π sends a to c and the atom
        # it sent to c to π(a).
        back = next((x for x, y in image.items() if y == c), c)
        image = {**image, a: c, back: moved}
        for x in (a, back):
            if image[x] == x:
                del image[x]
    return Abs(c, _rename(image, body))


def _rename(image: dict[Atom, Atom], t: RawTerm) -> RawTerm:
    """The canonical form of `π·t` for a canonical `t`, where π moves each
    key of `image` to its value and fixes every other atom."""
    if not image:
        return t
    match t:
        case Atm(a):
            return Atm(image.get(a, a))
        case Abs(a, s):
            return _close(image, a, s)
        case Tup(items):
            return Tup(tuple(_rename(image, s) for s in items))
        case App(f, s):
            return App(f, _rename(image, s))
    raise TypeError(f"unexpected node in canonical term: {t!r}")


def normalize(t: RawTerm) -> RawTerm:
    """Canonical form of a ground raw term: susp-free, binders canonically
    renamed. normalize(p) == normalize(q) iff p and q are alpha-equivalent."""
    match t:
        case Var(v):
            raise NotGroundError(f"term is not ground: variable {v.name}")
        case Atm(_):
            return t
        case Susp(p, s):
            return _rename(perm_of(p).image, normalize(s))
        case Abs(a, s):
            return _close({}, a, normalize(s))
        case Tup(items):
            return Tup(tuple(normalize(s) for s in items))
        case App(f, s):
            return App(f, normalize(s))
    raise TypeError(f"not a raw term: {t!r}")


Builder = Callable[[Mapping[str, Atom], Mapping[Variable, RawTerm]], RawTerm]


def builder(pattern: RawTerm) -> Builder:
    """The builder of a rule pattern: a function that takes images for its
    schematic atoms and canonical terms for its variables and returns the
    canonical form of that instance, using each variable's term as it is:
    builder(p)(metas, subst) == normalize(subst_apply(subst,
    instantiate(p, metas))).

    The pattern is read once, here, into closures that run the same kernel
    as `normalize`; a subpattern without variables or schematic atoms is
    normalised here, once."""
    if is_ground(pattern) and not meta_atoms(pattern):
        canon = normalize(pattern)
        return lambda metas, subst: canon
    match pattern:
        case Var(v):

            def build_var(metas, subst):
                bound = subst.get(v)
                if bound is None:
                    raise NotGroundError(f"term is not ground: variable {v.name}")
                return bound

            return build_var
        case Atm(a):
            return lambda metas, subst: Atm(resolve(a, metas))
        case Susp(p, s):
            body = builder(s)
            return lambda metas, subst: _rename(perm_of(p, metas).image, body(metas, subst))
        case Abs(a, s):
            body = builder(s)
            return lambda metas, subst: _close({}, resolve(a, metas), body(metas, subst))
        case Tup(items):
            parts = tuple(map(builder, items))
            return lambda metas, subst: Tup(tuple([part(metas, subst) for part in parts]))
        case App(f, s):
            body = builder(s)
            return lambda metas, subst: App(f, body(metas, subst))
    raise TypeError(f"not a raw term: {pattern!r}")


def alpha_eq(p: RawTerm, q: RawTerm) -> bool:
    return normalize(p) == normalize(q)


def nt_support(p: RawTerm) -> frozenset[Atom]:
    """Support of the nominal term denoted by a ground term: the free atoms
    of its canonical form."""
    return _free_atoms(normalize(p))


def nt_fresh(a: Atom, p: RawTerm) -> bool:
    """a # p at the nominal-term level."""
    return a not in nt_support(p)
