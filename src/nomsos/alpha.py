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
kernel reads its `image`. The walks that run per node of every derived
term (`_free_atoms`, `_rename`, `normalize`) branch on `type(t)`, since a
class pattern costs an `isinstance` test and attribute reads at every node.
`_free_atoms` is one iterative walk and returns a `frozenset`. `normalize`
and `_rename` stay recursive: a term too deep for the recursion limit must
raise `RecursionError` in `normalize` before anything hashes it, because
the tuple hash recurses in C with no depth guard. These walks, the
builders, `MatchState` and `atoms.fresh_atoms` build each node as
`_new(Cls, (fields…))`, that is `tuple.__new__`, in place of the named
tuple's generated `__new__`, a Python function around the same call:
`App('f', x)` takes 312 ns, and `tuple.__new__(App, ('f', x))` 178 ns.

A search meets the same terms again and again: it closes the same binder
over the same body, and asks the free atoms of the same state, body or
freshness term from `_close`, the matcher and the table. So while a search
runs (`search_memo`, which `engine.enumerate_transitions` and `engine.prove`
open and drop when they return or raise, and `engine.replay` opens for a
whole tree), the kernel keeps three maps: each term to its free atoms, each
(binder, body) pair to the abstraction that `_close` builds from it with an
empty renaming, and each (a, b, t) to `_swap`'s canonical form of `(a b)·t`,
the binder swap that the abstraction matcher makes for every binder it
tries. All three are keyed by value, as the search's table is: a term's
free atoms and the canonical forms of `[a]body` and `(a b)·t` depend on
nothing but the key, so a stored result is the one a walk would return,
and no answer can change. Outside a search, the kernel walks every time
and keeps nothing."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Mapping, Optional

from .atoms import Atom, _new
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


# The memo of the running search (see the module docstring); None outside one.
_free_memo: Optional[dict[RawTerm, frozenset[Atom]]] = None
_close_memo: Optional[dict[tuple[Atom, RawTerm], Abs]] = None
_swap_memo: Optional[dict[tuple[Atom, Atom, RawTerm], RawTerm]] = None


@contextmanager
def search_memo() -> Iterator[None]:
    """Keep the kernel's results for the duration of one search, and drop
    them at its end. A search opened inside another uses the outer memo."""
    global _free_memo, _close_memo, _swap_memo
    if _free_memo is not None:
        yield
        return
    _free_memo, _close_memo, _swap_memo = {}, {}, {}
    try:
        yield
    finally:
        _free_memo = _close_memo = _swap_memo = None


def _free_atoms(t: RawTerm) -> frozenset[Atom]:
    """Free atoms of a susp-free ground term; each binder removes itself.
    One iterative walk, each node paired with the binders above it."""
    memo = _free_memo
    if memo is not None:
        done = memo.get(t)
        if done is not None:
            return done
    out: set[Atom] = set()
    stack: list[tuple[RawTerm, frozenset[Atom]]] = [(t, frozenset())]
    pop, push = stack.pop, stack.append
    while stack:
        node, bound = pop()
        kind = type(node)
        if kind is App:
            push((node.arg, bound))
        elif kind is Tup:
            for s in node.items:
                push((s, bound))
        elif kind is Atm:
            if node.atom not in bound:
                out.add(node.atom)
        elif kind is Abs:
            push((node.body, bound | {node.binder}))
        else:
            raise TypeError(f"unexpected node in susp-free term: {node!r}")
    done = frozenset(out)
    if memo is not None:
        memo[t] = done
    return done


def _close(image: dict[Atom, Atom], a: Atom, body: RawTerm) -> RawTerm:
    """The canonical form of `π·[a]body` for a canonical `body`, where π
    moves each key of `image` to its value. Its binder is the least atom of
    the sort not free in the moved abstraction; the body is then moved
    once, by π followed by the swap of the moved binder with that atom."""
    memo = None if image else _close_memo
    if memo is not None:
        done = memo.get((a, body))
        if done is not None:
            return done
    sort = a.sort
    taken = {image.get(x, x).index for x in _free_atoms(body) if x != a and x.sort == sort}
    i = 0
    while i in taken:
        i += 1
    c = _new(Atom, (sort, i))
    moved = image.get(a, a)
    if c != moved:
        # Followed by the swap of π(a) and c, π sends a to c and the atom
        # it sent to c to π(a).
        back = next((x for x, y in image.items() if y == c), c)
        image = {**image, a: c, back: moved}
        for x in (a, back):
            if image[x] == x:
                del image[x]
    done = _new(Abs, (c, _rename(image, body)))
    if memo is not None:
        memo[a, body] = done
    return done


def _rename(image: dict[Atom, Atom], t: RawTerm) -> RawTerm:
    """The canonical form of `π·t` for a canonical `t`, where π moves each
    key of `image` to its value and fixes every other atom."""
    if not image:
        return t
    kind = type(t)
    if kind is App:
        return _new(App, (t.func, _rename(image, t.arg)))
    if kind is Tup:
        return _new(Tup, (tuple([_rename(image, s) for s in t.items]),))
    if kind is Atm:
        return _new(Atm, (image.get(t.atom, t.atom),))
    if kind is Abs:
        return _close(image, t.binder, t.body)
    raise TypeError(f"unexpected node in canonical term: {t!r}")


def _swap(a: Atom, b: Atom, t: RawTerm) -> RawTerm:
    """The canonical form of `(a b)·t` for a canonical `t`; kept for the
    running search, if any."""
    memo = _swap_memo
    if memo is None:
        return _rename({a: b, b: a}, t)
    done = memo.get((a, b, t))
    if done is None:
        done = memo[a, b, t] = _rename({a: b, b: a}, t)
    return done


def normalize(t: RawTerm) -> RawTerm:
    """Canonical form of a ground raw term: susp-free, binders canonically
    renamed. normalize(p) == normalize(q) iff p and q are alpha-equivalent."""
    kind = type(t)
    if kind is App:
        return _new(App, (t.func, normalize(t.arg)))
    if kind is Tup:
        return _new(Tup, (tuple([normalize(s) for s in t.items]),))
    if kind is Atm:
        return t
    if kind is Abs:
        return _close({}, t.binder, normalize(t.body))
    if kind is Susp:
        return _rename(perm_of(t.perm).image, normalize(t.term))
    if kind is Var:
        raise NotGroundError(f"term is not ground: variable {t.var.name}")
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
            return lambda metas, subst: _new(Atm, (resolve(a, metas),))
        case Susp(p, s):
            body = builder(s)
            return lambda metas, subst: _rename(perm_of(p, metas).image, body(metas, subst))
        case Abs(a, s):
            body = builder(s)
            return lambda metas, subst: _close({}, resolve(a, metas), body(metas, subst))
        case Tup(items):
            parts = tuple(map(builder, items))
            return lambda metas, subst: _new(Tup, (tuple([part(metas, subst) for part in parts]),))
        case App(f, s):
            body = builder(s)
            return lambda metas, subst: _new(App, (f, body(metas, subst)))
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
