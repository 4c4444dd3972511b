"""Raw terms: sorted syntax trees with variables, atoms, explicit (delayed)
permutations, abstractions, tuples and constructor applications, plus the
permutation action, support, substitution and sort checking.

A delayed permutation keeps the transpositions it was written as; `perm_of`
gives the `Permutation` they denote, which `Permutation.from_swaps` composes.
A rule is used only through its instances, so the jobs on patterns have one
implementation each here: `_walk` is the one traversal behind the
collectors `support`, `term_vars` and `meta_atoms`; `_map` is the one
rebuild behind `act`, `instantiate` and `subst_apply`; and `resolve` is the
one place that gives a schematic atom its image under an assignment.

Nodes are named tuples: `==`, hash and order run in C, a node equals the
plain tuple of its fields, and nodes of two types never compare equal. The
C hash has no depth guard and crashes on a term about 50 000 deep; the entry
points normalise first, in Python, and raise `RecursionError` long before."""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Union

from .atoms import (
    AbsSort,
    Atom,
    AtomSort,
    AtomSortRef,
    BaseSort,
    NominalSort,
    Permutation,
    ProdSort,
    Signature,
    sort_str,
)


class Variable(NamedTuple):
    """An unknown, standing for a raw term of its sort."""

    name: str
    sort: NominalSort

    def __str__(self) -> str:
        return self.name


class MetaAtom(NamedTuple):
    """A schematic atom of a rule, universally quantified over its sort.
    Only appears in rule/strat patterns, never in concrete terms."""

    name: str
    sort: AtomSort

    def __str__(self) -> str:
        return self.name


AtomLike = Union[Atom, MetaAtom]

# A delayed permutation: its transpositions as written, leftmost applied
# last. In a pattern they may mention schematic atoms.
SwapList = tuple[tuple[AtomLike, AtomLike], ...]


class Var(NamedTuple):
    var: Variable


class Atm(NamedTuple):
    atom: AtomLike


class Susp(NamedTuple):
    """Moderated term: an explicit permutation over a term, kept as the
    transpositions it was written as."""

    perm: SwapList
    term: "RawTerm"


class Abs(NamedTuple):
    binder: AtomLike
    body: "RawTerm"


class Tup(NamedTuple):
    items: tuple["RawTerm", ...]


class App(NamedTuple):
    func: str
    arg: "RawTerm"


RawTerm = Union[Var, Atm, Susp, Abs, Tup, App]


def resolve(a: AtomLike, metas: Mapping[str, AtomLike]) -> AtomLike:
    """The image of an atom or schematic atom under an assignment of the
    schematic atoms. An atom is its own image, and so is a schematic atom
    the assignment leaves out."""
    return metas.get(a.name, a) if isinstance(a, MetaAtom) else a


def perm_of(
    swaps: Iterable[tuple[AtomLike, AtomLike]], metas: Mapping[str, AtomLike] = {}
) -> Permutation:
    """The permutation a swap list denotes, its schematic atoms given their
    images under `metas`; every atom must then be concrete. This is the one
    way from a pattern's swap list to a permutation: `normalize` and the
    builders discharge a delayed permutation by its `image`, and matching
    undoes one by the reversed list, which denotes the inverse."""
    return Permutation.from_swaps(
        (resolve(a, metas), resolve(b, metas)) for a, b in swaps  # type: ignore[misc]
    )


def _map(
    t: RawTerm,
    atom: Callable[[AtomLike], AtomLike],
    var: Callable[[Var], RawTerm],
) -> RawTerm:
    """Rebuild `t` with every atom or schematic atom `a` replaced by
    `atom(a)`, binders and transpositions included, and every variable node
    `v` by `var(v)`. Renaming the atoms of a swap list conjugates the
    permutation it denotes, so this is also the permutation action on a
    delayed permutation."""
    match t:
        case Var(_):
            return var(t)
        case Atm(a):
            return Atm(atom(a))
        case Susp(p, s):
            return Susp(tuple((atom(a), atom(b)) for a, b in p), _map(s, atom, var))
        case Abs(a, s):
            return Abs(atom(a), _map(s, atom, var))
        case Tup(items):
            return Tup(tuple(_map(s, atom, var) for s in items))
        case App(f, s):
            return App(f, _map(s, atom, var))
    raise TypeError(f"not a raw term: {t!r}")


def _same(x):
    return x


def act(perm: Permutation, t: RawTerm) -> RawTerm:
    """Permutation action on raw terms, by `_map`: variables are fixed, and a
    delayed permutation is conjugated."""
    return _map(t, perm, _same)  # type: ignore[arg-type]


def _walk(
    t: RawTerm, hidden: Collection[RawTerm] = ()
) -> Iterator[Union[Variable, AtomLike]]:
    """Every variable and every atom or schematic atom occurring in `t`
    outside the subterms in `hidden`: binders and both atoms of each
    transposition of a delayed permutation. The collectors are built on it,
    as the rebuilds are on `_map`. Iterative, so a deep term cannot exhaust
    the stack."""
    stack = [t]
    while stack:
        node = stack.pop()
        if hidden and node in hidden:
            continue
        match node:
            case Var(v):
                yield v
            case Atm(a):
                yield a
            case Susp(p, s):
                for a, b in p:
                    yield a
                    yield b
                stack.append(s)
            case Abs(a, s):
                yield a
                stack.append(s)
            case Tup(items):
                stack.extend(items)
            case App(_, s):
                stack.append(s)
            case other:
                raise TypeError(f"not a raw term: {other!r}")


def support(t: RawTerm) -> frozenset[Atom]:
    """Raw support: every atom occurring in the term, binders and the
    transpositions of delayed permutations included, even those that
    cancel out. `act` renames each of these atoms through `_map`, so
    support(act(p, t)) is the image of support(t) under p."""
    return frozenset(x for x in _walk(t) if isinstance(x, Atom))


def term_vars(t: RawTerm) -> frozenset[Variable]:
    return frozenset(x for x in _walk(t) if isinstance(x, Variable))


def is_ground(t: RawTerm) -> bool:
    return not term_vars(t)


def meta_atoms(t: RawTerm) -> frozenset[MetaAtom]:
    """Schematic atoms occurring anywhere in a pattern term."""
    return frozenset(x for x in _walk(t) if isinstance(x, MetaAtom))


def instantiate(t: RawTerm, metas: Mapping[str, AtomLike]) -> RawTerm:
    """Replace every schematic atom by its image under `metas` (see
    `resolve`), by `_map`; one the assignment leaves out is kept. The
    assignment need not be injective."""
    return _map(t, lambda a: resolve(a, metas), _same)


# --- substitution ------------------------------------------------------------

Substitution = dict[Variable, RawTerm]


def subst_apply(phi: Substitution, t: RawTerm) -> RawTerm:
    """Homomorphic extension of a substitution to raw terms, by `_map`.
    Atoms and binders are untouched: capture is permitted at this layer."""
    return _map(t, _same, lambda v: phi.get(v.var, v))


def subst_act(perm: Permutation, phi: Substitution) -> Substitution:
    """The permutation action on substitutions; variables have empty support,
    so only the range moves."""
    return {x: act(perm, t) for x, t in phi.items()}


# --- sort checking -----------------------------------------------------------


class SortError(ValueError):
    pass


def sort_check(sig: Signature, t: RawTerm) -> NominalSort:
    """The unique sort of t, or a SortError naming the offending subterm."""
    match t:
        case Var(v):
            return v.sort
        case Atm(a):
            return AtomSortRef(a.sort)
        case Susp(_, s):
            return sort_check(sig, s)
        case Abs(a, s):
            return AbsSort(a.sort, sort_check(sig, s))
        case Tup(items):
            return ProdSort(tuple(sort_check(sig, s) for s in items))
        case App(f, s):
            decl = sig.func(f)
            if decl is None:
                raise SortError(f"unknown function symbol: {f}")
            got = sort_check(sig, s)
            if got != decl.arg:
                raise SortError(
                    f"{f}: argument has sort {sort_str(got)}, expected {sort_str(decl.arg)}"
                )
            return BaseSort(decl.result)
    raise TypeError(f"not a raw term: {t!r}")


def app(f: str, *args: RawTerm) -> RawTerm:
    """The application of a constructor to its arguments: one argument
    stands as it is, any other number is packed into a tuple."""
    if len(args) == 1:
        return App(f, args[0])
    return App(f, Tup(tuple(args)))


def app_args(t: App) -> tuple[RawTerm, ...]:
    """The arguments of an application, unpacked as `app` packs them."""
    return t.arg.items if isinstance(t.arg, Tup) else (t.arg,)
