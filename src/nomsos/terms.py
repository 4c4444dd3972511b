"""Raw terms: sorted syntax trees with variables, atoms, explicit (delayed)
permutations, abstractions, tuples and constructor applications, plus the
permutation action, support, substitution and sort checking.

A rule is used only through its instances, so two jobs on patterns have one
implementation each here: `_walk` is the one traversal behind the collectors
`support`, `term_vars` and `meta_atoms`, and `resolve` is the one place that
gives a schematic atom its image under an assignment (`_concrete_perm` and
`instantiate` are built on it)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Union

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


@dataclass(frozen=True, order=True)
class Variable:
    """An unknown, standing for a raw term of its sort."""

    name: str
    sort: NominalSort = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MetaAtom:
    """A schematic atom of a rule, universally quantified over its sort.
    Only appears in rule/strat patterns, never in concrete terms."""

    name: str
    sort: AtomSort

    def __str__(self) -> str:
        return self.name


AtomLike = Union[Atom, MetaAtom]

# A delayed permutation in a pattern may mention meta atoms; it is kept as a
# transposition list until the metas are instantiated.
SwapList = tuple[tuple[AtomLike, AtomLike], ...]
PermLike = Union[Permutation, SwapList]


@dataclass(frozen=True)
class Var:
    var: Variable


@dataclass(frozen=True)
class Atm:
    atom: AtomLike


@dataclass(frozen=True)
class Susp:
    """Moderated term: an explicit permutation over a term."""

    perm: PermLike
    term: "RawTerm"


@dataclass(frozen=True)
class Abs:
    binder: AtomLike
    body: "RawTerm"


@dataclass(frozen=True)
class Tup:
    items: tuple["RawTerm", ...]


@dataclass(frozen=True)
class App:
    func: str
    arg: "RawTerm"


RawTerm = Union[Var, Atm, Susp, Abs, Tup, App]


def resolve(a: AtomLike, metas: Mapping[str, AtomLike]) -> AtomLike:
    """The image of an atom or schematic atom under an assignment of the
    schematic atoms. An atom is its own image, and so is a schematic atom
    the assignment leaves out."""
    return metas.get(a.name, a) if isinstance(a, MetaAtom) else a


def _concrete_perm(p: PermLike, metas: Mapping[str, AtomLike] = {}) -> PermLike:
    """The image of a delayed permutation under an assignment of its
    schematic atoms: a `Permutation` once every atom of its swap list is
    concrete, else the swap list of the images."""
    if isinstance(p, Permutation):
        return p
    swaps = tuple((resolve(a, metas), resolve(b, metas)) for a, b in p)
    if any(isinstance(x, MetaAtom) for swap in swaps for x in swap):
        return swaps
    return Permutation.from_swaps(swaps)  # type: ignore[arg-type]


def act(perm: Permutation, t: RawTerm) -> RawTerm:
    """Permutation action on raw terms. Variables are fixed; a delayed
    permutation is conjugated."""
    match t:
        case Var(_):
            return t
        case Atm(a):
            assert isinstance(a, Atom)
            return Atm(perm(a))
        case Susp(p, s):
            return Susp(perm.conjugate(_concrete_perm(p)), act(perm, s))
        case Abs(a, s):
            assert isinstance(a, Atom)
            return Abs(perm(a), act(perm, s))
        case Tup(items):
            return Tup(tuple(act(perm, s) for s in items))
        case App(f, s):
            return App(f, act(perm, s))
    raise TypeError(f"not a raw term: {t!r}")


def _walk(t: RawTerm) -> Iterator[Union[Variable, AtomLike]]:
    """Every variable and every atom or schematic atom occurring in `t`:
    binders, the atoms a `Permutation` moves, and both atoms of each
    transposition of a swap list. Iterative, so a deep term cannot exhaust
    the stack."""
    stack = [t]
    while stack:
        match stack.pop():
            case Var(v):
                yield v
            case Atm(a):
                yield a
            case Susp(p, s):
                if isinstance(p, Permutation):
                    yield from p.support()
                else:
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
    """Raw support: every atom occurring in the term, binders and delayed
    permutations included."""
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
    `resolve`); one the assignment leaves out is kept. The assignment need
    not be injective; transposition lists collapse accordingly."""
    match t:
        case Var(_):
            return t
        case Atm(a):
            return Atm(resolve(a, metas))
        case Susp(p, s):
            return Susp(_concrete_perm(p, metas), instantiate(s, metas))
        case Abs(a, s):
            return Abs(resolve(a, metas), instantiate(s, metas))
        case Tup(items):
            return Tup(tuple(instantiate(s, metas) for s in items))
        case App(f, s):
            return App(f, instantiate(s, metas))
    raise TypeError(f"not a raw term: {t!r}")


# --- substitution ------------------------------------------------------------

Substitution = dict[Variable, RawTerm]


def subst_apply(phi: Substitution, t: RawTerm) -> RawTerm:
    """Homomorphic extension of a substitution to raw terms. Atoms and
    binders are untouched: capture is permitted at this layer."""
    match t:
        case Var(v):
            return phi.get(v, t)
        case Atm(_):
            return t
        case Susp(p, s):
            return Susp(p, subst_apply(phi, s))
        case Abs(a, s):
            return Abs(a, subst_apply(phi, s))
        case Tup(items):
            return Tup(tuple(subst_apply(phi, s) for s in items))
        case App(f, s):
            return App(f, subst_apply(phi, s))
    raise TypeError(f"not a raw term: {t!r}")


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
            if v.sort is None:
                raise SortError(f"variable {v.name} has no declared sort")
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
