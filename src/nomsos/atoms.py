"""Sorted atoms, finite permutations, nominal sorts and signatures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union


@dataclass(frozen=True, order=True)
class AtomSort:
    """A sort of atoms (e.g. channel names)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Atom:
    """An atom: a pure name, identified by its sort and position in the
    per-sort enumeration. Display names are a parser/printer concern."""

    sort: AtomSort
    index: int

    def __str__(self) -> str:
        from .printer import atom_str

        return atom_str(self)


class PermutationError(ValueError):
    pass


@dataclass(frozen=True)
class Permutation:
    """A finite sort-preserving bijection on atoms, stored as the pairs it
    moves (no fixpoints). Canonical representation, so == is permutation
    equality."""

    pairs: tuple[tuple[Atom, Atom], ...]

    @staticmethod
    def of(mapping: Mapping[Atom, Atom]) -> "Permutation":
        moved = {a: b for a, b in mapping.items() if a != b}
        for a, b in moved.items():
            if a.sort != b.sort:
                raise PermutationError(f"permutation does not preserve sorts: {a} -> {b}")
        if len(set(moved.values())) != len(moved) or set(moved.values()) != set(moved):
            raise PermutationError("mapping is not a bijection on the atoms it moves")
        return Permutation(tuple(sorted(moved.items())))

    @staticmethod
    def identity() -> "Permutation":
        return Permutation(())

    @staticmethod
    def swap(a: Atom, b: Atom) -> "Permutation":
        if a == b:
            return Permutation(())
        return Permutation.of({a: b, b: a})

    @staticmethod
    def from_swaps(swaps: Iterable[tuple[Atom, Atom]]) -> "Permutation":
        """Compose a sequence of transpositions, leftmost applied last."""
        perm = Permutation.identity()
        for a, b in swaps:
            perm = perm.compose(Permutation.swap(a, b))
        return perm

    def __call__(self, a: Atom) -> Atom:
        return dict(self.pairs).get(a, a)

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(a) == self(other(a))."""
        if not self.pairs:
            return other
        if not other.pairs:
            return self
        atoms = {a for a, _ in self.pairs} | {a for a, _ in other.pairs}
        return Permutation.of({a: self(other(a)) for a in atoms})

    def inverse(self) -> "Permutation":
        return Permutation(tuple(sorted((b, a) for a, b in self.pairs)))

    def conjugate(self, other: "Permutation") -> "Permutation":
        """The action of self on other: self o other o self^-1."""
        return self.compose(other).compose(self.inverse())

    def support(self) -> frozenset[Atom]:
        return frozenset(a for a, _ in self.pairs)

    @property
    def is_identity(self) -> bool:
        return not self.pairs


# --- nominal sorts -----------------------------------------------------------


@dataclass(frozen=True)
class BaseSort:
    name: str


@dataclass(frozen=True)
class AtomSortRef:
    sort: AtomSort


@dataclass(frozen=True)
class AbsSort:
    atom_sort: AtomSort
    body: "NominalSort"


@dataclass(frozen=True)
class ProdSort:
    parts: tuple["NominalSort", ...]


NominalSort = Union[BaseSort, AtomSortRef, AbsSort, ProdSort]


def prod(parts: Iterable[NominalSort]) -> NominalSort:
    """Product sort, flattened; a 1-tuple collapses to its component."""
    flat = [q for p in parts for q in prod_parts(p)]
    if len(flat) == 1:
        return flat[0]
    return ProdSort(tuple(flat))


def prod_parts(s: NominalSort) -> tuple[NominalSort, ...]:
    """The components of a sort, unpacked as `prod` packs them."""
    return s.parts if isinstance(s, ProdSort) else (s,)


def sort_str(s: NominalSort, *, atomic: bool = False) -> str:
    match s:
        case BaseSort(name):
            return name
        case AtomSortRef(sort):
            return sort.name
        case AbsSort(alpha, body):
            return f"[{alpha.name}]{sort_str(body, atomic=True)}"
        case ProdSort(()):
            return "1"
        case ProdSort(parts):
            inner = " * ".join(sort_str(p, atomic=True) for p in parts)
            return f"({inner})" if atomic else inner
    raise TypeError(f"not a sort: {s!r}")


# --- signatures --------------------------------------------------------------


@dataclass(frozen=True)
class FuncDecl:
    """A function symbol f : arg -> result, result a base sort name."""

    name: str
    arg: NominalSort
    result: str


@dataclass(frozen=True)
class Signature:
    base_sorts: tuple[str, ...]
    atom_sorts: tuple[AtomSort, ...]
    functions: tuple[FuncDecl, ...]

    def func(self, name: str) -> Optional[FuncDecl]:
        for f in self.functions:
            if f.name == name:
                return f
        return None

    def atom_sort(self, name: str) -> Optional[AtomSort]:
        for s in self.atom_sorts:
            if s.name == name:
                return s
        return None

    def constructors_of(self, base: str) -> list[FuncDecl]:
        return [f for f in self.functions if f.result == base]


def wellformed_sort(sig: Signature, s: NominalSort) -> bool:
    match s:
        case BaseSort(name):
            return name in sig.base_sorts
        case AtomSortRef(sort):
            return sort in sig.atom_sorts
        case AbsSort(alpha, body):
            return alpha in sig.atom_sorts and wellformed_sort(sig, body)
        case ProdSort(parts):
            return all(wellformed_sort(sig, p) for p in parts)
    return False


def validate_signature(sig: Signature) -> list[str]:
    """Well-formedness report; empty iff the signature is valid."""
    report: list[str] = []
    names = [s.name for s in sig.atom_sorts] + list(sig.base_sorts)
    seen: set[str] = set()
    for n in names:
        if n in seen:
            report.append(f"duplicate sort name: {n}")
        seen.add(n)
    fseen: set[str] = set()
    for f in sig.functions:
        if f.name in fseen:
            report.append(f"duplicate function: {f.name}")
        fseen.add(f.name)
        if f.name in seen:
            report.append(f"function name clashes with a sort: {f.name}")
        if f.result not in sig.base_sorts:
            report.append(f"function {f.name}: result {f.result} is not a base sort")
        if not wellformed_sort(sig, f.arg):
            report.append(f"function {f.name}: ill-formed argument sort {sort_str(f.arg)}")
    return report


def fresh_atoms(sort: AtomSort, avoid: Iterable[Atom], n: int) -> list[Atom]:
    """The n smallest-index atoms of `sort` not in `avoid`. Deterministic."""
    if n < 0:
        raise ValueError("n must be non-negative")
    taken = {a.index for a in avoid if a.sort == sort}
    out: list[Atom] = []
    i = 0
    while len(out) < n:
        if i not in taken:
            out.append(Atom(sort, i))
        i += 1
    return out
