"""Deterministic concrete-syntax printing for atoms, terms, formulas and
environments. In a spec with one atom sort, the printed form parses back to
the same object. With several atom sorts it does not: atoms print by index
alone, as `a`, `b`, ..., so the sort is lost and the letters do not parse."""

from __future__ import annotations

from typing import Iterable

from .atoms import Atom, Permutation
from .terms import Abs, App, Atm, MetaAtom, RawTerm, Susp, Tup, Var, app_args

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def atom_str(a: Atom) -> str:
    if a.index < len(_ALPHABET):
        return _ALPHABET[a.index]
    return f"{a.sort.name}{a.index}"


def _atomlike_str(a) -> str:
    if isinstance(a, MetaAtom):
        return a.name
    return atom_str(a)


def perm_str(p: Permutation) -> str:
    """A permutation as a composition of transpositions of its support."""
    if p.is_identity:
        return "id"
    swaps: list[str] = []
    remaining = dict(p.pairs)
    # decompose into cycles, then cycles into transpositions
    while remaining:
        start = min(remaining)
        cycle = [start]
        nxt = remaining.pop(start)
        while nxt != start:
            cycle.append(nxt)
            nxt = remaining.pop(nxt)
        for i in range(len(cycle) - 1, 0, -1):
            swaps.append(f"({atom_str(cycle[0])} {atom_str(cycle[i])})")
    return "o".join(swaps)


def _swaplist_str(pairs) -> str:
    return "o".join(f"({_atomlike_str(a)} {_atomlike_str(b)})" for a, b in pairs)


def term_str(t: RawTerm) -> str:
    match t:
        case Var(v):
            return v.name
        case Atm(a):
            return _atomlike_str(a)
        case Susp(p, s):
            inner = perm_str(p) if isinstance(p, Permutation) else _swaplist_str(p)
            return f"({inner})*{term_str(s)}"
        case Abs(a, s):
            return f"[{_atomlike_str(a)}]{term_str(s)}"
        case Tup(items):
            return "(" + ", ".join(term_str(s) for s in items) + ")"
        case App(f, _):
            args = app_args(t)
            if not args:
                return f
            return f + "(" + ", ".join(term_str(s) for s in args) + ")"
    raise TypeError(f"not a raw term: {t!r}")


def formula_str(source: RawTerm, target: RawTerm) -> str:
    return f"{term_str(source)} -> {term_str(target)}"


def assertion_str(assertion) -> str:
    return f"{_atomlike_str(assertion.atom)} # {term_str(assertion.term)}"


def env_str(assertions: Iterable) -> str:
    parts = sorted(assertion_str(a) for a in assertions)
    return "{" + ", ".join(parts) + "}"


def atoms_str(atoms: Iterable[Atom]) -> str:
    return "{" + ", ".join(atom_str(a) for a in sorted(atoms)) + "}"
