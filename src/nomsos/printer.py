"""Deterministic concrete-syntax printing for atoms, terms, formulas and
environments, and the reading of an atom's name, which the parser uses. The
printed form need not parse back to the same object: an atom of index below
26 prints as a bare letter, as `a`, `b`, ..., even where that letter names
a variable of the spec (in `pi.spec`, `out(ch23, a, null)` prints as
`out(x, a, null)`, and `in(a, [ch11]...)` as `in(a, [l]...)`), and with
several atom sorts the sort is lost and the letters do not parse. ROADMAP
item 9 is the fix. A schematic
atom prints by its name, and an environment, such as the frozenset that
`freshness.nf` returns, by its assertions in sorted order."""

from __future__ import annotations

import re
from typing import Iterable, Optional

from .atoms import Atom, Signature
from .terms import Abs, App, Atm, AtomLike, MetaAtom, RawTerm, Susp, Tup, Var, app_args

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"
_SORT_INDEX = re.compile(r"([A-Za-z_][A-Za-z0-9_]*?)(\d+)")


def atom_str(a: AtomLike) -> str:
    if isinstance(a, MetaAtom):
        return a.name
    if a.index < len(_ALPHABET):
        return _ALPHABET[a.index]
    return f"{a.sort.name}{a.index}"


def atom_named(sig: Signature, name: str) -> Optional[Atom]:
    """The atom a name spells, or None: a letter `a`..`z` is the index
    alone when the signature has one atom sort; otherwise the name is an
    atom sort's name followed by the index, as in `ch30`."""
    if len(sig.atom_sorts) == 1 and len(name) == 1 and name in _ALPHABET:
        return Atom(sig.atom_sorts[0], _ALPHABET.index(name))
    m = _SORT_INDEX.fullmatch(name)
    sort = sig.atom_sort(m.group(1)) if m else None
    return None if sort is None else Atom(sort, int(m.group(2)))


def _swaplist_str(pairs) -> str:
    """A delayed permutation as written: its transpositions joined by `o`,
    or `id` for none."""
    if not pairs:
        return "id"
    return "o".join(f"({atom_str(a)} {atom_str(b)})" for a, b in pairs)


def term_str(t: RawTerm) -> str:
    kind = type(t)
    if kind is App:
        args = app_args(t)
        if not args:
            return t.func
        return t.func + "(" + ", ".join([term_str(s) for s in args]) + ")"
    if kind is Atm:
        return atom_str(t.atom)
    if kind is Tup:
        return "(" + ", ".join([term_str(s) for s in t.items]) + ")"
    if kind is Abs:
        return f"[{atom_str(t.binder)}]{term_str(t.body)}"
    if kind is Var:
        return t.var.name
    if kind is Susp:
        return f"({_swaplist_str(t.perm)})*{term_str(t.term)}"
    raise TypeError(f"not a raw term: {t!r}")


def formula_str(source: RawTerm, target: RawTerm) -> str:
    return f"{term_str(source)} -> {term_str(target)}"


def assertion_str(atom: AtomLike, term: RawTerm) -> str:
    return f"{atom_str(atom)} # {term_str(term)}"


def env_str(assertions: Iterable) -> str:
    parts = sorted(assertion_str(a.atom, a.term) for a in assertions)
    return "{" + ", ".join(parts) + "}"


def atoms_str(atoms: Iterable[Atom]) -> str:
    return "{" + ", ".join(atom_str(a) for a in sorted(atoms)) + "}"
