"""Shared fixtures: the bundled corpus, seeded random term generators, and
an independent brute-force alpha-equivalence oracle."""

from __future__ import annotations

import random

import pytest

from nomsos import (
    Abs,
    App,
    Atm,
    Atom,
    AtomSort,
    Permutation,
    RawTerm,
    Susp,
    Tup,
    Var,
    Variable,
    load_corpus,
)
from nomsos.atoms import AbsSort, AtomSortRef, BaseSort, ProdSort

CH = AtomSort("ch")
PR = BaseSort("pr")


@pytest.fixture(scope="session")
def pi_spec():
    return load_corpus("pi.spec")


@pytest.fixture(scope="session")
def pi_broken_spec():
    return load_corpus("pi-broken.spec")


def atoms(n: int) -> list[Atom]:
    return [Atom(CH, i) for i in range(n)]


def random_swaps(rng: random.Random, pool: list[Atom]) -> tuple[tuple[Atom, Atom], ...]:
    """Up to three transpositions of distinct atoms of the pool, as a
    suspension keeps them."""
    return tuple(tuple(rng.sample(pool, 2)) for _ in range(rng.randrange(0, 4)))


def random_perm(rng: random.Random, pool: list[Atom]) -> Permutation:
    """The permutation of `random_swaps`, drawing the same random numbers."""
    return Permutation.from_swaps(random_swaps(rng, pool))


def random_term(
    rng: random.Random,
    spec,
    sort=PR,
    depth: int = 4,
    pool: list[Atom] | None = None,
    variables: list[Variable] | None = None,
    susp: bool = False,
) -> RawTerm:
    """A sort-correct raw term over the corpus signature; optionally with
    free variables and delayed permutations."""
    pool = pool if pool is not None else atoms(4)
    if susp and depth > 0 and rng.random() < 0.2:
        return Susp(
            random_swaps(rng, pool),
            random_term(rng, spec, sort, depth - 1, pool, variables, susp),
        )
    match sort:
        case AtomSortRef(alpha):
            return Atm(rng.choice([a for a in pool if a.sort == alpha]))
        case AbsSort(alpha, body):
            binder = rng.choice([a for a in pool if a.sort == alpha])
            return Abs(binder, random_term(rng, spec, body, depth - 1, pool, variables, susp))
        case ProdSort(parts):
            return Tup(
                tuple(
                    random_term(rng, spec, p, depth - 1, pool, variables, susp)
                    for p in parts
                )
            )
        case BaseSort(_):
            if variables and rng.random() < 0.25:
                usable = [v for v in variables if v.sort == sort]
                if usable:
                    return Var(rng.choice(usable))
            decls = spec.signature.constructors_of(sort.name)
            if depth <= 0:
                decls = [d for d in decls if _min_depth(spec, d) == 0] or decls[:1]
            decl = rng.choice(decls)
            arg = random_term(rng, spec, decl.arg, depth - 1, pool, variables, susp)
            if not isinstance(decl.arg, ProdSort):
                pass
            return App(decl.name, arg)
    raise AssertionError(sort)


def _min_depth(spec, decl) -> int:
    return 0 if decl.arg == ProdSort(()) else 1


def random_state(rng: random.Random, spec, depth: int = 3) -> RawTerm:
    """A ground process term (no variables, no delayed permutations)."""
    return random_term(rng, spec, PR, depth, atoms(3))


# --- brute-force alpha oracle ---------------------------------------------------


def oracle_free_atoms(t: RawTerm) -> set[Atom]:
    match t:
        case Atm(a):
            return {a}
        case Abs(a, body):
            return oracle_free_atoms(body) - {a}
        case Tup(items):
            out: set[Atom] = set()
            for i in items:
                out |= oracle_free_atoms(i)
            return out
        case App(_, arg):
            return oracle_free_atoms(arg)
    raise AssertionError(f"oracle handles ground constructor terms only: {t}")


def oracle_swap(a: Atom, b: Atom, t: RawTerm) -> RawTerm:
    def sw(c: Atom) -> Atom:
        return b if c == a else a if c == b else c

    match t:
        case Atm(c):
            return Atm(sw(c))
        case Abs(c, body):
            return Abs(sw(c), oracle_swap(a, b, body))
        case Tup(items):
            return Tup(tuple(oracle_swap(a, b, i) for i in items))
        case App(f, arg):
            return App(f, oracle_swap(a, b, arg))
    raise AssertionError(t)


def oracle_alpha(s: RawTerm, t: RawTerm) -> bool:
    """Textbook definition: abstractions are equivalent when the binders
    coincide, or the left binder is not free on the right and swapping
    binders aligns the bodies."""
    match (s, t):
        case (Atm(a), Atm(b)):
            return a == b
        case (Abs(a, p), Abs(b, q)):
            if a == b:
                return oracle_alpha(p, q)
            return a not in oracle_free_atoms(q) and oracle_alpha(
                p, oracle_swap(a, b, q)
            )
        case (Tup(ps), Tup(qs)):
            return len(ps) == len(qs) and all(
                oracle_alpha(p, q) for p, q in zip(ps, qs)
            )
        case (App(f, p), App(g, q)):
            return f == g and oracle_alpha(p, q)
    return False


def term_size(t: RawTerm) -> int:
    match t:
        case Atm(_):
            return 1
        case Abs(_, body):
            return 1 + term_size(body)
        case Tup(items):
            return sum(term_size(i) for i in items)
        case App(_, arg):
            return 1 + term_size(arg)
    raise AssertionError(t)


def all_ground_terms(spec, sort, size: int, pool: list[Atom]) -> list[RawTerm]:
    """Every ground constructor term of the sort with the given node count."""
    if size <= 0:
        return []
    match sort:
        case AtomSortRef(alpha):
            return [Atm(a) for a in pool if a.sort == alpha] if size == 1 else []
        case AbsSort(alpha, body):
            out = []
            for t in all_ground_terms(spec, body, size - 1, pool):
                out += [Abs(a, t) for a in pool if a.sort == alpha]
            return out
        case ProdSort(parts):
            if not parts:
                return [Tup(())] if size == 0 else []
            combos: list[tuple[int, list[RawTerm]]] = [(size, [])]
            done: list[list[RawTerm]] = []
            for i, p in enumerate(parts):
                nxt = []
                last = i == len(parts) - 1
                for remaining, items in combos:
                    sizes = [remaining] if last else range(1, remaining + 1)
                    for k in sizes:
                        for t in all_ground_terms(spec, p, k, pool):
                            nxt.append((remaining - k, items + [t]))
                combos = nxt
            return [Tup(tuple(items)) for remaining, items in combos if remaining == 0]
        case BaseSort(name):
            out = []
            for decl in spec.signature.constructors_of(name):
                if decl.arg == ProdSort(()):
                    if size == 1:
                        out.append(App(decl.name, Tup(())))
                    continue
                for t in all_ground_terms(spec, decl.arg, size - 1, pool):
                    out.append(App(decl.name, t))
            return out
    raise AssertionError(sort)
