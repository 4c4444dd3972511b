"""Parser for specification files and for the term/formula/environment
syntax used on the command line.

Identifier resolution inside terms: schematic atoms bound by `forall`, then
declared variables, then function symbols; any remaining single-letter name
is an atom literal (letters a..z alias the per-sort enumeration indices
0..25)."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .atoms import (
    AbsSort,
    Atom,
    AtomSort,
    AtomSortRef,
    BaseSort,
    FuncDecl,
    NominalSort,
    ProdSort,
    Signature,
    prod,
)
from .freshness import Assertion
from .spec import Formula, ResidualSignature, Rule, Spec, StratCase
from .terms import (
    Abs,
    Atm,
    AtomLike,
    MetaAtom,
    RawTerm,
    Susp,
    Tup,
    Var,
    Variable,
    app,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*|\#\#[^\n]*)
  | (?P<arrow>->)
  | (?P<turnstile>\|-)
  | (?P<neq>!=)
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<nat>\d+)
  | (?P<sym>[;:{}()\[\],*=@#+∘])
    """,
    re.VERBOSE,
)

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind != "ws":
            tok_kind = chunk if kind == "sym" else kind
            tokens.append(Token(tok_kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.tok
        return t.kind == kind and (text is None or t.text == text)

    def take(self, kind: str, text: Optional[str] = None) -> Token:
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {self.tok.text!r}", self.tok.line, self.tok.col)
        t = self.tok
        self.i += 1
        return t

    def try_take(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.take(kind, text)
        return None

    def error(self, msg: str):
        raise ParseError(msg, self.tok.line, self.tok.col)


@dataclass
class _Scope:
    """Name resolution context for one term."""

    sig: Signature
    variables: dict[str, Variable]
    metas: dict[str, MetaAtom]
    allow_atoms: bool = True


def _resolve_atomlike(scope: _Scope, tok: Token, cur: _Cursor) -> AtomLike:
    name = tok.text
    if name in scope.metas:
        return scope.metas[name]
    atom = _atom_literal(scope, name)
    if atom is None:
        cur.error(f"{name!r} is not an atom here")
    return atom  # type: ignore[return-value]


def _atom_literal(scope: _Scope, name: str) -> Optional[Atom]:
    if not scope.allow_atoms:
        return None
    if len(name) == 1 and name in _ALPHABET and len(scope.sig.atom_sorts) == 1:
        return Atom(scope.sig.atom_sorts[0], _ALPHABET.index(name))
    m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*?)(\d+)", name)
    if m and scope.sig.atom_sort(m.group(1)) is not None:
        return Atom(scope.sig.atom_sort(m.group(1)), int(m.group(2)))  # type: ignore[arg-type]
    return None


def _parse_sort(cur: _Cursor, sig_atoms: dict[str, AtomSort], sig_bases: set[str]) -> NominalSort:
    parts = [_parse_sort_prim(cur, sig_atoms, sig_bases)]
    while cur.try_take("*"):
        parts.append(_parse_sort_prim(cur, sig_atoms, sig_bases))
    if len(parts) == 1:
        return parts[0]
    return prod(parts)


def _parse_sort_prim(cur: _Cursor, sig_atoms: dict[str, AtomSort], sig_bases: set[str]) -> NominalSort:
    if cur.try_take("nat", "1"):
        return ProdSort(())
    if cur.try_take("["):
        name = cur.take("name").text
        if name not in sig_atoms:
            cur.error(f"unknown atom sort {name!r}")
        cur.take("]")
        body = _parse_sort_prim(cur, sig_atoms, sig_bases)
        return AbsSort(sig_atoms[name], body)
    if cur.try_take("("):
        s = _parse_sort(cur, sig_atoms, sig_bases)
        cur.take(")")
        return s
    name = cur.take("name").text
    if name in sig_atoms:
        return AtomSortRef(sig_atoms[name])
    if name in sig_bases:
        return BaseSort(name)
    cur.error(f"unknown sort {name!r}")
    raise AssertionError


# --- terms -------------------------------------------------------------------


def _parse_term(cur: _Cursor, scope: _Scope) -> RawTerm:
    if cur.at("["):
        cur.take("[")
        binder = _resolve_atomlike(scope, cur.take("name"), cur)
        cur.take("]")
        return Abs(binder, _parse_term(cur, scope))
    if cur.at("("):
        susp = _try_parse_susp(cur, scope)
        if susp is not None:
            return susp
        cur.take("(")
        if cur.try_take(")"):
            return Tup(())
        items = [_parse_term(cur, scope)]
        while cur.try_take(","):
            items.append(_parse_term(cur, scope))
        cur.take(")")
        if len(items) == 1:
            return items[0]
        return Tup(tuple(items))
    tok = cur.take("name")
    name = tok.text
    if name in scope.metas:
        return Atm(scope.metas[name])
    if name in scope.variables:
        return Var(scope.variables[name])
    decl = scope.sig.func(name)
    if decl is not None:
        args = []
        if cur.try_take("("):
            args.append(_parse_term(cur, scope))
            while cur.try_take(","):
                args.append(_parse_term(cur, scope))
            cur.take(")")
        return app(name, *args)
    atom = _atom_literal(scope, name)
    if atom is not None:
        return Atm(atom)
    raise ParseError(f"unknown identifier {name!r}", tok.line, tok.col)


def _try_parse_susp(cur: _Cursor, scope: _Scope) -> Optional[RawTerm]:
    """Backtracking attempt at '(' perm ')' '*' term, where perm composes
    transpositions '(a b)' and the identity 'id' with 'o'."""
    start = cur.i
    try:
        cur.take("(")
        swaps: list[tuple[AtomLike, AtomLike]] = []
        while True:
            if not cur.try_take("name", "id"):
                cur.take("(")
                a = _resolve_atomlike(scope, cur.take("name"), cur)
                b = _resolve_atomlike(scope, cur.take("name"), cur)
                cur.take(")")
                swaps.append((a, b))
            if cur.try_take("name", "o") or cur.try_take("∘"):
                continue
            break
        cur.take(")")
        cur.take("*")
    except ParseError:
        cur.i = start
        return None
    return Susp(tuple(swaps), _parse_term(cur, scope))


def _parse_formula(cur: _Cursor, scope: _Scope) -> Formula:
    source = _parse_term(cur, scope)
    cur.take("arrow")
    return Formula(source, _parse_term(cur, scope))


def _parse_assertion(cur: _Cursor, scope: _Scope) -> Assertion:
    atom = _resolve_atomlike(scope, cur.take("name"), cur)
    cur.take("#")
    return Assertion(atom, _parse_term(cur, scope))


# --- spec files --------------------------------------------------------------


def parse_spec(text: str) -> Spec:
    cur = _Cursor(_tokenize(text))
    atom_sorts: dict[str, AtomSort] = {}
    base_sorts: list[str] = []

    if not cur.at("name", "atomsort"):
        cur.error("missing signature: spec must start with 'atomsort'")
    while cur.try_take("name", "atomsort"):
        while cur.at("name"):
            n = cur.take("name").text
            atom_sorts[n] = AtomSort(n)
        cur.take(";")
    while cur.try_take("name", "basesort"):
        while cur.at("name"):
            base_sorts.append(cur.take("name").text)
        cur.take(";")
    bases = set(base_sorts)

    cur.take("name", "statesort")
    state_sort = _parse_sort(cur, atom_sorts, bases)
    cur.take(";")
    cur.take("name", "residualsort")
    residual_sort = _parse_sort(cur, atom_sorts, bases)
    cur.take(";")

    functions: list[FuncDecl] = []
    variables: dict[str, Variable] = {}
    rules: list[Rule] = []
    bn: dict[str, tuple[int, ...]] = {}
    strat: list[StratCase] = []

    def sig() -> Signature:
        return Signature(tuple(base_sorts), tuple(atom_sorts.values()), tuple(functions))

    while not cur.at("eof"):
        if cur.try_take("name", "func"):
            name = cur.take("name").text
            cur.take(":")
            arg = _parse_sort(cur, atom_sorts, bases)
            cur.take("arrow")
            result = cur.take("name").text
            cur.take(";")
            functions.append(FuncDecl(name, arg, result))
        elif cur.try_take("name", "var"):
            name = cur.take("name").text
            cur.take(":")
            sort = _parse_sort(cur, atom_sorts, bases)
            cur.take(";")
            variables[name] = Variable(name, sort)
        elif cur.try_take("name", "bn"):
            name = cur.take("name").text
            cur.take("=")
            cur.take("{")
            positions = [int(cur.take("nat").text)]
            while cur.try_take(","):
                positions.append(int(cur.take("nat").text))
            cur.take("}")
            cur.take(";")
            bn[name] = tuple(positions)
        elif cur.try_take("name", "rule"):
            rules.append(_parse_rule(cur, sig(), variables, atom_sorts))
        elif cur.try_take("name", "order"):
            strat.append(_parse_strat_case(cur, sig(), variables, atom_sorts))
        else:
            cur.error(f"expected a declaration, found {cur.tok.text!r}")

    rsig = ResidualSignature(sig(), state_sort, residual_sort)
    return Spec(rsig, tuple(rules), bn, tuple(strat), variables)


def _take_variable(cur: _Cursor, variables: dict[str, Variable]) -> Variable:
    tok = cur.take("name")
    v = variables.get(tok.text)
    if v is None:
        raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
    return v


def _single_atom_sort(atom_sorts: dict[str, AtomSort], cur: _Cursor) -> AtomSort:
    if len(atom_sorts) != 1:
        cur.error("atom sort annotation required when several atom sorts exist")
    return next(iter(atom_sorts.values()))


def _parse_rule(
    cur: _Cursor,
    sig: Signature,
    variables: dict[str, Variable],
    atom_sorts: dict[str, AtomSort],
) -> Rule:
    name = cur.take("name").text
    metas: dict[str, MetaAtom] = {}
    if cur.try_take("name", "forall"):
        # names separated by spaces/commas; a group may end in ": sortname";
        # the ":" closing the quantifier list is told apart by what follows it
        group: list[str] = []
        while True:
            if cur.at("name"):
                group.append(cur.take("name").text)
                cur.try_take(",")
                continue
            colon = cur.take(":")
            if cur.at("name") and cur.tok.text in atom_sorts:
                sort = atom_sorts[cur.take("name").text]
                for g in group:
                    metas[g] = MetaAtom(g, sort)
                group = []
                cur.try_take(",")
                continue
            if group:
                for g in group:
                    metas[g] = MetaAtom(g, _single_atom_sort(atom_sorts, cur))
            if not metas:
                raise ParseError("empty forall", colon.line, colon.col)
            break
    else:
        cur.take(":")

    scope = _Scope(sig, variables, metas)
    label_excluded: list[tuple[Variable, tuple[str, ...]]] = []
    premises: list[Formula] = []
    env: list[Assertion] = []
    while cur.try_take("name", "label"):
        lvar = _take_variable(cur, variables)
        cur.take("name", "notin")
        cur.take("{")
        excl = [cur.take("name").text]
        while cur.try_take(","):
            excl.append(cur.take("name").text)
        cur.take("}")
        cur.take(";")
        label_excluded.append((lvar, tuple(excl)))
    while cur.try_take("name", "premise"):
        premises.append(_parse_formula(cur, scope))
        cur.take(";")
    while cur.try_take("name", "fresh"):
        env.append(_parse_assertion(cur, scope))
        cur.take(";")
    cur.take("name", "conclusion")
    conclusion = _parse_formula(cur, scope)
    cur.take(";")
    return Rule(
        name=name,
        metas=tuple(sorted(metas.values(), key=lambda m: m.name)),
        premises=tuple(premises),
        env=tuple(env),
        conclusion=conclusion,
        label_excluded=tuple(label_excluded),
    )


class _CaseMetas(dict):
    """The schematic atoms of one order clause, made on first use: a name in
    a clause's patterns that is neither a declared variable nor a function
    symbol is a case-local schematic atom."""

    def __init__(
        self,
        sig: Signature,
        variables: dict[str, Variable],
        atom_sorts: dict[str, AtomSort],
        cur: _Cursor,
    ):
        super().__init__()
        self.sig = sig
        self.variables = variables
        self.atom_sorts = atom_sorts
        self.cur = cur

    def __contains__(self, name: object) -> bool:
        if name in self.variables or self.sig.func(name) is not None:
            return False
        if not super().__contains__(name):
            self[name] = MetaAtom(name, _single_atom_sort(self.atom_sorts, self.cur))
        return True


def _parse_strat_case(
    cur: _Cursor,
    sig: Signature,
    variables: dict[str, Variable],
    atom_sorts: dict[str, AtomSort],
) -> StratCase:
    metas = _CaseMetas(sig, variables, atom_sorts, cur)
    scope = _Scope(sig, variables, metas, allow_atoms=False)
    head = _parse_term(cur, scope)
    cur.take("@")
    label = _parse_term(cur, scope)
    constraints: list[tuple[str, str, bool]] = []
    if cur.try_take("name", "when"):
        while True:
            m1 = cur.take("name").text
            if cur.try_take("neq"):
                eq = False
            else:
                cur.take("=")
                eq = True
            m2 = cur.take("name").text
            constraints.append((m1, m2, eq))
            if not cur.try_take(","):
                break
    cur.take("=")
    base: Optional[int] = None
    recursion: list[tuple[Variable, RawTerm]] = []
    if cur.at("nat") and cur.tokens[cur.i + 1].kind != "+":
        base = int(cur.take("nat").text)
    else:
        one = cur.take("nat")
        if one.text != "1":
            raise ParseError("measure must be NAT or 1 + max(...)", one.line, one.col)
        cur.take("+")
        cur.take("name", "max")
        cur.take("(")
        while True:
            cur.take("name", "S")
            cur.take("(")
            v = _take_variable(cur, variables)
            cur.take(",")
            labpat = _parse_term(cur, scope)
            cur.take(")")
            recursion.append((v, labpat))
            if not cur.try_take(","):
                break
        cur.take(")")
    cur.take(";")
    return StratCase(head, label, tuple(constraints), base, tuple(recursion))


# --- command-line term syntax --------------------------------------------------


def _cli_scope(spec: Spec) -> _Scope:
    return _Scope(spec.signature, spec.variables, {})


def parse_term_str(spec: Spec, text: str) -> RawTerm:
    cur = _Cursor(_tokenize(text))
    t = _parse_term(cur, _cli_scope(spec))
    cur.take("eof")
    return t


def parse_formula_str(spec: Spec, text: str) -> Formula:
    cur = _Cursor(_tokenize(text))
    f = _parse_formula(cur, _cli_scope(spec))
    cur.take("eof")
    return f


def _parse_env(cur: _Cursor, scope: _Scope) -> frozenset[Assertion]:
    cur.take("{")
    out: set[Assertion] = set()
    if not cur.at("}"):
        while True:
            assertion = _parse_assertion(cur, scope)
            if not isinstance(assertion.atom, Atom):
                cur.error("environment assertions need concrete atoms")
            out.add(assertion)
            if not cur.try_take(","):
                break
    cur.take("}")
    return frozenset(out)


def parse_env_str(spec: Spec, text: str) -> frozenset[Assertion]:
    cur = _Cursor(_tokenize(text))
    e = _parse_env(cur, _cli_scope(spec))
    cur.take("eof")
    return e


def parse_entailment_str(
    spec: Spec, text: str
) -> tuple[frozenset[Assertion], frozenset[Assertion]]:
    cur = _Cursor(_tokenize(text))
    scope = _cli_scope(spec)
    left = _parse_env(cur, scope)
    cur.take("turnstile")
    right = _parse_env(cur, scope)
    cur.take("eof")
    return left, right
