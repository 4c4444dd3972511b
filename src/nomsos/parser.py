"""Parser for specification files and for the term/formula/environment
syntax used on the command line.

Every identifier goes through one resolver, `_Scope.resolve`. It looks a name
up in this order: the schematic atoms of the rule (its `forall`), declared
variables, function symbols, and atom literals (`printer.atom_named`: a
letter `a`..`z` for the index when the spec has one atom sort, otherwise the
sort's name and the index, as `ch30`). The first of these that the position
can take wins: a term takes any of them, a binder, a transposition or the
left of `#` takes an atom, and `label` and `S(...)` take a variable. In an
order clause there are no atom literals: a name that is not a schematic
atom, variable or function symbol is a new schematic atom of the clause, of
the spec's single atom sort."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Collection, NamedTuple, NoReturn, Optional, Union

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
from .printer import atom_named
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
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    """One scan of the master pattern; only whitespace spans a newline, and
    a column counts from the last newline before the token."""
    tokens: list[Token] = []
    line, start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, chunk = m.lastgroup, m.group()
        if kind == "ws":
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                start = m.start() + chunk.rfind("\n") + 1
            continue
        col = m.start() - start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", line, col)
        tokens.append(Token(chunk if kind == "sym" else kind, chunk, line, col))
    tokens.append(Token("eof", "", line, len(text) - start + 1))
    return tokens


def _shown(tok: Token) -> str:
    return "end of input" if tok.kind == "eof" else repr(tok.text)


class _Cursor:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def tok(self) -> Token:
        return self.tokens[self.i]

    def at(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        t = self.tokens[self.i]
        return t if t.kind == kind and (text is None or t.text == text) else None

    def try_take(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        t = self.at(kind, text)
        if t is not None:
            self.i += 1
        return t

    def take(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.try_take(kind, text)
        if t is None:
            self.error(f"expected {text or kind!r}, found {_shown(self.tok)}")
        return t

    def sep(self, item: Callable, *args, by: str = ",") -> list:
        """`item (by item)*`, each item read by `item(self, *args)`."""
        items = [item(self, *args)]
        while self.try_take(by):
            items.append(item(self, *args))
        return items

    def error(self, msg: str) -> NoReturn:
        raise ParseError(msg, self.tok.line, self.tok.col)


def _read_all(text: str, read: Callable, *args):
    """`read(cursor, *args)` over the whole of `text`."""
    cur = _Cursor(_tokenize(text))
    out = read(cur, *args)
    cur.take("eof")
    return out


_ANY = (MetaAtom, Variable, FuncDecl, Atom)
_ATOM = (MetaAtom, Atom)
_VARIABLE = (Variable,)


def _single_atom_sort(sorts: Collection[AtomSort], cur: _Cursor) -> AtomSort:
    if len(sorts) != 1:
        cur.error("atom sort annotation required when several atom sorts exist")
    return next(iter(sorts))


@dataclass
class _Scope:
    """Name resolution for the terms of one rule, order clause or
    command-line input."""

    sig: Signature
    variables: dict[str, Variable]
    metas: dict[str, MetaAtom] = field(default_factory=dict)
    clause: bool = False
    """Whether the scope is an order clause's; see `resolve`."""

    def resolve(
        self, name: str, cur: _Cursor, kinds: tuple[type, ...] = _ANY
    ) -> Union[MetaAtom, Variable, FuncDecl, Atom, None]:
        """The first of the schematic atom, variable, function symbol and
        atom literal that `name` denotes and that is one of `kinds`, or None.
        In an order clause a name that is none of the first three is a new
        schematic atom, where `kinds` takes one, instead of an atom literal."""
        known = False
        for look in (self.metas.get, self.variables.get, self.sig.func):
            found = look(name)
            if isinstance(found, kinds):
                return found
            known = known or found is not None
        if not self.clause:
            atom = atom_named(self.sig, name)
            return atom if isinstance(atom, kinds) else None
        if known or MetaAtom not in kinds:
            return None
        meta = self.metas[name] = MetaAtom(name, _single_atom_sort(self.sig.atom_sorts, cur))
        return meta


def _take_atom(cur: _Cursor, scope: _Scope) -> AtomLike:
    tok = cur.take("name")
    atom = scope.resolve(tok.text, cur, _ATOM)
    if atom is None:
        raise ParseError(f"{tok.text!r} is not an atom here", tok.line, tok.col)
    return atom  # type: ignore[return-value]


def _take_variable(cur: _Cursor, scope: _Scope) -> Variable:
    tok = cur.take("name")
    v = scope.resolve(tok.text, cur, _VARIABLE)
    if v is None:
        raise ParseError(f"unknown variable {tok.text!r}", tok.line, tok.col)
    return v  # type: ignore[return-value]


def _take_nat(cur: _Cursor) -> int:
    return int(cur.take("nat").text)


def _take_name(cur: _Cursor) -> str:
    return cur.take("name").text


def _parse_sort(cur: _Cursor, d: _Decls) -> NominalSort:
    return prod(cur.sep(_parse_sort_prim, d, by="*"))


def _parse_sort_prim(cur: _Cursor, d: _Decls) -> NominalSort:
    if cur.try_take("nat", "1"):
        return ProdSort(())
    if cur.try_take("["):
        name = _take_name(cur)
        if name not in d.atom_sorts:
            cur.error(f"unknown atom sort {name!r}")
        cur.take("]")
        return AbsSort(d.atom_sorts[name], _parse_sort_prim(cur, d))
    if cur.try_take("("):
        s = _parse_sort(cur, d)
        cur.take(")")
        return s
    name = _take_name(cur)
    if name in d.atom_sorts:
        return AtomSortRef(d.atom_sorts[name])
    if name in d.base_sorts:
        return BaseSort(name)
    cur.error(f"unknown sort {name!r}")


# --- terms -------------------------------------------------------------------


def _parse_term(cur: _Cursor, scope: _Scope) -> RawTerm:
    # Leading binders are read in a loop, not by recursion, so that nesting
    # costs the stack no more than the rest of the program allows.
    binders = []
    while cur.try_take("["):
        binders.append(_take_atom(cur, scope))
        cur.take("]")
    t = _try_parse_susp(cur, scope) if cur.at("(") else None
    if t is None and cur.try_take("("):
        items = [] if cur.at(")") else cur.sep(_parse_term, scope)
        cur.take(")")
        t = items[0] if len(items) == 1 else Tup(tuple(items))
    elif t is None:
        tok = cur.take("name")
        found = scope.resolve(tok.text, cur)
        if isinstance(found, FuncDecl):
            args = []
            if cur.try_take("("):
                args = cur.sep(_parse_term, scope)
                cur.take(")")
            t = app(tok.text, *args)
        elif isinstance(found, Variable):
            t = Var(found)
        elif found is None:
            raise ParseError(f"unknown identifier {tok.text!r}", tok.line, tok.col)
        else:
            t = Atm(found)
    for binder in reversed(binders):
        t = Abs(binder, t)
    return t


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
                swaps.append((_take_atom(cur, scope), _take_atom(cur, scope)))
                cur.take(")")
            if not (cur.try_take("name", "o") or cur.try_take("∘")):
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
    atom = _take_atom(cur, scope)
    cur.take("#")
    return Assertion(atom, _parse_term(cur, scope))


# --- spec files --------------------------------------------------------------


def parse_spec(text: str) -> Spec:
    return _read_all(text, _read_spec)


class _Decls:
    """The sorts and declarations of a spec read so far."""

    def __init__(self) -> None:
        self.atom_sorts: dict[str, AtomSort] = {}
        self.base_sorts: list[str] = []
        self.functions: list[FuncDecl] = []
        self.variables: dict[str, Variable] = {}
        self.rules: list[Rule] = []
        self.bn: dict[str, tuple[int, ...]] = {}
        self.strat: list[StratCase] = []

    def sig(self) -> Signature:
        return Signature(tuple(self.base_sorts), tuple(self.atom_sorts.values()), tuple(self.functions))


def _read_spec(cur: _Cursor) -> Spec:
    if not cur.at("name", "atomsort"):
        cur.error("missing signature: spec must start with 'atomsort'")
    d = _Decls()
    while cur.try_take("name", "atomsort"):
        while tok := cur.try_take("name"):
            if tok.text[-1].isdigit():
                # An atom literal is the sort name followed by its index.
                raise ParseError(f"atom sort name {tok.text!r} ends in a digit", tok.line, tok.col)
            d.atom_sorts[tok.text] = AtomSort(tok.text)
        cur.take(";")
    while cur.try_take("name", "basesort"):
        while tok := cur.try_take("name"):
            d.base_sorts.append(tok.text)
        cur.take(";")
    cur.take("name", "statesort")
    state_sort = _parse_sort(cur, d)
    cur.take(";")
    cur.take("name", "residualsort")
    residual_sort = _parse_sort(cur, d)
    cur.take(";")

    while not cur.at("eof"):
        tok = cur.tok
        read = _DECLARATIONS.get(tok.text) if tok.kind == "name" else None
        if read is None:
            cur.error(f"expected a declaration, found {_shown(tok)}")
        cur.take("name")
        read(cur, d)
        cur.take(";")

    rsig = ResidualSignature(d.sig(), state_sort, residual_sort)
    return Spec(rsig, tuple(d.rules), d.bn, tuple(d.strat), d.variables)


def _read_func(cur: _Cursor, d: _Decls) -> None:
    name = _take_name(cur)
    cur.take(":")
    arg = _parse_sort(cur, d)
    cur.take("arrow")
    d.functions.append(FuncDecl(name, arg, _take_name(cur)))


def _read_var(cur: _Cursor, d: _Decls) -> None:
    name = _take_name(cur)
    cur.take(":")
    d.variables[name] = Variable(name, _parse_sort(cur, d))


def _read_bn(cur: _Cursor, d: _Decls) -> None:
    name = _take_name(cur)
    cur.take("=")
    cur.take("{")
    d.bn[name] = tuple(cur.sep(_take_nat))
    cur.take("}")


def _each(cur: _Cursor, keyword: str, item: Callable, *args) -> tuple:
    """Every `keyword item ;` in a row."""
    items = []
    while cur.try_take("name", keyword):
        items.append(item(cur, *args))
        cur.take(";")
    return tuple(items)


def _read_forall(cur: _Cursor, atom_sorts: dict[str, AtomSort]) -> dict[str, MetaAtom]:
    """A rule's schematic atoms, up to the ':' that starts its body. After
    `forall`, names are separated by spaces or commas, and a group of them
    may end in ': sort'; the colon that ends the quantifier is told apart by
    what follows it."""
    metas: dict[str, MetaAtom] = {}
    if not cur.try_take("name", "forall"):
        cur.take(":")
        return metas
    group: list[str] = []
    while True:
        if tok := cur.try_take("name"):
            group.append(tok.text)
            cur.try_take(",")
            continue
        colon = cur.take(":")
        named = cur.at("name")
        if named and named.text in atom_sorts:
            cur.take("name")
            metas.update((g, MetaAtom(g, atom_sorts[named.text])) for g in group)
            group = []
            cur.try_take(",")
            continue
        if group:
            sort = _single_atom_sort(atom_sorts.values(), cur)
            metas.update((g, MetaAtom(g, sort)) for g in group)
        if not metas:
            raise ParseError("empty forall", colon.line, colon.col)
        return metas


def _read_label(cur: _Cursor, scope: _Scope) -> tuple[Variable, tuple[str, ...]]:
    var = _take_variable(cur, scope)
    cur.take("name", "notin")
    cur.take("{")
    excluded = tuple(cur.sep(_take_name))
    cur.take("}")
    return var, excluded


def _read_rule(cur: _Cursor, d: _Decls) -> None:
    name = _take_name(cur)
    metas = _read_forall(cur, d.atom_sorts)
    scope = _Scope(d.sig(), d.variables, metas)
    label_excluded = _each(cur, "label", _read_label, scope)
    premises = _each(cur, "premise", _parse_formula, scope)
    env = _each(cur, "fresh", _parse_assertion, scope)
    cur.take("name", "conclusion")
    conclusion = _parse_formula(cur, scope)
    by_name = tuple(sorted(metas.values(), key=lambda m: m.name))
    d.rules.append(Rule(name, by_name, premises, env, conclusion, label_excluded))


def _read_constraint(cur: _Cursor) -> tuple[str, str, bool]:
    m1 = _take_name(cur)
    eq = not cur.try_take("neq")
    if eq:
        cur.take("=")
    return m1, _take_name(cur), eq


def _read_call(cur: _Cursor, scope: _Scope) -> tuple[Variable, RawTerm]:
    cur.take("name", "S")
    cur.take("(")
    v = _take_variable(cur, scope)
    cur.take(",")
    label = _parse_term(cur, scope)
    cur.take(")")
    return v, label


def _read_order(cur: _Cursor, d: _Decls) -> None:
    scope = _Scope(d.sig(), d.variables, clause=True)
    head = _parse_term(cur, scope)
    cur.take("@")
    label = _parse_term(cur, scope)
    constraints = cur.sep(_read_constraint) if cur.try_take("name", "when") else []
    cur.take("=")
    base: Optional[int] = None
    recursion: list[tuple[Variable, RawTerm]] = []
    if cur.at("nat") and cur.tokens[cur.i + 1].kind != "+":
        base = _take_nat(cur)
    else:
        one = cur.take("nat")
        if one.text != "1":
            raise ParseError("measure must be NAT or 1 + max(...)", one.line, one.col)
        cur.take("+")
        cur.take("name", "max")
        cur.take("(")
        recursion = cur.sep(_read_call, scope)
        cur.take(")")
    d.strat.append(StratCase(head, label, tuple(constraints), base, tuple(recursion)))


_DECLARATIONS: dict[str, Callable[[_Cursor, _Decls], None]] = {
    "func": _read_func,
    "var": _read_var,
    "bn": _read_bn,
    "rule": _read_rule,
    "order": _read_order,
}


# --- command-line term syntax --------------------------------------------------


def _parse_env(cur: _Cursor, scope: _Scope) -> frozenset[Assertion]:
    cur.take("{")
    env = frozenset() if cur.at("}") else frozenset(cur.sep(_parse_assertion, scope))
    cur.take("}")
    return env


def _parse_entailment(cur: _Cursor, scope: _Scope) -> tuple[frozenset[Assertion], frozenset[Assertion]]:
    left = _parse_env(cur, scope)
    cur.take("turnstile")
    return left, _parse_env(cur, scope)


def parse_term_str(spec: Spec, text: str) -> RawTerm:
    return _read_all(text, _parse_term, _Scope(spec.signature, spec.variables))


def parse_formula_str(spec: Spec, text: str) -> Formula:
    return _read_all(text, _parse_formula, _Scope(spec.signature, spec.variables))


def parse_env_str(spec: Spec, text: str) -> frozenset[Assertion]:
    return _read_all(text, _parse_env, _Scope(spec.signature, spec.variables))


def parse_entailment_str(
    spec: Spec, text: str
) -> tuple[frozenset[Assertion], frozenset[Assertion]]:
    return _read_all(text, _parse_entailment, _Scope(spec.signature, spec.variables))
