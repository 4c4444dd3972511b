"""Parsing of specification files and command-line term syntax."""

import pytest

from nomsos import (
    Abs,
    App,
    Atm,
    Atom,
    MetaAtom,
    ParseError,
    Susp,
    Tup,
    Var,
    corpus_path,
    parse_entailment_str,
    parse_env_str,
    parse_formula_str,
    parse_spec,
    parse_term_str,
    term_str,
    validate_spec,
)
from nomsos.atoms import AtomSortRef, BaseSort, ProdSort

from conftest import CH, atoms


def test_corpus_parses_and_validates(pi_spec):
    assert len(pi_spec.rules) == 13
    assert [r.name for r in pi_spec.rules[:3]] == ["In", "Out", "Open"]
    assert pi_spec.bn == {"boutA": (2,)}
    assert len(pi_spec.strat) == 10
    assert validate_spec(pi_spec) == []


def test_sorts(pi_spec):
    assert pi_spec.rsig.state_sort == BaseSort("pr")
    assert pi_spec.rsig.residual_sort == ProdSort((BaseSort("ac"), BaseSort("pr")))
    decl = pi_spec.signature.func("out")
    assert decl.arg == ProdSort((AtomSortRef(CH), AtomSortRef(CH), BaseSort("pr")))


def test_term_syntax(pi_spec):
    a, b = atoms(2)
    t = parse_term_str(pi_spec, "out(a, b, null)")
    assert t == App("out", Tup((Atm(a), Atm(b), App("null", Tup(())))))
    t = parse_term_str(pi_spec, "new([b]out(a,b,null))")
    assert isinstance(t, App) and isinstance(t.arg, Abs)


def test_suspension_syntax(pi_spec):
    a, b = atoms(2)
    t = parse_term_str(pi_spec, "((a b))*x")
    assert t == Susp(((a, b),), Var(pi_spec.variables["x"]))
    t = parse_term_str(pi_spec, "((a b) o (a ch5))*null")
    assert isinstance(t, Susp)
    assert t.perm == ((a, b), (a, Atom(CH, 5)))


def test_tuple_vs_suspension_backtracking(pi_spec):
    # a parenthesised pair of terms is not a permutation
    t = parse_term_str(pi_spec, "(outA(a,b), null)")
    assert isinstance(t, Tup) and len(t.items) == 2


def test_atom_literals(pi_spec):
    assert parse_term_str(pi_spec, "z") == Atm(Atom(CH, 25))
    assert parse_term_str(pi_spec, "ch30") == Atm(Atom(CH, 30))


def test_formula_and_env(pi_spec):
    f = parse_formula_str(pi_spec, "out(a,b,null) -> (outA(a,b), null)")
    assert isinstance(f.target, Tup)
    env = parse_env_str(pi_spec, "{a # x, b # [a]x}")
    assert len(env) == 2
    left, right = parse_entailment_str(pi_spec, "{a # x} |- {a # par(x, null)}")
    assert len(left) == 1 and len(right) == 1


def test_parse_errors(pi_spec):
    for bad in (
        "out(a, b",
        "unknownfunc(a)",
        "[a out(a,b,null)",
        "out(a,b,null) ->",
    ):
        with pytest.raises(ParseError):
            parse_term_str(pi_spec, bad) if "->" not in bad else parse_formula_str(
                pi_spec, bad
            )


def test_spec_errors():
    with pytest.raises(ParseError):
        parse_spec("basesort pr ;")  # missing atomsort header
    with pytest.raises(ParseError):
        parse_spec(
            "atomsort ch ; basesort pr ; statesort pr ; residualsort pr ;\n"
            "rule Bad : conclusion mystery(x) -> x ;"
        )


def test_label_constraint_names_a_declared_variable():
    text = corpus_path("pi.spec").read_text(encoding="utf-8")
    rule = "rule ParL :\n  label l notin"
    assert text.count(rule) == 1
    with pytest.raises(ParseError) as err:
        parse_spec(text.replace(rule, "rule ParL :\n  label q notin"))
    line = text[: text.index(rule)].count("\n") + 2
    assert (err.value.line, err.value.col) == (line, 9)
    assert "unknown variable 'q'" in str(err.value)
    # a declared variable of another sort is a well-formedness failure
    spec = parse_spec(text.replace(rule, "rule ParL :\n  label x notin"))
    assert spec.rule("ParL").label_excluded == ((spec.variables["x"], ("boutA",)),)
    assert validate_spec(spec) == ["rule ParL: label constraint on non-action variable x"]


def test_term_print_parse_roundtrip(pi_spec):
    import random

    from nomsos import normalize

    from conftest import random_state, random_term

    rng = random.Random(47)
    for _ in range(100):
        t = normalize(random_state(rng, pi_spec))
        assert parse_term_str(pi_spec, term_str(t)) == t
    # raw terms: variables, and delayed permutations, the identity included
    variables = sorted(pi_spec.variables.values())
    for _ in range(300):
        t = random_term(rng, pi_spec, variables=variables, susp=True)
        assert parse_term_str(pi_spec, term_str(t)) == t
    # a suspension prints as it was written
    for s in ("((a b)o(b c))*x", "((a b)o(a b))*null", "(id)*x"):
        assert term_str(parse_term_str(pi_spec, s)) == s


def test_forall_sort_annotation():
    text = """
atomsort ch loc ;
basesort pr ;
statesort pr ;
residualsort pr ;
func null : 1 -> pr ;
func at : loc * pr -> pr ;
var x : pr ;
rule Move forall a b : ch, m : loc :
  fresh m # x ;
  conclusion at(m, x) -> x ;
"""
    spec = parse_spec(text)
    rule = spec.rules[0]
    sorts = {m.name: m.sort.name for m in rule.metas}
    assert sorts == {"a": "ch", "b": "ch", "m": "loc"}


def _error(parse, text: str) -> tuple[int, int, str]:
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value.line, err.value.col, str(err.value)


def test_error_positions(pi_spec):
    # (line, col) of the first bad token; only whitespace and comments span
    # lines, and a column counts from the last newline before the token.
    term = lambda text: parse_term_str(pi_spec, text)  # noqa: E731
    assert _error(term, "// one\n// two\n  out(a, b, null) $") == (
        3, 19, "3:19: unexpected character '$'"
    )
    # at the end of the input
    assert _error(term, "out(a,\n  b") == (2, 4, "2:4: expected ')', found end of input")
    assert _error(term, "out(a,\n  b\n") == (3, 1, "3:1: expected ')', found end of input")
    spec = (
        "atomsort ch ; basesort pr ; statesort pr ; residualsort pr ;\n"
        "func null : 1 -> pr ; var x : pr ;\n"
        "rule Bad : conclusion mystery(x) -> x ;"
    )
    assert _error(parse_spec, spec) == (3, 23, "3:23: unknown identifier 'mystery'")


def test_atom_sort_name_ending_in_a_digit_is_rejected():
    # An atom literal is its sort's name followed by its index, so `ch20`
    # could never name an atom of a sort `ch2`.
    head = "basesort pr ; statesort pr ; residualsort pr ;\nfunc nil : 1 -> pr ;\n"
    with pytest.raises(ParseError) as err:
        parse_spec("atomsort ch ch2 ;\n" + head + "func go : ch2 * pr -> pr ;")
    assert (err.value.line, err.value.col) == (1, 13)
    assert "atom sort name 'ch2' ends in a digit" in str(err.value)
    # a digit elsewhere in the name is fine
    spec = parse_spec("atomsort c2h ;\n" + head + "func go : c2h * pr -> pr ;")
    t = parse_term_str(spec, "go(c2h26, nil)")
    assert t.arg.items[0] == Atm(Atom(spec.signature.atom_sorts[0], 26))
    assert parse_term_str(spec, term_str(t)) == t


# --- paths the corpus never takes ----------------------------------------------

_HEAD = (
    "atomsort ch ; basesort pr ; statesort pr ; residualsort pr ;\n"
    "func null : 1 -> pr ; var x : pr ;\n"
)
_TWO_SORTS = (
    "atomsort ch loc ; basesort pr ; statesort pr ; residualsort pr ;\n"
    "func null : 1 -> pr ; func go : loc * pr -> pr ; var x : pr ;\n"
)


def _pi_edit(old: str, new: str) -> str:
    text = corpus_path("pi.spec").read_text(encoding="utf-8")
    assert text.count(old) == 1
    return text.replace(old, new)


def test_names_that_are_not_atoms(pi_spec):
    # The error points at the name, as for an unknown variable.
    term = lambda text: parse_term_str(pi_spec, text)  # noqa: E731
    env = lambda text: parse_env_str(pi_spec, text)  # noqa: E731
    assert _error(term, "new([x1]null)") == (1, 6, "1:6: 'x1' is not an atom here")
    assert _error(term, "new([null]null)") == (1, 6, "1:6: 'null' is not an atom here")
    assert _error(env, "{x1 # null}") == (1, 2, "1:2: 'x1' is not an atom here")
    # in an order clause a declared variable is not an atom either
    text = _pi_edit("order new([c]x) @ outA(a,b)", "order new([x]x) @ outA(a,b)")
    assert _error(parse_spec, text) == (101, 12, "101:12: 'x' is not an atom here")


def test_unknown_sorts():
    assert _error(parse_spec, _HEAD + "func f : [zz]pr -> pr ;") == (
        3, 13, "3:13: unknown atom sort 'zz'"
    )
    assert _error(parse_spec, _HEAD + "func f : zz -> pr ;") == (
        3, 13, "3:13: unknown sort 'zz'"
    )


def test_parenthesised_single_term_is_the_term(pi_spec):
    null = parse_term_str(pi_spec, "null")
    assert parse_term_str(pi_spec, "(null)") == null
    assert parse_term_str(pi_spec, "((null))") == null
    assert parse_term_str(pi_spec, "out(a, b, (null))") == parse_term_str(pi_spec, "out(a, b, null)")


def test_declaration_errors():
    assert _error(parse_spec, _HEAD + "funk f : pr -> pr ;") == (
        3, 1, "3:1: expected a declaration, found 'funk'"
    )
    assert _error(parse_spec, _HEAD + "; ") == (
        3, 1, "3:1: expected a declaration, found ';'"
    )
    assert _error(parse_spec, _HEAD + "bn null = { x } ;") == (
        3, 13, "3:13: expected 'nat', found 'x'"
    )
    assert _error(parse_spec, _HEAD + "rule R forall :\n  conclusion x -> x ;") == (
        3, 15, "3:15: empty forall"
    )


def test_several_atom_sorts_need_an_annotation():
    msg = "atom sort annotation required when several atom sorts exist"
    rule = _TWO_SORTS + "rule R forall m :\n  conclusion go(m, x) -> x ;"
    assert _error(parse_spec, rule) == (4, 3, f"4:3: {msg}")
    # an order clause has no annotation: its schematic atoms need one sort
    assert _error(parse_spec, _TWO_SORTS + "order go(m, x) @ null = 0 ;") == (3, 11, f"3:11: {msg}")
    assert _error(parse_spec, _TWO_SORTS + "order go(m, [m]x) @ null = 0 ;") == (3, 11, f"3:11: {msg}")
    # an order clause without schematic atoms parses
    spec = parse_spec(_TWO_SORTS + "order null @ null = 0 ;")
    assert len(spec.strat) == 1


def test_lists_of_several_items(pi_spec):
    text = _pi_edit("bn boutA = { 2 } ;", "bn boutA = { 2 } ;\nbn inA = { 1, 2 } ;")
    text = text.replace("rule ParL :\n  label l notin { boutA }", "rule ParL :\n  label l notin { boutA, inA }")
    text = text.replace("when c != a, c != b = 1 + max(S(x, outA", "when c != a, c = b = 1 + max(S(x, outA")
    spec = parse_spec(text)
    assert spec.bn == {"boutA": (2,), "inA": (1, 2)}
    l_var = spec.variables["l"]
    assert spec.rule("ParL").label_excluded == ((l_var, ("boutA", "inA")),)
    assert spec.strat[3].constraints == (("c", "a", False), ("c", "b", True))
    assert spec.strat[2].constraints == (("c", "a", False), ("c", "b", False))
    # S(...) calls and environments of several items
    assert [v.name for v, _ in spec.strat[4].recursion] == ["x1", "x2"]
    assert len(parse_env_str(pi_spec, "{a # x, b # y, c # null}")) == 3
    assert parse_env_str(pi_spec, "{}") == frozenset()


def test_order_clause_names():
    # In an order clause a name that is neither a variable nor a function
    # symbol is a schematic atom, even one spelled like an atom literal.
    from nomsos.terms import MetaAtom

    spec = parse_spec(_pi_edit("order rep(x) @ outA(a,b) = 1", "order rep(x) @ outA(a,ch3) = 1"))
    label = spec.strat[9].label
    assert label.arg.items[1] == Atm(MetaAtom("ch3", spec.signature.atom_sorts[0]))
    text = _pi_edit("order rep(x) @ outA(a,b) = 1 + max(S(x,", "order rep(x) @ outA(a,b) = 1 + max(S(q,")
    assert _error(parse_spec, text) == (107, 38, "107:38: unknown variable 'q'")


def test_measure_must_be_a_number_or_one_plus_max():
    text = _pi_edit("order rep(x) @ outA(a,b) = 1 +", "order rep(x) @ outA(a,b) = 2 +")
    assert _error(parse_spec, text) == (107, 28, "107:28: measure must be NAT or 1 + max(...)")


def test_input_after_a_whole_term(pi_spec):
    term = lambda text: parse_term_str(pi_spec, text)  # noqa: E731
    assert _error(term, "null null") == (1, 6, "1:6: expected 'eof', found 'null'")


def test_each_position_takes_its_kind_of_name(pi_spec):
    # One lookup order; the first name of a kind the position takes wins.
    # `x` is a variable in a term and the atom literal of index 23 in a
    # binder, which takes no variables.
    t = parse_term_str(pi_spec, "new([x]x)")
    assert t == App("new", Abs(Atom(CH, 23), Var(pi_spec.variables["x"])))
    # `label` takes a variable even where a schematic atom has its name
    text = _pi_edit("rule ParL :\n  label l notin", "rule ParL forall l :\n  label l notin")
    rule = parse_spec(text).rule("ParL")
    assert rule.label_excluded[0][0] == pi_spec.variables["l"]
    assert [m.name for m in rule.metas] == ["l"]


def test_a_schematic_atom_prints_by_its_name():
    from nomsos.printer import atom_str

    m = MetaAtom("b1", CH)
    assert atom_str(m) == "b1"
    assert term_str(Abs(m, Susp(((m, Atom(CH, 0)),), Atm(m)))) == "[b1]((b1 a))*b1"


def test_atom_names_read_back():
    from nomsos.printer import atom_named, atom_str

    one = parse_spec(_HEAD).signature
    ch = one.atom_sorts[0]
    for i in range(40):
        assert atom_named(one, atom_str(Atom(ch, i))) == Atom(ch, i)
    assert atom_named(one, "ch3") == Atom(ch, 3)
    assert atom_named(one, "x1") is None and atom_named(one, "A") is None
    two = parse_spec(_TWO_SORTS).signature
    assert [atom_named(two, n) for n in ("a", "ch0", "loc12")] == [
        None,
        Atom(two.atom_sorts[0], 0),
        Atom(two.atom_sorts[1], 12),
    ]
