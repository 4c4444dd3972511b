"""Parsing of specification files and command-line term syntax."""

import pytest

from nomsos import (
    Abs,
    App,
    Atm,
    Atom,
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
    assert _error(term, "out(a,\n  b") == (2, 4, "2:4: expected ')', found ''")
    assert _error(term, "out(a,\n  b\n") == (3, 1, "3:1: expected ')', found ''")
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
