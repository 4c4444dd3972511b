"""Command-line interface: golden outputs and exit codes."""

import json
from pathlib import Path

import pytest

from nomsos import cli, corpus_path
from nomsos.cli import main

PI = str(corpus_path("pi.spec"))
PI_BROKEN = str(corpus_path("pi-broken.spec"))
# Each case: argv, run from the corpus directory; its exit code; and its
# stdout and stderr, or for a `--json` run that prints, the one document it
# prints (a warning may go to stderr in either mode).
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text(encoding="utf-8"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_golden_output(case, monkeypatch, capsys):
    # Text runs match byte for byte; a JSON run prints exactly one document,
    # equal to the pinned one with its keys in the same order.
    monkeypatch.chdir(Path(PI).parent)
    assert main(case["argv"]) == case["exit"]
    captured = capsys.readouterr()
    if "document" in case:
        assert json.dumps(json.loads(captured.out)) == json.dumps(case["document"])
    else:
        assert (captured.out, captured.err) == (case["stdout"], case["stderr"])


def test_json_is_one_indented_document_with_the_command_first(monkeypatch, capsys):
    monkeypatch.chdir(Path(PI).parent)
    for case in GOLDEN:
        if "document" in case:
            main(case["argv"])
            assert capsys.readouterr().out == json.dumps(case["document"], indent=2) + "\n"
            assert next(iter(case["document"])) == "command" and case["document"]["command"] == case["argv"][0]


def test_check_corpus(capsys):
    code, out = run(capsys, "check", PI)
    assert code == 0
    assert "4/4 checks passed" in out


def test_check_json(capsys):
    code, out = run(capsys, "check", PI, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] == data["total"] == 4
    assert all(r["passed"] for r in data["reports"])


def test_check_broken_corpus(capsys):
    code, out = run(capsys, "check", PI_BROKEN)
    assert code == 1
    assert "ParResL" in out and "(iii)" in out
    assert "{b # x1} does not entail {b # par(x1, x2)}" in out


def test_derive(capsys):
    code, out = run(capsys, "derive", PI, "out(a, b, null)")
    assert code == 0
    assert "out(a, b, null) -> (outA(a, b), null)" in out


def test_derive_json_and_trees(capsys):
    code, out = run(capsys, "derive", PI, "out(a, b, null)", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["transitions"][0]["residual"] == "(outA(a, b), null)"
    # A state without transitions still prints in canonical form.
    code, out = run(capsys, "derive", PI, "new([d]null)", "--json")
    assert json.loads(out)["state"] == "new([a]null)"
    code, out = run(capsys, "derive", PI, "out(a, b, null)", "--trees")
    assert code == 0
    assert "[Out]" in out


def test_derive_json_prints_fresh_atoms_as_atoms(capsys):
    code, out = run(capsys, "derive", PI, "in(a, [c]null)", "--json")
    assert code == 0
    fresh = {
        t["residual"]: t["fresh_atoms"] for t in json.loads(out)["transitions"]
    }
    assert fresh["(inA(a, b), null)"] == ["b"]
    assert fresh["(inA(a, a), null)"] == []


def test_terms_of_the_wrong_sort_are_rejected(capsys):
    assert main(["derive", PI, "tauA"]) == 2
    assert "error: state tauA has sort ac, expected pr" in capsys.readouterr().err
    assert main(["derive", PI, "out(a, null, null)"]) == 2
    assert "error: out: argument has sort" in capsys.readouterr().err
    assert main(["prove", PI, "null -> null"]) == 2
    assert "error: residual null has sort pr, expected ac * pr" in capsys.readouterr().err


def test_prove_success(capsys):
    code, out = run(
        capsys, "prove", PI, "new([b]out(a, b, null)) -> (boutA(a, b), null)"
    )
    assert code == 0
    assert "[Open]" in out and "[Out]" in out and "with b # a" in out


def test_prove_failure(capsys):
    code, out = run(
        capsys, "prove", PI, "new([b]out(a, b, null)) -> (outA(a, b), null)"
    )
    assert code == 1
    assert "not provable" in out


def test_entail(capsys):
    code, out = run(
        capsys, "entail", PI, "{b # x} |- {b # new([b]x)}"
    )
    assert code == 0 and out.strip() == "true"
    code, out = run(
        capsys, "entail", PI, "{a # x} |- {b # x}"
    )
    assert code == 1 and out.strip() == "false"


def test_nf(capsys):
    code, out = run(capsys, "nf", PI, "{b # new([b]x)}")
    assert code == 0
    assert out.strip() == "{}"
    code, out = run(capsys, "nf", PI, "{a # a}")
    assert code == 0
    assert "inconsistent" in out


def test_alpha(capsys):
    code, out = run(
        capsys, "alpha", PI, "new([b]out(a, b, null))", "new([c]out(a, c, null))"
    )
    assert code == 0 and out.strip() == "true"
    code, out = run(
        capsys, "alpha", PI, "new([b]out(a, b, null))", "new([c]out(a, b, null))"
    )
    assert code == 1 and out.strip() == "false"


def test_supp(capsys):
    code, out = run(capsys, "supp", PI, "new([b]out(a, b, null))")
    assert code == 0
    assert out.strip() == "{a}"


def test_budget_flags(capsys):
    code, out = run(capsys, "derive", PI, "in(a, [c]null)", "--fresh", "1")
    assert code == 0
    assert out.count("inA") == 2


def test_error_exit_codes(capsys):
    assert main(["check", "/nonexistent.spec"]) == 2
    assert main(["check", str(Path(PI).parent)]) == 2
    assert main(["derive", PI, "out(a b"]) == 2
    assert main(["derive", PI, "nosuchfunc(a)"]) == 2
    assert main(["derive", PI, "out(a,b,null)", "--fresh", "-1"]) == 2
    assert "error: budget fresh must be non-negative" in capsys.readouterr().err
    assert main(["derive", PI, "out(a,b,null)", "--depth", "-3"]) == 2
    assert "error: budget depth must be non-negative" in capsys.readouterr().err
    deep = "new([c]" * 1000 + "null" + ")" * 1000
    assert main(["supp", PI, deep]) == 2
    assert "error: term nests too deeply" in capsys.readouterr().err


def test_usage_error(capsys):
    # argparse usage errors are caught and mapped to exit code 2
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_json_of_every_command(capsys):
    code, out = run(capsys, "prove", PI, "new([b]out(a, b, null)) -> (boutA(a, b), null)", "--json")
    data = json.loads(out)
    assert code == 0 and data["provable"] and not data["truncated"]
    assert data["tree"]["rule"] == "Open" and data["tree"]["children"][0]["rule"] == "Out"
    code, out = run(capsys, "prove", PI, "new([b]out(a, b, null)) -> (outA(a, b), null)", "--json")
    assert code == 1
    assert json.loads(out) == {
        "command": "prove",
        "claim": "new([b]out(a, b, null)) -> (outA(a, b), null)",
        "provable": False,
        "truncated": False,
        "tree": None,
    }
    code, out = run(capsys, "entail", PI, "{b # x} |- {b # new([b]x)}", "--json")
    assert code == 0 and json.loads(out) == {"command": "entail", "holds": True}
    code, out = run(capsys, "entail", PI, "{a # x} |- {b # x}", "--json")
    assert code == 1 and json.loads(out) == {"command": "entail", "holds": False}
    code, out = run(capsys, "nf", PI, "{a # a, b # new([b]x)}", "--json")
    assert code == 0
    assert json.loads(out) == {"command": "nf", "consistent": False, "normal_form": "{a # a}"}
    code, out = run(capsys, "alpha", PI, "new([b]out(a, b, null))", "new([c]out(a, c, null))", "--json")
    assert code == 0 and json.loads(out) == {"command": "alpha", "equivalent": True}
    code, out = run(capsys, "alpha", PI, "[a]null", "[b]out(a, b, null)", "--json")
    assert code == 1 and json.loads(out) == {"command": "alpha", "equivalent": False}
    code, out = run(capsys, "supp", PI, "new([b]out(a, c, null))", "--json")
    assert code == 0 and json.loads(out) == {"command": "supp", "support": "{a, c}"}


def test_derive_without_transitions_and_truncated(capsys):
    code, out = run(capsys, "derive", PI, "null")
    assert code == 0 and out == "no transitions\n"
    assert capsys.readouterr().err == ""
    assert main(["derive", PI, "par(out(a, b, null), null)", "--depth", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "no transitions\n"
    assert captured.err == "warning: search truncated by budget\n"


def test_deep_term_exits_2(capsys):
    deep = "sum(" * 1000 + "null" + ", null)" * 1000
    for argv in (["derive", PI, deep], ["alpha", PI, deep, deep]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: term nests too deeply\n"


def test_a_search_past_the_recursion_limit_exits_2(capsys):
    # The state is two levels deep; at the default depth its proof trees
    # are not.
    assert main(["derive", str(corpus_path("pi-rep.spec")), "rep(out(a,b,null))"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the proof search nests too deeply for the recursion limit: "
        "lower the depth budget (--depth, Budget.depth)\n"
    )


def test_text_mode_builds_no_tree_dict(monkeypatch, capsys):
    # Trees become JSON only where `main` prints a JSON document.
    def refused(tree):
        raise AssertionError("tree_dict called in text mode")

    monkeypatch.setattr(cli, "tree_dict", refused)
    claim = "new([b]out(a, b, null)) -> (boutA(a, b), null)"
    for argv in (
        ["derive", PI, "par(out(a,b,null), in(a,[c]null))"],
        ["derive", PI, "par(out(a,b,null), in(a,[c]null))", "--trees"],
        ["prove", PI, claim],
    ):
        assert main(argv) == 0
        assert "[" in capsys.readouterr().out
    with pytest.raises(AssertionError, match="tree_dict called"):
        main(["prove", PI, claim, "--json"])


def test_ill_formed_spec_is_refused(capsys, tmp_path):
    # Out with a conclusion variable no match can bind, and with the
    # residual pair reversed: `check` reports them, `derive` and `prove`
    # refuse to search.
    text = Path(PI).read_text(encoding="utf-8")
    conclusion = "conclusion out(a,b,x) -> (outA(a,b), x) ;"
    assert text.count(conclusion) == 1
    for bad, message in (
        ("conclusion out(a,b,x) -> (outA(a,b), y) ;", "rule Out: conclusion target mentions unbindable y"),
        (
            "conclusion out(a,b,x) -> (x, outA(a,b)) ;",
            "rule Out: conclusion target has sort pr * ac, expected residual sort",
        ),
    ):
        path = tmp_path / "bad.spec"
        path.write_text(text.replace(conclusion, bad), encoding="utf-8")
        for argv in (
            ["derive", str(path), "out(a, b, null)"],
            ["prove", str(path), "out(a, b, null) -> (outA(a, b), null)"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ill-formed spec: ")
            assert message in captured.err


def test_delayed_permutation_at_a_binding_position_is_ill_formed(capsys, tmp_path):
    # A bound-output label whose binding position holds ((a b))*a: `check`
    # reports it with exit 1 and `derive` refuses it, in a premise (ParResL)
    # and in a conclusion (Open, with the order clauses for boutA gone, where
    # reading the position as "binds nothing" would hide a coverage failure).
    text = Path(PI).read_text(encoding="utf-8")
    premise = "premise x1 -> (boutA(a,b), y1) ;\n  fresh b # x2 ;"
    conclusion = "conclusion new([b]x) -> (boutA(a,b), y) ;"
    without_bout_order = "\n".join(
        line for line in text.splitlines() if not (line.startswith("order") and "@ boutA" in line)
    )
    for spec, old, message in (
        (text, premise, "rule ParResL: premise 1: binding position 2 of boutA is not an atom: ((a b))*a"),
        (without_bout_order, conclusion, "rule Open: conclusion: binding position 2 of boutA is not an atom: ((a b))*a"),
    ):
        assert spec.count(old) == 1
        path = tmp_path / "bad.spec"
        path.write_text(spec.replace(old, old.replace("boutA(a,b)", "boutA(a,((a b))*a)")), encoding="utf-8")
        code, out = run(capsys, "check", str(path))
        assert code == 1
        assert out == (
            f"well-formedness: fail\n  spec: fail [validation] -- {message}\n0/1 checks passed\n"
        )
        assert main(["derive", str(path), "out(a, b, null)"]) == 2
        assert message in capsys.readouterr().err


def test_binding_position_outside_nts_mode_is_ill_formed(capsys, tmp_path):
    # With residual sort ac * ch the spec is not in NTS mode, yet the format
    # checks read the binding names of every pair-shaped label: a variable at
    # a binding position is a well-formedness failure (exit 1), not an error.
    path = tmp_path / "bn.spec"
    path.write_text(
        """
atomsort ch ;
basesort pr ac ;
statesort pr ;
residualsort ac * ch ;
func foo : ch -> pr ;
func boutA : ch * ch -> ac ;
var n : ch ;
bn boutA = { 2 } ;
rule R forall a :
  conclusion foo(n) -> (boutA(a, n), a) ;
""",
        encoding="utf-8",
    )
    code, out = run(capsys, "check", str(path))
    assert code == 1
    assert out == (
        "well-formedness: fail\n  spec: fail [validation] -- rule R: conclusion: "
        "binding position 2 of boutA is not an atom: n\n0/1 checks passed\n"
    )


def test_premise_residual_that_is_not_a_pair_is_reported(capsys, tmp_path):
    # Outside NTS mode the engine takes a premise residual `y` that is not a
    # (label, target) pair; `check` reports the rule as unknown (exit 1)
    # instead of stopping with an error, and `derive` still runs.
    path = tmp_path / "unsplit.spec"
    path.write_text(
        """
atomsort ch ;
basesort pr ac ;
statesort pr ;
residualsort pr * ch ;
func null : 1 -> pr ;
func foo : pr -> pr ;
var x : pr ;
var y : pr * ch ;
rule R forall a :
  premise x -> y ;
  conclusion foo(x) -> (null, a) ;
order foo(x) @ null = 1 + max(S(x, null)) ;
""",
        encoding="utf-8",
    )
    code, out = run(capsys, "check", str(path))
    assert code == 1
    assert out.splitlines()[-6:] == [
        "stratification: fail",
        "  R: unknown [decrease] -- rule shape outside the syntactic sufficient conditions",
        "  note: defined order: R@null",
        "residual alpha-conversion format: fail",
        "  R: unknown -- R@null: rule shape outside the syntactic sufficient conditions",
        "2/4 checks passed",
    ]
    assert main(["derive", str(path), "foo(null)"]) == 0
