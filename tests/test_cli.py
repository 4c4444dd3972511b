"""Command-line interface: golden outputs and exit codes."""

import json
from pathlib import Path

from nomsos import corpus_path
from nomsos.cli import main

PI = str(corpus_path("pi.spec"))
PI_BROKEN = str(corpus_path("pi-broken.spec"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
    code, out = run(capsys, "derive", PI, "out(a, b, null)", "--trees")
    assert code == 0
    assert "[Out]" in out


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
