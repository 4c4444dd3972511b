"""The command-line examples in README.md: each `$ nomsos ...` line runs from
the repository root, succeeds, and prints every output line the README shows
under it (a `...` line stands for lines left out)."""

import shlex
from pathlib import Path

import pytest

from nomsos.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _examples() -> list[tuple[str, list[str]]]:
    examples: list[tuple[str, list[str]]] = []
    current = None
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```") or line.startswith("$ "):
            current = None
        if line.startswith("$ nomsos "):
            current = (line[len("$ nomsos ") :], [])
            examples.append(current)
        elif current is not None and line != "...":
            current[1].append(line)
    return examples


EXAMPLES = _examples()


def test_readme_shows_cli_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c.split()[0] for c, _ in EXAMPLES])
def test_readme_cli_example(command, shown, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(command)) == 0
    printed = capsys.readouterr().out.splitlines()
    missing = [line for line in shown if line not in printed]
    assert not missing, missing
