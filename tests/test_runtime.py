"""The runtime of the package uses the standard library only."""

import ast
import sys
from pathlib import Path

import nomsos


def test_runtime_imports_only_the_standard_library():
    for path in sorted(Path(nomsos.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {name}"
