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


def test_every_import_is_used():
    # `__init__` imports the public API to re-export it; every other module
    # uses each name it imports.
    for path in sorted(Path(nomsos.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused = sorted(imported - used)
        assert not unused, f"{path.name} imports {', '.join(unused)} without using them"
