"""Every import in the package source and in the tests is used."""

import ast
from pathlib import Path

import boundarylab

PACKAGE = Path(boundarylab.__file__).parent
TESTS = Path(__file__).parent


def _unused_imports(path: Path) -> list:
    """Names a module imports but never reads; `from __future__` is exempt."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    # __init__.py imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    tests = sorted(TESTS.glob("*.py"))
    assert modules and tests
    unused = [entry for p in modules + tests for entry in _unused_imports(p)]
    assert not unused, unused
