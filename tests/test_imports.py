"""Every import in the package source and in the tests is used, and the
package's parameters with a default do not grow in number."""

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


# parameters with a default, over every def and lambda of the package; raise
# this only in the change that adds a default, where review sees it
MAX_PARAMETER_DEFAULTS = 36


def test_parameter_defaults_do_not_grow():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                # defaults belong to the last positional parameters
                params = args.posonlyargs + args.args
                positional = params[len(params) - len(args.defaults):]
                keyword = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                name = getattr(node, "name", "<lambda>")
                found += [(path.name, name, a.arg) for a in positional + keyword]
    assert len(found) <= MAX_PARAMETER_DEFAULTS, (
        f"{len(found)} parameters with a default, cap {MAX_PARAMETER_DEFAULTS}:\n"
        + "\n".join(f"{f}: {fn}({a})" for f, fn, a in found))
