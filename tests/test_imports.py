"""Every import in the package source and in the tests is used, the
package's parameters with a default match their cap (so they do not grow in
number, and a removed one lowers the cap), and a process loads only the
scipy modules that the code it runs calls."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_only_config_reads_and_writes_json():
    # config._read_json and config._write_json are the package's one JSON
    # reader and writer
    calls = {"loads", "load", "dumps", "dump"}
    found = [f"{path.name}:{node.lineno}: json.{node.func.attr}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "config.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in calls and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "json"]
    assert not found, found


# parameters with a default, over every def and lambda of the package; raise
# this only in the change that adds a default, where review sees it, and
# lower it in the change that removes one
MAX_PARAMETER_DEFAULTS = 26


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
    assert len(found) == MAX_PARAMETER_DEFAULTS, (
        f"{len(found)} parameters with a default, cap {MAX_PARAMETER_DEFAULTS} "
        "(a removed default lowers the cap):\n"
        + "\n".join(f"{f}: {fn}({a})" for f, fn, a in found))


def _run_cold(script: str, *args: str) -> dict:
    """The JSON last printed by script, run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_SCIPY_MODULES = """
import json, sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import boundarylab, boundarylab.cli
loaded, codes = {"import": scipy_modules()}, {}
work = Path(sys.argv[1])
for command in ("regdist-check", "barrier-check", "solve"):
    codes[command] = boundarylab.cli.main(
        [command, "--config", str(work / (command + ".json")), "--out", str(work / command)])
    loaded[command] = scipy_modules()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_scipy_is_imported_only_where_it_is_used(tmp_path):
    cone = {"family": "cone", "L": 0.1}
    configs = {
        "regdist-check": {"domain": cone, "n_points": 50},
        "barrier-check": {"domain": cone, "ellipticity": {"lam": 1, "Lam": 2}, "n_points": 50},
        "solve": {"domain": cone, "operator": {"kind": "laplace"}, "n": 32,
                  "dirichlet": {"name": "linear", "coeffs": [0.3, 0.5], "offset": 0.1}},
    }
    for command, cfg in configs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps({"schema_version": 1, **cfg}))
    res = _run_cold(_SCIPY_MODULES, str(tmp_path))
    assert res["codes"] == {"regdist-check": 0, "barrier-check": 0, "solve": 0}
    loaded = res["loaded"]
    # the package, the CLI, and the distance and barrier checks need numpy only
    assert loaded["import"] == loaded["regdist-check"] == loaded["barrier-check"] == []
    # a solve assembles and factors a sparse system, and loads nothing more
    assert {"scipy.sparse", "scipy.sparse.linalg"} <= set(loaded["solve"])
    unused = ("scipy.optimize", "scipy.integrate", "scipy.interpolate", "scipy.special")
    assert [m for m in loaded["solve"] if m.startswith(unused)] == []


# (expression, the scipy module its first evaluation imports): each path that
# imports scipy inside a function, taken in a process where nothing did before
COLD_PATHS = {
    "table-graph": ("BoundaryGraph('table', ts=[-1.0, -0.4, 0.2, 1.0], "
                    "values=[0.3, 0.1, 0.05, 0.2]).gamma(np.linspace(-0.9, 0.9, 7)[:, None])",
                    "scipy.interpolate"),
    "dini-quadrature": ("dini_integral(table([0.0, 0.2, 0.5, 1.0], [0.0, 0.1, 0.3, 0.4]), "
                        "0.01, 0.9)", "scipy.integrate"),
    "nnls-split": ("_decompose_spd(np.array([[2.0, 1.1], [1.1, 1.0]]))", "scipy.optimize"),
}

# the names the expressions use, in the subprocess and in this one
_NAMES = """
import numpy as np
from boundarylab import BoundaryGraph, dini_integral, table
from boundarylab.solver import _decompose_spd
"""

_COLD_PATH = _NAMES + """
import json, sys

expr, module = sys.argv[1:]
before = module in sys.modules
value = np.asarray(eval(expr), dtype=float)
print(json.dumps({"before": before, "after": module in sys.modules,
                  "value": value.tobytes().hex()}))
"""


@pytest.mark.parametrize("case", sorted(COLD_PATHS))
def test_deferred_imports_compute_the_same_value_cold(case):
    expr, module = COLD_PATHS[case]
    res = _run_cold(_COLD_PATH, expr, module)
    assert (res["before"], res["after"]) == (False, True)
    names = {}
    exec(_NAMES, names)
    value = np.asarray(eval(expr, names), dtype=float)
    assert res["value"] == value.tobytes().hex()
