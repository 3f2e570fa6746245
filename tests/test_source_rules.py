"""Source rules of the package, checked on its syntax trees.

* Every np.allclose / np.isclose call passes rtol=0: tolerances in the
  package are absolute, and numpy's default rtol would forgive errors
  relative to the compared values.
* The package imports only numpy, the standard library and itself
  (numpy is its one declared dependency).
"""

import ast
import pathlib
import sys

import pytest

SOURCES = sorted((pathlib.Path(__file__).resolve().parents[1] / "src" / "spektoy").glob("*.py"))
ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "spektoy", "__future__"}


def _trees():
    return [(path.name, ast.parse(path.read_text(), str(path))) for path in SOURCES]


def close_calls_without_rtol0(tree):
    """Line numbers of np.allclose / np.isclose calls lacking rtol=0."""
    bad = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("allclose", "isclose")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
        ):
            continue
        rtol = next((kw.value for kw in node.keywords if kw.arg == "rtol"), None)
        if not (isinstance(rtol, ast.Constant) and rtol.value == 0):
            bad.append(node.lineno)
    return bad


def foreign_imports(tree):
    """(line, module) of each absolute import outside ALLOWED_ROOTS."""
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        bad += [(node.lineno, name) for name in names if name.split(".")[0] not in ALLOWED_ROOTS]
    return bad


def test_sources_found():
    assert len(SOURCES) >= 10


@pytest.mark.parametrize("name,tree", _trees(), ids=lambda x: x if isinstance(x, str) else "")
def test_close_calls_are_absolute(name, tree):
    assert close_calls_without_rtol0(tree) == []


@pytest.mark.parametrize("name,tree", _trees(), ids=lambda x: x if isinstance(x, str) else "")
def test_imports_are_numpy_or_stdlib(name, tree):
    assert foreign_imports(tree) == []


def test_rules_catch_violations():
    tree = ast.parse(
        "import numpy as np\nimport scipy.linalg\nfrom sympy import Matrix\nfrom . import wigner\n"
        "np.allclose(a, b)\nnp.isclose(a, b, rtol=1e-5)\nnp.allclose(a, b, rtol=0, atol=1e-9)\n"
    )
    assert close_calls_without_rtol0(tree) == [5, 6]
    assert foreign_imports(tree) == [(2, "scipy.linalg"), (3, "sympy")]
