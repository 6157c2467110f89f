"""Hygiene of the package: no unused imports, no unreferenced private
module-level names, one home for the int-if-integral rule, no numpy
anywhere, an oracle that imports only errors and graph, and no acceptance
suite at CLI start."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import antinef

PACKAGE = Path(antinef.__file__).resolve().parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # quoted annotations such as -> "Tower" name their types in strings
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def _dead_private_names(source: str) -> list[str]:
    """Module-level private functions, classes and constants that nothing in
    the module refers to."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    used |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return [
        f"{name} (line {line})" for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in used
    ]


def _integral_tests(source: str) -> list[str]:
    """Comparisons ``x.denominator == 1``: the rule that an integral Fraction
    becomes an int, which graph.normal owns."""
    return [
        f"line {node.lineno}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Attribute) and node.left.attr == "denominator"
        and isinstance(node.ops[0], ast.Eq)
        and isinstance(node.comparators[0], ast.Constant) and node.comparators[0].value == 1
    ]


def _imports(source: str) -> list[tuple[str, int]]:
    """Every module the source imports, at any depth, with its line; a
    module of this package keeps its leading dot, as in ``.graph``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            found += [("." + alias.name, node.lineno) for alias in node.names]  # from . import x
        elif isinstance(node, ast.ImportFrom):
            found.append(("." * node.level + node.module, node.lineno))
    return found


def _numpy_imports(source: str) -> list[str]:
    return [f"line {line}" for name, line in _imports(source) if name.split(".")[0] == "numpy"]


def _package_imports(source: str) -> list[str]:
    """The modules of this package that the source imports from."""
    return sorted({name[1:].split(".")[0] for name, _ in _imports(source) if name.startswith(".")})


def _scan(find, with_init: bool = False) -> dict[str, list[str]]:
    return {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (with_init or path.name != "__init__.py")  # its imports are the public re-exports
        and (found := find(path.read_text(encoding="utf-8")))
    }


def test_no_unused_imports():
    assert _scan(_unused_imports) == {}


def test_unused_import_scan_sees_an_unused_name():
    assert _unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == [
        "os (line 1)", "c (line 2)"
    ]


def test_no_unreferenced_private_names():
    assert _scan(_dead_private_names) == {}


def test_private_name_scan_sees_a_dead_name():
    source = (
        "_USED = 1\n_DEAD = 2\n__all__ = []\n"
        "def _helper():\n    return _USED\n"
        "def _left_behind():\n    return _helper()\n"
        "class _Unused:\n    pass\n"
        "def public():\n    return _helper()\n"
    )
    assert _dead_private_names(source) == ["_DEAD (line 2)", "_left_behind (line 6)", "_Unused (line 8)"]


def test_int_if_integral_rule_lives_in_graph_only():
    assert {name: len(found) for name, found in _scan(_integral_tests).items()} == {"graph.py": 1}


def test_integral_test_scan_sees_a_planted_copy():
    source = (
        "def f(total):\n"
        "    if total.denominator != 1:\n        return total\n"
        "    return int(total) if total.denominator == 1 else total\n"
    )
    assert _integral_tests(source) == ["line 4"]


def test_no_module_imports_numpy():
    assert _scan(_numpy_imports, with_init=True) == {}


def test_oracle_imports_only_errors_and_graph():
    assert _package_imports((PACKAGE / "oracle.py").read_text(encoding="utf-8")) == ["errors", "graph"]


def test_import_scans_see_a_planted_copy():
    source = (
        "import numpy as np\n"
        "from .graph import cycle\n"
        "from . import corpus\n"
        "def f():\n"
        "    from numpy.linalg import det\n"
        "    from .lattice import pair\n"
        "    return det, pair, np, cycle, corpus\n"
    )
    assert _numpy_imports(source) == ["line 1", "line 5"]
    assert _package_imports(source) == ["corpus", "graph", "lattice"]


def test_cli_import_leaves_numpy_and_the_acceptance_suite_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, antinef.cli; print({'numpy', 'antinef.verify'} & set(sys.modules))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert out.stdout.strip() == "set()"
