"""Import hygiene of the package: no unused imports, no numpy or acceptance
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


def test_no_unused_imports():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"  # its imports are the public re-exports
        and (unused := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_unused_import_scan_sees_an_unused_name():
    assert _unused_imports("import os\nfrom x import a, b as c\nprint(a)\n") == [
        "os (line 1)", "c (line 2)"
    ]


def test_cli_import_leaves_numpy_and_the_acceptance_suite_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, antinef.cli; print({'numpy', 'antinef.verify'} & set(sys.modules))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert out.stdout.strip() == "set()"
