"""The traced benchmark wraps program functions named by string in
``bench/tracing.py``; every name it lists must still exist in the package,
or ``bench/run.py --trace`` breaks when a function is renamed or removed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import antinef

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _missing(targets) -> list[str]:
    """The (module, attribute) pairs that do not resolve: a function of the
    module, or ``Class.method`` in the class's own ``__dict__``."""
    missing = []
    for modname, attr, _ in targets:
        module = importlib.import_module(modname)
        owner, _, name = attr.rpartition(".")
        holder = getattr(module, owner, None) if owner else module
        target = getattr(holder, "__dict__", {}).get(name)
        if not callable(getattr(target, "__func__", target)):  # a classmethod is not callable itself
            missing.append(f"{modname}.{attr}")
    return missing


@pytest.mark.parametrize("table", ["SPANS", "COUNTS"])
def test_every_traced_target_resolves(table):
    for path in Path(antinef.__file__).parent.glob("[!_]*.py"):
        importlib.import_module(f"antinef.{path.stem}")
    assert _missing(getattr(_tracing(), table)) == []


def test_target_check_sees_a_missing_name():
    assert _missing([
        ("antinef.birational", "contract", "x"),
        ("antinef.birational", "contract_each", "x"),
        ("antinef.birational", "Tower.from_steps", "x"),
        ("antinef.birational", "Tower.from_levels", "x"),
        ("antinef.birational", "Pyramid.from_steps", "x"),
    ]) == ["antinef.birational.contract_each", "antinef.birational.Tower.from_levels",
           "antinef.birational.Pyramid.from_steps"]
