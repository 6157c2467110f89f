"""Hygiene of the package: no unused imports, no unreferenced private
module-level names, no public function that only its own module calls,
one home for the int-if-integral rule and for the graph-mismatch message,
no write into an object's ``__dict__``, no numpy or dataclasses anywhere,
an oracle that imports only errors and graph, no query outside birational
that builds every level of a tower, no cycle turned back into names and no
name looked up in ideals, and a CLI call that loads only what its command
runs."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def _imports_of(top: str):
    """A scan for the lines that import the module top or one below it."""
    return lambda source: [f"line {line}" for name, line in _imports(source) if name.split(".")[0] == top]


_numpy_imports = _imports_of("numpy")
_dataclass_imports = _imports_of("dataclasses")


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


_DICT_WRITERS = ("update", "setdefault", "pop", "popitem", "clear")


def _dict_writes(source: str) -> list[str]:
    """The lines that write into an object's ``__dict__`` (or ``vars(x)``):
    an item set or deleted, a mutating method called, or the dict replaced.
    A cached value is seeded through its object's constructor instead."""
    def is_dict(node):
        return (isinstance(node, ast.Attribute) and node.attr == "__dict__") or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars")

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) and is_dict(node.value):
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "__dict__" and not isinstance(node.ctx, ast.Load):
            lines.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _DICT_WRITERS and is_dict(node.value):
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


def test_nothing_writes_into_an_objects_dict():
    assert _scan(_dict_writes, with_init=True) == {}


def test_dict_write_scan_sees_a_planted_copy():
    source = (
        "def f(g, ids):\n"
        "    seen = g.__dict__.get('ids'), vars(g).get('rows')\n"
        "    g.__dict__['ids'] = ids\n"
        "    vars(g)['rows'] = seen\n"
        "    g.graph.__dict__.update(ids=ids)\n"
        "    del g.__dict__['ids']\n"
        "    g.__dict__ = {}\n"
        "    g.__dict__['n'] += 1\n"
        "    return {'__dict__': 1}['__dict__'], g.__dict__['ids']\n"
    )
    assert _dict_writes(source) == ["line 3", "line 4", "line 5", "line 6", "line 7", "line 8"]


def _attribute_reads(source: str, names: tuple[str, ...]) -> list[str]:
    """The lines that read an attribute of one of these names."""
    return [
        f"line {line}" for line in sorted(
            node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in names
        )
    ]


def _levels_reads(source: str) -> list[str]:
    """Reads of ``levels``: every graph of a tower, each built by replay.  A
    query reads ``bottom``, ``top`` or ``graph(k)`` instead."""
    return _attribute_reads(source, ("levels",))


def _index_space_reads(source: str) -> list[str]:
    """Reads of a graph's private vertex index, of its cached rows or of its
    dense ``matrix``: M laid out by index once more.  ``sparse_matrix()`` is
    the one builder, and a cycle's ``rows`` (M.Z) the one reading of it
    outside ``graph``."""
    return _attribute_reads(source, ("_index", "_rows", "matrix"))


def test_no_module_but_birational_reads_every_level_of_a_tower():
    found = _scan(_levels_reads, with_init=True)
    assert {name: lines for name, lines in found.items() if name != "birational.py"} == {}


def test_levels_scan_sees_a_planted_read():
    source = (
        "levels = 2\n"
        "def f(t):\n"
        "    g = t.bottom\n"
        "    return t.levels[0], g, t.graph(levels)\n"
        "def g(doc):\n"
        "    return doc.tower.levels\n"
    )
    assert _levels_reads(source) == ["line 4", "line 6"]


def test_no_module_but_graph_lays_out_the_intersection_matrix():
    found = _scan(_index_space_reads, with_init=True)
    assert {name: lines for name, lines in found.items() if name != "graph.py"} == {}


def test_index_scan_sees_a_planted_copy():
    source = (
        "def f(g):\n"
        "    rows = g.sparse_matrix()\n"
        "    column = [(g._index[b], m) for b, m in g.adjacency['E1']]\n"
        "    diagonal = [e2 for e2, _ in g._rows]\n"
        "    return rows, column, diagonal, g.matrix(), z.rows\n"
    )
    assert _index_space_reads(source) == ["line 3", "line 4", "line 5"]


def _name_round_trips(source: str) -> list[str]:
    """Calls of ``.as_dict()``: a cycle turned back into a dict keyed by
    name, which the passes up and down a tower never need, since they run by
    position or over the top's ids."""
    return [
        f"line {line}" for line in sorted(
            node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "as_dict"
        )
    ]


def test_no_module_turns_a_cycle_back_into_names():
    assert _scan(_name_round_trips, with_init=True) == {}


def test_ideals_reads_no_position_of_a_name():
    """colon/core, goodness and the good closure take positions from the
    contraction core, never from a name."""
    assert _attribute_reads((PACKAGE / "ideals.py").read_text(encoding="utf-8"), ("position",)) == []


def test_name_round_trip_scans_see_a_planted_copy():
    source = (
        "def as_dict(self):\n"
        "    return dict(self.coeffs)\n"
        "def f(t, w, g):\n"
        "    coeffs = w.as_dict()\n"
        "    seq = [g.position(s.new_id) for s in t.steps]\n"
        "    return cycle(g, lift(t.pullback(w, 0, 1).as_dict(), t.steps)), g.positions, w.as_dict\n"
    )
    assert _name_round_trips(source) == ["line 4", "line 6"]
    assert _attribute_reads(source, ("position",)) == ["line 5"]


def _surgery_builders(source: str) -> list[str]:
    """The functions, by qualified name, that construct a ``_Surgery``: the
    lists a tower's graphs are grown on.  A level is read up from the
    bottom and the contraction loop keeps its own maps, so only the two
    builders up the steps make one."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, where + (child.name,))
                continue
            if isinstance(child, ast.Call) and (
                isinstance(child.func, ast.Name) and child.func.id == "_Surgery"
                or isinstance(child.func, ast.Attribute) and child.func.attr == "_Surgery"
            ):
                found.append(".".join(where))
            visit(child, where)

    visit(ast.parse(source), ())
    return found


def test_only_replay_and_levels_build_a_surgery():
    assert _scan(_surgery_builders, with_init=True) == {"birational.py": ["replay", "Tower.levels"]}


def test_surgery_scan_sees_a_planted_copy():
    source = (
        "class Tower:\n"
        "    def graph(self):\n"
        "        return birational._Surgery(self.top)\n"
        "def contract_all(g):\n"
        "    def down():\n"
        "        return _Surgery(g).graph()\n"
        "    return down\n"
        "def f(s):\n"
        "    return s._Surgery, _Surgery.insert(s, 1), Surgery(s), _Surgery\n"
    )
    assert _surgery_builders(source) == ["Tower.graph", "contract_all.down"]


def _public_functions(source: str) -> list[tuple[str, int]]:
    return [
        (node.name, node.lineno) for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def _identifiers(source: str) -> set[str]:
    """Every name the source uses: as a name, an attribute or an import, or
    as the second string of a ("antinef.<module>", "<name>") tuple, which is
    how the benchmark names the functions it traces.  Other strings are not
    calls."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Tuple) and len(node.elts) >= 2:
            module, name = (e.value if isinstance(e, ast.Constant) else None for e in node.elts[:2])
            if isinstance(module, str) and module.startswith("antinef.") and isinstance(name, str):
                found.add(name)
    return found


def _unreached_functions(modules: dict[str, str], clients: list[str], exported) -> list[str]:
    """Public module-level functions of these modules that are not exported
    and that no other module and no client source names."""
    used = {name: _identifiers(source) for name, source in modules.items()}
    outside = set().union(*map(_identifiers, clients))
    return [
        f"{name}: {fn} (line {line})" for name, source in modules.items() for fn, line in _public_functions(source)
        if fn not in exported and fn not in outside and not any(fn in ids for o, ids in used.items() if o != name)
    ]


BENCH = PACKAGE.parent.parent / "bench"


def _package_sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}


def _bench_sources() -> list[str]:
    """The benchmark is a client: it calls det_bareiss, corpus.d_n and the
    CLI's main, and traces birational.apply_step."""
    return [path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py"))]


def test_every_public_function_is_exported_or_called_from_another_module():
    assert _unreached_functions(_package_sources(), _bench_sources(), antinef.__all__) == []


def test_function_scan_sees_a_planted_copy():
    modules = {
        "a.py": (
            "def exported():\n    return used()\n"
            "def used():\n    pass\n"
            "def traced():\n    pass\n"
            "def left_behind():\n    return used()\n"
            "def _private():\n    pass\n"
        ),
        "b.py": "from .a import used\n",
    }
    client = "TARGETS = [('antinef.a', 'traced', 'a.traced')]\nprint('left_behind')\n"
    assert _unreached_functions(modules, [client], {"exported"}) == ["a.py: left_behind (line 7)"]
    # the closure kernel, were lattice to stop calling it
    package = _package_sources()
    package["lattice.py"] = package["lattice.py"].replace("laufer_closure", "closure")
    found = _unreached_functions(package, _bench_sources(), antinef.__all__)
    assert [line.split(" (")[0] for line in found] == ["graph.py: laufer_closure"]


def test_no_module_imports_numpy():
    assert _scan(_numpy_imports, with_init=True) == {}


def test_no_module_imports_dataclasses():
    assert _scan(_dataclass_imports, with_init=True) == {}


def test_dataclass_scan_sees_a_planted_copy():
    source = (
        "from dataclasses import dataclass\n"
        "def f():\n"
        "    import dataclasses as dc\n"
        "    return dataclass, dc\n"
    )
    assert _dataclass_imports(source) == ["line 1", "line 3"]


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


def _message_copies(source: str, text: str) -> list[str]:
    """String literals, f-string parts included, that contain text."""
    return [
        f"line {line}" for line in sorted(
            node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value
        )
    ]


MISMATCH = "cycles live on different graphs"


def test_graph_mismatch_message_lives_in_graph_only():
    assert {name: len(found) for name, found in _scan(lambda s: _message_copies(s, MISMATCH)).items()} == {
        "graph.py": 1
    }


def test_message_scan_sees_a_planted_copy():
    source = (
        "def f(a, b):\n"
        f"    raise ValueError(f'{MISMATCH} ({{a!r}} vs {{b!r}})')\n"
        "def g():\n"
        f"    return '{MISMATCH}'\n"
    )
    assert _message_copies(source, MISMATCH) == ["line 2", "line 4"]


# --- what a CLI call loads ----------------------------------------------------------

PUBLIC = sorted("""
    ConeStats CoreReport Cycle DualGraph IdealRep InputError LatticeError PreconditionError SingularityModel
    TheoremViolationError Tower TowerStep ValidationReport Vertex antinef_closure arithmetic_genus
    associated_pg_cycle canonical_cycle colength colon_and_core cone_model contract contract_all
    contracts_to_smooth core_monotone_check cycle dual_graph edge_point epsilon free_point fundamental_cycle
    good_closure good_gorenstein_crosscheck includes is_antinef is_good is_numerically_gorenstein is_rational
    k_dot multiplicity pair product relative_canonical represent row_pairing singularity_model
    stability_defect transport_cohom unit_cycle validate_graph zero_cycle
""".split())
# the modules whose loading a call is checked for
WATCHED = sorted({f"antinef.{path.stem}" for path in PACKAGE.glob("*.py")} - {"antinef.__init__"}
                 | {"dataclasses", "inspect"})
ALWAYS = ["antinef.cli", "antinef.errors", "antinef.formats", "antinef.graph"]
A3 = {
    "format": 1, "name": "A3",
    "vertices": [{"id": f"E{i}", "self_int": -2, "kappa": 0} for i in (1, 2, 3)],
    "edges": [{"a": "E1", "b": "E2"}, {"a": "E2", "b": "E3"}],
}
# runs one call of main in a fresh interpreter; the last line of stderr lists
# the watched modules that the call loaded and the start-up had not
_CALL = (
    "import json, sys\n"
    "watch = set(json.loads(sys.argv[1])) - set(sys.modules)\n"
    "from antinef.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "print(json.dumps(sorted(watch & set(sys.modules))), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _loaded_by(argv: list[str], cwd: Path) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", _CALL, json.dumps(WATCHED), *argv],
        capture_output=True, text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stderr.splitlines()[-1])


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    from antinef import corpus
    from antinef.formats import TowerDocument, emit_tower_document

    work = tmp_path_factory.mktemp("documents")
    (work / "a3.json").write_text(json.dumps(A3), encoding="utf-8")
    ex = corpus.get("ex244blown")
    doc = TowerDocument(ex.name, ex.tower, {"Z": (ex.tower.height, ex.cycles["Z"])}, ex.model_args)
    (work / "ex244.json").write_text(emit_tower_document(doc), encoding="utf-8")
    return work


# a call and what it loads beyond ALWAYS
CALLS = [
    (["validate", "--graph", "a3.json"], []),
    (["fundamental-cycle", "--graph", "a3.json", "--json"], ["antinef.lattice"]),
    (["canonical-cycle", "--graph", "a3.json"], ["antinef.lattice"]),
    (["antinef-closure", "--graph", "a3.json", "--cycle", "E1:2", "--trace"], ["antinef.lattice"]),
    (["pullback", "--tower", "ex244.json", "--cycle", "E0:1", "--from", "0"],
     ["antinef.birational", "antinef.lattice"]),
    (["colon-core", "--tower", "ex244.json", "--cycle", "Z"],
     ["antinef.birational", "antinef.ideals", "antinef.lattice"]),
    (["oracle", "zf", "--graph", "a3.json", "--max-coeff", "2"], ["antinef.oracle"]),
]


@pytest.mark.parametrize("argv, loads", CALLS, ids=[" ".join(argv[:2]).split(" --")[0] for argv, _ in CALLS])
def test_a_call_loads_only_what_its_command_runs(argv, loads, documents):
    assert _loaded_by(argv, documents) == sorted(ALWAYS + loads)


def test_package_exports_the_same_public_names():
    assert sorted(antinef.__all__) == PUBLIC
    submodules = {path.stem for path in PACKAGE.glob("*.py")}
    listed = {name for name in dir(antinef) if not name.startswith("_")}
    assert set(PUBLIC) <= listed and listed - set(PUBLIC) <= submodules
    for name in PUBLIC:
        value = getattr(antinef, name)
        assert value is getattr(sys.modules[value.__module__], name), name


def test_unknown_package_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="frobnicate"):
        antinef.frobnicate  # noqa: B018
    assert not hasattr(antinef, "edge_mult")
