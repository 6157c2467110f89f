"""Property: whatever document and --cycle text a command gets, it exits
0, 1, 2 or 3, says why when it fails, and no exception escapes ``main``.

Every command of the table that reads a document or takes --cycle is
driven with arbitrary bytes, arbitrary JSON values, and valid documents
with one value replaced by an arbitrary JSON value.  The oracle commands
keep their default search bounds.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from antinef import corpus
from antinef.cli import COMMANDS, main
from antinef.formats import GraphDocument, TowerDocument, emit_graph_document, emit_tower_document
from antinef.graph import cycle, dual_graph

FUZZED = [cmd for cmd in COMMANDS if cmd.reads or cmd.cycle]


def _bases() -> dict[str, list]:
    a1b = dual_graph("a1b", [("E", -3, 1), ("C1", -1, -1)], [("E", "C1")])
    graph = emit_graph_document(GraphDocument("a1b", a1b, {"Z": cycle(a1b, {"E": 1, "C1": 2})}, {"pg": 0}))
    ex = corpus.get("ex244blown")
    cycles = {"Z": (ex.tower.height, ex.cycles["Z"]), "C": (0, cycle(ex.tower.graph(0), {"E0": 1}))}
    tower = emit_tower_document(TowerDocument(ex.name, ex.tower, cycles, {**ex.model_args, "cohom_cycle": "C"}))
    return {"graph": [json.loads(graph)], "tower": [json.loads(tower)]}


BASES = _bases()
IDS = ["E", "C1", "E0", "E1", "E4", "Z", "C"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
cycle_texts = st.one_of(
    st.text(max_size=16),
    st.sampled_from(IDS),
    st.lists(st.tuples(st.sampled_from(IDS), st.integers(-3, 8)), max_size=4).map(
        lambda parts: ",".join(f"{vid}:{c}" for vid, c in parts)
    ),
)


def _paths(value, path=()):
    """Every place in a JSON value, as a tuple of keys and indices."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _replaced(doc, path, new):
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


@st.composite
def documents(draw, kind: str) -> bytes:
    how = draw(st.sampled_from(["bytes", "json", "mutated"]))
    if how == "bytes":
        return draw(st.binary(max_size=64))
    if how == "json":
        return json.dumps(draw(json_values)).encode()
    base = draw(st.sampled_from(BASES[kind]))
    path = draw(st.sampled_from(list(_paths(base))))
    return json.dumps(_replaced(base, path, draw(json_values))).encode()


@pytest.mark.parametrize("cmd", FUZZED, ids=lambda cmd: cmd.name)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_input_exits_cleanly(cmd, data, tmp_path_factory):
    work = tmp_path_factory.getbasetemp()
    argv = cmd.name.split()
    if cmd.reads:
        kind = data.draw(st.sampled_from(["graph", "tower"])) if cmd.reads == "either" else cmd.reads
        path = work / f"fuzz-{kind}.json"
        path.write_bytes(data.draw(documents(kind)))
        argv += [f"--{kind}", str(path)]
    if cmd.cycle:
        argv.append("--cycle=" + data.draw(cycle_texts))
    for flags, options in cmd.args:
        if options.get("required"):
            argv.append(f"{flags[0]}={data.draw(cycle_texts)}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code != 0:  # a report on stdout (validate, cone) or a message on stderr
        assert out.getvalue() or err.getvalue().startswith(("error:", "usage:")), err.getvalue()
