"""Golden record of the command line: stdout, stderr and exit code of each
recorded call, byte for byte, in text mode and with --json.

The record (``data/cli_golden.json``) holds the input documents and the
outputs.  Rewrite it only for an intended change of output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from antinef.cli import main

RECORD = Path(__file__).with_name("data") / "cli_golden.json"
COLUMNS = 80  # argparse wraps usage and help to the terminal width

_IDEAL = ["pg-test", "colon-core", "good-test", "good-closure"]

# the calls; each command appears in text mode and with --json
CALLS: list[list[str]] = [
    ["validate", "--graph", "a1b.json"],
    ["validate", "--graph", "indefinite.json"],
    ["validate", "--graph", "cut.json"],
    ["validate", "--graph", "missing.json"],
    ["validate", "--graph", "schema.json"],
    ["validate"],
    ["fundamental-cycle", "--graph", "d5.json"],
    ["fundamental-cycle", "--graph", "a3.json", "--trace"],
    ["fundamental-cycle", "--graph", "indefinite.json"],
    ["fundamental-cycle", "--tower", "ex244.json"],
    ["canonical-cycle", "--graph", "a1b.json"],
    ["canonical-cycle", "--graph", "d5.json"],
    ["is-rational", "--graph", "d5.json"],
    ["is-rational", "--graph", "ex244min.json"],
    ["antinef-closure", "--graph", "a3.json", "--cycle", "E1:2"],
    ["antinef-closure", "--graph", "a3.json", "--cycle", "D", "--trace"],
    ["antinef-closure", "--graph", "a3.json", "--cycle", "E1:2,E1:3"],
    ["antinef-closure", "--graph", "a3.json", "--cycle", "E1:1.5"],
    ["antinef-closure", "--graph", "a3.json", "--cycle", "E9:1"],
    ["antinef-closure", "--graph", "a3.json", "--cycle", "E1:-1"],
    ["pa", "--graph", "a1b.json", "--cycle", "E:1,C1:2"],
    ["pa", "--graph", "a1b.json", "--cycle", "E:1/2"],
    ["multiplicity", "--graph", "a1b.json", "--cycle", "E:1,C1:2"],
    ["colength", "--graph", "a1b.json", "--cycle", "E:1,C1:2"],
    ["colength", "--graph", "a1b.json", "--cycle", "E:1,C1:2", "--pg", "1", "--h1", "1"],
    ["colength", "--graph", "a1b.json", "--cycle", "E:1"],
    ["blowup", "--graph", "a1b.json", "--center", "E", "--new-id", "P"],
    ["blowup", "--tower", "ex244.json", "--center", "E0,E1", "--new-id", "P"],
    ["blowup", "--graph", "a1b.json", "--center", "E,C1,X", "--new-id", "P"],
    ["blowup", "--graph", "a1b.json", "--center", "E", "--new-id", "X,1"],
    ["blowup", "--center", "E", "--new-id", "P"],
    ["contract", "--graph", "a1b.json", "--vertex", "C1"],
    ["contract", "--graph", "a1b.json", "--vertex", "E"],
    ["pullback", "--tower", "ex244.json", "--cycle", "E0:1", "--from", "0"],
    ["pullback", "--tower", "ex244.json", "--cycle", "W", "--to", "2"],
    ["pullback", "--tower", "ex244.json", "--cycle", "W", "--from", "1"],
    ["pullback", "--graph", "a1b.json", "--cycle", "E:1"],
    ["pushforward", "--tower", "ex244.json", "--cycle", "Z"],
    ["pushforward", "--tower", "ex244.json", "--cycle", "Z", "--to", "2"],
    ["relative-canonical", "--tower", "ex244.json"],
    ["relative-canonical", "--tower", "ex244.json", "--top", "3", "--bottom", "1"],
    *[[cmd, "--tower", "ex244.json", "--cycle", "Z"] for cmd in _IDEAL],
    *[[cmd, "--graph", "ex244_graph.json", "--cycle", "Z"] for cmd in _IDEAL],
    *[[cmd, "--graph", "a1b.json", "--cycle", "E:1,C1:2"] for cmd in _IDEAL],
    ["pg-test", "--tower", "ex244.json", "--cycle", "E0:1", "--level", "0", "--h1", "0"],
    ["colon-core", "--graph", "a1b.json", "--cycle", "E:1,C1:2", "--trace"],
    ["colon-core", "--graph", "chain.json", "--cycle", "E1:1,C1:2,C2:3", "--trace"],
    ["colon-core", "--tower", "ex244.json", "--cycle", "W", "--level", "1"],
    ["colon-core", "--graph", "bad_cohom.json", "--cycle", "Z"],
    ["colon-core", "--cycle", "Z"],
    ["good-closure", "--graph", "chain.json", "--cycle", "E1:1,C1:2,C2:3"],
    ["core-monotone", "--tower", "ex244.json", "--cycle", "Z", "--cycle2", "Z2"],
    ["core-monotone", "--graph", "ex244_graph.json", "--cycle", "Z", "--cycle2", "Z2"],
    ["core-monotone", "--graph", "ex244_graph.json", "--cycle", "Z2", "--cycle2", "Z"],
    ["cone", "--e", "2", "--g", "2", "--a", "1"],
    ["cone", "--e", "3", "--g", "4", "--a", "2"],
    ["oracle", "max-y", "--graph", "a1b.json", "--cycle", "E:1,C1:2"],
    ["oracle", "max-y", "--graph", "ex244_graph.json", "--cycle", "Z", "--cohom", "C"],
    ["oracle", "max-y", "--graph", "a1b.json", "--cycle", "E:1,C1:2", "--max-search", "1"],
    ["oracle", "zf", "--graph", "a3.json", "--max-coeff", "2"],
    ["oracle", "zf", "--graph", "indefinite.json", "--max-coeff", "1"],
    ["oracle", "negdef", "--graph", "a3.json", "--max-coeff", "2"],
    ["oracle", "negdef", "--graph", "indefinite.json", "--max-coeff", "1"],
    ["corpus", "list"],
    ["corpus", "show", "D5"],
    ["corpus", "show", "ex244blown", "--as-tower"],
    ["corpus", "show", "Z99"],
    ["corpus", "verify", "--samples", "2"],
]
CASES = [argv + mode for argv in CALLS for mode in ([], ["--json"])] + [
    # usage errors: the usage line and the message go to stderr, exit 1
    ["frobnicate"],
    [],
    ["oracle"],
    ["corpus", "frobnicate"],
    ["colon-core", "--graph", "a1b.json"],
    ["cone", "--e", "x", "--g", "1", "--a", "0"],
    ["validate", "--graph", "a1b.json", "--bogus"],
    ["oracle", "zf", "--max-coeff", "2"],
    # help: the text goes to stdout, exit 0
    ["--help"],
    ["oracle", "--help"],
    ["validate", "--help"],
    ["colon-core", "--help"],
]


def _documents() -> dict[str, str]:
    """The input documents, as the program writes them."""
    from antinef import corpus
    from antinef.formats import GraphDocument, TowerDocument, emit_graph_document, emit_tower_document
    from antinef.graph import cycle, dual_graph

    def graph_doc(g, cycles=None, model=None):
        cycles = {k: cycle(g, v) for k, v in (cycles or {}).items()}
        return emit_graph_document(GraphDocument(g.name, g, cycles, model))

    a1b = dual_graph("a1b", [("E", -3, 1), ("C1", -1, -1)], [("E", "C1")])
    chain = dual_graph("chain", [("E1", -3, 1), ("C1", -2, 0), ("C2", -1, -1)], [("E1", "C1"), ("C1", "C2")])
    indefinite = dual_graph("indefinite", [("E1", -1, -1), ("E2", -1, -1)], [("E1", "E2", 2)])
    ex = corpus.get("ex244blown")
    t, top = ex.tower, ex.graph
    z = ex.cycles["Z"].as_dict()
    z2 = {k: 2 * v for k, v in z.items()}
    tower_cycles = {"Z": (t.height, ex.cycles["Z"]), "Z2": (t.height, cycle(top, z2)),
                    "C": (t.height, ex.cycles["C"]), "W": (1, cycle(t.graph(1), {"E0": 1, "E1": 1}))}
    return {
        "a1b.json": graph_doc(a1b),
        "chain.json": graph_doc(chain),
        "indefinite.json": graph_doc(indefinite),
        "a3.json": graph_doc(corpus.get("A3").graph, {"D": {"E1": 1, "E3": 2}}),
        "d5.json": graph_doc(corpus.get("D5").graph),
        "ex244min.json": graph_doc(corpus.get("ex244min").graph),
        "ex244.json": emit_tower_document(TowerDocument(ex.name, t, tower_cycles, ex.model_args)),
        "ex244_graph.json": graph_doc(top, {"Z": z, "Z2": z2, "C": {"E0": 1}},
                                      {**ex.model_args, "cohom_cycle": "C"}),
        "bad_cohom.json": graph_doc(top, {"Z": z, "C": {"E0": 1}}, {**ex.model_args, "cohom_cycle": "Q"}),
        "cut.json": '{"format": 1, "name": "cut", "vertices": [',
        "schema.json": '{"format": 1, "name": "g", "vertices": [{"id": "E"}]}',
    }


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --help exits from inside argparse
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def record():
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.fixture
def in_documents(record, tmp_path, monkeypatch):
    for name, text in record["documents"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", str(COLUMNS))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_call_matches_record(argv, record, in_documents):
    assert _run(argv) == record["calls"][" ".join(argv)]


def _choices(argv: list[str], capsys) -> list[str]:
    """The subcommands the parser offers after argv, read off its
    invalid-choice message; [] below a leaf command."""
    main(argv + ["?"])
    m = re.search(r"invalid choice: .*\(choose from (.*)\)", capsys.readouterr().err)
    return [c.strip("'\" ") for c in m.group(1).split(",")] if m else []


def test_every_command_has_a_case_in_both_modes(capsys):
    commands = []
    for name in _choices([], capsys):
        commands += [f"{name} {sub}" for sub in _choices([name], capsys)] or [name]
    assert len(commands) >= 25
    for command in commands:
        words = command.split()
        calls = [argv for argv in CASES if argv[: len(words)] == words]
        assert any("--json" in argv for argv in calls), f"{command}: no case with --json"
        assert any("--json" not in argv for argv in calls), f"{command}: no case in text mode"


if __name__ == "__main__":
    os.environ["COLUMNS"] = str(COLUMNS)
    with tempfile.TemporaryDirectory() as work:
        docs = _documents()
        for name, text in docs.items():
            Path(work, name).write_text(text, encoding="utf-8")
        os.chdir(work)
        calls = {" ".join(argv): _run(argv) for argv in CASES}
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps({"documents": docs, "calls": calls}, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(calls)} calls to {RECORD}")
