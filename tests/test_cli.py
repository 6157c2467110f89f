"""Command-line surface: thin-wrapper behavior and exit codes."""

import json
from pathlib import Path

import pytest

from antinef import corpus
from antinef.cli import _build_parser, _read, main
from antinef.errors import InputError
from antinef.formats import emit_graph_document, emit_tower_document, GraphDocument, TowerDocument
from antinef.graph import cycle, dual_graph
from antinef.lattice import fundamental_cycle, is_rational


@pytest.fixture
def a1b_file(tmp_path):
    g = dual_graph("a1b", [("E", -3, 1), ("C1", -1, -1)], [("E", "C1")])
    path = tmp_path / "a1b.json"
    path.write_text(emit_graph_document(GraphDocument(name="a1b", graph=g)))
    return str(path)


@pytest.fixture
def ex244_tower_file(tmp_path):
    entry = corpus.get("ex244blown")
    cycles = {name: (entry.tower.height, c) for name, c in entry.cycles.items()}
    doc = TowerDocument(
        name=entry.name, tower=entry.tower, cycles=cycles, model=entry.model_args
    )
    path = tmp_path / "ex244.json"
    path.write_text(emit_tower_document(doc))
    return str(path)


def _ex244_graph_file(tmp_path, cohom):
    """The ex244 top graph as a graph document declaring model.cohom_cycle."""
    entry = corpus.get("ex244blown")
    cycles = {"Z": entry.cycles["Z"], "C": cycle(entry.graph, cohom)}
    doc = GraphDocument(
        name=entry.name, graph=entry.graph, cycles=cycles,
        model={**entry.model_args, "cohom_cycle": "C"},
    )
    path = tmp_path / "ex244_graph.json"
    path.write_text(emit_graph_document(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestColonCore:
    def test_worked_example(self, capsys, a1b_file):
        code, out = run(
            capsys, "colon-core", "--graph", a1b_file, "--cycle", "E:1,C1:2", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "Y": {"C1": 1},
            "colon": {"C1": 1, "E": 1},
            "core": {"C1": 3, "E": 2},
            "good": False,
            "iterations": 1,
        }

    def test_trace_replays_to_same_result(self, capsys, a1b_file):
        code, plain = run(capsys, "colon-core", "--graph", a1b_file, "--cycle", "E:1,C1:2")
        code2, traced = run(
            capsys, "colon-core", "--graph", a1b_file, "--cycle", "E:1,C1:2", "--trace"
        )
        assert code == code2 == 0
        kept = "\n".join(l for l in traced.splitlines() if not l.startswith("#"))
        assert kept.strip() == plain.strip()

    def test_on_tower_document(self, capsys, ex244_tower_file):
        code, out = run(
            capsys, "colon-core", "--tower", ex244_tower_file, "--cycle", "Z", "--json"
        )
        assert code == 0
        data = json.loads(out)
        assert data["good"] is True
        assert data["core"] == {"E0": 4, "E1": 6, "E2": 6, "E3": 6, "E4": 6}


class TestDeclaredCohomologicalCycle:
    @pytest.mark.parametrize("command", ["colon-core", "good-closure"])
    def test_graph_document_matches_tower_document(self, capsys, tmp_path, ex244_tower_file, command):
        graph_file = _ex244_graph_file(tmp_path, {"E0": 1})
        code, on_graph = run(capsys, command, "--graph", graph_file, "--cycle", "Z", "--json")
        code2, on_tower = run(capsys, command, "--tower", ex244_tower_file, "--cycle", "Z", "--json")
        assert code == code2 == 0
        assert on_graph == on_tower

    def test_cycle_a_contraction_cannot_transport_is_not_minimal(self, capsys, tmp_path):
        # E1 sits on E0, in supp C: its re-insertion gives C[E1] = 1 - 1 = 0, not 1,
        # so E1 stays and the graph never reaches a minimal resolution
        graph_file = _ex244_graph_file(tmp_path, {"E0": 1, "E1": 1})
        code = main(["colon-core", "--graph", graph_file, "--cycle", "Z"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "not a minimal resolution" in captured.err


class TestOneParse:
    @pytest.mark.parametrize("reads", ["graph", "tower"])
    def test_core_monotone_parses_its_document_once(self, capsys, tmp_path, ex244_tower_file, monkeypatch,
                                                    reads):
        import antinef.cli as cli

        parses = []
        name = f"parse_{reads}_document"
        parse = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda text: parses.append(1) or parse(text))
        path = ex244_tower_file if reads == "tower" else _ex244_graph_file(tmp_path, {"E0": 1})
        z2 = "E0:4,E1:6,E2:6,E3:6,E4:6"
        code, out = run(capsys, "core-monotone", f"--{reads}", path, "--cycle", "Z", "--cycle2", z2)
        assert (code, out, len(parses)) == (0, "monotone = true\n", 1)


class TestThinWrapper:
    @pytest.mark.parametrize("name", ["A4", "D6", "E7", "HJ(7,2)"])
    def test_fundamental_cycle_matches_library(self, capsys, tmp_path, name):
        g = corpus.get(name).graph
        path = tmp_path / "g.json"
        path.write_text(emit_graph_document(GraphDocument(name=name, graph=g)))
        code, out = run(capsys, "fundamental-cycle", "--graph", str(path), "--json")
        assert code == 0
        assert json.loads(out)["fundamental_cycle"] == fundamental_cycle(g).as_dict()

    @pytest.mark.parametrize("name", ["A2", "ex244min"])
    def test_is_rational_matches_library(self, capsys, tmp_path, name):
        g = corpus.get(name).graph
        path = tmp_path / "g.json"
        path.write_text(emit_graph_document(GraphDocument(name=name, graph=g)))
        code, out = run(capsys, "is-rational", "--graph", str(path), "--json")
        assert code == 0
        assert json.loads(out)["rational"] == is_rational(g)

    def test_corpus_show_round_trips(self, capsys, tmp_path):
        code, out = run(capsys, "corpus", "show", "D5")
        assert code == 0
        path = tmp_path / "d5.json"
        path.write_text(out)
        code, validated = run(capsys, "validate", "--graph", str(path), "--json")
        assert code == 0 and json.loads(validated)["ok"]


class TestParser:
    def test_a_call_builds_the_parser_of_its_command_alone(self):
        assert "{validate}" in _build_parser(["validate", "--graph", "a.json"]).format_usage()
        argv = ["oracle", "zf", "--graph", "a.json"]
        assert _build_parser(argv).parse_args(argv).cmd.name == "oracle zf"


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert run(capsys, "validate", "--graph", "/nonexistent.json")[0] == 1

    def test_usage_error_is_input_error(self, capsys):
        assert run(capsys, "definitely-not-a-command")[0] == 1

    def test_schema_error_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": 1, "name": "g", "vertices": [{"id": "E"}]}')
        assert run(capsys, "validate", "--graph", str(path))[0] == 1

    def test_precondition_violation_is_2(self, capsys, a1b_file):
        # E alone is not anti-nef, so colength refuses
        assert run(capsys, "colength", "--graph", a1b_file, "--cycle", "E:1")[0] == 2

    def test_invalid_graph_exits_2(self, capsys, tmp_path):
        g = {"format": 1, "name": "g", "vertices": [{"id": "E", "self_int": 0, "kappa": -2}]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g))
        assert run(capsys, "validate", "--graph", str(path))[0] == 2


    def test_duplicate_inline_id_is_input_error(self, capsys, tmp_path):
        g = corpus.get("A3").graph
        path = tmp_path / "a3.json"
        path.write_text(emit_graph_document(GraphDocument(name="A3", graph=g)))
        code = main(["antinef-closure", "--graph", str(path), "--cycle", "E1:2,E1:3"])
        assert code == 1 and capsys.readouterr().err.startswith("error:")

    def test_duplicate_json_key_is_input_error(self, capsys, tmp_path):
        # the first kappa breaks adjunction; keeping only the last would validate
        g = {"format": 1, "name": "g", "vertices": [{"id": "E", "self_int": -2, "kappa": 0}]}
        text = json.dumps(g).replace('"kappa": 0', '"kappa": 1, "kappa": 0')
        path = tmp_path / "g.json"
        path.write_text(text)
        code = main(["validate", "--graph", str(path)])
        assert code == 1 and capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("spec", ["E1:1.5", "E1:1e1", "E1:1_0"])
    def test_decimal_inline_coefficient_is_input_error(self, capsys, tmp_path, spec):
        path = tmp_path / "a3.json"
        path.write_text(emit_graph_document(GraphDocument(name="A3", graph=corpus.get("A3").graph)))
        code = main(["antinef-closure", "--graph", str(path), "--cycle", spec])
        assert code == 1 and capsys.readouterr().err.startswith("error:")

    def test_decimal_document_coefficient_is_input_error(self, capsys, tmp_path):
        doc = json.loads(emit_graph_document(GraphDocument(name="A3", graph=corpus.get("A3").graph)))
        doc["cycles"] = {"Z": {"E1": "1.5"}}
        path = tmp_path / "a3.json"
        path.write_text(json.dumps(doc))
        code = main(["antinef-closure", "--graph", str(path), "--cycle", "Z"])
        assert code == 1 and capsys.readouterr().err.startswith("error:")

    def test_id_unnameable_inline_is_input_error(self, capsys, tmp_path):
        g = {"format": 1, "name": "g", "vertices": [{"id": "E:1", "self_int": -2, "kappa": 0}]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g))
        code = main(["validate", "--graph", str(path)])
        assert code == 1 and capsys.readouterr().err.startswith("error:")

    def test_blowup_new_id_unnameable_inline_is_input_error(self, capsys, a1b_file):
        code = main(["blowup", "--graph", a1b_file, "--center", "E", "--new-id", "X,1"])
        assert code == 1 and capsys.readouterr().err.startswith("error:")

    def test_oracle_is_exact_beyond_int64(self, capsys, tmp_path):
        g = {"format": 1, "name": "g", "vertices": [{"id": "E", "self_int": -(2**62), "kappa": 2**62 - 2}]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(g))
        code = main(["oracle", "negdef", "--graph", str(path), "--json"])
        assert code == 0 and capsys.readouterr().out.strip() == '{"negative_definite":true}'


class TestCone:
    def test_cone_json(self, capsys):
        code, out = run(capsys, "cone", "--e", "2", "--g", "2", "--a", "1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["all_ok"] and data["colength"] == 3 and data["mu"] == 3


class TestOracle:
    def test_max_y_matches_colon_core(self, capsys, a1b_file):
        _, core_out = run(
            capsys, "colon-core", "--graph", a1b_file, "--cycle", "E:1,C1:2", "--json"
        )
        code, out = run(
            capsys, "oracle", "max-y", "--graph", a1b_file, "--cycle", "E:1,C1:2", "--json"
        )
        assert code == 0
        assert json.loads(out)["max_y"] == json.loads(core_out)["Y"]

    def test_max_search_cap_exits_2(self, capsys, a1b_file):
        code, _ = run(
            capsys,
            "oracle", "max-y", "--graph", a1b_file,
            "--cycle", "E:1,C1:2", "--max-search", "1",
        )
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["zf", "--max-coeff", "0"], "search bounds must be positive"),
        (["negdef", "--max-coeff", "-1"], "search bounds must be positive"),
        # with no bound given, the oracle blames Z, not the bound it sizes from Z
        (["max-y", "--cycle", "E:-1,C1:-2"], "oracle needs an effective integral Z"),
    ])
    def test_a_bound_that_is_not_positive_exits_2(self, capsys, a1b_file, argv, message):
        code = main(["oracle", argv[0], "--graph", a1b_file, *argv[1:]])
        assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")


class TestCorpus:
    def test_list_contains_families(self, capsys):
        code, out = run(capsys, "corpus", "list")
        names = out.split()
        assert code == 0
        for expected in ("A1", "A9", "D4", "E8", "ex244min", "ex244blown"):
            assert expected in names

    def test_unknown_name_is_input_error(self, capsys):
        assert run(capsys, "corpus", "show", "Z99")[0] == 1

    @pytest.mark.parametrize("name, message", [
        ("A" + "1" * 5000, "unknown corpus name 'A" + "1" * 5000 + "'"),
        (f"HJ({'7' * 5000},2)", f"unknown corpus name 'HJ({'7' * 5000},2)'"),
        ("A12345", "unknown corpus name 'A12345'"),
        ("HJ(100000,99999)", "HJ chains have at most 9999 curves"),
    ], ids=["A-5000-digits", "HJ-5000-digits", "A-5-digits", "HJ-of-99999-curves"])
    def test_a_name_past_the_bounds_is_refused(self, capsys, name, message):
        assert main(["corpus", "show", name]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestMalformedDocuments:
    """Each of these once ended in a Python traceback instead of `error:`."""

    @pytest.mark.parametrize("doc", [
        {"format": 1, "vertices": 5},
        {"format": 1, "vertices": [{"id": "E", "self_int": -2, "kappa": 0}], "edges": 5},
        {"format": 1, "vertices": [{"id": "E", "self_int": -2, "kappa": 0}], "cycles": [1]},
    ], ids=["vertices", "edges", "cycles"])
    def test_graph_document(self, capsys, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--graph", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("doc", [
        {"format": 1, "base": {"vertices": []}, "steps": 5},
        {"format": 1, "base": 5},
    ], ids=["steps", "base"])
    def test_tower_document(self, capsys, tmp_path, doc):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert main(["colon-core", "--tower", str(path), "--cycle", "Z"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_read_refuses_text_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(InputError, match="cannot read"):
            _read(str(path))

    @pytest.mark.parametrize("data", [b"[" * 100_000, b"\xff\xfe{"], ids=["deep", "not-utf8"])
    def test_unreadable_text(self, capsys, tmp_path, data):
        path = tmp_path / "g.json"
        path.write_bytes(data)
        assert main(["validate", "--graph", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestFormatField:
    @pytest.mark.parametrize("fmt", ["true", "1.0"])
    def test_graph_document(self, capsys, a1b_file, tmp_path, fmt):
        path = tmp_path / "g.json"
        path.write_text(Path(a1b_file).read_text().replace('"format": 1', f'"format": {fmt}'))
        assert main(["validate", "--graph", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: $.format: expected 1, got {fmt.capitalize()}")

    @pytest.mark.parametrize("fmt", ["true", "1.0"])
    def test_tower_document(self, capsys, ex244_tower_file, tmp_path, fmt):
        path = tmp_path / "t.json"
        path.write_text(Path(ex244_tower_file).read_text().replace('"format": 1', f'"format": {fmt}'))
        assert main(["colon-core", "--tower", str(path), "--cycle", "Z"]) == 1
        assert capsys.readouterr().err.startswith("error: $.format")


class TestBlowupRefusals:
    """The step's own surgery refuses a bad center (apply_step)."""

    def test_unknown_curve_is_input_error(self, capsys, a1b_file):
        assert main(["blowup", "--graph", a1b_file, "--center", "X", "--new-id", "P"]) == 1
        assert capsys.readouterr().err == "error: step attaches to unknown vertex 'X'\n"

    def test_edge_point_without_an_edge_is_precondition_error(self, capsys, tmp_path):
        path = tmp_path / "d4.json"
        path.write_text(emit_graph_document(GraphDocument(name="D4", graph=corpus.get("D4").graph)))
        assert main(["blowup", "--graph", str(path), "--center", "E3,E4", "--new-id", "P"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot blow up: edge ('E3', 'E4') has multiplicity 0 < 1\n"
        )

    def test_on_a_tower_document(self, capsys, ex244_tower_file):
        assert main(["blowup", "--tower", ex244_tower_file, "--center", "E1,E2", "--new-id", "P"]) == 2
        assert main(["blowup", "--tower", ex244_tower_file, "--center", "X", "--new-id", "P"]) == 1


def _ex244_tower_file_with_cohom(tmp_path, level):
    """The ex244 tower document whose model.cohom_cycle names a cycle E0 at level."""
    entry = corpus.get("ex244blown")
    t = entry.tower
    cycles = {name: (t.height, c) for name, c in entry.cycles.items()}
    cycles["C0"] = (level, t.pullback(cycle(t.bottom, {"E0": 1}), 0, level))
    doc = TowerDocument(entry.name, t, cycles, {**entry.model_args, "cohom_cycle": "C0"})
    path = tmp_path / "ex244_cohom.json"
    path.write_text(emit_tower_document(doc))
    return str(path)


def _indefinite_graph_file(tmp_path):
    g = dual_graph("bad", [("E", 0, -2)])
    path = tmp_path / "bad.json"
    path.write_text(emit_graph_document(GraphDocument(name="bad", graph=g, cycles={"Z": cycle(g, {"E": 1})})))
    return str(path)


def _semidefinite_graph_file(tmp_path):
    """Two (-1)-curves meeting once: det M = 0, and E1 + E2 is already anti-nef."""
    g = dual_graph("semi", [("E1", -1, -1), ("E2", -1, -1)], [("E1", "E2")])
    path = tmp_path / "semi.json"
    path.write_text(emit_graph_document(GraphDocument(name="semi", graph=g, cycles={"Z": cycle(g, {"E1": 1, "E2": 1})})))
    return str(path)


class TestRefusals:
    """Refusals of the CLI that no other test reaches: the exit code and the
    whole error line, with nothing on stdout."""

    @pytest.mark.parametrize("argv, code, message", [
        (["blowup", "--graph", "A1B", "--center", "E,E", "--new-id", "P"], 1,
         "edge point needs two distinct curves"),
        (["pushforward", "--tower", "EX", "--cycle", "E0:1", "--from", "0", "--to", "2"], 2,
         "pushforward goes to a level <= its source"),
        (["pg-test", "--tower", "EX", "--cycle", "Z", "--level", "0"], 1,
         "cycle 'Z' is declared at level 4, not 0"),
        (["pg-test", "--graph", "A1B", "--cycle", "E:0"], 2, "an ideal needs an integral cycle Z > 0"),
        (["pg-test", "--graph", "A1B", "--cycle", "E:1,C1:2", "--h1", "1"], 2, "rational models force h1 = 0"),
        (["pg-test", "--tower", "EX", "--cycle", "Z", "--h1", "0"], 2,
         "a numerically-p_g cycle has h1 = pg = 1, got 0"),
        (["pg-test", "--tower", "EX", "--cycle", "E0:2", "--level", "0", "--h1", "2"], 2,
         "need 0 <= h1 <= pg, got h1=2"),
        (["pg-test", "--tower", "EX", "--cycle", "E0:2", "--level", "0", "--h1", "-1"], 2,
         "need 0 <= h1 <= pg, got h1=-1"),
        (["pg-test", "--tower", "EX", "--cycle", "E0:2", "--level", "0"], 2,
         "non-p_g cycle on a non-rational model needs caller-supplied h1"),
        (["pg-test", "--graph", "BAD", "--cycle", "Z"], 2,
         "base graph 'bad' is invalid: intersection matrix is not negative definite"),
        (["colon-core", "--graph", "BAD", "--cycle", "Z"], 2,
         "base graph 'bad' is invalid: intersection matrix is not negative definite"),
        (["canonical-cycle", "--graph", "BAD"], 2, "graph 'bad' has singular intersection matrix"),
        (["good-closure", "--tower", "EX", "--cycle", "E0:2", "--level", "0", "--h1", "1"], 2,
         "good_closure needs a numerically-p_g ideal"),
        (["fundamental-cycle", "--graph", "BAD"], 2, "antinef_closure needs a negative-definite graph; 'bad' is not"),
        (["antinef-closure", "--graph", "BAD", "--cycle", "Z"], 2,
         "antinef_closure needs a negative-definite graph; 'bad' is not"),
        (["is-rational", "--graph", "BAD"], 2, "antinef_closure needs a negative-definite graph; 'bad' is not"),
        (["fundamental-cycle", "--graph", "SEMI"], 2, "antinef_closure needs a negative-definite graph; 'semi' is not"),
        (["antinef-closure", "--graph", "SEMI", "--cycle", "Z"], 2,
         "antinef_closure needs a negative-definite graph; 'semi' is not"),
        (["is-rational", "--graph", "SEMI"], 2, "antinef_closure needs a negative-definite graph; 'semi' is not"),
    ], ids=[
        "edge-point-on-one-curve", "pushforward-upward", "declared-level", "zero-cycle", "h1-on-rational",
        "h1-on-pg-cycle", "h1-above-pg", "h1-negative", "h1-missing", "indefinite-pg-test",
        "indefinite-colon-core", "indefinite-canonical-cycle", "non-pg-good-closure",
        "indefinite-fundamental-cycle", "indefinite-antinef-closure", "indefinite-is-rational",
        "semidefinite-fundamental-cycle", "semidefinite-antinef-closure", "semidefinite-is-rational",
    ])
    def test_exit_code_and_message(self, capsys, tmp_path, a1b_file, ex244_tower_file, argv, code, message):
        files = {"A1B": a1b_file, "EX": ex244_tower_file, "BAD": _indefinite_graph_file(tmp_path),
                 "SEMI": _semidefinite_graph_file(tmp_path)}
        assert main([files.get(arg, arg) for arg in argv]) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_cohomological_cycle_above_level_0_is_refused(self, capsys, tmp_path):
        path = _ex244_tower_file_with_cohom(tmp_path, 4)
        assert main(["pg-test", "--tower", path, "--cycle", "Z"]) == 1
        assert capsys.readouterr() == ("", "error: model.cohom_cycle must be declared at level 0\n")

    def test_cohomological_cycle_at_level_0_is_accepted(self, capsys, tmp_path):
        path = _ex244_tower_file_with_cohom(tmp_path, 0)
        code, out = run(capsys, "pg-test", "--tower", path, "--cycle", "Z", "--json")
        assert code == 0
        assert json.loads(out) == {"pg_numeric": True, "pg": 1, "h1": 1, "cohom_cycle": {"E0": 1}}
