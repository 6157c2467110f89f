"""JSON document parsing, emission, and round-trip stability."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from antinef import corpus
from antinef.birational import Tower, TowerStep
from antinef.cli import main
from antinef.errors import InputError
from antinef.formats import (
    GraphDocument,
    TowerDocument,
    emit_graph_document,
    emit_tower_document,
    parse_graph_document,
    parse_inline_cycle,
    parse_tower_document,
)
from antinef.graph import cycle
from towers import grow


def _graph_doc(name):
    entry = corpus.get(name)
    return GraphDocument(
        name=entry.name,
        graph=entry.graph,
        cycles=entry.cycles,
        model=entry.model_args or None,
    )


class TestGraphDocuments:
    @pytest.mark.parametrize("name", ["A3", "D5", "E8", "HJ(12,5)", "ex244min", "ex244blown"])
    def test_round_trip_is_byte_identical(self, name):
        text = emit_graph_document(_graph_doc(name))
        doc = parse_graph_document(text)
        assert emit_graph_document(doc) == text
        assert doc.name == name  # ex244blown's graph is named ex244min

    def test_a_document_named_apart_from_its_graph_keeps_its_name(self):
        g = corpus.get("A3").graph
        text = emit_graph_document(GraphDocument("other", g))
        doc = parse_graph_document(text)
        assert json.loads(text)["name"] == doc.name == doc.graph.name == "other"
        assert (doc.graph.vertices, doc.graph.edges) == (g.vertices, g.edges)
        assert emit_graph_document(doc) == text

    def test_genus_converts_to_kappa(self):
        text = json.dumps(
            {
                "format": 1,
                "name": "e0",
                "vertices": [{"id": "E0", "self_int": -2, "genus": 1}],
                "edges": [],
            }
        )
        doc = parse_graph_document(text)
        assert doc.graph.vertex("E0").kappa == 2  # 2g - 2 - self

    def test_genus_and_kappa_are_exclusive(self):
        with pytest.raises(InputError):
            parse_graph_document(
                {
                    "format": 1,
                    "name": "g",
                    "vertices": [{"id": "E", "self_int": -2, "genus": 0, "kappa": 0}],
                }
            )

    def test_missing_self_int_names_the_field(self):
        with pytest.raises(InputError) as err:
            parse_graph_document(
                {"format": 1, "name": "g", "vertices": [{"id": "E"}]}
            )
        assert "self_int" in str(err.value)

    def test_missing_format_rejected(self):
        with pytest.raises(InputError):
            parse_graph_document({"name": "g", "vertices": [{"id": "E", "self_int": -2, "kappa": 0}]})

    def test_invalid_json_rejected(self):
        with pytest.raises(InputError):
            parse_graph_document("{not json")

    def test_duplicate_key_rejected(self):
        text = emit_graph_document(_graph_doc("A3"))
        # a second kappa on E1: the first breaks adjunction, the last would not
        dup = text.replace('"kappa": 0', '"kappa": 1, "kappa": 0', 1)
        with pytest.raises(InputError, match="'kappa' appears twice"):
            parse_graph_document(dup)

    def test_fractional_cycle_coefficients(self):
        from fractions import Fraction

        g = corpus.get("HJ(5,2)").graph
        doc = GraphDocument(
            name="hj", graph=g, cycles={"K": cycle(g, {"E1": Fraction(3, 5)})}
        )
        text = emit_graph_document(doc)
        assert '"3/5"' in text
        again = parse_graph_document(text)
        assert again.cycles["K"].coeff("E1") == Fraction(3, 5)


class TestTowerDocuments:
    def _doc(self):
        entry = corpus.get("ex244blown")
        cycles = {name: (entry.tower.height, c) for name, c in entry.cycles.items()}
        return TowerDocument(
            name=entry.name, tower=entry.tower, cycles=cycles, model=entry.model_args
        )

    def test_round_trip(self):
        text = emit_tower_document(self._doc())
        doc = parse_tower_document(text)
        assert emit_tower_document(doc) == text
        assert doc.tower.height == 4

    def test_contract_only_undoes_last_blowup(self):
        obj = json.loads(emit_tower_document(self._doc()))
        obj["steps"].append({"op": "contract", "vertex": "E1"})
        del obj["cycles"]  # levels shrank; declared cycles would dangle
        with pytest.raises(InputError):
            parse_tower_document(json.dumps(obj))
        obj["steps"][-1]["vertex"] = "E4"  # the most recent blow-up: fine
        doc = parse_tower_document(json.dumps(obj))
        assert doc.tower.height == 3
        t = corpus.get("ex244blown").tower
        assert doc.tower == Tower.from_steps(t.bottom, t.steps[:3])

    def test_a_step_is_checked_as_it_is_read_though_a_contract_undoes_it(self, tmp_path, capsys):
        base = json.loads(emit_graph_document(_graph_doc("A2")))
        obj = {"format": 1, "base": base, "steps": [{"op": "blowup_free", "vertex": "Q", "new_id": "P"},
                                                     {"op": "contract", "vertex": "P"}]}
        message = "step attaches to unknown vertex 'Q'"
        with pytest.raises(InputError) as err:
            parse_tower_document(obj)
        assert str(err.value) == message
        path = tmp_path / "t.json"
        path.write_text(json.dumps(obj))
        assert main(["relative-canonical", "--tower", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_cycle_level_bounds_checked(self):
        obj = json.loads(emit_tower_document(self._doc()))
        obj["cycles"]["Z"]["level"] = 9
        with pytest.raises(InputError):
            parse_tower_document(json.dumps(obj))


class TestInlineCycles:
    def test_basic(self):
        g = corpus.get("A2").graph
        assert parse_inline_cycle("E1:2,E2:3", g) == cycle(g, {"E1": 2, "E2": 3})

    def test_whitespace_and_fractions(self):
        from fractions import Fraction

        g = corpus.get("A2").graph
        z = parse_inline_cycle(" E1 : 1/2 ", g)
        assert z.coeff("E1") == Fraction(1, 2)

    def test_unknown_vertex_rejected(self):
        g = corpus.get("A2").graph
        with pytest.raises(InputError):
            parse_inline_cycle("E9:1", g)

    def test_malformed_entry_rejected(self):
        g = corpus.get("A2").graph
        with pytest.raises(InputError):
            parse_inline_cycle("E1=2", g)

    def test_duplicate_id_rejected(self):
        g = corpus.get("A3").graph
        with pytest.raises(InputError, match="'E1' more than once"):
            parse_inline_cycle("E1:2,E1:3", g)
        with pytest.raises(InputError):
            parse_inline_cycle("E1:2, E1 :3", g)


class TestInputGrammar:
    BAD = ["1.5", "1e1", "1_0", "0x1", "1/2/3", "inf", "nan", "\u0663"]

    @pytest.mark.parametrize("raw", BAD)
    def test_inline_coefficient_grammar(self, raw):
        g = corpus.get("A2").graph
        with pytest.raises(InputError, match="integer or 'p/q'"):
            parse_inline_cycle(f"E1:{raw}", g)

    @pytest.mark.parametrize("raw", BAD + [" 3", "3 ", ""])
    def test_document_coefficient_grammar(self, raw):
        obj = json.loads(emit_graph_document(_graph_doc("A2")))
        obj["cycles"] = {"Z": {"E1": raw}}
        with pytest.raises(InputError, match="integer or 'p/q'"):
            parse_graph_document(obj)

    @pytest.mark.parametrize(
        "raw,value", [("3", 3), ("-2", -2), ("+4", 4), ("6/4", Fraction(3, 2)), ("-1/2", Fraction(-1, 2))]
    )
    def test_accepted_coefficients(self, raw, value):
        g = corpus.get("A2").graph
        assert parse_inline_cycle(f"E1:{raw}", g).coeff("E1") == value
        obj = json.loads(emit_graph_document(_graph_doc("A2")))
        obj["cycles"] = {"Z": {"E1": raw}}
        assert parse_graph_document(obj).cycles["Z"].coeff("E1") == value

    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError, match="cannot parse rational"):
            parse_inline_cycle("E1:1/0", corpus.get("A2").graph)

    @pytest.mark.parametrize("vid", ["E:1", "E,1", ":", ","])
    def test_graph_ids_must_be_nameable_inline(self, vid):
        obj = {"format": 1, "name": "g", "vertices": [{"id": vid, "self_int": -2, "kappa": 0}]}
        with pytest.raises(InputError, match="inline cycles cannot name"):
            parse_graph_document(obj)

    @pytest.mark.parametrize("op", ["blowup_free", "blowup_edge"])
    def test_tower_new_ids_must_be_nameable_inline(self, op):
        step = {"op": op, "vertex": "E1", "a": "E1", "b": "E2", "new_id": "X:1"}
        obj = {"format": 1, "base": json.loads(emit_graph_document(_graph_doc("A2"))), "steps": [step]}
        with pytest.raises(InputError, match="inline cycles cannot name"):
            parse_tower_document(obj)


_VERTEX = {"id": "E", "self_int": -2, "kappa": 0}

# documents whose malformed part once escaped as TypeError, AttributeError,
# RecursionError or ValueError instead of an InputError
MALFORMED_GRAPHS = {
    "vertices-not-a-list": {"format": 1, "vertices": 5},
    "edges-not-a-list": {"format": 1, "vertices": [_VERTEX], "edges": 5},
    "cycles-not-an-object": {"format": 1, "vertices": [_VERTEX], "cycles": [1]},
}
MALFORMED_TOWERS = {
    "steps-not-a-list": {"format": 1, "base": {"vertices": [_VERTEX]}, "steps": 5},
    "base-not-an-object": {"format": 1, "base": 5},
    "tower-cycles-not-an-object": {"format": 1, "base": {"vertices": [_VERTEX]}, "cycles": [1]},
}
MALFORMED_TEXTS = {
    "nested-100000-deep": "[" * 100_000,
    "int-past-digit-limit": '{"format": 1, "vertices": [], "x": 1' + "0" * 5000 + "}",
}


class TestMalformedDocuments:
    @pytest.mark.parametrize("doc", MALFORMED_GRAPHS.values(), ids=MALFORMED_GRAPHS)
    def test_graph_document(self, doc):
        with pytest.raises(InputError):
            parse_graph_document(json.dumps(doc))

    @pytest.mark.parametrize("doc", MALFORMED_TOWERS.values(), ids=MALFORMED_TOWERS)
    def test_tower_document(self, doc):
        with pytest.raises(InputError):
            parse_tower_document(json.dumps(doc))

    @pytest.mark.parametrize("text", MALFORMED_TEXTS.values(), ids=MALFORMED_TEXTS)
    @pytest.mark.parametrize("parse", [parse_graph_document, parse_tower_document])
    def test_text(self, parse, text):
        with pytest.raises(InputError, match="invalid JSON"):
            parse(text)

    def test_coefficient_past_digit_limit(self):
        g = corpus.get("A1").graph
        with pytest.raises(InputError):
            parse_inline_cycle("E1:" + "1" * 5000, g)


class TestRefusalMessages:
    @pytest.mark.parametrize("doc, message", [
        ({"format": 1, "vertices": [{"id": "E", "self_int": -2, "kappa": 0}], "cycles": {"Z": {"E": True}}},
         "$.cycles.Z.E: expected an integer or 'p/q' string, got True"),
        ({"format": 1, "vertices": [{"id": "E", "self_int": -2}]},
         "$.vertices[0]: give exactly one of 'kappa' or 'genus'"),
    ], ids=["boolean-coefficient", "neither-kappa-nor-genus"])
    def test_graph_document(self, doc, message):
        with pytest.raises(InputError) as err:
            parse_graph_document(json.dumps(doc))
        assert str(err.value) == message

    def test_a_step_of_multiplicity_2_is_not_emitted(self):
        t = Tower.from_steps(corpus.get("A1").graph, [TowerStep("X", (("E1", 2),))])
        with pytest.raises(InputError) as err:
            emit_tower_document(TowerDocument(name="t", tower=t))
        assert str(err.value) == "step creating 'X' has no blow-up form and cannot be serialized"


# every model the emitters take: none, empty, pg alone, and all three keys
# inserted in either order
_MODELS = [
    None, {}, {"pg": 1},
    {"pg": 1, "gorenstein": True, "cohom_cycle": "C"},
    {"cohom_cycle": "C", "gorenstein": True, "pg": 1},
]
_CORPUS = [name for name in corpus.names() if " " not in name] + ["HJ(12,5)"]


def _documents(name, model):
    """The corpus entry as a graph document and, where it has a tower, as a
    tower document with its cycles on the top, both carrying model."""
    entry = corpus.get(name)
    g = entry.graph
    yield GraphDocument(g.name, g, dict(entry.cycles), model), emit_graph_document, parse_graph_document
    if entry.tower is not None:
        cycles = {key: (entry.tower.height, c) for key, c in entry.cycles.items()}
        yield TowerDocument(entry.name, entry.tower, cycles, model), emit_tower_document, parse_tower_document


class TestModelField:
    """The emitters write a model by the rule the parser reads it with."""

    @pytest.mark.parametrize("name", _CORPUS)
    def test_every_corpus_document_round_trips_under_every_model(self, name):
        for model in _MODELS:
            for doc, emit, parse in _documents(name, model):
                text = emit(doc)
                assert parse(text) == doc
                # the bytes do not depend on the order the keys went in
                assert text == emit(doc._replace(model=None if model is None else dict(reversed(model.items()))))

    @pytest.mark.parametrize("model, message", [
        ({"gorenstein": True, "pg": 1, "note": "hi"}, "model: unknown model fields: ['note']"),
        ({"pg": "1"}, "model.pg: expected an integer, got '1'"),
        ({"pg": True}, "model.pg: expected an integer, got True"),
        ({"gorenstein": 1}, "model.gorenstein: expected a boolean"),
    ], ids=["unknown-key", "string-pg", "boolean-pg", "integer-gorenstein"])
    def test_both_emitters_refuse_a_model_the_parser_refuses(self, model, message):
        docs = list(_documents("ex244blown", model))
        assert len(docs) == 2
        for doc, emit, _ in docs:
            with pytest.raises(InputError) as err:
                emit(doc)
            assert str(err.value) == message


class TestFormatField:
    """A JSON true or 1.0 equals 1 in Python; neither is format 1."""

    @pytest.mark.parametrize("fmt", [True, 1.0, "1", None])
    def test_graph_document(self, fmt):
        obj = json.loads(emit_graph_document(_graph_doc("A2")))
        obj["format"] = fmt
        with pytest.raises(InputError, match=r"\$\.format: expected 1"):
            parse_graph_document(json.dumps(obj))

    @pytest.mark.parametrize("fmt", [True, 1.0, "1", None])
    def test_tower_document(self, fmt):
        obj = {"format": fmt, "base": json.loads(emit_graph_document(_graph_doc("A2")))}
        with pytest.raises(InputError, match=r"\$\.format: expected 1"):
            parse_tower_document(json.dumps(obj))


_IDS = ("A", "B", "C", "D", "E1", "E2")


@st.composite
def _graph_texts(draw):
    """A graph document with repeated and multiple edges, integer and 'p/q'
    coefficients, and perhaps a model."""
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=len(_IDS), unique=True))
    obj = {"format": 1, "name": draw(st.sampled_from(["g", "A2", "x y"]))}
    obj["vertices"] = [
        {"id": vid, "self_int": draw(st.integers(-9, 0)), "kappa": draw(st.integers(-2, 9))} for vid in ids
    ]
    if len(ids) > 1:
        pairs = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        obj["edges"] = [
            {"a": a, "b": b, "mult": draw(st.integers(1, 3))} for a, b in draw(st.lists(pairs, max_size=8))
        ]
    coeff = st.one_of(
        st.integers(-20, 20),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-20, 20), st.integers(1, 6)),
    )
    names = st.sampled_from(["Z", "C", "W"])
    obj["cycles"] = draw(st.dictionaries(names, st.dictionaries(st.sampled_from(ids), coeff), max_size=3))
    if draw(st.booleans()):
        obj["model"] = draw(st.fixed_dictionaries({}, optional={
            "pg": st.integers(0, 3), "gorenstein": st.booleans(), "cohom_cycle": names,
        }))
    return json.dumps(obj)


@settings(max_examples=60, deadline=None)
@given(_graph_texts())
def test_graph_document_round_trip(text):
    doc = parse_graph_document(text)
    again = parse_graph_document(emit_graph_document(doc))
    assert again == doc
    assert emit_graph_document(again) == emit_graph_document(doc)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tower_document_round_trip(data):
    base = corpus.get(data.draw(st.sampled_from(["A1", "D4", "HJ(7,3)", "ex244min"]))).graph
    t = grow(data, Tower.base(base), data.draw(st.integers(0, 8)))
    cycles = {}
    for name in data.draw(st.lists(st.sampled_from(["Z", "C"]), unique=True)):
        level = data.draw(st.integers(0, t.height))
        g = t.graph(level)
        coeffs = data.draw(st.dictionaries(
            st.sampled_from(g.ids), st.fractions(min_value=-9, max_value=9, max_denominator=4)
        ))
        cycles[name] = (level, cycle(g, coeffs))
    model = data.draw(st.one_of(st.none(), st.just({"pg": 1, "gorenstein": True})))
    text = emit_tower_document(TowerDocument(name="t", tower=t, cycles=cycles, model=model))
    doc = parse_tower_document(text)
    again = parse_tower_document(emit_tower_document(doc))
    assert again == doc
    assert emit_tower_document(again) == text
