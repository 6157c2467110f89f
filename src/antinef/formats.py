"""JSON documents for graphs and towers.

Versioned with ``"format": 1``.  Integers stay JSON integers; rational
coefficients are serialized as "p/q" strings so no float ever enters a
document.  ``emit_*`` output is deterministic and round-trip stable.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Optional

from .errors import InputError
from .graph import Coeff, Cycle, DualGraph, cycle, dual_graph

if TYPE_CHECKING:
    from .birational import Tower

FORMAT = 1
_EMPTY: Mapping = MappingProxyType({})  # a default that no caller can change


class GraphDocument(NamedTuple):
    name: str
    graph: DualGraph
    cycles: Mapping[str, Cycle] = _EMPTY
    model: Optional[dict] = None


class TowerDocument(NamedTuple):
    name: str
    tower: Tower
    cycles: Mapping[str, tuple[int, Cycle]] = _EMPTY
    model: Optional[dict] = None


def _fail(path: str, msg: str):
    raise InputError(f"{path}: {msg}")


def _object(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected a list, got {type(value).__name__}")
    return value


def _need(obj: dict, key: str, path: str) -> Any:
    if key not in _object(obj, path):
        _fail(path, f"missing required field {key!r}")
    return obj[key]


def _int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


# the whole coefficient grammar, for documents and inline cycles alike
_COEFF_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _coeff(value: Any, path: str) -> Coeff:
    if isinstance(value, bool):
        _fail(path, f"expected an integer or 'p/q' string, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if not _COEFF_RE.fullmatch(value):
            _fail(path, f"expected an integer or 'p/q' string, got {value!r}")
        try:
            return Fraction(value)
        except (ZeroDivisionError, ValueError):  # ValueError: past int's digit limit
            _fail(path, f"cannot parse rational {value!r}")
    _fail(path, f"expected an integer or 'p/q' string, got {value!r}")


def vertex_id(value: Any, path: str) -> str:
    """A declared vertex id; one the inline syntax "id:coeff,..." could not
    name is an InputError."""
    vid = str(value)
    if ":" in vid or "," in vid:
        _fail(path, f"vertex id {vid!r} contains ':' or ',', which inline cycles cannot name")
    return vid


def coeff_out(value: Coeff) -> Any:
    """A coefficient for output: an int, or "p/q" when it is not integral."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return int(value)


def coeff_map(c: Cycle) -> dict[str, Any]:
    """A cycle for output: its nonzero coefficients by vertex id, each as
    :func:`coeff_out` writes it."""
    return {vid: coeff_out(k) for vid, k in c.coeffs}


def _parse_vertices_edges(obj: dict, path: str) -> DualGraph:
    name = _object(obj, path).get("name", "graph")
    vs = []
    for i, v in enumerate(_list(_need(obj, "vertices", path), path + ".vertices")):
        vp = f"{path}.vertices[{i}]"
        vid = vertex_id(_need(v, "id", vp), vp + ".id")
        self_int = _int(_need(v, "self_int", vp), vp + ".self_int")
        if "kappa" in v and "genus" in v:
            _fail(vp, "give exactly one of 'kappa' or 'genus'")
        if "kappa" in v:
            kappa = _int(v["kappa"], vp + ".kappa")
        elif "genus" in v:
            kappa = 2 * _int(v["genus"], vp + ".genus") - 2 - self_int
        else:
            _fail(vp, "give exactly one of 'kappa' or 'genus'")
        vs.append((vid, self_int, kappa))
    es = []
    for i, e in enumerate(_list(obj.get("edges", []), path + ".edges")):
        ep = f"{path}.edges[{i}]"
        a = str(_need(e, "a", ep))
        b = str(_need(e, "b", ep))
        mult = _int(e.get("mult", 1), ep + ".mult")
        es.append((a, b, mult))
    return dual_graph(str(name), vs, es)


def _parse_coeff_map(obj: Any, g: DualGraph, path: str) -> Cycle:
    if not isinstance(obj, dict):
        _fail(path, "cycle must map vertex ids to coefficients")
    return cycle(g, {str(k): _coeff(v, f"{path}.{k}") for k, v in obj.items()})


def _parse_model(obj: Any, path: str) -> Optional[dict]:
    if obj is None:
        return None
    if not isinstance(obj, dict):
        _fail(path, "model must be an object")
    out = {}
    if "pg" in obj:
        out["pg"] = _int(obj["pg"], path + ".pg")
    if "gorenstein" in obj:
        if not isinstance(obj["gorenstein"], bool):
            _fail(path + ".gorenstein", "expected a boolean")
        out["gorenstein"] = obj["gorenstein"]
    if "cohom_cycle" in obj:
        out["cohom_cycle"] = str(obj["cohom_cycle"])
    unknown = set(obj) - {"pg", "gorenstein", "cohom_cycle"}
    if unknown:
        _fail(path, f"unknown model fields: {sorted(unknown)}")
    return out


def parse_graph_document(text: str | dict) -> GraphDocument:
    obj = _load(text)
    g = _parse_vertices_edges(obj, "$")
    cycles = {
        str(name): _parse_coeff_map(data, g, f"$.cycles.{name}")
        for name, data in _object(obj.get("cycles", {}), "$.cycles").items()
    }
    return GraphDocument(
        name=g.name, graph=g, cycles=cycles, model=_parse_model(obj.get("model"), "$.model")
    )


def _graph_fields(name: str, g: DualGraph) -> dict[str, Any]:
    """A name with a graph's vertices and edges, as both document kinds write
    them: a graph document under its own name, a tower's base under the base's."""
    return {
        "name": name,
        "vertices": [{"id": v.id, "self_int": v.self_int, "kappa": v.kappa} for v in g.vertices],
        "edges": [{"a": a, "b": b, "mult": m} for a, b, m in g.edges],
    }


def emit_graph_document(doc: GraphDocument) -> str:
    out: dict[str, Any] = {"format": FORMAT, **_graph_fields(doc.name, doc.graph)}
    if doc.cycles:
        out["cycles"] = {name: coeff_map(doc.cycles[name]) for name in sorted(doc.cycles)}
    if doc.model is not None:
        out["model"] = _parse_model(doc.model, "model")
    return json.dumps(out, indent=2) + "\n"


def parse_tower_document(text: str | dict) -> TowerDocument:
    from .birational import Tower, edge_point, free_point  # towers only: graph documents skip it

    obj = _load(text)
    base = _parse_vertices_edges(_need(obj, "base", "$"), "$.base")
    t = Tower.base(base)
    for i, s in enumerate(_list(obj.get("steps", []), "$.steps")):
        sp = f"$.steps[{i}]"
        op = _need(s, "op", sp)
        if op == "blowup_free":
            vid = str(_need(s, "vertex", sp))
            t = t.blow_up(free_point(vid, vertex_id(_need(s, "new_id", sp), sp + ".new_id")))
        elif op == "blowup_edge":
            a, b = str(_need(s, "a", sp)), str(_need(s, "b", sp))
            t = t.blow_up(edge_point(a, b, vertex_id(_need(s, "new_id", sp), sp + ".new_id")))
        elif op == "contract":
            vid = str(_need(s, "vertex", sp))
            if t.height == 0 or t.steps[-1].new_id != vid:
                _fail(sp, "contraction in a tower script may only undo the most recent blow-up")
            t = Tower(t.bottom, t.steps[:-1])
        else:
            _fail(sp, f"unknown op {op!r}")
    cycles: dict[str, tuple[int, Cycle]] = {}
    for name, data in _object(obj.get("cycles", {}), "$.cycles").items():
        cp = f"$.cycles.{name}"
        level = _int(_need(data, "level", cp), cp + ".level")
        if not 0 <= level <= t.height:
            _fail(cp + ".level", f"tower has levels 0..{t.height}")
        cycles[str(name)] = (level, _parse_coeff_map(_need(data, "coeffs", cp), t.graph(level), cp))
    return TowerDocument(
        name=str(obj.get("name", base.name)),
        tower=t,
        cycles=cycles,
        model=_parse_model(obj.get("model"), "$.model"),
    )


def emit_tower_document(doc: TowerDocument) -> str:
    t = doc.tower
    out: dict[str, Any] = {"format": FORMAT, "name": doc.name, "base": _graph_fields(t.bottom.name, t.bottom)}
    steps = []
    for s in t.steps:
        if len(s.attach) == 1 and s.attach[0][1] == 1:
            steps.append({"op": "blowup_free", "vertex": s.attach[0][0], "new_id": s.new_id})
        elif len(s.attach) == 2 and all(m == 1 for _, m in s.attach):
            steps.append(
                {"op": "blowup_edge", "a": s.attach[0][0], "b": s.attach[1][0], "new_id": s.new_id}
            )
        else:
            raise InputError(
                f"step creating {s.new_id!r} has no blow-up form and cannot be serialized"
            )
    out["steps"] = steps
    if doc.cycles:
        out["cycles"] = {
            name: {"level": doc.cycles[name][0], "coeffs": coeff_map(doc.cycles[name][1])}
            for name in sorted(doc.cycles)
        }
    if doc.model is not None:
        out["model"] = _parse_model(doc.model, "model")
    return json.dumps(out, indent=2) + "\n"


def _load(text: str | dict) -> dict:
    """The document's root object, once its "format" is checked."""
    if isinstance(text, dict):
        obj = text
    else:
        try:
            obj = json.loads(text, object_pairs_hook=_unique_keys)
        except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
            raise InputError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise InputError("invalid JSON: nested too deeply") from None
        if not isinstance(obj, dict):
            raise InputError("document root must be a JSON object")
    fmt = obj.get("format")
    # true == 1 and 1.0 == 1 in Python, so the type is compared as well
    if type(fmt) is not int or fmt != FORMAT:
        _fail("$.format", f"expected {FORMAT}, got {fmt!r}")
    return obj


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise InputError(f"invalid JSON: key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def parse_inline_cycle(spec: str, g: DualGraph) -> Cycle:
    """Parse the CLI inline syntax "E0:2,E1:3"."""
    data: dict[str, Coeff] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise InputError(f"inline cycle entry {part!r} must look like 'id:coeff'")
        vid, _, raw = part.partition(":")
        vid = vid.strip()
        if vid in data:
            raise InputError(f"inline cycle names {vid!r} more than once")
        data[vid] = _coeff(raw.strip(), f"cycle[{vid}]")
    return cycle(g, data)
