"""cli-session: one operation is one ``antinef ...`` call in a subprocess.

The program builds and emits the documents at set-up.  The inputs are
small, so the time goes to interpreter start, imports, argparse and
``formats``: the cost per call that users pay.  About a sixth of the calls
are ``oracle`` commands, so a change to what every call imports shows on
both sides.  Malformed inputs check exit codes and that no traceback
escapes.  Three calls hit known faults of the program and count as failed
until the faults are fixed; their inputs do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Union

from lattice_sweep import chain, d_chain, random_multigraph, random_tree
from reference import (
    CheckFailed,
    Lattice,
    Spec,
    add,
    apply_step,
    d_fundamental,
    dominates,
    max_y,
    pullback,
    relative_canonical,
    require,
    tower_specs,
)
from tower_ideals import EX244_BASE, EX244_Z, grow

MODULES = ["antinef.graph", "antinef.birational", "antinef.formats", "antinef.cli"]
# Each call appends its own peak resident set (VmHWM, kB) to a file at exit.
# ru_maxrss cannot give it: a child spawned from this process also counts
# the pages of this process that it borrows until exec.
ENTRY = """import atexit, os, sys
@atexit.register
def _peak():
    with open("/proc/self/status") as f, open(os.environ["ANTINEF_BENCH_PEAK"], "a") as out:
        out.write(next(line for line in f if line.startswith("VmHWM")).split()[1] + "\\n")
from antinef.cli import main
sys.exit(main())
"""
CALL_TIMEOUT_S = 60


@dataclass
class Fault:
    """A known fault of the program: today the call exits 0 and prints JSON
    on which ``shows`` holds."""

    what: str
    shows: Callable[[dict], bool]


@dataclass
class Call:
    args: list[str]
    exit_code: Union[int, tuple[int, ...]]  # the exit codes that are correct
    check: Optional[Callable[[str], None]] = None  # checks stdout of an exit-0 call
    fault: Optional[Fault] = None  # known program fault this call hits today


def graph_doc(spec: Spec, cycles: Optional[dict] = None, model: Optional[dict] = None) -> dict:
    doc = {
        "format": 1,
        "name": spec.name,
        "vertices": [{"id": v, "self_int": s, "kappa": k} for v, s, k in spec.vertices],
        "edges": [{"a": a, "b": b, "mult": m} for a, b, m in spec.edges],
    }
    if cycles:
        doc["cycles"] = cycles
    if model:
        doc["model"] = model
    return doc


def tower_doc(base: Spec, steps, cycles: dict, model: Optional[dict] = None) -> dict:
    base_doc = graph_doc(base)
    del base_doc["format"]
    out = []
    for new_id, attach in steps:
        at = [v for v, _ in attach]
        if len(at) == 1:
            out.append({"op": "blowup_free", "vertex": at[0], "new_id": new_id})
        else:
            out.append({"op": "blowup_edge", "a": at[0], "b": at[1], "new_id": new_id})
    doc = {"format": 1, "name": base.name, "base": base_doc, "steps": out, "cycles": cycles}
    if model:
        doc["model"] = model
    return doc


def spec_from_doc(doc: dict) -> Spec:
    return Spec(
        doc.get("name", "graph"),
        tuple((v["id"], v["self_int"], v["kappa"]) for v in doc["vertices"]),
        tuple((e["a"], e["b"], e.get("mult", 1)) for e in doc.get("edges", [])),
    )


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        require(False, f"output is not JSON: {out[:200]!r}")


def _cycle(data: dict) -> dict:
    return {k: Fraction(v) if isinstance(v, str) else v for k, v in data.items()}


def _small_tower(rng: random.Random, base: Spec, height: int):
    """A rational tower whose top carries a non-good anti-nef Z."""
    steps = grow(rng, base, height, "X")
    top = tower_specs(base, steps)[-1]
    zf = Lattice(base).closure({base.ids[0]: 1})
    z = Lattice(top).closure(add(pullback(zf, steps), {steps[-1][0]: 1}))
    return steps, top, zf, z


@dataclass
class CliPlan:
    calls: list[Call]
    docs: dict[str, Union[dict, str]]  # file name -> graph or tower document, or raw text
    work: Path


def plan(seed: int, work: Path) -> CliPlan:
    """The calls, their expected results and the documents as plain data;
    set-up has the program emit the documents."""
    rng = random.Random(f"cli-session:{seed}")
    docs: dict[str, Union[dict, str]] = {}

    def write(name: str, doc) -> str:
        docs[name] = doc
        return str(work / name)

    # --- documents ---------------------------------------------------------
    tree = random_tree(rng, rng.randint(6, 9))
    tree_f = write("tree.json", graph_doc(tree))
    dn_n = rng.randint(5, 8)
    dn = d_chain(dn_n)
    dn_f = write("dn.json", graph_doc(dn))
    hj = chain("hj", [-rng.choice((2, 3, 4)) for _ in range(6)])
    hj_f = write("hj.json", graph_doc(hj))
    multi = random_multigraph(rng, rng.randint(6, 9))
    multi_f = write("multi.json", graph_doc(multi))
    indefinite = Spec("indefinite", (("E1", -1, -1), ("E2", -1, -1)), (("E1", "E2", 2),))
    indefinite_f = write("indefinite.json", graph_doc(indefinite))

    base = chain("A3", [-2, -2, -2])
    a3_f = write("a3.json", graph_doc(base))
    steps, top, zf, z = _small_tower(rng, base, rng.randint(5, 7))
    h = len(steps)
    tower_f = write("tower.json", tower_doc(base, steps, {
        "Z": {"level": h, "coeffs": z}, "W": {"level": 0, "coeffs": zf}}))
    exceptional = [new_id for new_id, _ in steps]

    small_base = chain("A2", [-2, -2])
    s_steps, s_top, _, s_z = _small_tower(rng, small_base, rng.randint(2, 3))
    small_f = write("small.json", graph_doc(s_top, {"Z": s_z}))
    small_exc = [new_id for new_id, _ in s_steps]

    ex244_base = EX244_BASE
    four = [(f"E{i}", (("E0", 1),)) for i in range(1, 5)]
    ex244_top = tower_specs(ex244_base, four)[-1]
    ex244_f = write("ex244.json", tower_doc(ex244_base, four, {"Z": {"level": 4, "coeffs": EX244_Z}},
                                          {"pg": 1, "gorenstein": True}))

    bad_f = write("bad.json", '{"format": 1, "name": "cut", "vertices": [')
    missing_f = str(work / "missing.json")
    # a duplicated key must not pass silently: the first kappa breaks adjunction
    dup_f = write("dupkappa.json", '{"format": 1, "name": "dup", "vertices": '
                  '[{"id": "E1", "self_int": -2, "kappa": 1, "kappa": 0}], "edges": []}')
    # negative definite in exact arithmetic; int64 enumeration overflows on it
    huge = -(2 ** 62)
    huge_f = write("huge.json", graph_doc(Spec("huge", (("E1", huge, -huge - 2),), ())))
    ex244_top_f = write("ex244top.json", graph_doc(ex244_top))

    # --- expected results ----------------------------------------------------
    tree_lat, top_lat = Lattice(tree), Lattice(top)
    corpus_n = rng.randint(4, 8)
    cone = rng.choice([(2, 2, 1), (2, 1, 0), (4, 3, 1), (3, 4, 2)])
    center = rng.choice(tree.ids)
    edge = rng.choice(top.edges)

    def field(key, want):
        def check(out):
            got = _json(out)[key]
            require(got == want, f"{key} = {got}, expected {want}")
        return check

    def validate_ok(out):
        d = _json(out)
        require(d["ok"] and d["negative_definite"] and d["adjunction_ok"] and not d["failures"], f"{d}")

    def validate_indefinite(out):
        d = _json(out)
        require(not d["ok"] and not d["negative_definite"] and d["adjunction_ok"], f"{d}")

    def residual_zero(lat):
        return lambda out: require(lat.residual(_cycle(_json(out)["canonical_cycle"])) == {},
                                   "canonical cycle has a nonzero residual")

    def colon_core(lat, z, exc, c=()):
        def check(out):
            d = _json(out)
            y = d["Y"]
            require(d["core"] == add(add(z, z), y, -1) and d["colon"] == add(z, y, -1), "core/colon != 2Z-Y/Z-Y")
            require(lat.is_antinef(d["colon"]) and dominates(z, y), "Z - Y is not anti-nef")
            require(-lat.pair(y, y) + lat.k_dot(y) == 0, "-Y^2 + K.Y != 0")
            good = all(lat.row(z, x) == 0 for x in exc)
            require(d["good"] == good == (y == {}) == (d["iterations"] == 0), f"goodness wrong: {d}")
            if len(lat.ids) <= 8:
                require(y == max_y(lat, z, dict(c)), f"Y {y} is not the maximal admissible cycle")
        return check

    def good_closure_tower(out):
        d = _json(out)
        require(d["good"] and d["level"] == 0, f"{d}")
        require(Lattice(base).is_antinef(d["cycle"]) and dominates(z, pullback(d["cycle"], steps)),
                "good closure is not anti-nef or misses I")

    def blown_graph(out):
        got = spec_from_doc(_json(out))
        require(got.canonical() == apply_step(tree, "Q1", ((center, 1),)).canonical(), "blow-up graph wrong")

    def blown_tower(out):
        d = _json(out)
        want = tower_doc(base, steps + [("Q2", ((edge[0], 1), (edge[1], 1)))], {})["steps"]
        require(d["steps"] == want, "blow-up tower steps wrong")

    def corpus_d(out):
        require(spec_from_doc(_json(out)).canonical() == d_chain(corpus_n).canonical(), f"corpus D{corpus_n} wrong")

    def corpus_ex244(out):
        d = _json(out)
        require(spec_from_doc(d["base"]).canonical() == ex244_base.canonical(), "ex244 base wrong")
        require(d["steps"] == tower_doc(ex244_base, four, {})["steps"], "ex244 steps wrong")
        require(d["cycles"]["Z"] == {"level": 4, "coeffs": EX244_Z}, "ex244 Z wrong")
        require(d["model"] == {"pg": 1, "gorenstein": True}, "ex244 model wrong")

    def cone_formulas(out):
        e, g, a = cone
        d = _json(out)
        require((d["colength"], d["mu"], d["mult_gap"], d["all_ok"]) == (e + g - 1, e + 1, (a + 1) * e, True),
                f"cone{cone}: {d}")

    def max_y_check(lat, z):
        return field("max_y", max_y(lat, z, {}))

    tree_closure = tree_lat.closure({"E1": 5})
    J = "--json"
    calls = [
        Call(["validate", "--graph", tree_f, J], 0, validate_ok),
        Call(["validate", "--graph", indefinite_f, J], 2, validate_indefinite),
        Call(["fundamental-cycle", "--graph", tree_f, J], 0, field("fundamental_cycle", {v: 1 for v in tree.ids})),
        Call(["fundamental-cycle", "--graph", dn_f, J], 0, field("fundamental_cycle", d_fundamental(dn_n))),
        Call(["canonical-cycle", "--graph", hj_f, J], 0, residual_zero(Lattice(hj))),
        Call(["canonical-cycle", "--graph", multi_f, J], 0, residual_zero(Lattice(multi))),
        Call(["antinef-closure", "--graph", tree_f, "--cycle", "E1:5", J], 0, field("closure", tree_closure)),
        Call(["colon-core", "--tower", tower_f, "--cycle", "Z", J], 0, colon_core(top_lat, z, exceptional)),
        Call(["colon-core", "--graph", small_f, "--cycle", "Z", J], 0, colon_core(Lattice(s_top), s_z, small_exc)),
        Call(["good-closure", "--tower", tower_f, "--cycle", "Z", J], 0, good_closure_tower),
        Call(["good-closure", "--tower", ex244_f, "--cycle", "Z", J], 0,
             lambda out: require(_json(out) == {"level": 4, "cycle": EX244_Z, "good": True}, out)),
        Call(["good-test", "--tower", tower_f, "--cycle", "Z", J], 0,
             field("good", all(top_lat.row(z, x) == 0 for x in exceptional))),
        Call(["relative-canonical", "--tower", tower_f, J], 0, field("cycle", relative_canonical(steps))),
        Call(["pullback", "--tower", tower_f, "--cycle", "W", "--from", "0", J], 0,
             field("cycle", pullback(zf, steps))),
        Call(["pushforward", "--tower", tower_f, "--cycle", "Z", J], 0,
             field("cycle", {v: c for v, c in z.items() if v in base.ids})),
        Call(["blowup", "--graph", tree_f, "--center", center, "--new-id", "Q1"], 0, blown_graph),
        Call(["blowup", "--tower", tower_f, "--center", f"{edge[0]},{edge[1]}", "--new-id", "Q2"], 0, blown_tower),
        Call(["corpus", "show", f"D{corpus_n}"], 0, corpus_d),
        Call(["corpus", "show", "ex244blown", "--as-tower"], 0, corpus_ex244),
        Call(["cone", "--e", str(cone[0]), "--g", str(cone[1]), "--a", str(cone[2]), J], 0, cone_formulas),
        # malformed input and violated preconditions: a clean exit code, no traceback
        Call(["validate", "--graph", bad_f], 1),
        Call(["validate", "--graph", missing_f], 1),
        Call(["fundamental-cycle"], 1),
        Call(["frobnicate"], 1),
        Call(["antinef-closure", "--graph", tree_f, "--cycle", "E1:-1"], 2),
        Call(["pullback", "--tower", tower_f, "--cycle", "NOPE:1"], 1),
        Call(["antinef-closure", "--graph", a3_f, "--cycle", "E1:2,E1:3", J], 1,
             fault=Fault("a duplicated id in an inline cycle keeps its last value",
                         lambda d: d == {"closure": Lattice(base).closure({"E1": 3})})),
        Call(["validate", "--graph", dup_f, J], 1,
             fault=Fault("a duplicated JSON key keeps its last value", lambda d: d["ok"] and d["adjunction_ok"])),
        # oracle commands
        Call(["oracle", "max-y", "--graph", small_f, "--cycle", "Z", J], 0,
             max_y_check(Lattice(s_top), s_z)),
        Call(["oracle", "zf", "--graph", tree_f, "--max-coeff", "2", J], 0,
             field("fundamental_cycle", {v: 1 for v in tree.ids})),
        Call(["oracle", "zf", "--graph", dn_f, "--max-coeff", "2", J], 0,
             field("fundamental_cycle", d_fundamental(dn_n))),
        Call(["oracle", "negdef", "--graph", hj_f, "--max-coeff", "2", J], 0,
             field("negative_definite", True)),
        Call(["oracle", "negdef", "--graph", ex244_top_f, "--max-coeff", "1", J], 0,
             field("negative_definite", True)),
        Call(["oracle", "negdef", "--graph", huge_f, J], (0, 2), field("negative_definite", True),
             fault=Fault("int64 overflow in the brute-force quadratic form",
                         lambda d: d == {"negative_definite": False})),
    ]
    rng.shuffle(calls)  # oracle calls spread over the session
    return CliPlan(calls, docs, work)


def _shows(fault: Fault, code: int, out: str, err: str) -> bool:
    if code != 0 or err:
        return False
    try:
        return bool(fault.shows(json.loads(out)))
    except (ValueError, KeyError, TypeError):
        return False


def check_call(call: Call, code: int, out: str, err: str) -> bool:
    """True when the call behaved as specified; False when it showed exactly
    its known fault; raises CheckFailed on any other deviation."""
    codes = call.exit_code if isinstance(call.exit_code, tuple) else (call.exit_code,)
    try:
        require("Traceback" not in err, f"{call.args}: traceback on stderr")
        require(code in codes, f"{call.args}: exit {code}, expected {call.exit_code}; {err.strip()[-300:]}")
        if call.check is not None and (code == 0 or len(codes) == 1):
            call.check(out)
        elif code != 0:
            require(err.startswith(("error:", "usage:")), f"{call.args}: no error message: {err[:200]!r}")
    except Exception as exc:
        if call.fault is not None and _shows(call.fault, code, out, err):
            return False
        if isinstance(exc, CheckFailed):
            raise
        raise CheckFailed(f"{call.args}: {exc!r}") from exc
    return True


class CliSession:
    def __init__(self, prog, calls: list[Call], work: Path):
        self.calls = calls
        self.ops = list(range(len(self.calls)))
        self.work = work
        self.peak_file = work / "peak_kb"
        self.env = dict(os.environ, PYTHONPATH=str(prog.src), ANTINEF_BENCH_PEAK=str(self.peak_file))
        self.cli = prog.cli  # for the in-process traced run
        self.later: list = []

    def run(self, op: int):
        proc = subprocess.run([sys.executable, "-c", ENTRY, *self.calls[op].args], cwd=self.work,
                              env=self.env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr

    def peak_rss_mb(self) -> float:
        """The largest peak resident set of the calls so far."""
        return max(int(kb) for kb in self.peak_file.read_text().split()) / 1024

    def run_in_process(self, op: int):
        """The same call through ``antinef.cli.main`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(list(self.calls[op].args))
            except Exception:
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def summary(self, op: int, raw) -> tuple:
        return raw

    def check(self, op: int, s, raw=None) -> bool:
        return check_call(self.calls[op], *s)


def emit(prog, doc: dict) -> str:
    """A graph or tower document built and written by the program."""
    graph, bir, formats = prog.graph, prog.birational, prog.formats
    spec = spec_from_doc(doc.get("base", doc))
    g = graph.dual_graph(spec.name, spec.vertices, spec.edges)
    if "base" not in doc:
        cycles = {name: graph.cycle(g, c) for name, c in doc.get("cycles", {}).items()}
        return formats.emit_graph_document(formats.GraphDocument(doc["name"], g, cycles, doc.get("model")))
    t = bir.Tower.base(g)
    for s in doc["steps"]:
        t = t.blow_up(bir.free_point(s["vertex"], s["new_id"]) if s["op"] == "blowup_free"
                      else bir.edge_point(s["a"], s["b"], s["new_id"]))
    cycles = {name: (c["level"], graph.cycle(t.graph(c["level"]), c["coeffs"])) for name, c in doc["cycles"].items()}
    return formats.emit_tower_document(formats.TowerDocument(doc["name"], t, cycles, doc.get("model")))


def _normal(doc: dict) -> dict:
    """A document with its graphs in order-free form."""
    out = {k: v for k, v in doc.items() if k not in ("vertices", "edges", "base")}
    if "vertices" in doc:
        out["graph"] = spec_from_doc(doc).canonical()
    if "base" in doc:
        out["base"] = _normal(doc["base"])
    return out


def prepare(prog, p: CliPlan) -> dict:
    """The program's part of set-up: it builds and emits the documents."""
    p.work.mkdir(parents=True, exist_ok=True)
    made = {}
    for name, doc in p.docs.items():
        made[name] = doc if isinstance(doc, str) else emit(prog, doc)
        (p.work / name).write_text(made[name], encoding="utf-8")
    return made


def build(prog, p: CliPlan, made: dict) -> CliSession:
    """Each emitted document must say what was asked for."""
    for name, doc in p.docs.items():
        if not isinstance(doc, str):
            require(_normal(json.loads(made[name])) == _normal(doc), f"emitted {name} differs from its recipe")
    return CliSession(prog, p.calls, p.work)
