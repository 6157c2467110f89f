"""tower-ideals: one operation builds one blow-up tower and queries it.

A query represents an ideal Z on the top level, computes its colon and
core, tests goodness two ways, takes the good closure, iterates the colon
until the ideal is good, and computes the relative canonical cycle and a
pullback/pushforward round trip.  The graphs grow with the tower while the
bases stay tiny, so the time goes to graph rebuilding in ``birational``,
to ``pair`` and to the contraction sequence in ``ideals``; building (the
writes) sits beside the queries (the reads).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from lattice_sweep import chain, d_chain
from reference import (
    Lattice,
    Spec,
    add,
    apply_step,
    continuant,
    dominates,
    pullback,
    relative_canonical,
    require,
    spec_of,
    tower_specs,
    transport,
)

MODULES = [
    "antinef.errors", "antinef.graph", "antinef.lattice", "antinef.birational",
    "antinef.ideals", "antinef.corpus", "antinef.oracle",
]
E6 = Spec("E6", tuple((f"E{i}", -2, 0) for i in range(1, 7)),
          tuple((f"E{i}", f"E{i + 1}", 1) for i in range(1, 5)) + (("E3", "E6", 1),))
# the bases, defined here and labelled as the corpus labels them
BASES = ([chain(f"A{n}", [-2] * n) for n in range(1, 6)] + [d_chain(4), d_chain(5), E6]
         + [chain("HJ({},{})".format(*continuant(bs)), [-b for b in bs]) for bs in ([3, 2], [3, 2, 2], [3, 2, 3])])
EX244_BASE = Spec("ex244min", (("E0", -2, 2),), ())
# (height, good, not good) towers per round: the median of a round's 36
# operation times falls amid the twelve h = 20 ideals and the 90th
# percentile amid the six h = 80 ones, not on the edge between groups
HEIGHTS = [(5, 1, 2), (10, 1, 2), (20, 4, 8), (40, 2, 3), (80, 3, 3), (120, 1, 1)]
CONES = [(2, 2, 1), (2, 1, 0), (4, 3, 1), (3, 4, 2), (1, 2, 2), (2, 3, 2)]
EX244_Z = {"E0": 2, "E1": 3, "E2": 3, "E3": 3, "E4": 3}
ITERATION_CAP = 64
# enumerate_max_Y cross-checks Y where its box stays this small
ORACLE_BOX = 50_000


@dataclass
class TowerOp:
    kind: str  # "random", "ex244" or "cone"
    size_class: str
    base: Optional[Spec] = None
    model_args: dict = field(default_factory=dict)
    c_base: dict = field(default_factory=dict)
    steps: list = field(default_factory=list)  # (new_id, ((vid, 1), ...))
    z_level: int = 0
    z0: dict = field(default_factory=dict)  # Z before pullback to the top
    bump: Optional[str] = None  # curve added before the closure: a non-good ideal
    v: dict = field(default_factory=dict)  # base cycles for the round trip
    u: dict = field(default_factory=dict)
    cone: Optional[tuple[int, int, int]] = None
    worked_example: bool = False  # ex244 at level 4: e = 12, l = 6, core = 2Z


def _random_base_cycle(rng: random.Random, spec: Spec) -> dict:
    return {v: c for v in spec.ids if (c := rng.randint(0, 3))}


def grow(rng: random.Random, spec: Spec, count: int, stem: str, avoid=()) -> list:
    """Random free and edge blow-ups, simulated on plain data to pick centres.
    Two steps in five blow up a crossing, so towers of one height cost alike."""
    steps = []
    top = spec
    for k in range(1, count + 1):
        edges = [e for e in top.edges if not set(e[:2]) & set(avoid)]
        if edges and k % 5 in (2, 4):
            a, b, _ = rng.choice(edges)
            at = (a, b)
        else:
            at = (rng.choice([v for v in top.ids if v not in avoid]),)
        steps.append((f"{stem}{k}", tuple((v, 1) for v in at)))
        top = apply_step(top, *steps[-1])
    return steps


def plan(seed: int, work_dir=None) -> list[TowerOp]:
    """The round's tower recipes, simulated on plain data."""
    rng = random.Random(f"tower-ideals:{seed}")
    ops: list[TowerOp] = []
    for h, good, bad in HEIGHTS:
        for i in range(good + bad):
            base = rng.choice(BASES)
            lat = Lattice(base)
            mult = rng.randint(1, 2)
            w = {v: mult * c for v, c in lat.closure({base.ids[0]: 1}).items()}
            bump = i >= good
            steps = grow(rng, base, h - bump, "X")
            if bump:
                # the last centre is a free point on a base curve B with w.B < 0,
                # so pullback(w) + E_last is anti-nef and not good, with max b_i = 1
                b = rng.choice([v for v in base.ids if lat.row(w, v) < 0])
                steps.append((f"X{h}", ((b, 1),)))
            ops.append(TowerOp(
                "random", f"h{h}", base,
                model_args={"gorenstein": all(k == 0 for _, _, k in base.vertices)},
                steps=steps, z0=w, bump=steps[-1][0] if bump else None,
                v=_random_base_cycle(rng, base), u=_random_base_cycle(rng, base),
            ))
    base = EX244_BASE
    four = [(f"E{i}", (("E0", 1),)) for i in range(1, 5)]
    for extra, mult, bump in ((0, 1, False), (rng.randint(4, 8), 2, False), (rng.randint(4, 8), 1, True)):
        steps = four + grow(rng, tower_specs(base, four)[-1], extra - bump, "X", avoid=("E0",))
        if bump:
            steps.append((f"X{extra}", ((f"E{rng.randint(1, 4)}", 1),)))
        ops.append(TowerOp(
            "ex244", "ex244", base, model_args={"pg": 1, "gorenstein": True}, c_base={"E0": 1},
            steps=steps, z_level=4, z0={v: mult * c for v, c in EX244_Z.items()},
            bump=steps[-1][0] if bump else None,
            v=_random_base_cycle(rng, base), u=_random_base_cycle(rng, base),
            worked_example=extra == 0,
        ))
    for cone in rng.sample(CONES, 2):
        ops.append(TowerOp("cone", "cone", cone=cone))
    rng.shuffle(ops)  # each size class spreads over the round, and so over slow spells
    return ops


class TowerIdeals:
    def __init__(self, prog, ops: list[TowerOp]):
        self.prog = prog
        self.ops = ops
        self.later = []  # brute-force checks, run after the timed loop

    def run(self, op: TowerOp) -> dict:
        P = self.prog
        graph, bir, ideals = P.graph, P.birational, P.ideals
        if op.kind == "cone":
            model, ideal, stats = ideals.cone_model(*op.cone)
            t = ideal.tower
            base = t.levels[0]
        else:
            stats = None
            base = graph.dual_graph(op.base.name, op.base.vertices, op.base.edges)
            model = ideals.singularity_model(base, **op.model_args)
            t = bir.Tower.base(base)
            for new_id, attach in op.steps:
                at = [v for v, _ in attach]
                center = bir.free_point(at[0], new_id) if len(at) == 1 else bir.edge_point(*at, new_id)
                t = t.blow_up(center)
            z = t.pullback(graph.cycle(t.graph(op.z_level), op.z0), op.z_level, t.height)
            if op.bump is not None:
                z = P.lattice.antinef_closure(z + graph.unit_cycle(t.top, op.bump))
            ideal = ideals.represent(model, t, t.height, z)
        h = t.height
        rep = ideals.colon_and_core(ideal)
        good = ideals.is_good(ideal)
        closure = ideals.good_closure(ideal)
        iterations, step = 0, rep
        while not step.good and iterations < ITERATION_CAP:
            step = ideals.colon_and_core(ideals.represent(model, t, h, step.colon_cycle))
            iterations += 1
        k = bir.relative_canonical(t)
        vt = t.pullback(graph.cycle(base, op.v), 0, h)
        ut = t.pullback(graph.cycle(base, op.u), 0, h)
        back = t.pushforward(vt, h, 0)
        return {"tower": t, "ideal": ideal, "rep": rep, "good": good, "closure": closure,
                "iterations": iterations, "k": k, "vt": vt, "ut": ut, "back": back, "stats": stats}

    def counts(self, raw: dict) -> dict:
        return {"ideals.colon_iterations": raw["iterations"]}

    def summary(self, op: TowerOp, raw: dict) -> dict:
        t, ideal, rep, closure = raw["tower"], raw["ideal"], raw["rep"], raw["closure"]
        coeffs = lambda c: dict(c.coeffs)  # noqa: E731
        steps = lambda tw: [(s.new_id, tuple(s.attach)) for s in tw.steps]  # noqa: E731
        out = {
            "base": spec_of(t.levels[0]), "steps": steps(t), "top": spec_of(t.top).canonical(),
            "c": coeffs(ideal.c), "pg_numeric": ideal.pg_numeric, "z": coeffs(ideal.z),
            "y": coeffs(rep.y), "colon": coeffs(rep.colon_cycle), "core": coeffs(rep.core_cycle),
            "b": rep.b, "iterations_to_good": rep.iterations_to_good, "good": rep.good,
            "is_good": raw["good"], "iterations": raw["iterations"],
            "closure": {"base": spec_of(closure.tower.levels[0]).canonical(), "steps": steps(closure.tower),
                        "level": closure.level, "z": coeffs(closure.z)},
            "k": coeffs(raw["k"]), "vt": coeffs(raw["vt"]), "ut": coeffs(raw["ut"]),
            "back": coeffs(raw["back"]),
        }
        if raw["stats"] is not None:
            s = raw["stats"]
            out["stats"] = {"colength": s.colength, "mu": s.mu, "mult_gap": s.mult_gap, "all_ok": s.all_ok}
        return out

    def check(self, op: TowerOp, s: dict, raw: dict) -> bool:
        check_ideal(op, s)
        P = self.prog
        closure = raw["closure"]
        require(P.ideals.is_good(closure) and P.ideals.colon_and_core(closure).good,
                f"{op.size_class}: good closure is not good")
        z, c = raw["ideal"].z, raw["ideal"].c
        box = 1
        for _, k in z.coeffs:
            box *= k + 1
        if box <= ORACLE_BOX and len(z.graph.vertices) <= 12:
            self.later.append(lambda: self._max_y(op, s, z, c))
        return True

    def _max_y(self, op: TowerOp, s: dict, z, c) -> None:
        y = self.prog.oracle.enumerate_max_Y(z, c)
        require(y is not None and dict(y.coeffs) == s["y"],
                f"{op.size_class}: Y {s['y']} != enumerated maximum {y}")


def check_ideal(op: TowerOp, s: dict) -> None:
    """Check one query summary against independent arithmetic and the
    properties the contraction-sequence method must have."""
    tag = f"{op.kind} {op.size_class}"
    steps = s["steps"]
    if op.kind == "cone":
        e, g, a = op.cone
        st = s["stats"]
        require(st["colength"] == e + g - 1 and st["mu"] == e + 1 and st["mult_gap"] == (a + 1) * e
                and st["all_ok"], f"{tag}: cone{op.cone} stats {st} miss the closed formulas")
        base = Spec(f"cone({e},{g},{a})", (("E", -e, 2 * g - 2 + e),), ())
        require(s["base"].canonical() == base.canonical(), f"{tag}: cone base {s['base']}")
        c_base = {"E": a + 1}
    else:
        base, c_base = op.base, op.c_base
        require(steps == op.steps, f"{tag}: tower steps differ from the recipe")
    levels = tower_specs(base, steps)
    top = levels[-1]
    require(s["top"] == top.canonical(), f"{tag}: top graph differs from the blow-ups")
    lat = Lattice(top)
    c = transport(c_base, steps)
    require(s["c"] == c, f"{tag}: cohomological cycle {s['c']} != {c}")
    z = s["z"]
    if op.kind != "cone":
        want = pullback(op.z0, steps[op.z_level:])
        if op.bump is not None:
            want = lat.closure(add(want, {op.bump: 1}))
        require(z == want, f"{tag}: Z {z} != {want}")
    require(lat.is_antinef(z), f"{tag}: Z is not anti-nef")
    numeric = all(lat.row(z, v) == 0 for v in c)
    require(s["pg_numeric"] == numeric and numeric, f"{tag}: Z is not numerically p_g")
    y = s["y"]
    require(s["core"] == add(add(z, z), y, -1), f"{tag}: core != 2Z - Y")
    colon = add(z, y, -1)
    require(s["colon"] == colon, f"{tag}: colon != Z - Y")
    require(all(v >= 0 for v in colon.values()) and lat.is_antinef(colon), f"{tag}: Z - Y not anti-nef")
    require(all(lat.row(colon, v) == 0 for v in c), f"{tag}: Z - Y is not numerically p_g")
    require(-lat.pair(y, y) + lat.k_dot(y) == 0, f"{tag}: -Y^2 + K.Y != 0")
    top_b = max(s["b"], default=0)
    require(s["iterations_to_good"] == top_b, f"{tag}: iterations_to_good != max b_i")
    require(s["iterations"] == top_b, f"{tag}: {s['iterations']} colon iterations, max b_i = {top_b}")
    require(s["good"] == (y == {}) == (top_b == 0), f"{tag}: good flag disagrees with Y and b")
    require(s["is_good"] == s["good"], f"{tag}: is_good disagrees with colon_and_core")
    cl = s["closure"]
    require(cl["base"] == base.canonical(), f"{tag}: good closure is not over the base")
    cl_levels = tower_specs(base, cl["steps"])
    require(cl_levels[-1].canonical() == top.canonical(), f"{tag}: good closure tower has another top")
    require(Lattice(cl_levels[cl["level"]]).is_antinef(cl["z"]), f"{tag}: good closure not anti-nef")
    require(dominates(z, pullback(cl["z"], cl["steps"][cl["level"]:])), f"{tag}: good closure misses I")
    k = s["k"]
    require(k == relative_canonical(steps), f"{tag}: relative canonical {k}")
    require(-lat.pair(k, k) + lat.k_dot(k) == 0, f"{tag}: -K^2 + K.K_X != 0")
    base_lat = Lattice(base)
    require(s["vt"] == pullback(op.v, steps) and s["ut"] == pullback(op.u, steps),
            f"{tag}: pullback differs from the total transform")
    require(s["back"] == op.v, f"{tag}: pushforward of the pullback is {s['back']}, not {op.v}")
    require(lat.pair(s["vt"], s["ut"]) == base_lat.pair(op.v, op.u), f"{tag}: projection formula fails")
    if op.worked_example:
        pg = h1 = 1  # Z is a p_g-cycle of the p_g = 1 model
        e = -lat.pair(z, z)
        colength = -(lat.pair(z, z) + lat.k_dot(z)) // 2 + pg - h1
        require(e == 12 and colength == 6 and y == {}, f"{tag}: e = {e}, l = {colength}, Y = {y}")


def prepare(prog, ops: list[TowerOp]) -> dict:
    """The program's part of set-up: the corpus graphs of the bases."""
    return {spec.name: prog.corpus.get(spec.name).graph for spec in (*BASES, EX244_BASE)}


def build(prog, ops: list[TowerOp], made: dict) -> TowerIdeals:
    """The towers grow on the bases defined here, so the corpus must agree."""
    for spec in (*BASES, EX244_BASE):
        require(spec_of(made[spec.name]).canonical() == spec.canonical(),
                f"corpus {spec.name} differs from its definition")
    return TowerIdeals(prog, ops)
