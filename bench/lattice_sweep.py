"""lattice-sweep: one operation analyses one graph.

It builds the graph, validates it, computes Z_f and rationality, the
canonical cycle, the anti-nef closure of 100*E1, and the multiplicity and
colength of Z_f.  The time goes to ``graph``'s determinants and
``lattice``'s solver and closure loop.  Half the graphs are trees (A_n,
D_n, Hirzebruch-Jung chains, random trees) and half are not (cusp cycles of
(-3)-curves, random graphs with cycles and double edges), so a fast path
for trees that slows general graphs shows in the same figures.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Optional

from reference import (
    Lattice,
    Spec,
    continuant,
    cusp_det,
    d_fundamental,
    dominates,
    require,
    spec_of,
)

MODULES = ["antinef.errors", "antinef.graph", "antinef.lattice", "antinef.corpus", "antinef.oracle"]
SIZES = (10, 20, 40)
# random (trees, multigraphs) per size beside A_n, D_n, HJ and the cusp: the
# median of a round's 70 graphs then falls amid the n = 20 graphs and the
# 90th percentile amid the n = 40 ones, each estimated from many samples
RANDOM = {10: (8, 8), 20: (16, 16), 40: (2, 4)}
LARGE = 80
CLOSURE_SEED = 100
# brute-force cross-checks run where the oracle's box stays small
ORACLE_MAX_VERTICES = 10


@dataclass
class GraphOp:
    spec: Spec
    family: str
    size_class: str
    source: Optional[str] = None  # corpus name; set-up replaces spec by the corpus graph
    det: Optional[int] = None  # closed-form determinant
    zf: Optional[dict] = None  # known fundamental cycle
    genus: Optional[int] = None  # known p_a(Z_f)
    negative_definite: bool = True
    adjunction_ok: bool = True
    colength_args: Optional[tuple[int, int]] = None  # (pg, h1) where the analytic data are known
    raises_at: Optional[str] = None  # step that must raise PreconditionError

    @property
    def seed_vertex(self) -> str:
        return self.spec.ids[0]


# --- inputs ------------------------------------------------------------------


def chain(name: str, selfs: list[int]) -> Spec:
    n = len(selfs)
    verts = tuple((f"E{i + 1}", s, -2 - s) for i, s in enumerate(selfs))
    return Spec(name, verts, tuple((f"E{i}", f"E{i + 1}", 1) for i in range(1, n)))


def d_chain(n: int) -> Spec:
    """D_n as the corpus labels it: the chain E1..E(n-1) and En on E(n-2)."""
    c = chain(f"D{n}", [-2] * (n - 1))
    return Spec(c.name, c.vertices + ((f"E{n}", -2, 0),), c.edges + ((f"E{n - 2}", f"E{n}", 1),))


def random_tree(rng: random.Random, n: int) -> Spec:
    """Random rational tree: -E_i^2 >= max(deg, 2), so Z_f is reduced."""
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    deg = [0] * n
    for i in range(1, n):
        deg[i] += 1
        deg[parent[i]] += 1
    selfs = [-(max(d, 2) + (1 if rng.random() < 0.3 else 0)) for d in deg]
    verts = tuple((f"E{i + 1}", s, -2 - s) for i, s in enumerate(selfs))
    edges = tuple((f"E{parent[i] + 1}", f"E{i + 1}", 1) for i in range(1, n))
    return Spec(f"tree{n}", verts, edges)


def random_multigraph(rng: random.Random, n: int) -> Spec:
    """Random tree plus n/4 extra edges that close cycles or double an edge;
    -E_i^2 exceeds the weighted degree, so the form is negative definite and
    Z_f is reduced with p_a = (edges counted with multiplicity) - n + 1."""
    mult: dict[tuple[int, int], int] = {}
    for i in range(1, n):
        mult[(rng.randrange(i), i)] = 1
    for _ in range(n // 4):
        u, v = sorted(rng.sample(range(n), 2))
        mult[(u, v)] = min(mult.get((u, v), 0) + 1, 2)
    wdeg = [0] * n
    for (u, v), m in mult.items():
        wdeg[u] += m
        wdeg[v] += m
    selfs = [-(d + 1 + (1 if rng.random() < 0.3 else 0)) for d in wdeg]
    verts = tuple((f"E{i + 1}", s, -2 - s) for i, s in enumerate(selfs))
    edges = tuple((f"E{u + 1}", f"E{v + 1}", m) for (u, v), m in sorted(mult.items()))
    return Spec(f"multi{n}", verts, edges)


def cusp(n: int) -> Spec:
    verts = tuple((f"E{i + 1}", -3, 1) for i in range(n))
    edges = tuple((f"E{i + 1}", f"E{(i + 1) % n + 1}", 1) for i in range(n))
    return Spec(f"cusp{n}", verts, edges)


def _reduced(spec: Spec) -> dict:
    return {v: 1 for v in spec.ids}


def plan(seed: int, work_dir=None) -> list[GraphOp]:
    """The round's graphs as plain data.  A_n, D_n and the HJ chains carry
    their own definition here; set-up takes them from the corpus."""
    rng = random.Random(f"lattice-sweep:{seed}")
    ops: list[GraphOp] = []

    def tree_op(spec, cls):
        return GraphOp(spec, "tree", cls, zf=_reduced(spec), genus=0, colength_args=(0, 0))

    def multi_op(spec, cls):
        betti = sum(m for _, _, m in spec.edges) - len(spec.vertices) + 1
        return GraphOp(spec, "multi", cls, zf=_reduced(spec), genus=betti)

    for n in SIZES:
        cls = f"n{n}"
        a = chain(f"A{n}", [-2] * n)
        ops.append(GraphOp(a, "A", cls, source=a.name, det=(-1) ** n * (n + 1), zf=_reduced(a), genus=0,
                           colength_args=(0, 0)))
        d = d_chain(n)
        ops.append(GraphOp(d, "D", cls, source=d.name, det=(-1) ** n * 4, zf=d_fundamental(n), genus=0,
                           colength_args=(0, 0)))
        bs = [rng.choice((2, 3)) for _ in range(n)]
        p, q = continuant(bs)
        hj = chain(f"HJ({p},{q})", [-b for b in bs])
        ops.append(GraphOp(hj, "HJ", cls, source=hj.name, det=(-1) ** n * p, zf=_reduced(hj), genus=0,
                           colength_args=(0, 0)))
        trees, multis = RANDOM[n]
        for _ in range(trees):
            ops.append(tree_op(random_tree(rng, n), cls))
        c = cusp(n)
        ops.append(GraphOp(c, "cusp", cls, det=cusp_det(n), zf=_reduced(c), genus=1,
                           colength_args=(1, 0)))
        for _ in range(multis):
            ops.append(multi_op(random_multigraph(rng, n), cls))
    ops.append(tree_op(random_tree(rng, LARGE), f"n{LARGE}"))
    ops.append(multi_op(random_multigraph(rng, LARGE), f"n{LARGE}"))
    # two graphs whose correct outcome is a reported failure
    selfs = [-2] * 10
    broken = chain("adjunction10", selfs)
    k = rng.randrange(10)
    broken = Spec(broken.name, tuple((v, s, 1 if i == k else kap) for i, (v, s, kap) in
                                     enumerate(broken.vertices)), broken.edges)
    ops.append(GraphOp(broken, "adjunction", "n10", zf=_reduced(broken), adjunction_ok=False))
    indefinite = Spec("indefinite", (("E1", -1, -1), ("E2", -1, -1)), (("E1", "E2", 2),))
    ops.append(GraphOp(indefinite, "indefinite", "bad", negative_definite=False,
                       raises_at="fundamental_cycle"))
    rng.shuffle(ops)  # each size class spreads over the round, and so over slow spells
    return ops


# --- the workload ------------------------------------------------------------


def _coeffs(c) -> dict:
    return dict(c.coeffs)


class LatticeSweep:
    def __init__(self, prog, ops: list[GraphOp]):
        self.prog = prog
        self.ops = ops
        self.later = []  # brute-force checks, run after the timed loop

    def run(self, op: GraphOp) -> dict:
        graph, lattice = self.prog.graph, self.prog.lattice
        g = graph.dual_graph(op.spec.name, op.spec.vertices, op.spec.edges)
        out = {"graph": g, "report": graph.validate_graph(g)}
        step = "fundamental_cycle"
        try:
            out["zf"] = lattice.fundamental_cycle(g)
            step = "is_rational"
            out["rational"] = lattice.is_rational(g)
            step = "canonical_cycle"
            out["zk"] = lattice.canonical_cycle(g)
            step = "antinef_closure"
            out["closure"] = lattice.antinef_closure(graph.cycle(g, {op.seed_vertex: CLOSURE_SEED}))
            step = "multiplicity"
            out["e"] = lattice.multiplicity(out["zf"])
            if op.colength_args is not None:
                step = "colength"
                out["colength"] = lattice.colength(out["zf"], *op.colength_args)
        except self.prog.errors.PreconditionError:
            out["raised"] = step
        return out

    def summary(self, op: GraphOp, raw: dict) -> dict:
        r = raw["report"]
        out = {
            "graph": spec_of(raw["graph"]).canonical(),
            "report": {"connected": r.connected, "negative_definite": r.negative_definite,
                       "adjunction_ok": r.adjunction_ok, "ok": r.ok, "failures": len(r.failures)},
        }
        for key in ("zf", "zk", "closure"):
            if key in raw:
                out[key] = _coeffs(raw[key])
        for key in ("rational", "e", "colength", "raised"):
            if key in raw:
                out[key] = raw[key]
        return out

    def check(self, op: GraphOp, s: dict, raw=None) -> bool:
        check_graph(op, s)
        P = self.prog
        if op.det is not None:
            g = P.graph.dual_graph(op.spec.name, op.spec.vertices, op.spec.edges)
            det = P.graph.det_bareiss(g.matrix())
            require(det == op.det, f"{op.spec.name}: det {det} != closed form {op.det}")
        if len(op.spec.vertices) <= ORACLE_MAX_VERTICES and op.negative_definite:
            self.later.append(lambda: self._brute_force(op, s))
        return True

    def _brute_force(self, op: GraphOp, s: dict) -> None:
        """The program's brute-force oracles agree on Z_f and definiteness."""
        P = self.prog
        g = P.graph.dual_graph(op.spec.name, op.spec.vertices, op.spec.edges)
        n = len(op.spec.vertices)
        bound = P.oracle.SearchBound(max_coeff=max(s["zf"].values()), max_vertices=n)
        zf = _coeffs(P.oracle.fundamental_cycle_bruteforce(g, bound))
        require(zf == s["zf"], f"{op.spec.name}: Z_f {s['zf']} != brute force {zf}")
        negdef = P.oracle.negdef_bruteforce(g, P.oracle.SearchBound(max_coeff=1, max_vertices=n))
        require(negdef, f"{op.spec.name}: brute force finds W.W >= 0")


def check_graph(op: GraphOp, s: dict) -> None:
    """Check one summary against closed forms and independent arithmetic."""
    name = op.spec.name
    lat = Lattice(op.spec)
    require(s["graph"] == op.spec.canonical(), f"{name}: program built a different graph")
    rep = s["report"]
    require(rep["connected"], f"{name}: reported disconnected")
    require(rep["negative_definite"] == op.negative_definite,
            f"{name}: negative_definite = {rep['negative_definite']}")
    require(rep["adjunction_ok"] == op.adjunction_ok, f"{name}: adjunction_ok = {rep['adjunction_ok']}")
    healthy = op.negative_definite and op.adjunction_ok
    require(rep["ok"] == healthy and (rep["failures"] == 0) == healthy, f"{name}: report {rep}")
    if op.raises_at is not None:
        require(s.get("raised") == op.raises_at,
                f"{name}: expected PreconditionError at {op.raises_at}, got {s.get('raised')}")
        return
    require("raised" not in s, f"{name}: unexpected PreconditionError at {s.get('raised')}")
    zf = s["zf"]
    require(zf == lat.closure({op.spec.ids[0]: 1}), f"{name}: Z_f {zf} is not the least anti-nef cycle")
    if op.zf is not None:
        require(zf == op.zf, f"{name}: Z_f {zf} != known {op.zf}")
    genus = lat.genus(zf)
    if op.genus is not None:
        require(genus == op.genus, f"{name}: p_a(Z_f) = {genus} != {op.genus}")
    require(s["rational"] == (genus == 0), f"{name}: rational = {s['rational']} but p_a(Z_f) = {genus}")
    require(lat.residual(s["zk"]) == {}, f"{name}: M.Z_K + kappa = {lat.residual(s['zk'])}")
    seed = {op.seed_vertex: CLOSURE_SEED}
    z = s["closure"]
    require(lat.is_antinef(z), f"{name}: closure is not anti-nef")
    require(dominates(z, seed), f"{name}: closure is below its seed")
    require(z == lat.closure(seed), f"{name}: closure of {CLOSURE_SEED}*{op.seed_vertex} is not least")
    require(s["e"] == -lat.pair(zf, zf), f"{name}: multiplicity {s['e']} != -Z_f^2")
    if op.colength_args is not None:
        pg, h1 = op.colength_args
        want = -(lat.pair(zf, zf) + lat.k_dot(zf)) // 2 + pg - h1
        require(s["colength"] == want, f"{name}: colength {s['colength']} != {want}")


def prepare(prog, ops: list[GraphOp]) -> dict:
    """The program's part of set-up: the corpus graphs of the round."""
    corpus = prog.corpus
    # corpus.get refuses D10 ... D39, so D_n comes from corpus.d_n
    return {op.source: corpus.d_n(len(op.spec.vertices)) if op.family == "D" else corpus.get(op.source).graph
            for op in ops if op.source}


def build(prog, ops: list[GraphOp], made: dict) -> LatticeSweep:
    """The corpus graphs must equal their definitions; they replace them."""
    out = []
    for op in ops:
        if op.source:
            got = spec_of(made[op.source])
            require(got.canonical() == op.spec.canonical(), f"corpus {op.source} differs from its definition")
            op = dataclasses.replace(op, spec=got)
        out.append(op)
    return LatticeSweep(prog, out)

