"""Blow-ups, contractions, towers, and cycle transport between levels.

A tower is a bottom-up chain of dual graphs in which each level adds one
exceptional curve, described by a :class:`TowerStep`: a blow-up is a step
whose curves all meet the new one once (:func:`free_point`,
:func:`edge_point`).  A tower is what its steps build: ``Tower(bottom,
steps)`` replays its top, and only a builder that holds the top hands it
over.  Contracting a rational (-1)-curve that meets another curve gives the
lower graph and the step that rebuilds the upper one, so contraction
sequences are towers read in reverse.  Each direction has its own surgery:
:func:`replay` inserts curves into sorted lists and
:func:`contract_positions` removes them from neighbour maps by position,
which :func:`contract_all` names; replaying a contraction sequence checks one
against the other.  A cycle moves up the steps in place, on a list by
position or a dict over the top's ids, by one rule: :func:`lift` for total
transforms, :func:`transported` for the cohomological cycle C, which is
effective and integral.  The associated p_g-cycle follows its count: each
branch through E_i is blown up C[E_i] times.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import combinations, count, repeat
from typing import Callable, Iterable, Iterator, MutableSequence, NamedTuple, Optional, Sequence

from .errors import InputError, PreconditionError, TheoremViolationError
from .graph import Coeff, Cycle, DualGraph, Vertex, _new, _normal_vec, zero_cycle
from .lattice import contracts_to_smooth, is_antinef


class TowerStep(NamedTuple):
    """One level of a tower: a new (-1, kappa -1) curve and its attachments.

    ``attach`` lists (existing vertex, multiplicity); blow-ups always attach
    with multiplicity 1, inverse contractions may attach with more.
    """

    new_id: str
    attach: tuple[tuple[str, int], ...]


def free_point(vid: str, new_id: str) -> TowerStep:
    """The blow-up of a free point on the curve vid."""
    return TowerStep(new_id=new_id, attach=((vid, 1),))


def edge_point(a: str, b: str, new_id: str) -> TowerStep:
    """The blow-up of an intersection point of the curves a and b."""
    if a == b:
        raise InputError("edge point needs two distinct curves")
    return TowerStep(new_id=new_id, attach=((a, 1), (b, 1)))


def apply_step(g: DualGraph, step: TowerStep) -> DualGraph:
    """Insert the step's exceptional curve into g (upward surgery):
    ``replay(g, (step,))``."""
    return replay(g, (step,))


def replay(base: DualGraph, steps: Iterable[TowerStep]) -> DualGraph:
    """The graph the steps build on base, in
    :func:`~antinef.graph.dual_graph`'s canonical order: the steps are
    inserted into one set of lists, and only the result is frozen into a
    graph.  This is the one path by which graphs are built up from steps."""
    s = _Surgery(base)
    for step in steps:
        s.insert(step)
    return s.graph()


class _Surgery:
    """A dual graph as mutable lists in canonical order, grown in place by
    :meth:`insert`: ``ids`` and ``verts`` sorted by id, ``edges`` as sorted
    (a, b, m) with a < b.  :meth:`graph` freezes the lists into a DualGraph
    that carries the known definiteness of the graph they came from: a step
    adds an orthogonal (-1)."""

    __slots__ = ("name", "ids", "verts", "edges", "definite")

    def __init__(self, g: DualGraph):
        self.name = g.name
        self.ids = list(g.ids)
        self.verts = list(g.vertices)
        self.edges = list(g.edges)
        self.definite = g.__dict__.get("negative_definite")

    def insert(self, step: TowerStep) -> None:
        """Insert the step's (-1)-curve: each u it meets m times gains -m^2 in
        self-intersection and m in kappa, and each pair of attachments loses
        mu.mw from their edge, which must have it.  The step names a new str
        id and at least one known curve, each once with an int multiplicity
        >= 1.  Each curve and edge touched is found by one bisection, the
        duplicate-id check's giving the new curve's place, so the Python work
        is in len(attach)^2; list insertions and deletions move the rest in C."""
        ids, verts, edges = self.ids, self.verts, self.edges
        new_id, attach = step
        if not isinstance(new_id, str):
            raise InputError(f"a step's new id must be a str, not {type(new_id).__name__}")
        if not attach:
            raise InputError(f"step {new_id!r} attaches to no curve")
        at = []
        for vid, m in attach:
            if not isinstance(vid, str):
                raise InputError(f"a step attaches to curve ids, not {type(vid).__name__}")
            k = bisect_left(ids, vid)
            if k == len(ids) or ids[k] != vid:
                raise InputError(f"step attaches to unknown vertex {vid!r}")
            if isinstance(m, bool) or not isinstance(m, int):
                raise InputError(f"attach multiplicities must be ints, not {type(m).__name__}")
            if m < 1:
                raise InputError("attach multiplicities must be >= 1")
            if k in at:
                raise InputError(f"step attaches to {vid!r} twice")
            at.append(k)
        k = bisect_left(ids, new_id)
        if k < len(ids) and ids[k] == new_id:
            raise InputError(f"vertex id {new_id!r} already exists on {self.name!r}")
        for (u, mu), (w, mw) in combinations(attach, 2):
            a, b = (u, w) if u < w else (w, u)
            j = bisect_left(edges, (a, b))
            have = edges[j][2] if j < len(edges) and edges[j][0] == a and edges[j][1] == b else 0
            if have < mu * mw:
                raise PreconditionError(f"cannot blow up: edge {(a, b)} has multiplicity {have} < {mu * mw}")
            if have == mu * mw:
                del edges[j]
            else:
                edges[j] = (a, b, have - mu * mw)
        for j, (u, m) in zip(at, attach):
            _, e2, kappa = verts[j]
            verts[j] = _new(Vertex, (u, e2 - m * m, kappa + m))
            insort(edges, (u, new_id, m) if u < new_id else (new_id, u, m))
        ids.insert(k, new_id)
        verts.insert(k, _new(Vertex, (new_id, -1, -1)))

    def graph(self) -> DualGraph:
        return DualGraph(self.name, tuple(self.verts), tuple(self.edges), tuple(self.ids), self.definite)


def contract(g: DualGraph, vid: str) -> tuple[DualGraph, TowerStep]:
    """Contract a rational (-1)-curve that meets another curve; returns the
    lower graph and the step that rebuilds g from it: :func:`contract_all`
    limited to vid."""
    p = g.position(vid)
    t = contract_all(g, lambda q, attach: q == p)
    if t.steps:
        return t.bottom, t.steps[0]
    v = g.vertices[p]  # not a candidate: say why
    if v.self_int != -1 or v.kappa != -1:
        raise PreconditionError(
            f"{vid!r} is not a rational (-1)-curve (self {v.self_int}, kappa {v.kappa})"
        )
    raise PreconditionError(f"cannot contract {vid!r}: it meets no other curve")


def candidates(verts: dict[int, Vertex], adj: dict[int, dict[int, int]]) -> Iterator[tuple[int, tuple]]:
    """The curves a contraction may take, in the maps' order: each rational
    (-1)-curve that meets another curve, with its neighbours as sorted (p, m)."""
    for p, v in verts.items():
        if v.self_int == -1 and v.kappa == -1 and adj[p]:
            yield p, tuple(sorted(adj[p].items()))


def contract_positions(g: DualGraph, may_contract: Callable[[int, tuple[tuple[int, int], ...]], bool]) -> tuple:
    """Contract rational (-1)-curves of g, all by position on g: each scan
    takes the first of the :func:`candidates` (p, attach) for which
    ``may_contract(p, attach)`` holds, until none does.  Returns the
    survivors' vertex and neighbour maps, from ``g.sparse_matrix()``, and
    the sequence bottom first.  A rule reads a cycle on g by its ``vec``: a
    contraction keeps the survivors' coefficients."""
    verts = dict(enumerate(g.vertices))
    adj = dict(enumerate(g.sparse_matrix()))
    for p, nb in adj.items():
        del nb[p]  # the diagonal: nb is p's neighbour map
    seq = []
    while True:
        for p, attach in candidates(verts, adj):
            if may_contract(p, attach):
                break
        else:
            break
        # only the curves the contracted one met change
        del verts[p], adj[p]
        for u, mu in attach:
            vid, e2, kappa = verts[u]
            verts[u] = _new(Vertex, (vid, e2 + mu * mu, kappa - mu))
            nb = adj[u]
            del nb[p]
            for w, mw in attach:
                if w != u:
                    nb[w] = nb.get(w, 0) + mu * mw
        seq.append((p, attach))
    return verts, adj, tuple(reversed(seq))


def contract_all(g: DualGraph, may_contract: Callable[[int, tuple[tuple[int, int], ...]], bool]) -> Tower:
    """The sequence of :func:`contract_positions` as a tower with g on top,
    bottom = most contracted, named by :meth:`Tower.contracted`."""
    return Tower.contracted(g, *contract_positions(g, may_contract))


class Tower(NamedTuple("Tower", [("bottom", DualGraph), ("steps", tuple[TowerStep, ...]), ("top", DualGraph)])):
    """A chain of graphs: its bottom (level 0, the most contracted), the
    steps up from it and the top they build, which ``Tower(bottom, steps)``
    replays, checking each step; a builder that holds the top hands it over
    by ``_make``.  Level k is ``replay(bottom, steps[:k])``, built when asked."""

    __slots__ = ()

    def __new__(cls, bottom: DualGraph, steps: Iterable[TowerStep] = ()) -> "Tower":
        steps = tuple(steps)
        return cls._make((bottom, steps, replay(bottom, steps) if steps else bottom))

    def __getnewargs__(self):  # copy and pickle rebuild the tower through its replay
        return self[:2]

    def _replace(self, **fields) -> "Tower":  # through the replay too: a top= is refused
        return type(self)(**{"bottom": self.bottom, "steps": self.steps, **fields})

    @classmethod
    def base(cls, g: DualGraph) -> "Tower":
        return cls(g)

    @classmethod
    def from_steps(cls, base: DualGraph, steps: Iterable[TowerStep]) -> "Tower":
        """The tower the steps build on base; only its top is built."""
        return cls(base, steps)

    @classmethod
    def contracted(cls, g: DualGraph, verts: dict, adj: dict, seq: Sequence[tuple]) -> "Tower":
        """A :func:`contract_positions` result on g, named, and only its bottom
        frozen, with g's definiteness: a contraction removes an orthogonal (-1)."""
        ids = g.ids
        edges = sorted((ids[a], ids[b], m) for a, nb in adj.items() for b, m in nb.items() if a < b)
        bottom = DualGraph(g.name, tuple(verts.values()), tuple(edges), tuple(ids[p] for p in verts),
                           g.__dict__.get("negative_definite"))
        return cls._make((bottom, tuple(_new(TowerStep, (ids[p], tuple([(ids[u], m) for u, m in attach])))
                                        for p, attach in seq), g))

    @property
    def height(self) -> int:
        return len(self.steps)

    @property
    def levels(self) -> tuple[DualGraph, ...]:
        """Every level's graph, bottom first, built in one pass up the steps."""
        s, levels = _Surgery(self.bottom), [self.bottom]
        for step in self.steps:
            s.insert(step)
            levels.append(s.graph())
        return tuple(levels)

    def graph(self, level: int) -> DualGraph:
        """Level k: the stored top or bottom at either end, and otherwise
        :func:`replay` up from the bottom in k steps.  This is the one level
        check: a level that is not an int, or is a bool, raises InputError."""
        if isinstance(level, bool) or not isinstance(level, int):
            raise InputError(f"a tower level must be an int, not {type(level).__name__}")
        if not 0 <= level <= self.height:
            raise InputError(f"tower has levels 0..{self.height}, not {level}")
        if level == self.height:
            return self.top
        return self.bottom if level == 0 else replay(self.bottom, self.steps[:level])

    def blow_up(self, step: TowerStep) -> "Tower":
        return Tower._make((self.bottom, self.steps + (step,), apply_step(self.top, step)))

    def pullback(self, w: Cycle, from_level: int, to_level: int) -> Cycle:
        """Total transform: the unique lift pairing to zero with every
        exceptional curve inserted between the two levels."""
        self._check_cycle(w, from_level)
        top = self.graph(to_level)  # the one level check, before the direction
        if to_level < from_level:
            raise PreconditionError("pullback goes to a level >= its source")
        if to_level == from_level:
            return w if w.graph is top else Cycle(top, w.vec)
        return _carried(w, top, self.steps[from_level:to_level], lift)

    def pushforward(self, w: Cycle, from_level: int, to_level: int) -> Cycle:
        """Restrict coefficients to the curves surviving at the lower level."""
        self._check_cycle(w, from_level)
        target = self.graph(to_level)  # the one level check, before the direction
        if to_level > from_level:
            raise PreconditionError("pushforward goes to a level <= its source")
        return w.restricted_to(target)

    def _check_cycle(self, w: Cycle, level: int) -> None:
        if w.graph != self.graph(level):
            raise PreconditionError(
                f"cycle lives on {w.graph.name!r}, not on tower level {level}"
            )


def lift(acc: MutableSequence | dict, steps: Sequence[tuple], marks: Iterable[int] = repeat(0)):
    """One pass up the steps in place on acc, which holds every curve they
    name, keyed as they name them (a list by position, a dict by id): each
    new curve gets acc[new] = sum m.acc[attach] + mark.  With no marks this
    is the total transform; with every mark 1 the relative canonical cycle,
    the total transform of E_k being E_k plus its lifts onto later curves."""
    for (new, attach), mark in zip(steps, marks):
        acc[new] = sum(m * acc[u] for u, m in attach) + mark
    return acc


def _transport(acc: dict, steps: Sequence[TowerStep]) -> None:
    """The cohomological cycle carried up the steps in place by :func:`transported`."""
    for new, attach in steps:
        acc[new] = transported(acc, attach)


def _carried(w: Cycle, top: DualGraph, steps: Sequence[TowerStep], carry: Callable, *marks: Iterable[int]) -> Cycle:
    """w carried up the steps onto top by ``carry(acc, steps, *marks)``, in
    place on a dict over top's ids, 0 on the curves w's graph lacks."""
    acc = dict(zip(top.ids, w.restricted_to(top).vec))
    carry(acc, steps, *marks)
    return Cycle(top, _normal_vec(acc.values()))


def relative_canonical(t: Tower, top_level: Optional[int] = None, bottom_level: int = 0) -> Cycle:
    """K_{top/bottom}: sum of the total transforms of every exceptional curve
    inserted between the two levels, by one :func:`lift` pass.  Always
    contracts to a smooth point."""
    if top_level is None:
        top_level = t.height
    top = t.graph(top_level)
    t.graph(bottom_level)
    if bottom_level > top_level:
        raise PreconditionError(f"bottom level {bottom_level} is above top level {top_level}")
    k = _carried(zero_cycle(top), top, t.steps[bottom_level:top_level], lift, repeat(1))
    if not contracts_to_smooth(k):
        raise TheoremViolationError("relative canonical cycle fails -K^2 + K.K_X = 0")
    return k


def transported(acc: MutableSequence | dict, attach: Sequence[tuple]) -> Coeff:
    """C's coefficient on a curve inserted with these attachments, C keyed as
    they name curves: max(sum m.C[u] - 1, 0).  For an effective integral C
    and every m >= 1 the sum is positive exactly when the center lies on
    supp C: the total transform less 1 there, else 0."""
    return max(sum(m * acc[u] for u, m in attach) - 1, 0)


def transport_cohom(t: Tower, c_base: Cycle) -> Cycle:
    """The cohomological cycle on the tower's top, carried up from the bottom
    by one pass of :func:`transported`.  A level's C is this transport over
    that level's own steps, the tower cut at the level.  C must be effective
    and integral; then each new coefficient, max(sum m.C[u] - 1, 0), is
    again a non-negative integer."""
    if not c_base.is_effective:
        raise PreconditionError("cohomological cycle must be effective")
    if not c_base.is_integral:
        raise PreconditionError("cohomological cycle must be integral")
    if c_base.graph != t.bottom:
        raise PreconditionError("cohomological cycle must live on the tower's bottom level")
    if c_base.is_zero:  # each step adds sum m.C[u] = 0: zero on every level
        return zero_cycle(t.top)
    return _carried(c_base, t.top, t.steps, _transport)


def associated_pg_cycle(
    t0: Tower,
    z: Cycle,
    branches: Sequence[tuple[str, int]],
    c_base: Cycle,
) -> tuple[Tower, Cycle]:
    """Blow up along the branches of a function divisor until none meets the
    cohomological cycle; returns the extended tower and the transported
    anti-nef cycle.

    ``branches`` lists, per vertex of the tower's top graph, how many
    transverse branches of the strict transform pass through it.  They must
    balance the pairing: branches on E_i = -Z.E_i for every vertex.  A free
    point on supp C lowers C by 1 on the new curve, so each branch through
    E_i is blown up C[E_i] times, branch after branch in the order the records
    first name their curves; the new curves are P1, P2, ... by one counter
    that skips the top's own names, and Z gains each one's total transform.
    """
    g = t0.top
    if z.graph != g:
        raise PreconditionError("cycle must live on the tower's top level")
    if not is_antinef(z):
        raise PreconditionError("associated_pg_cycle needs an anti-nef cycle")
    counts: dict[str, int] = {}
    for vid, n in branches:
        if vid not in g.ids:
            raise InputError(f"branch record names unknown vertex {vid!r}")
        if isinstance(n, bool) or not isinstance(n, int):
            raise InputError("branch counts must be integers")
        if n < 0:
            raise InputError("branch counts must be >= 0")
        counts[vid] = counts.get(vid, 0) + n
    for vid, row in zip(g.ids, z.rows):
        if counts.get(vid, 0) != -row:
            raise PreconditionError(f"branch balance fails on {vid!r}: {counts.get(vid, 0)} branches, -Z.E = {-row}")
    c = transport_cohom(t0, c_base)
    taken, steps = set(g.ids), []
    names = (f"P{k}" for k in count(1) if f"P{k}" not in taken)
    for vid, n in counts.items():
        for _ in range(n):
            tip = vid
            for _ in range(c.coeff(vid)):
                steps.append(free_point(tip, next(names)))
                tip = steps[-1].new_id
    t = Tower._make((t0.bottom, t0.steps + tuple(steps), replay(g, steps)))
    return t, _carried(z, t.top, steps, lift, repeat(1))
