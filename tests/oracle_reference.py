"""Earlier implementations of the library, kept as references.

The brute-force oracles as numpy box enumerations: the implementation that
``antinef.oracle`` replaced with one pruned depth-first search in exact
integers, unchanged apart from its imports.  ``test_oracle_reference.py``
checks that both give the same answers on small random graphs and towers.
It enumerates the box in int64, so it refuses inputs whose intersection
numbers could overflow.

Laufer's closure as a loop over a dict keyed by vertex id: the
``lattice.antinef_closure`` that ``graph.laufer_closure``'s index-space
kernel replaced, unchanged apart from its imports.  ``test_lattice.py``
checks that both make the same raises in the same order.

Cycles as sorted (id, coefficient) pairs with a dict beside them, and the
pairings that walked the graph's edges and adjacency by vertex id: the
``Cycle``, ``cycle``, ``pair``, ``row_pairing``, ``k_dot`` and
``is_antinef`` that the vertex-ordered vector and its cached M.Z replaced,
unchanged apart from the class's name and ``has_vertex`` written out.
``test_oracle_reference.py`` checks that both give the same values, types,
coefficients, text and equality.

The depth-first search that stepped through every value of the box and
rejected a value by ``row_ok(row, (M x)_row)`` once its row was complete,
and visited one point at a time: the ``oracle._search`` that per-row bounds,
less what the unset coordinates can add, intersected into one interval of
admissible values per depth, and the last depth's interval handed over as
one run, replaced, unchanged apart from its name.
``test_oracle_reference.py`` checks that both visit the same points in the
same order, with the new search's runs expanded.

The dense fraction-free determinant: the ``graph.det_bareiss`` that the
graph's one sparse elimination replaced, unchanged.  ``test_graph.py``
checks the elimination's ``det`` and definiteness against it, and the
wrapper that ``det_bareiss`` now is.  Beside it, the leading principal
minors from one dense pass without pivoting, for Sylvester's criterion on
graphs of up to 40 vertices.

Connectivity as a walk of the adjacency by vertex id: the check in
``graph.validate_graph`` that a walk by position over the graph's cached
rows replaced, unchanged apart from returning what it does not reach.
``test_graph.py`` checks ``connected`` and the ``unreachable:`` text
against it.

Contraction rules on the step that would re-insert a curve: ``excess``, -W.E
read from a dict keyed by vertex id, is the ``birational.excess`` that rules
reading a cycle's vector by position replaced, unchanged; ``by_step`` runs a
rule on such steps in ``contract_all``, which passes positions.
``test_birational.py`` checks that both kinds of rule build the same towers,
and colon/core's b and Y against ``excess`` and ``lift``.

Cycles carried up a tower's steps as dicts keyed by vertex id, a curve with
coefficient 0 left out: the ``lift`` and ``transported`` that
``birational``'s key-agnostic ones replaced, unchanged.  Those run in place
on a container that holds every curve the steps name.
``test_birational.py`` checks pullbacks, relative canonical cycles, the
transported cohomological cycle, the associated p_g-cycle and colon/core's
Y against them.

Goodness on a frozen lower graph, scanned by vertex id: the
``ideals.is_good`` that the positional contraction core and its one
candidate rule replaced, unchanged.  ``test_ideals.py`` checks that both
give the same answer, and colon/core's.

Contraction by rescan: the ``birational.contract_positions`` that scanned
the candidates from the first curve again after every contraction, which a
worklist by position replaced, unchanged.  ``test_birational.py`` checks
that both leave the same survivors and make the same sequence under the
library's rules and random pure ones.

A graph's neighbours by vertex id, in edge order: the ``DualGraph.adjacency``
that no module of the library read any more, as a function of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from antinef.birational import TowerStep, candidates, contract_all
from antinef.errors import InputError, PreconditionError, TheoremViolationError
from antinef.graph import (Coeff, Cycle, DualGraph, Vertex, _Frozen, _graph_mismatch, _new, _set, cycle, normal,
                           zero_cycle)
from antinef.ideals import IdealRep, _off_c

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 1 << 18


@dataclass(frozen=True)
class SearchBound:
    max_coeff: int = 6
    max_vertices: int = 12
    max_candidates: int = 20_000_000

    def __post_init__(self):
        if self.max_coeff < 1 or self.max_vertices < 1:
            raise PreconditionError("search bounds must be positive")


def default_bound(z: Cycle) -> SearchBound:
    top = max((c for _, c in z.coeffs), default=1)
    return SearchBound(max_coeff=2 * top + 2)


def _guard(g: DualGraph, ranges: list[int], bound: SearchBound, max_abs: int) -> int:
    """Check the search bounds, and that no W.M.W + K.W over the box, with
    |W_i| <= max_abs, can overflow the int64 enumeration."""
    n = len(g.vertices)
    if n > bound.max_vertices:
        raise PreconditionError(
            f"graph has {n} vertices, oracle bound allows {bound.max_vertices}"
        )
    total = 1
    for r in ranges:
        total *= r
    if total > bound.max_candidates:
        raise PreconditionError(
            f"{total} candidates exceed the oracle search bound {bound.max_candidates}"
        )
    m_max = max([abs(v.self_int) for v in g.vertices] + [m for _, _, m in g.edges])
    k_max = max(abs(v.kappa) for v in g.vertices)
    if n * n * max_abs * max_abs * m_max + n * max_abs * k_max >= 1 << 63:
        raise PreconditionError(
            "intersection numbers over the search box would overflow the oracle's int64 arithmetic"
        )
    return total


def _boxes(ranges: list[int], offsets: Optional[list[int]] = None) -> Iterator[np.ndarray]:
    """Yield chunks of the integer box prod(range(r_i)) (+ offsets) as arrays."""
    import numpy as np

    r = len(ranges)
    total = 1
    for n in ranges:
        total *= n
    strides = [1] * r
    for i in range(r - 2, -1, -1):
        strides[i] = strides[i + 1] * ranges[i + 1]
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        out = np.empty((hi - lo, r), dtype=np.int64)
        for i in range(r):
            out[:, i] = (idx // strides[i]) % ranges[i]
            if offsets is not None:
                out[:, i] += offsets[i]
        yield out


def enumerate_max_Y(
    z: Cycle, c: Cycle, bound: Optional[SearchBound] = None
) -> Optional[Cycle]:
    """Definition-level search for the maximal cycle Y with 0 <= Y <= Z,
    -Y^2 + K.Y = 0, Z - Y anti-nef, and Z - Y of degree zero on supp C.

    Returns the coefficient-wise maximum among the admissible candidates, or
    None when no unique maximum exists (a theorem violation on valid input).
    """
    import numpy as np

    g = z.graph
    if bound is None:
        bound = default_bound(z)
    if not z.is_effective or not z.is_integral:
        raise PreconditionError("oracle needs an effective integral Z")
    zv = z.vector()
    ranges = [min(v, bound.max_coeff) + 1 for v in zv]
    _guard(g, ranges, bound, max(zv))
    zv = np.array(zv, dtype=np.int64)
    m = np.array(g.matrix(), dtype=np.int64)
    kappa = np.array([v.kappa for v in g.vertices], dtype=np.int64)
    supp_c = [g._index[vid] for vid in c.support] if not c.is_zero else []
    best = None
    for ys in _boxes(ranges):
        ym = ys @ m
        quad = (ym * ys).sum(axis=1)
        smooth = (-quad + ys @ kappa) == 0
        rows = (zv - ys) @ m
        antinef = (rows <= 0).all(axis=1)
        keep = smooth & antinef
        if supp_c:
            keep &= (rows[:, supp_c] == 0).all(axis=1)
        keep |= (ys == 0).all(axis=1)  # Y = 0 is always admissible
        kept = ys[keep]
        if kept.size:
            cand = kept.max(axis=0)
            best = cand if best is None else np.maximum(best, cand)
    # if the admissible set has a maximum it equals the coefficient-wise max,
    # so admissibility of that vector decides uniqueness
    if best is None:
        return None
    y = cycle(g, dict(zip(g.ids, (int(v) for v in best))))
    if _admissible(z, y, c):
        return y
    return None


def _admissible(z: Cycle, y: Cycle, c: Cycle) -> bool:
    from antinef.lattice import is_antinef, k_dot, pair, row_pairing

    if y.is_zero:
        return True
    if not (z - y).is_effective:
        return False
    if -pair(y, y) + k_dot(y) != 0:
        return False
    if not is_antinef(z - y):
        return False
    return all(row_pairing(z - y, vid) == 0 for vid in c.support)


def antinef_closure_bruteforce(d: Cycle, bound: SearchBound) -> Optional[Cycle]:
    """Pointwise minimum of the nonzero anti-nef cycles X >= d with every
    coefficient <= max_coeff, by exhaustive search; None when the box holds
    none.  The definition-level cross-check of ``lattice.antinef_closure``."""
    import numpy as np

    g = d.graph
    lows = [max(c, 0) for c in d.vector()]
    ranges = [max(bound.max_coeff + 1 - lo, 0) for lo in lows]
    _guard(g, ranges, bound, bound.max_coeff)
    m = np.array(g.matrix(), dtype=np.int64)
    best = None
    for xs in _boxes(ranges, lows):
        keep = ((xs @ m) <= 0).all(axis=1) & (xs != 0).any(axis=1)
        kept = xs[keep]
        if kept.size:
            low = kept.min(axis=0)
            best = low if best is None else np.minimum(best, low)
    return None if best is None else cycle(g, dict(zip(g.ids, (int(v) for v in best))))


def fundamental_cycle_bruteforce(g: DualGraph, bound: SearchBound) -> Cycle:
    """Pointwise-minimal nonzero anti-nef cycle by exhaustive search.

    If any anti-nef cycle exists within the box, the true fundamental cycle
    lies below it, hence inside the box, so the pointwise minimum over the
    admissible set is exact whenever the search finds anything at all.
    """
    import numpy as np

    z = antinef_closure_bruteforce(zero_cycle(g), bound)
    if z is None:
        raise PreconditionError(
            f"no anti-nef cycle with coefficients <= {bound.max_coeff}; raise the bound"
        )
    rows = np.array(z.vector(), dtype=np.int64) @ np.array(g.matrix(), dtype=np.int64)
    if (rows > 0).any() or z.is_zero:
        raise TheoremViolationError(
            "pointwise minimum of anti-nef candidates is not anti-nef"
        )
    return z


def negdef_bruteforce(g: DualGraph, bound: SearchBound) -> bool:
    """Check W.W < 0 for every nonzero W with |coefficients| <= max_coeff."""
    import numpy as np

    b = bound.max_coeff
    ranges = [2 * b + 1] * len(g.vertices)
    _guard(g, ranges, bound, b)
    m = np.array(g.matrix(), dtype=np.int64)
    offsets = [-b] * len(g.vertices)
    for ws in _boxes(ranges, offsets):
        quad = ((ws @ m) * ws).sum(axis=1)
        nonzero = (ws != 0).any(axis=1)
        if (quad[nonzero] >= 0).any():
            return False
    return True


def stepping_search(
    g: DualGraph,
    lows: list[int],
    highs: list[int],
    row_ok: Callable[[int, int], bool],
    visit: Callable[[list[int], int], bool],
) -> bool:
    """Depth-first search of the box lows <= x <= highs (vertex order).

    Vertices are assigned in breadth-first order, each component from a
    vertex of highest degree.  Row i, (M x)_i, goes to ``row_ok(i, row)`` at
    the depth where x_i and all its neighbours are set, and the branch is cut
    when it fails.  Every surviving point goes to ``visit(x, x.M.x)``; the
    search stops, returning True, as soon as a visit returns True.  ``x`` is
    the search's own buffer, so a visit copies what it keeps.
    """
    n = len(g.vertices)
    diag = [v.self_int for v in g.vertices]
    # column i of M as (row, entry) pairs: the diagonal, then the neighbours;
    # M is symmetric, so these are its rows
    column = [list(row.items()) for row in g.sparse_matrix()]
    order: list[int] = []
    for start in sorted(range(n), key=lambda i: -len(column[i])):
        if start not in order:
            order.append(start)
            for i in order:  # grows as it goes: breadth-first
                order += [j for j, _ in column[i] if j not in order]
    depth = [order.index(i) for i in range(n)]
    # row i is complete at the depth of the last of i and its neighbours
    due = [[i for i in range(n) if max(depth[j] for j, _ in column[i]) == d] for d in range(n)]

    x = [0] * n
    rows = [0] * n  # M x, with every vertex not yet assigned at 0
    quad = [0] * n  # quad[d]: x.M.x over the first d vertices

    def move(i: int, delta: int) -> None:
        x[i] += delta
        for j, m in column[i]:
            rows[j] += m * delta

    d = 0
    move(order[0], lows[order[0]])
    while d >= 0:
        i = order[d]
        v = x[i]
        if v > highs[i]:
            move(i, -v)
            d -= 1
            if d >= 0:
                move(order[d], 1)
            continue
        for k in due[d]:
            if not row_ok(k, rows[k]):
                break
        else:
            q = quad[d] + v * (2 * rows[i] - diag[i] * v)
            if d < n - 1:
                d += 1
                quad[d] = q
                move(order[d], lows[order[d]])
                continue
            if visit(x, q):
                return True
        move(i, 1)
    return False


def antinef_closure(d: Cycle, on_step: Optional[Callable[[str, int], None]] = None) -> Cycle:
    """Least anti-nef cycle >= D (Laufer's algorithm with jumps).

    While some vertex has Z.E_i > 0 its coefficient is raised by
    ceil(Z.E_i / -E_i^2) in one step: every anti-nef W >= Z has at least that
    much more there, because the off-diagonal entries are >= 0.  Vertices are
    visited in ascending id order for reproducible traces; the least fixed
    point is order-independent.  ``on_step(vid, new_coeff)`` sees each raise.

    The loop terminates on a negative-definite graph.  Definiteness is decided
    once, by one elimination, at the first raise past the n-th or at a vertex
    with E_i^2 >= 0; a graph that is not negative definite raises
    PreconditionError there.
    """
    if d.is_zero or not d.is_effective:
        raise PreconditionError("antinef_closure needs an effective nonzero cycle")
    if not d.is_integral:
        raise PreconditionError("antinef_closure needs an integral cycle")
    g = d.graph
    adj = adjacency(g)
    coeffs = {vid: d.coeff(vid) for vid in g.ids}
    raises = 0
    checked = False
    dirty = True
    while dirty:
        dirty = False
        for vid in g.ids:
            e2 = g.vertex(vid).self_int
            row = coeffs[vid] * e2
            for other, m in adj[vid]:
                row += m * coeffs[other]
            if row > 0:
                if not checked and (raises >= len(coeffs) or e2 >= 0):
                    checked = True
                    if not g.negative_definite:
                        raise PreconditionError(
                            f"antinef_closure needs a negative-definite graph; {g.name!r} is not"
                        )
                coeffs[vid] -= row // e2  # row > 0 > e2: a raise by ceil(row / -e2)
                raises += 1
                if on_step is not None:
                    on_step(vid, coeffs[vid])
                dirty = True
    return cycle(g, coeffs)


# --- cycles as (id, coefficient) pairs, keyed by vertex id ---------------------


class KeyedCycle(_Frozen):
    """Exact coefficient vector on the vertices of a dual graph.

    Coefficients are integers or Fractions in lowest terms; integral values
    are stored as int.  Absent vertices have coefficient 0.  Immutable; all
    arithmetic returns fresh cycles.
    """

    def __init__(self, graph: DualGraph, coeffs: tuple[tuple[str, Coeff], ...]):
        _set(self, "graph", graph)
        _set(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.graph == other.graph and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.graph, self.coeffs))

    @cached_property
    def _map(self) -> dict[str, Coeff]:
        return dict(self.coeffs)

    def coeff(self, vid: str) -> Coeff:
        if vid not in self.graph._index:
            raise InputError(f"graph {self.graph.name!r} has no vertex {vid!r}")
        return self._map.get(vid, 0)

    def as_dict(self) -> dict[str, Coeff]:
        return dict(self.coeffs)

    def vector(self) -> list[Coeff]:
        return [self._map.get(vid, 0) for vid in self.graph.ids]

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(vid for vid, _ in self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for _, c in self.coeffs)

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for _, c in self.coeffs)

    def _binop(self, other: "KeyedCycle", sign: int) -> "KeyedCycle":
        if self.graph != other.graph:
            raise _graph_mismatch(self.graph, other.graph)
        data = dict(self._map)
        for vid, c in other.coeffs:
            data[vid] = data.get(vid, 0) + sign * c
        return keyed_cycle(self.graph, data)

    def __add__(self, other: "KeyedCycle") -> "KeyedCycle":
        return self._binop(other, 1)

    def __sub__(self, other: "KeyedCycle") -> "KeyedCycle":
        return self._binop(other, -1)

    def __mul__(self, scalar: Coeff) -> "KeyedCycle":
        return keyed_cycle(self.graph, {vid: scalar * c for vid, c in self.coeffs})

    __rmul__ = __mul__

    def __neg__(self) -> "KeyedCycle":
        return self * -1

    def dominates(self, other: "KeyedCycle") -> bool:
        """Coefficient-wise self >= other."""
        if self.graph != other.graph:
            raise _graph_mismatch(self.graph, other.graph)
        keys = set(self._map) | set(other._map)
        return all(self._map.get(k, 0) >= other._map.get(k, 0) for k in keys)

    def restricted_to(self, target: DualGraph) -> "KeyedCycle":
        """Drop coefficients on vertices absent from *target*."""
        if target is self.graph:
            return self
        return keyed_cycle(target, {vid: c for vid, c in self.coeffs if vid in target._index})

    def __repr__(self) -> str:
        return f"Cycle(graph={self.graph!r}, coeffs={self.coeffs!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{vid}" for vid, c in self.coeffs)


def keyed_cycle(graph: DualGraph, data: Mapping[str, Coeff] | Iterable[tuple[str, Coeff]] = ()) -> KeyedCycle:
    items = data.items() if isinstance(data, Mapping) else data
    acc: dict[str, Coeff] = {}
    for vid, c in items:
        if vid not in graph._index:
            raise InputError(f"cycle names unknown vertex {vid!r} on graph {graph.name!r}")
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise InputError(f"coefficient for {vid!r} must be an integer or Fraction, got {type(c).__name__}")
        acc[vid] = acc.get(vid, 0) + c
    order = graph._index
    return KeyedCycle(graph=graph, coeffs=tuple(sorted(((v, normal(c)) for v, c in acc.items() if c != 0), key=lambda it: order[it[0]])))


def pair(w: KeyedCycle, v: KeyedCycle) -> Coeff:
    """Intersection number W.V under the graph's bilinear form."""
    if w.graph != v.graph:
        raise _graph_mismatch(w.graph, v.graph)
    g = w.graph
    wm, vm = w._map, v._map
    total: Coeff = 0
    for vid, c in w.coeffs:
        total += c * g.vertex(vid).self_int * vm.get(vid, 0)
    for a, b, m in g.edges:
        total += m * (wm.get(a, 0) * vm.get(b, 0) + wm.get(b, 0) * vm.get(a, 0))
    return normal(total)


def row_pairing(z: KeyedCycle, vid: str) -> Coeff:
    """Z.E_i for a single vertex, without building a unit cycle."""
    g, coeffs = z.graph, z._map
    nb = sum(m * coeffs.get(u, 0) for u, m in adjacency(g)[vid])
    return normal(coeffs.get(vid, 0) * g.vertex(vid).self_int + nb)


def k_dot(w: KeyedCycle) -> Coeff:
    """K.W = sum of coefficients weighted by canonical degrees."""
    total: Coeff = 0
    for vid, c in w.coeffs:
        total += c * w.graph.vertex(vid).kappa
    return normal(total)


def is_antinef(z: KeyedCycle) -> bool:
    """True iff Z.E_i <= 0 for every vertex."""
    return all(row_pairing(z, vid) <= 0 for vid in z.graph.ids)


# --- the dense determinant ---------------------------------------------------


def det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leading_minors(m: list[list[int]]) -> list[int]:
    """The leading principal minors of an integer matrix, read off one
    fraction-free elimination without pivoting: its k-th pivot is the k-th
    minor.  The pass stops at the first zero minor, the last one listed."""
    n = len(m)
    a = [row[:] for row in m]
    minors = []
    prev = 1
    for k in range(n):
        p = a[k][k]
        minors.append(p)
        if p == 0:
            break
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * p - a[i][k] * a[k][j]) // prev
        prev = p
    return minors


# --- connectivity by vertex id -----------------------------------------------


def unreachable(g: DualGraph) -> list[str]:
    """The ids, sorted, that a walk of the adjacency by vertex id from the
    first vertex never reaches."""
    reach = {g.vertices[0].id}
    frontier = [g.vertices[0].id]
    adj = adjacency(g)
    while frontier:
        nxt = frontier.pop()
        for other, _ in adj[nxt]:
            if other not in reach:
                reach.add(other)
                frontier.append(other)
    return sorted(set(g.ids) - reach)


def adjacency(g: DualGraph) -> dict[str, tuple[tuple[str, int], ...]]:
    """Each curve's neighbours as (id, multiplicity), in edge order."""
    adj: dict[str, list[tuple[str, int]]] = {v.id: [] for v in g.vertices}
    for a, b, m in g.edges:
        adj[a].append((b, m))
        adj[b].append((a, m))
    return {vid: tuple(nb) for vid, nb in adj.items()}


# --- contraction by rescan, by position --------------------------------------


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


# --- contraction rules on steps, by vertex id --------------------------------


def excess(coeffs: Mapping[str, Coeff], step: TowerStep) -> Coeff:
    """W[E] - sum m.W[u] over the step's attachments, for the curve E the
    step inserts: -W.E, since E^2 = -1 and E meets each u m times."""
    return coeffs.get(step.new_id, 0) - sum(m * coeffs.get(u, 0) for u, m in step.attach)


def by_step(g: DualGraph, rule: Callable[[TowerStep], bool]) -> Callable[[int, tuple], bool]:
    """A rule on the step that would re-insert a curve as a rule of
    ``contract_all(g, ...)``, which passes the curve and its attachments by
    position on g."""
    ids = g.ids
    return lambda p, attach: rule(TowerStep(ids[p], tuple((ids[q], m) for q, m in attach)))


# --- cycles carried up the steps, by vertex id -------------------------------


def lift(
    coeffs: dict[str, Coeff], steps: Sequence[TowerStep], marks: Optional[Sequence[int]] = None
) -> dict[str, Coeff]:
    """One pass up the steps, bottom first: the total transform of a cycle
    plus, for each step k, marks[k] times the total transform of the curve
    step k inserts.  Each new curve gets acc[new] = sum m.acc[attach] + mark.

    With no marks this is the pullback; with every mark 1 it is the relative
    canonical cycle, since the total transform of E_k is E_k plus the lifts
    of E_k onto every later curve.
    """
    acc = dict(coeffs)
    for k, step in enumerate(steps):
        c = sum(m * acc.get(vid, 0) for vid, m in step.attach)
        if marks is not None:
            c += marks[k]
        if c != 0:
            acc[step.new_id] = c
    return acc


def transported(coeffs: Mapping, attach: Sequence[tuple]) -> Coeff:
    """The cohomological cycle's coefficient on a curve inserted with these
    attachments, C keyed as they name curves: max(sum m.C[u] - 1, 0).  For
    an effective integral C and every m >= 1 the sum is positive exactly
    when the center lies on supp C: the total transform less 1 there, else 0."""
    return max(sum(m * coeffs.get(u, 0) for u, m in attach) - 1, 0)


# --- goodness on a frozen lower graph, by vertex id ---------------------------


def is_good(ideal: IdealRep) -> bool:
    """Minimal-representation criterion: after contracting (-1)-curves with
    Z.E = 0, no rational (-1)-curve that meets another curve misses the
    cohomological cycle."""
    if not ideal.pg_numeric:
        raise PreconditionError("is_good needs a numerically-p_g ideal")
    # a contraction keeps the survivors' coefficients: pi_* Z and pi_* C are
    # Z and C read on the curves that are left, by their positions on g
    g, zv = ideal.z.graph, ideal.z.vec
    low = contract_all(g, lambda p, attach: zv[p] == sum(m * zv[q] for q, m in attach)).bottom
    off_c, at = _off_c(ideal.c), g.position
    return not any(
        v.self_int == -1 and v.kappa == -1 and nb and off_c(at(v.id), tuple((at(u), m) for u, m in nb))
        for v, nb in zip(low.vertices, adjacency(low).values())
    )
