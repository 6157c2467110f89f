"""Weighted dual graphs and exact cycle arithmetic.

A dual graph records the exceptional curves of a resolution of a normal
surface singularity: one vertex per irreducible curve, weighted by its
self-intersection and its canonical degree kappa = K.E, with edges giving
the pairwise intersection numbers.  Everything is exact: coefficients are
arbitrary-precision integers or ``fractions.Fraction``; no floats anywhere.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cached_property
from operator import add, ge, sub
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import InputError, PreconditionError

Coeff = Union[int, Fraction]


_set = object.__setattr__  # how the fields of a _Frozen are set, once, in __init__
_new = tuple.__new__  # builds a Vertex (or a TowerStep) in C, past the NamedTuple's Python __new__


class _Frozen:
    """Read-only attributes for the classes that cache: :class:`DualGraph`,
    :class:`Cycle` and :class:`Elimination`.  Plain instance attributes, not
    a tuple, because ``cached_property`` stores what it computes in ``__dict__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Vertex(NamedTuple):
    id: str
    self_int: int
    kappa: int


class DualGraph(_Frozen):
    def __init__(self, name: str, vertices: tuple[Vertex, ...], edges: tuple[tuple[str, str, int], ...],
                 _ids: Optional[tuple[str, ...]] = None, _definite: Optional[bool] = None):
        # a builder that knows them, as a surgery does, seeds ids and negative_definite
        _set(self, "name", name)
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        for key, seed in (("ids", _ids), ("negative_definite", _definite)):
            if seed is not None:
                _set(self, key, seed)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            self.name == other.name and self.vertices == other.vertices and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.name, self.vertices, self.edges))

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.ids, range(len(self.vertices))))

    def position(self, vid: str) -> int:
        """The index of vid in vertex order; an unknown vertex raises InputError."""
        try:
            return self._index[vid]
        except KeyError:
            raise InputError(f"graph {self.name!r} has no vertex {vid!r}") from None

    def vertex(self, vid: str) -> Vertex:
        return self.vertices[self.position(vid)]

    def matrix(self) -> list[list[int]]:
        """Intersection matrix in vertex order, :meth:`sparse_matrix` written out densely."""
        n = len(self.vertices)
        return [[row.get(j, 0) for j in range(n)] for row in self.sparse_matrix()]

    def sparse_matrix(self) -> list[dict[int, int]]:
        """Intersection matrix in vertex order, one {column: entry} map per row:
        the diagonal first, then the neighbours in edge order."""
        rows = [{k: v.self_int} for k, v in enumerate(self.vertices)]
        for a, b, mult in self.edges:
            i, j = self._index[a], self._index[b]
            rows[i][j] = rows[j][i] = mult
        return rows

    @cached_property
    def _elimination(self) -> Elimination:
        """The graph's one elimination, M with -kappa beside it: definiteness,
        det M and the canonical cycle's coefficients together."""
        return _eliminate(self.sparse_matrix(), [-v.kappa for v in self.vertices])

    @cached_property
    def negative_definite(self) -> bool:
        """Sylvester's criterion on the intersection form, from the one
        elimination or the definiteness its surgery carried."""
        return self._elimination.negative_definite

    @cached_property
    def _rows(self) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
        """:meth:`sparse_matrix` by vertex index as (E_i^2, neighbour pairs), for the closure and M.Z."""
        return tuple((row.pop(i), tuple(row.items())) for i, row in enumerate(self.sparse_matrix()))

    @cached_property
    def _off_c_towers(self) -> dict[tuple[Coeff, ...], tuple]:
        """(bottom, steps, the steps by position here) of each checked contraction
        sequence off a cohomological cycle C, by C's vector on this graph; none
        refers to this graph.  Filled by :mod:`antinef.ideals`."""
        return {}

    @cached_property
    def _zf(self) -> tuple[int, ...]:
        """Artin's fundamental cycle as :class:`Cycle` holds it, closed once from
        the first vertex by :func:`antinef.lattice.antinef_closure`, like every closure."""
        from .lattice import antinef_closure  # lattice imports this module

        return antinef_closure(unit_cycle(self, self.ids[0])).vec

    def __repr__(self) -> str:  # keep pytest diffs readable
        vs = ", ".join(f"{v.id}({v.self_int},{v.kappa})" for v in self.vertices)
        return f"DualGraph({self.name}: {vs})"


def dual_graph(
    name: str,
    vertices: Iterable[tuple[str, int, int] | Vertex],
    edges: Iterable[tuple[str, str] | tuple[str, str, int]] = (),
) -> DualGraph:
    """Build a graph, normalizing edges; structural problems raise InputError.

    Mathematical invariants (negative definiteness, connectivity, adjunction)
    are checked by :func:`validate_graph`, never here, so that invalid graphs
    can be constructed and reported on.
    """
    vs: list[Vertex] = []
    for v in vertices:
        vs.append(v if isinstance(v, Vertex) else _new(Vertex, (str(v[0]), int(v[1]), int(v[2]))))
    if not vs:
        raise InputError("a dual graph needs at least one vertex")
    seen = set()
    for v in vs:
        if v.id in seen:
            raise InputError(f"duplicate vertex id {v.id!r}")
        seen.add(v.id)
    merged: dict[tuple[str, str], int] = {}
    for e in edges:
        a, b = str(e[0]), str(e[1])
        m = int(e[2]) if len(e) > 2 else 1
        if a not in seen or b not in seen:
            raise InputError(f"edge ({a!r},{b!r}) references an unknown vertex")
        if a == b:
            raise InputError(f"self-loop on {a!r} is not allowed")
        if m < 1:
            raise InputError(f"edge ({a!r},{b!r}) has multiplicity {m} < 1")
        key = (a, b) if a < b else (b, a)
        merged[key] = merged.get(key, 0) + m
    # canonical order: rebuilding the same graph by a different route
    # (e.g. contracting and re-inserting a curve) must compare equal
    vs.sort(key=lambda v: v.id)
    etup = tuple((a, b, m) for (a, b), m in sorted(merged.items()))
    return DualGraph(name=name, vertices=tuple(vs), edges=etup)


class Cycle(_Frozen):
    """Exact coefficient vector on the vertices of a dual graph.

    ``vec`` holds one coefficient per vertex, aligned with ``graph.ids``,
    zeros included: integers or Fractions in lowest terms, an integral value
    stored as int (:func:`normal`).  :func:`cycle` is the checked builder.
    ``coeffs`` is the nonzero (id, coefficient) pairs in vertex order, and
    ``rows`` is M.Z, the degrees Z.E_i in vertex order, computed once from
    the graph's cached rows; every pairing reads it.  Immutable; all
    arithmetic returns fresh cycles, and M.Z being linear, ``+``, ``-`` and
    ``*`` carry it whenever every operand's is built.
    """

    def __init__(self, graph: DualGraph, vec: tuple[Coeff, ...], _rows: Optional[tuple[Coeff, ...]] = None):
        _set(self, "graph", graph)
        _set(self, "vec", vec)
        if _rows is not None:  # M.Z, carried by the arithmetic below
            _set(self, "rows", _rows)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.graph == other.graph and self.vec == other.vec)

    def __hash__(self):
        return hash((self.graph, self.vec))

    @cached_property
    def rows(self) -> tuple[Coeff, ...]:
        z, rows = self.vec, []
        for c, (e2, nbrs) in zip(z, self.graph._rows):
            row = c * e2
            for j, m in nbrs:
                row += m * z[j]
            rows.append(row)
        return _normal_vec(rows)

    @property
    def coeffs(self) -> tuple[tuple[str, Coeff], ...]:
        return tuple((vid, c) for vid, c in zip(self.graph.ids, self.vec) if c)

    def coeff(self, vid: str) -> Coeff:
        return self.vec[self.graph.position(vid)]

    def as_dict(self) -> dict[str, Coeff]:
        return dict(self.coeffs)

    def vector(self) -> list[Coeff]:
        return list(self.vec)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(vid for vid, c in zip(self.graph.ids, self.vec) if c)

    @property
    def is_zero(self) -> bool:
        return not any(self.vec)

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.vec)

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.vec)

    def _binop(self, other: "Cycle", op: Callable[[Coeff, Coeff], Coeff]) -> "Cycle":
        if self.graph != other.graph:
            raise _graph_mismatch(self.graph, other.graph)
        r, q = self.__dict__.get("rows"), other.__dict__.get("rows")
        rows = None if r is None or q is None else _normal_vec(map(op, r, q))
        return Cycle(self.graph, _normal_vec(map(op, self.vec, other.vec)), rows)

    def __add__(self, other: "Cycle") -> "Cycle":
        return self._binop(other, add)

    def __sub__(self, other: "Cycle") -> "Cycle":
        return self._binop(other, sub)

    def __mul__(self, scalar: Coeff) -> "Cycle":
        if not isinstance(scalar, (int, Fraction)):
            raise InputError(f"a cycle's scalar must be an integer or Fraction, got {type(scalar).__name__}")
        r = self.__dict__.get("rows")
        rows = None if r is None else _normal_vec(scalar * x for x in r)
        return Cycle(self.graph, _normal_vec(scalar * c for c in self.vec), rows)

    __rmul__ = __mul__

    def __neg__(self) -> "Cycle":
        return self * -1

    def dominates(self, other: "Cycle") -> bool:
        """Coefficient-wise self >= other."""
        if self.graph != other.graph:
            raise _graph_mismatch(self.graph, other.graph)
        return all(map(ge, self.vec, other.vec))

    def restricted_to(self, target: DualGraph) -> "Cycle":
        """Drop coefficients on vertices absent from *target*."""
        if target is self.graph:
            return self
        coeffs = dict(zip(self.graph.ids, self.vec))
        return Cycle(target, tuple(coeffs.get(vid, 0) for vid in target.ids))

    def __repr__(self) -> str:
        return f"Cycle(graph={self.graph!r}, coeffs={self.coeffs!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*{vid}" for vid, c in self.coeffs)


def _graph_mismatch(g1: DualGraph, g2: DualGraph) -> PreconditionError:
    return PreconditionError(f"cycles live on different graphs ({g1.name!r} vs {g2.name!r})")


def cycle(graph: DualGraph, data: Mapping[str, Coeff] | Iterable[tuple[str, Coeff]] = ()) -> Cycle:
    items = data.items() if isinstance(data, Mapping) else data
    index = graph._index
    vec: list[Coeff] = [0] * len(index)
    for vid, c in items:
        if vid not in index:
            raise InputError(f"cycle names unknown vertex {vid!r} on graph {graph.name!r}")
        if isinstance(c, bool) or not isinstance(c, (int, Fraction)):
            raise InputError(f"coefficient for {vid!r} must be an integer or Fraction, got {type(c).__name__}")
        vec[index[vid]] += c
    return Cycle(graph, _normal_vec(vec))


def normal(c: Coeff) -> Coeff:
    """The one normal form of a coefficient: a Fraction with denominator 1
    becomes an int, anything else is returned as it is."""
    return int(c) if isinstance(c, Fraction) and c.denominator == 1 else c


def _normal_vec(values: Iterable[Coeff]) -> tuple[Coeff, ...]:
    """:func:`normal` on every value, skipped when all are ints already."""
    vec = tuple(values)
    return vec if {int}.issuperset(map(type, vec)) else tuple(map(normal, vec))


def zero_cycle(graph: DualGraph) -> Cycle:
    return Cycle(graph, (0,) * len(graph.vertices))


def unit_cycle(graph: DualGraph, vid: str) -> Cycle:
    return cycle(graph, {vid: 1})


# --- validation ----------------------------------------------------------


class ValidationReport(NamedTuple):
    connected: bool
    negative_definite: bool
    adjunction_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.connected and self.negative_definite and self.adjunction_ok


def det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant of a symmetric integer matrix, by the one elimination, :func:`_eliminate`."""
    return _eliminate([dict(enumerate(row)) for row in m]).det


class Elimination(_Frozen):
    """Outcome of one fraction-free elimination of an intersection matrix M.

    ``negative_definite`` is Sylvester's criterion on -M and ``det`` is det M.
    ``solution`` is the x with M x = rhs when a right-hand side was given and
    M is nonsingular (otherwise None), back-substituted in integers from the
    pivot steps when first read, an entry an int where the last pivot divides
    it, else a Fraction (:func:`normal`); the steps are dropped once it is built.
    """

    def __init__(self, negative_definite: bool, det: int, steps: Optional[list] = None):
        _set(self, "negative_definite", negative_definite)
        _set(self, "det", det)
        _set(self, "_steps", steps)  # (pivot column, pivot row, rhs entry) per step

    @cached_property
    def solution(self) -> Optional[tuple[Coeff, ...]]:
        steps = self._steps
        if steps is None:
            return None
        c, row, _ = steps[-1]
        p = row[c]  # y = p x is integral (Cramer), so every division below is exact
        y = [0] * len(steps)
        for c, row, br in reversed(steps):
            v = p * br
            for j, x in row.items():  # y[c] is still 0
                v -= x * y[j]
            y[c] = v // row[c]
        _set(self, "_steps", None)  # read once: the solution is cached, the pivot rows are let go
        return tuple(Fraction(v, p) if v % p else v // p for v in y)


def _eliminate(rows: Sequence[Mapping[int, int]], rhs: Optional[Sequence[int]] = None) -> Elimination:
    """Sparse Bareiss elimination of -M, given M as one {column: entry} map per row.

    Each step pivots on the remaining vertex with the fewest remaining
    neighbours (ties by index), so a tree is stripped leaf by leaf without
    fill-in.  While pivot row and column agree, the k-th pivot is a leading
    principal minor of -P^T M P; a symmetric permutation preserves
    definiteness, so "every pivot > 0" is exactly Sylvester's criterion.  A
    zero pivot is replaced by another nonzero column of its row (the form is
    then not definite), and the last pivot is det(-M) up to the permutation's
    sign.  The right-hand side rides along as an extra column; the pivot
    steps are kept, and back-substituted only when the solution is read.
    Rows are updated in place: the pivot row is rescaled where it stands,
    and each row it touches is multiplied, reduced and divided in one pass.

    A row with a zero in the pivot column would only be rescaled by
    pivot / previous pivot.  That is left undone: ``scale[i]`` is the pivot
    at row i's last update, its entries are current times scale[i] / prev,
    and Bareiss' division by the previous pivot becomes a division by
    scale[i].  A step therefore costs only the rows it changes.
    """
    n = len(rows)
    a: list = [{j: -x for j, x in row.items() if x} for row in rows]  # None once pivoted
    b = [-x for x in rhs] if rhs is not None else [0] * n
    scale = [1] * n
    heap = [(len(row) - (i in row), i) for i, row in enumerate(a)]
    heapq.heapify(heap)
    steps: list[tuple[int, dict[int, int], int]] = []
    sigma = list(range(n))  # pivot row -> pivot column
    symmetric = definite = True
    prev = 1
    while heap:
        deg, r = heapq.heappop(heap)
        row = a[r]
        if row is None or deg != len(row) - (r in row):
            continue  # stale entry
        a[r] = None
        if not row:
            return Elimination(False, 0)
        s = scale[r]
        if s != prev:
            for j, x in row.items():
                row[j] = x * prev // s
            b[r] = b[r] * prev // s
        c = r if r in row else min(row)
        p = row.pop(c)  # back before the step is kept
        br = b[r]
        if c != r:
            sigma[r] = c
            symmetric = False
        definite = definite and symmetric and p > 0
        # while the matrix is symmetric, column c is nonzero exactly where row c is
        touched = list(row) if symmetric else [i for i, ri in enumerate(a) if ri and c in ri]
        for i in touched:
            ri = a[i]
            f = ri.pop(c)
            s = scale[i]
            for j, x in ri.items():
                ri[j] = x * p
            for j, x in row.items():
                ri[j] = ri.get(j, 0) - f * x
            a[i] = ri = {j: x // s for j, x in ri.items() if x}
            b[i] = (b[i] * p - f * br) // s
            scale[i] = p
            heapq.heappush(heap, (len(ri) - (i in ri), i))
        row[c] = p
        steps.append((c, row, br))
        prev = p
    det = prev * (-1) ** n * (1 if symmetric else _perm_sign(sigma))
    return Elimination(definite, det, steps if rhs is not None else None)


def _perm_sign(p: list[int]) -> int:
    sign = 1
    seen = [False] * len(p)
    for start in range(len(p)):
        j = start
        while not seen[j]:
            seen[j] = True
            j = p[j]
            if j != start:
                sign = -sign
    return sign


def laufer_closure(g: DualGraph, z: list[int], on_step: Optional[Callable[[str, int], None]] = None) -> list[int]:
    """Laufer's closure with jumps, in place on an integer vector z in vertex
    order: the least anti-nef cycle >= z.

    While some Z.E_i > 0, z_i is raised by ceil(Z.E_i / -E_i^2) in one step:
    every anti-nef W >= Z has that much more there, as off-diagonal entries
    are >= 0.  Vertices go in order, so ``on_step(vid, new_coeff)`` sees a
    reproducible sequence of raises.  The graph's one elimination, or the
    definiteness its surgery carried, decides definiteness before the first
    scan, so a graph that is not negative definite raises PreconditionError
    even when z is already anti-nef.
    """
    if not g.negative_definite:
        raise PreconditionError(f"antinef_closure needs a negative-definite graph; {g.name!r} is not")
    ids, rows = g.ids, g._rows
    dirty = True
    while dirty:
        dirty = False
        for i, (e2, nbrs) in enumerate(rows):
            row = z[i] * e2
            for j, m in nbrs:
                row += m * z[j]
            if row > 0:
                z[i] -= row // e2  # row > 0 > e2: a raise by ceil(row / -e2)
                if on_step is not None:
                    on_step(ids[i], z[i])
                dirty = True
    return z


def validate_graph(g: DualGraph) -> ValidationReport:
    """Check every DualGraph invariant; reports findings, never throws."""
    failures: list[str] = []

    rows = g._rows
    reached = [True] + [False] * (len(rows) - 1)
    frontier = [0]
    while frontier:
        for j, _ in rows[frontier.pop()][1]:
            if not reached[j]:
                reached[j] = True
                frontier.append(j)
    connected = all(reached)
    if not connected:
        missing = sorted(vid for vid, r in zip(g.ids, reached) if not r)
        failures.append(f"graph is not connected (unreachable: {', '.join(missing)})")

    negative_definite = g.negative_definite
    if not negative_definite:
        failures.append("intersection matrix is not negative definite")

    adjunction_ok = True
    for v in g.vertices:
        s = v.self_int + v.kappa
        if s % 2 != 0 or s < -2:
            adjunction_ok = False
            failures.append(
                f"vertex {v.id!r} violates adjunction: self_int + kappa = {s} must be even and >= -2"
            )
    return ValidationReport(
        connected=connected,
        negative_definite=negative_definite,
        adjunction_ok=adjunction_ok,
        failures=tuple(failures),
    )
