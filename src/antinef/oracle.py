"""Brute-force verifiers for the main algorithms on small instances.

These deliberately work from the definitions rather than reusing the
production algorithms, so that the test suite can play the two against each
other.  Each oracle is one depth-first search of a coefficient box in exact
Python integers.  The definition's conditions on the rows of M x become
per-row bounds; the search rejects, without visiting it, a value that no
completion can bring within them, and hands the last coordinate's interval
to the oracle as one run, on which x.M.x is a quadratic; the oracle checks
the rest of the definition literally on each run.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, NamedTuple, Optional

from .errors import PreconditionError, TheoremViolationError
from .graph import Cycle, DualGraph, _graph_mismatch, cycle, zero_cycle


class SearchBound(NamedTuple):
    """An oracle's search box; the oracle call refuses one that is not
    positive (:func:`_guard`)."""

    max_coeff: int = 6
    max_vertices: int = 12
    max_candidates: int = 20_000_000


def default_bound(z: Cycle) -> SearchBound:
    top = max((c for _, c in z.coeffs), default=1)
    return SearchBound(max_coeff=2 * top + 2)


def _guard(g: DualGraph, ranges: list[int], bound: SearchBound) -> None:
    """Check the search bounds; the candidate count is the whole box."""
    if min(bound) < 1:
        raise PreconditionError("search bounds must be positive")
    n = len(g.vertices)
    if n > bound.max_vertices:
        raise PreconditionError(
            f"graph has {n} vertices, oracle bound allows {bound.max_vertices}"
        )
    total = math.prod(ranges)
    if total > bound.max_candidates:
        raise PreconditionError(
            f"{total} candidates exceed the oracle search bound {bound.max_candidates}"
        )


def _search(
    g: DualGraph,
    lows: list[int],
    highs: list[int],
    row_lo: list[Optional[int]],
    row_hi: list[Optional[int]],
    visit: Callable[[list[int], int, int, int, int, int], bool],
) -> bool:
    """Depth-first search of the points lows <= x <= highs (vertex order)
    with row_lo[k] <= (M x)_k <= row_hi[k] for every row k (None: no bound).

    Vertices are assigned in breadth-first order, each component from a
    vertex of highest degree.  At the depth of x_i, each bounded row that
    x_i enters is linear in x_i, and its bounds less the most and the least
    that the coordinates still unset can add (sums over lows and highs, 0
    once the row is complete) give the interval of values that some
    completion can admit, by floor and ceiling division (a row with
    coefficient 0 is checked as a constant); the depth steps only through it.

    The last depth's interval goes to ``visit(x, q, i, k, r, e)`` as one
    run: the k >= 1 points x + t.E_i, 0 <= t < k, with x.M.x = q and
    (M x)_i = r at t = 0 and E_i^2 = e, so x.M.x = q + t(2r + e.t) at t.
    The search stops, returning True, as soon as a visit returns True.
    ``x`` is the search's own buffer, so a visit copies what it keeps.
    The search is one flat loop, which calls nothing but the visit: each
    pass goes one depth deeper or hands over the last depth's run, then
    backs up past the depths whose values are used up.
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

    def shifted(d: int, k: int, m: int) -> tuple:
        """Row k's bounds less what the coordinates unset at depth d can add."""
        later = [(c * lows[j], c * highs[j]) for j, c in column[k] if depth[j] > d]
        a, b = row_lo[k], row_hi[k]
        return k, m, None if a is None else a - sum(map(max, later)), None if b is None else b - sum(map(min, later))

    # the bounded rows that the coordinate at depth d enters
    due = [[shifted(d, k, m) for k, m in column[i] if (row_lo[k], row_hi[k]) != (None, None)] for d, i in enumerate(order)]

    x = [0] * n
    rows = [0] * n  # M x, with every vertex not yet assigned at 0
    quad = [0] * n  # quad[d]: x.M.x over the first d vertices
    top = [0] * n  # top[d]: the last admissible value at depth d
    d, q = -1, 0
    while True:
        if d < n - 1:  # one deeper: x_i goes to its lowest admissible value
            d += 1
            quad[d] = q
            i = order[d]
            col = column[i]
            # x_i is 0 here, so row k at x_i = v is rows[k] + m.v
            lo, hi = lows[i], highs[i]
            for k, m, a, b in due[d]:
                r = rows[k]
                if m == 0:
                    if (a is not None and r < a) or (b is not None and r > b):
                        hi = lo - 1
                    continue
                if m < 0:
                    a, b = b, a
                if a is not None:
                    lo = max(lo, -((r - a) // m))
                if b is not None:
                    hi = min(hi, (b - r) // m)
            top[d] = hi
            x[i] = delta = lo
        else:  # the last depth: its run, then one past its end
            delta = top[d] + 1 - x[i]
            if visit(x, q, i, delta, rows[i], diag[i]):
                return True
            x[i] += delta
        for j, m in col:
            rows[j] += m * delta
        # back up past every depth whose values are used up
        v = x[i]
        while v > top[d]:
            x[i] = 0
            for j, m in col:
                rows[j] -= m * v
            d -= 1
            if d < 0:
                return False
            i = order[d]
            col = column[i]
            v = x[i] = x[i] + 1
            for j, m in col:
                rows[j] += m
        q = quad[d] + v * (2 * rows[i] - diag[i] * v)


def enumerate_max_Y(z: Cycle, c: Cycle, bound: Optional[SearchBound] = None) -> Optional[Cycle]:
    """Definition-level search for the maximal cycle Y with 0 <= Y <= Z,
    -Y^2 + K.Y = 0, Z - Y anti-nef, and Z - Y of degree zero on supp C.

    Returns the coefficient-wise maximum among the admissible candidates, or
    None when no unique maximum exists (a theorem violation on valid input).
    """
    g = z.graph
    if c.graph != g:
        raise _graph_mismatch(g, c.graph)
    if not z.is_effective or not z.is_integral:
        raise PreconditionError("oracle needs an effective integral Z")
    if not c.is_effective or not c.is_integral:
        raise PreconditionError("oracle needs an effective integral C")
    if bound is None:
        bound = default_bound(z)
    zv = z.vector()
    highs = [min(v, bound.max_coeff) for v in zv]
    _guard(g, [h + 1 for h in highs], bound)
    # Z - Y anti-nef, and of degree zero on supp C: (M Y)_i >= (M Z)_i, with
    # equality on supp C
    z_rows = [sum(m * zv[j] for j, m in row.items()) for row in g.sparse_matrix()]
    c_rows = [r if on_c else None for on_c, r in zip(c.vec, z_rows)]
    kappa = [v.kappa for v in g.vertices]

    def smooth(y: list[int], q: int, i: int, k: int, r: int, e: int) -> list[int]:
        """The t of the run's points y + t.E_i with -Y^2 + K.Y = 0."""
        ky = sum(map(operator.mul, kappa, y))
        return [t for t in range(k) if q + t * (2 * r + e * t) == ky + kappa[i] * t]

    best = [0] * len(zv)  # Y = 0 is always admissible

    def keep(y: list[int], q: int, i: int, k: int, r: int, e: int) -> bool:
        hits = smooth(y, q, i, k, r, e)
        if hits:
            best[:] = map(max, best, y)
            best[i] = max(best[i], y[i] + hits[-1])
        return False

    _search(g, [0] * len(zv), highs, z_rows, c_rows, keep)
    # if the admissible set has a maximum it equals the coefficient-wise max,
    # so admissibility of that vector decides uniqueness
    if any(best) and not _search(g, best, best, z_rows, c_rows, lambda *run: bool(smooth(*run))):
        return None
    return cycle(g, dict(zip(g.ids, best)))


def antinef_closure_bruteforce(d: Cycle, bound: SearchBound) -> Optional[Cycle]:
    """Pointwise minimum of the nonzero anti-nef cycles X >= d with every
    coefficient <= max_coeff, by exhaustive search; None when the box holds
    none.  The definition-level cross-check of ``lattice.antinef_closure``."""
    g = d.graph
    lows = [max(math.ceil(c), 0) for c in d.vector()]
    _guard(g, [max(bound.max_coeff + 1 - lo, 0) for lo in lows], bound)
    best: Optional[list[int]] = None

    def keep(x: list[int], q: int, i: int, k: int, r: int, e: int) -> bool:
        nonlocal best
        if not any(x):  # a run from 0: its least nonzero point is E_i
            if k == 1:
                return False
            x = [int(j == i) for j in range(len(x))]
        best = list(x) if best is None else list(map(min, best, x))
        return False

    n = len(lows)
    _search(g, lows, [bound.max_coeff] * n, [None] * n, [0] * n, keep)
    return None if best is None else cycle(g, dict(zip(g.ids, best)))


def fundamental_cycle_bruteforce(g: DualGraph, bound: SearchBound) -> Cycle:
    """Pointwise-minimal nonzero anti-nef cycle by exhaustive search.

    If any anti-nef cycle exists within the box, the true fundamental cycle
    lies below it, hence inside the box, so the pointwise minimum over the
    admissible set is exact whenever the search finds anything at all.
    """
    z = antinef_closure_bruteforce(zero_cycle(g), bound)
    if z is None:
        raise PreconditionError(
            f"no anti-nef cycle with coefficients <= {bound.max_coeff}; raise the bound"
        )
    n = len(g.vertices)
    if z.is_zero or not _search(g, z.vector(), z.vector(), [None] * n, [0] * n, lambda *run: True):
        raise TheoremViolationError(
            "pointwise minimum of anti-nef candidates is not anti-nef"
        )
    return z


def negdef_bruteforce(g: DualGraph, bound: SearchBound) -> bool:
    """Check W.W < 0 for every nonzero W with |coefficients| <= max_coeff."""
    b, n = bound.max_coeff, len(g.vertices)
    _guard(g, [2 * b + 1] * n, bound)

    def nonneg(w: list[int], q: int, i: int, k: int, r: int, e: int) -> bool:
        """Some nonzero point w + t.E_i, 0 <= t < k, has W.W >= 0."""
        # W.W = q + t(2r + e.t) is largest at an end of the run or, when
        # e < 0, at one of the two integers around its vertex r / -e
        if e < 0 and k > 1:
            s = min(max(r // -e, 0), k - 2)
            t = s + 1
        else:
            s, t = 0, k - 1
        if q + s * (2 * r + e * s) < 0 and q + t * (2 * r + e * t) < 0:
            return False
        # rare: walk the run, leaving out W = 0
        return any(q + t * (2 * r + e * t) >= 0 and (w[i] + t or any(w[:i] + w[i + 1 :])) for t in range(k))

    # W.W = (-W).(-W), so the W with a nonnegative first coefficient suffice
    return not _search(g, [0] + [-b] * (n - 1), [b] * n, [None] * n, [None] * n, nonneg)
