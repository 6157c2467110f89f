"""Intersection pairing, fundamental and canonical cycles, numerical formulas.

All operations are pure functions over immutable graphs and cycles, and all
arithmetic is exact.  Every pairing on one graph reads a cycle's cached M.Z,
``Cycle.rows``: W.V, Z.E_i (:func:`row_pairing`) and anti-nefness; the
contraction rules of :mod:`antinef.ideals` read -W.E on a lower graph as
W[E] - sum m.W[u], by position in W's ``vec``.  Every result passes through
:func:`antinef.graph.normal`, so an integral value is an int.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, Optional

from .errors import PreconditionError, TheoremViolationError
from .graph import Coeff, Cycle, DualGraph, _graph_mismatch, laufer_closure, normal, unit_cycle


def pair(w: Cycle, v: Cycle) -> Coeff:
    """Intersection number W.V = sum of w_i (M.V)_i under the graph's bilinear form."""
    if w.graph != v.graph:
        raise _graph_mismatch(w.graph, v.graph)
    return normal(sum(map(mul, w.vec, v.rows)))


def row_pairing(z: Cycle, vid: str) -> Coeff:
    """Z.E_i for a single vertex, read from M.Z."""
    return z.rows[z.graph.position(vid)]


def k_dot(w: Cycle) -> Coeff:
    """K.W = sum of coefficients weighted by canonical degrees."""
    return normal(sum(c * v.kappa for c, v in zip(w.vec, w.graph.vertices)))


def canonical_cycle(g: DualGraph) -> Cycle:
    """The unique rational cycle z with z.E_i = -kappa_i for every vertex.

    Read from the graph's one sparse fraction-free elimination of the
    intersection matrix with -kappa as an extra column, which also decides
    definiteness for :func:`antinef.graph.validate_graph`; the matrix is
    invertible on a negative-definite graph.
    """
    e = g._elimination
    if e.solution is None:
        raise PreconditionError(f"graph {g.name!r} has singular intersection matrix")
    return Cycle(g, e.solution)


def is_numerically_gorenstein(g: DualGraph) -> bool:
    return canonical_cycle(g).is_integral


def arithmetic_genus(z: Cycle) -> Coeff:
    """p_a(Z) = (Z^2 + K.Z)/2 + 1."""
    return normal(Fraction(pair(z, z) + k_dot(z), 2) + 1)


def is_antinef(z: Cycle) -> bool:
    """True iff Z.E_i <= 0 for every vertex."""
    return all(r <= 0 for r in z.rows)


def antinef_closure(d: Cycle, on_step: Optional[Callable[[str, int], None]] = None) -> Cycle:
    """Least anti-nef cycle >= D (Laufer's algorithm with jumps).

    Runs :func:`antinef.graph.laufer_closure` on D afresh; ``on_step(vid, c)``
    sees each raise.  A graph that is not negative definite raises PreconditionError.
    """
    if d.is_zero or not d.is_effective:
        raise PreconditionError("antinef_closure needs an effective nonzero cycle")
    if not d.is_integral:
        raise PreconditionError("antinef_closure needs an integral cycle")
    return Cycle(d.graph, tuple(laufer_closure(d.graph, d.vector(), on_step)))  # ints: in normal form already


def fundamental_cycle(g: DualGraph, start: Optional[str] = None,
                      on_step: Optional[Callable[[str, int], None]] = None) -> Cycle:
    """Minimal nonzero anti-nef effective cycle (Artin's fundamental cycle).

    The anti-nef closure of any single vertex.  Without ``start`` and
    ``on_step`` it is the graph's Z_f, closed once from its first vertex and
    read by :func:`is_rational` too; either argument runs :func:`antinef_closure`.
    """
    if start is None and on_step is None:
        return Cycle(g, g._zf)
    return antinef_closure(unit_cycle(g, g.ids[0] if start is None else start), on_step=on_step)


def is_rational(g: DualGraph) -> bool:
    """Artin's criterion: p_a of the fundamental cycle vanishes."""
    return arithmetic_genus(fundamental_cycle(g)) == 0


def multiplicity(z: Cycle) -> int:
    """e(I_Z) = -Z^2 for an anti-nef cycle Z > 0."""
    _require_antinef_positive(z, "multiplicity")
    return -pair(z, z)


def colength(z: Cycle, pg: int = 0, h1: int = 0) -> int:
    """Riemann-Roch colength: -(Z^2 + K.Z)/2 + pg - h1.

    For rational graphs callers pass pg = h1 = 0; for numerically-p_g ideals
    pg = h1 and the analytic terms cancel.
    """
    _require_antinef_positive(z, "colength")
    if not (0 <= h1 <= pg):
        raise PreconditionError(f"need 0 <= h1 <= pg, got h1={h1}, pg={pg}")
    val = Fraction(-(pair(z, z) + k_dot(z)), 2) + pg - h1
    if val.denominator != 1:
        raise TheoremViolationError(f"colength of {z} is not an integer: {val}")
    n = int(val)
    if n <= 0:
        raise PreconditionError(
            f"colength formula gave {n} <= 0 for Z > 0; analytic inputs are inconsistent"
        )
    return n


def epsilon(pg: int, h1_z: int, h1_zp: int, h1_sum: int) -> int:
    """Product defect: pg - h1(-Z) - h1(-Z') + h1(-Z-Z'); always in [0, pg]."""
    for name, h in (("h1_Z", h1_z), ("h1_Z'", h1_zp), ("h1_Z+Z'", h1_sum)):
        if h < 0 or h > pg:
            raise PreconditionError(f"{name}={h} outside [0, pg={pg}]")
    val = pg - h1_z - h1_zp + h1_sum
    if val < 0 or val > pg:
        raise PreconditionError(
            f"epsilon = {val} outside [0, pg={pg}]; the h^1 inputs are inconsistent"
        )
    return val


def contracts_to_smooth(d: Cycle) -> bool:
    """True iff -D^2 + K.D = 0, i.e. supp D contracts to a nonsingular point
    (vacuously true for D = 0)."""
    if not d.is_effective:
        raise PreconditionError("contracts_to_smooth needs an effective cycle")
    return -pair(d, d) + k_dot(d) == 0


def _require_antinef_positive(z: Cycle, op: str) -> None:
    if z.is_zero or not z.is_effective:
        raise PreconditionError(f"{op} needs Z > 0")
    if not z.is_integral:
        raise PreconditionError(f"{op} needs an integral cycle")
    if not is_antinef(z):
        raise PreconditionError(f"{op} needs an anti-nef cycle; {z} is not")
