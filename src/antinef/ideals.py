"""Integrally closed m-primary ideals as anti-nef cycles: products, colon
ideals, core, goodness, good closures, and the graded-cone model.

A minimal reduction is never materialized; every colon/core output is
computed at the cycle level via the contraction-sequence description:
contract rational (-1)-curves E_i disjoint from the cohomological cycle,
read b_i = -Z.F_i by the projection formula as Z[E_i] - sum m.Z[u] over the
curves u that E_i meets m times when contracted (F_i its total transform),
accumulate Y = sum of min(1, b_i) F_i in one bottom-up lift, then
Q:I = I_{Z-Y} and core(I) = I_{2Z-Y}.  The rules, both passes and goodness
read cycles by position on Z's graph, off the positional contraction core;
only the kept tower is named.  The sequence depends only on the graph and C,
as Z enters only through the b_i, so it is contracted and checked once per
graph and C and kept with the graph; the good closure is Z pushed down it.
"""

from __future__ import annotations

from itertools import starmap
from typing import NamedTuple, Optional

from .birational import (Tower, associated_pg_cycle, candidates, contract_all, contract_positions, lift, lifted,
                         replay, transport_cohom)
from .errors import PreconditionError, TheoremViolationError
from .graph import Cycle, DualGraph, dual_graph, unit_cycle, validate_graph, zero_cycle
from .lattice import (
    canonical_cycle,
    colength,
    contracts_to_smooth,
    epsilon,
    is_antinef,
    is_rational,
    multiplicity,
    pair,
)


class SingularityModel(NamedTuple):
    """A validated base graph at the minimal resolution plus the analytic
    inputs the lattice cannot infer (pg, Gorenstein flag, cohomological
    cycle)."""

    base: DualGraph
    rational: bool
    pg: int
    gorenstein: bool
    c_base: Cycle


def singularity_model(
    base: DualGraph,
    pg: Optional[int] = None,
    gorenstein: bool = False,
    c_base: Optional[Cycle] = None,
) -> SingularityModel:
    report = validate_graph(base)
    if not report.ok:
        raise PreconditionError(
            f"base graph {base.name!r} is invalid: " + "; ".join(report.failures)
        )
    for v in base.vertices:
        if v.self_int == -1 and v.kappa == -1:
            raise PreconditionError(
                f"base graph is not a minimal resolution: {v.id!r} is a rational (-1)-curve"
            )
    rational = is_rational(base)
    if rational:
        if pg not in (None, 0):
            raise PreconditionError(f"rational base forces pg = 0, got {pg}")
        pg = 0
        if c_base is not None and not c_base.is_zero:
            raise PreconditionError("rational base forces a zero cohomological cycle")
        c_base = zero_cycle(base)
    else:
        if pg is None or pg <= 0:
            raise PreconditionError("non-rational base needs caller-supplied pg > 0")
        if gorenstein:
            zk = canonical_cycle(base)
            if not zk.is_integral:
                raise PreconditionError(
                    "gorenstein flag needs an integral canonical cycle"
                )
            if c_base is None:
                c_base = zk
            elif c_base != zk:
                raise PreconditionError(
                    "on a minimal Gorenstein resolution the cohomological cycle is the canonical cycle"
                )
        if c_base is None:
            raise PreconditionError(
                "non-rational non-Gorenstein base needs a caller-supplied cohomological cycle"
            )
        if c_base.is_zero or not c_base.is_effective or not c_base.is_integral:
            raise PreconditionError("cohomological cycle must be effective, integral and nonzero")
        if c_base.graph != base:
            raise PreconditionError("cohomological cycle must live on the base graph")
    return SingularityModel(base=base, rational=rational, pg=pg, gorenstein=gorenstein, c_base=c_base)


class IdealRep(NamedTuple):
    """An integrally closed m-primary ideal: an anti-nef cycle at a tower
    level, with the cohomological cycle transported alongside."""

    model: SingularityModel
    tower: Tower
    level: int
    z: Cycle
    h1: int
    pg_numeric: bool
    c: Cycle


def represent(
    model: SingularityModel,
    tower: Tower,
    level: int,
    z: Cycle,
    h1: Optional[int] = None,
) -> IdealRep:
    if tower.bottom != model.base:
        raise PreconditionError("tower must sit over the model's base graph")
    g = tower.graph(level)
    if z.graph != g:
        raise PreconditionError(f"cycle lives on {z.graph.name!r}, not tower level {level}")
    if z.is_zero or not z.is_effective or not z.is_integral:
        raise PreconditionError("an ideal needs an integral cycle Z > 0")
    if not is_antinef(z):
        raise PreconditionError(f"{z} is not anti-nef")
    c = transport_cohom(Tower._make((tower.bottom, tower.steps[:level], g)), model.c_base)
    numeric = _pg_numeric(z, c)
    if model.rational:
        if h1 not in (None, 0):
            raise PreconditionError("rational models force h1 = 0")
        h1 = 0
    elif numeric:
        if h1 not in (None, model.pg):
            raise PreconditionError(
                f"a numerically-p_g cycle has h1 = pg = {model.pg}, got {h1}"
            )
        h1 = model.pg
    else:
        if h1 is None:
            raise PreconditionError(
                "non-p_g cycle on a non-rational model needs caller-supplied h1"
            )
        if not 0 <= h1 <= model.pg:
            raise PreconditionError(f"need 0 <= h1 <= pg, got h1={h1}")
    return IdealRep(model=model, tower=tower, level=level, z=z, h1=h1, pg_numeric=numeric, c=c)


def _pg_numeric(z: Cycle, c: Cycle) -> bool:
    """Z.E = 0 on every curve of supp C, read from M.Z; C lives on Z's graph."""
    return all(r == 0 for r, k in zip(z.rows, c.vec) if k)


def _common_level(op: str, i1: IdealRep, w1: Cycle, i2: IdealRep, w2: Cycle) -> tuple[int, Cycle, Cycle]:
    """The higher of the ideals' levels, with w1 (on i1's level) and w2 (on
    i2's) pulled up to it; op refuses ideals on another model or tower."""
    if i1.model != i2.model or i1.tower != i2.tower:
        raise PreconditionError(f"{op} needs ideals on the same model and tower")
    level = max(i1.level, i2.level)
    return level, i1.tower.pullback(w1, i1.level, level), i2.tower.pullback(w2, i2.level, level)


def product(i1: IdealRep, i2: IdealRep) -> IdealRep:
    """I_Z . I_Z' = I_{Z+Z'}; valid when at least one factor is p_g-numeric."""
    level, z1, z2 = _common_level("product", i1, i1.z, i2, i2.z)
    if not (i1.pg_numeric or i2.pg_numeric):
        raise PreconditionError(
            "product needs at least one numerically-p_g factor; the cycle sum may "
            "not represent the product ideal otherwise"
        )
    h1 = i2.h1 if i1.pg_numeric else i1.h1
    return represent(i1.model, i1.tower, level, z1 + z2, h1=h1)


class CoreReport(NamedTuple):
    """Q:I = I_{Z-Y} and core(I) = I_{2Z-Y} of a numerically-p_g I = I_Z on
    Z's graph: Y, both cycles, the b_i in contraction order, max b_i colon
    steps to a good ideal, whether Y = 0, and the off-C sequence.  Their
    colengths are :func:`~antinef.lattice.colength` of these cycles."""

    y: Cycle
    colon_cycle: Cycle
    core_cycle: Cycle
    b: tuple[int, ...]
    iterations_to_good: int
    good: bool
    contraction_tower: Tower


def _off_c(c: Cycle):
    """colon/core's contraction rule, by position on C's graph: the curve is off supp C and C.E = 0."""
    # a contracted curve is off supp C, so C keeps its coefficients on every
    # graph of the sequence
    cv = c.vec
    return lambda p, attach: not cv[p] and lifted(cv, attach) == 0


def _off_c_tower(g: DualGraph, c: Cycle) -> tuple[Tower, tuple]:
    """The contraction sequence of g by :func:`_off_c`, as a named tower
    checked to replay to g and as the core's steps by position on g, (p,
    ((q, m), ...)).  It is contracted and checked once per graph and C, then
    kept with g, keyed by the vector of C; the kept value holds no reference
    to g, and a failed check raises and keeps nothing."""
    kept = g._off_c_towers.get(c.vec)
    if kept is None:
        verts, adj, seq = contract_positions(g, _off_c(c))
        local = Tower.contracted(g, verts, adj, seq)
        if replay(local.bottom, local.steps) != g:
            raise TheoremViolationError("contraction sequence did not replay to the input graph")
        kept = g._off_c_towers[c.vec] = local.bottom, local.steps, seq
    return Tower._make((kept[0], kept[1], g)), kept[2]


def colon_and_core(ideal: IdealRep) -> CoreReport:
    """Compute Q:I and core(I) for a numerically-p_g ideal.

    Two vector passes over the contraction sequence
    (:func:`~antinef.birational.contract_positions`) of rational
    (-1)-curves E_1, E_2, ... disjoint from the cohomological cycle, by
    their positions on Z's graph.  By the projection formula, b_i = -Z.F_i =
    -(pi_* Z).E_i on the graph E_i is contracted from: Z[E_i] - sum m.Z[u]
    over the curves u it meets m times there.  Y = sum over b_i > 0 of F_i
    is one :func:`~antinef.birational.lift` with marks [b_i > 0].  The
    sequence is kept with the graph, so later calls with the same C read only Z.

    Any failure of the construction's guarantees (Z - Y not anti-nef, Y not
    contracting to a smooth point, negative b_i) is raised as a theorem
    violation rather than silently corrected.
    """
    if not ideal.pg_numeric:
        raise PreconditionError("colon_and_core needs a numerically-p_g ideal")
    z = ideal.z
    g = z.graph  # represent checked that this is the tower's graph at ideal.level
    local, seq = _off_c_tower(g, ideal.c)
    zv = z.vec
    b: list[int] = []
    for p, attach in reversed(seq):  # top-down: E_1 is contracted first
        b.append(zv[p] - lifted(zv, attach))
        if b[-1] < 0:
            raise TheoremViolationError(f"b_{len(b)} = {b[-1]} < 0 for contracted curve {g.ids[p]!r}")
    y = Cycle(g, tuple(lift([0] * len(zv), seq, [b_i > 0 for b_i in reversed(b)])))
    if not y.is_zero:
        if not contracts_to_smooth(y):
            raise TheoremViolationError(f"Y = {y} does not contract to a smooth point")
    colon = z - y
    if not colon.is_effective or not is_antinef(colon):
        raise TheoremViolationError(f"Z - Y = {colon} is not an effective anti-nef cycle")
    if not _pg_numeric(colon, ideal.c):
        raise TheoremViolationError(f"Z - Y = {colon} is not numerically p_g")
    return CoreReport(
        y=y,
        colon_cycle=colon,
        core_cycle=2 * z - y,
        b=tuple(b),
        iterations_to_good=max(b, default=0),
        good=y.is_zero,
        contraction_tower=local,
    )


def is_good(ideal: IdealRep) -> bool:
    """Minimal-representation criterion: after contracting (-1)-curves with
    Z.E = 0, no rational (-1)-curve that meets another curve misses the
    cohomological cycle."""
    if not ideal.pg_numeric:
        raise PreconditionError("is_good needs a numerically-p_g ideal")
    # a contraction keeps the survivors' coefficients: pi_* Z and pi_* C are
    # Z and C read on the curves that are left, by their positions on g
    zv = ideal.z.vec
    verts, adj, _ = contract_positions(ideal.z.graph, lambda p, attach: zv[p] == lifted(zv, attach))
    return not any(starmap(_off_c(ideal.c), candidates(verts, adj)))


def good_gorenstein_crosscheck(ideal: IdealRep) -> bool:
    """Gorenstein criterion: good iff the multiplicity is twice the colength."""
    if not ideal.model.gorenstein:
        raise PreconditionError("this criterion needs a Gorenstein model")
    if not ideal.pg_numeric:
        raise PreconditionError("this criterion needs a numerically-p_g (hence stable) ideal")
    pg = ideal.model.pg
    return multiplicity(ideal.z) == 2 * colength(ideal.z, pg, pg)


def good_closure(ideal: IdealRep) -> IdealRep:
    """The minimal good ideal containing I: Z pushed down the off-C sequence
    kept with its graph (:func:`_off_c_tower`), on the tower from the base up
    through that sequence's bottom to Z's graph."""
    if not ideal.pg_numeric:
        raise PreconditionError("good_closure needs a numerically-p_g ideal")
    model = ideal.model
    local, _ = _off_c_tower(ideal.z.graph, ideal.c)
    lower = contract_all(local.bottom, lambda p, attach: True)
    # contraction keeps the canonical order and the base's name, so the
    # bottom graph equals the base exactly when it is the same lattice
    if lower.bottom != model.base:
        raise TheoremViolationError("contracting all (-1)-curves did not reach the model base")
    if replay(model.base, lower.steps) != local.bottom:
        raise TheoremViolationError("contraction to the base did not replay to the off-C bottom")
    full = Tower._make((model.base, lower.steps + local.steps, local.top))
    result = represent(model, full, lower.height, ideal.z.restricted_to(local.bottom))
    if not is_good(result):
        raise TheoremViolationError("good closure is not good")
    return result


def includes(i1: IdealRep, i2: IdealRep) -> bool:
    """True iff the ideal of i1 is contained in the ideal of i2
    (cycle domination Z1 >= Z2 on a common level)."""
    _, z1, z2 = _common_level("containment", i1, i1.z, i2, i2.z)
    return z1.dominates(z2)


def core_monotone_check(i1: IdealRep, i2: IdealRep) -> bool:
    """For p_g-numeric ideals I2 <= I1, check that colon and core containments
    follow; a False return on valid inputs is a theorem violation."""
    if not (i1.pg_numeric and i2.pg_numeric):
        raise PreconditionError("monotonicity check needs numerically-p_g ideals")
    if not includes(i2, i1):
        raise PreconditionError("expected I2 contained in I1 (Z2 >= Z1)")
    r1 = colon_and_core(i1)
    r2 = colon_and_core(i2)
    _, colon2, colon1 = _common_level("containment", i2, r2.colon_cycle, i1, r1.colon_cycle)
    _, core2, core1 = _common_level("containment", i2, r2.core_cycle, i1, r1.core_cycle)
    return colon2.dominates(colon1) and core2.dominates(core1)


def stability_defect(
    ideal: IdealRep, h1_z: Optional[int] = None, h1_2z: Optional[int] = None
) -> int:
    """Length of I^2 / QI: epsilon(pg, h1(-Z), h1(-Z), h1(-2Z))."""
    pg = ideal.model.pg
    if h1_z is None:
        h1_z = ideal.h1
    if h1_2z is None:
        if ideal.pg_numeric or ideal.model.rational:
            h1_2z = ideal.h1
        else:
            raise PreconditionError("non-p_g ideal needs caller-supplied h1(-2Z)")
    return epsilon(pg, h1_z, h1_z, h1_2z)


class ConeStats(NamedTuple):
    colength: int
    colength_expected: int
    mu: int
    mu_expected: int
    mult_gap: int
    mult_gap_expected: int

    @property
    def all_ok(self) -> bool:
        return (self.colength, self.mu, self.mult_gap) == (
            self.colength_expected, self.mu_expected, self.mult_gap_expected
        )


def cone_model(e: int, g: int, a: int):
    """Graded cone over a genus-g curve with a degree-e polarization,
    a-invariant a and pg = g: builds the one-vertex base, runs the
    associated-p_g-cycle procedure on the maximal ideal, and checks the
    closed formulas l = e+g-1, mu = e+1, e(I) - e(m) = (a+1)e.

    Returns (model, ideal, stats).
    """
    if e < 1 or g < 0 or a < 0:
        raise PreconditionError("cone model needs e >= 1, g >= 0, a >= 0")
    if a * e != 2 * g - 2:
        raise PreconditionError(
            f"inconsistent cone parameters: a*e = {a * e} but deg K_C = {2 * g - 2}"
        )
    base = dual_graph(f"cone({e},{g},{a})", [("E", -e, 2 * g - 2 + e)])
    c_base = (a + 1) * unit_cycle(base, "E")
    model = singularity_model(base, pg=g, gorenstein=True)
    if model.c_base != c_base:
        raise TheoremViolationError("canonical cycle of the cone base is not (a+1)E")
    m_cycle = unit_cycle(base, "E")
    tower, z = associated_pg_cycle(Tower.base(base), m_cycle, [("E", e)], model.c_base)
    ideal = represent(model, tower, tower.height, z)
    stats = ConeStats(
        colength=colength(z, g, g),
        colength_expected=e + g - 1,
        mu=-pair(m_cycle, m_cycle) + 1,
        mu_expected=e + 1,
        mult_gap=multiplicity(z) - e,
        mult_gap_expected=(a + 1) * e,
    )
    return model, ideal, stats
