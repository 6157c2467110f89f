"""Properties: the library against the earlier implementations kept in
``oracle_reference``.

The depth-first oracles give exactly the answers of the numpy box
enumerations they replaced, on small random graphs and towers.  The graphs
have at most six vertices and include non-trees, multi-edges and graphs that
are not negative definite.  An oracle's answer is either its value or the
class and message of the error it raises.  The search under them, which
steps only through each depth's admissible interval and hands the last
depth's interval over as one run, visits the same points in the same order
as the stepping search it replaced, with each run expanded point by point,
on graphs with E_i^2 from -6 to 1 and with any mix of row bounds.

Cycles held as one vector in vertex order pair, combine, print and compare
exactly like the cycles keyed by vertex id that they replaced, on graphs of
up to 40 vertices.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import oracle_reference as reference
from antinef import corpus, oracle
from antinef.birational import Tower
from antinef.errors import LatticeError
from antinef.graph import cycle, dual_graph, unit_cycle
from antinef.lattice import antinef_closure, is_antinef, k_dot, pair, row_pairing
from towers import grow


def _answer(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except LatticeError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def graphs(draw, top_e2=-1):
    """Up to six vertices with E_i^2 from -6 to ``top_e2``; a top of 0 or
    more weights E_i^2 = 0 three times, the other values once."""
    n = draw(st.integers(min_value=1, max_value=6))
    ids = [f"V{k}" for k in range(n)]
    e2 = st.integers(-6, top_e2)
    if top_e2 >= 0:
        e2 = st.sampled_from([*range(-6, top_e2 + 1), 0, 0])
    vertices = [(vid, draw(e2), draw(st.integers(-2, 3))) for vid in ids]
    # a forest joins each vertex to an earlier one or starts a new component;
    # extra edges add cycles and multi-edges
    edges = [(ids[p], vid, 1) for k, vid in enumerate(ids) if (p := draw(st.integers(-1, k - 1))) >= 0]
    if n > 1:
        pairs = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        edges += [(a, b, m) for (a, b), m in draw(st.lists(st.tuples(pairs, st.integers(1, 2)), max_size=2))]
    return dual_graph("g", vertices, edges)


@settings(max_examples=60, deadline=None)
@given(graphs(), st.data())
def test_graph_oracles_match_the_reference(g, data):
    box = oracle.SearchBound(max_coeff=data.draw(st.integers(2, 5)))
    seed = cycle(g, {vid: data.draw(st.integers(-1, 2)) for vid in g.ids})
    closure = _answer(oracle.antinef_closure_bruteforce, seed, box)
    assert closure == _answer(reference.antinef_closure_bruteforce, seed, box)
    assert _answer(oracle.fundamental_cycle_bruteforce, g, box) == _answer(reference.fundamental_cycle_bruteforce, g, box)
    box = oracle.SearchBound(max_coeff=data.draw(st.integers(1, 2)))
    assert _answer(oracle.negdef_bruteforce, g, box) == _answer(reference.negdef_bruteforce, g, box)


@st.composite
def row_bounds(draw, n):
    """(row_lo, row_hi) for n rows, each row unbounded, bounded on one side,
    on both (possibly crossed) or pinned to one value."""
    lo, hi = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["none", "lo", "hi", "both", "equal"]))
        a = draw(st.integers(-6, 6))
        b = a if kind == "equal" else a + draw(st.integers(-2, 8))
        lo.append(a if kind in ("lo", "both", "equal") else None)
        hi.append(b if kind in ("hi", "both", "equal") else None)
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(graphs(top_e2=1), st.data())
def test_the_interval_search_visits_like_the_stepping_reference(g, data):
    """The same (x, x.M.x) visits in the same order, the new search's runs
    expanded point by point, over all of the region and when a visit stops
    the search at its k-th point; E_i^2 = 0 and > 0 occur, and boxes that
    are empty or start below zero."""
    n = len(g.ids)
    lows = data.draw(st.lists(st.integers(-3, 2), min_size=n, max_size=n))
    highs = [lo + data.draw(st.integers(-1, 3)) for lo in lows]
    row_lo, row_hi = data.draw(row_bounds(n))

    def row_ok(k, r):
        return (row_lo[k] is None or r >= row_lo[k]) and (row_hi[k] is None or r <= row_hi[k])

    def run(stop=None):
        """(returned, visits) of the new search and of the reference."""
        out = []
        for search, rows in ((oracle._search, (row_lo, row_hi)), (reference.stepping_search, (row_ok,))):
            seen = []

            def visit(x, q):
                seen.append((list(x), q))
                return len(seen) == stop

            def expand(x, q, i, k, r, e):
                """The new search's run x + t.E_i, 0 <= t < k, point by point."""
                return any(visit(x[:i] + [x[i] + t] + x[i + 1 :], q + t * (2 * r + e * t)) for t in range(k))

            out.append((search(g, lows, highs, *rows, expand if search is oracle._search else visit), seen))
        return out

    (new, seen), ref = run()
    assert (new, seen) == ref
    stop = data.draw(st.integers(1, max(len(seen), 1)))
    new, ref = run(stop)
    assert new == ref


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_max_y_matches_the_reference_on_towers(data):
    base = corpus.get(data.draw(st.sampled_from(["A1", "A2", "A3", "D4"]))).graph
    t = grow(data, Tower.base(base), data.draw(st.integers(1, 6 - len(base.vertices))))
    g = t.top
    # a high coefficient on the newest (-1)-curve makes Y nonzero more often
    z = cycle(g, {vid: data.draw(st.integers(0, 2)) for vid in g.ids})
    z = z + data.draw(st.integers(0, 3)) * unit_cycle(g, t.steps[-1].new_id)
    if not z.is_zero and data.draw(st.integers(0, 3)):
        z = antinef_closure(z)
    c = cycle(g, {vid: 1 for vid in data.draw(st.lists(st.sampled_from(base.ids), max_size=2, unique=True))})
    box = data.draw(st.none() | st.integers(1, 4).map(lambda k: oracle.SearchBound(max_coeff=k)))
    assert _answer(oracle.enumerate_max_Y, z, c, box) == _answer(reference.enumerate_max_Y, z, c, box)


# --- cycles: the vertex-ordered vector against the cycles keyed by id ---------------


@st.composite
def wide_graphs(draw):
    """Up to 40 vertices, ids out of insertion order, E_i^2 from -6 to 2 (so
    indefinite and singular forms too), non-trees and edges of multiplicity
    up to 3."""
    n = draw(st.integers(min_value=1, max_value=40))
    ids = [f"V{k}" for k in range(n)]
    weights = draw(st.lists(st.tuples(st.integers(-6, 2), st.integers(-3, 3)), min_size=n, max_size=n))
    vertices = [(vid, e2, kappa) for vid, (e2, kappa) in zip(ids, weights)]
    # each vertex hangs from an earlier one by an edge of multiplicity 1 to 3, or starts a component
    parents = draw(st.lists(st.tuples(st.integers(-1, n), st.integers(1, 3)), min_size=n, max_size=n))
    edges = [(ids[p % k], ids[k], m) for k, (p, m) in enumerate(parents) if k and p >= 0]
    if n > 1:
        pairs = st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True)
        extra = draw(st.lists(st.tuples(pairs, st.integers(1, 2)), max_size=n // 2))
        edges += [(a, b, m) for (a, b), m in extra]
    return dual_graph("g", vertices, edges)


_COEFFS = st.integers(-5, 5) | st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def cycle_items(draw, g):
    """(id, coefficient) items with repeats: ints and Fractions, and for some
    Fractions a second item that brings their sum to an integer."""
    items = draw(st.lists(st.tuples(st.sampled_from(g.ids), _COEFFS), max_size=2 * len(g.ids)))
    fractions = [(vid, c) for vid, c in items if isinstance(c, Fraction)]
    items += [(vid, draw(st.integers(-2, 2)) - c) for vid, c in fractions if draw(st.booleans())]
    return draw(st.permutations(items))


def _same_cycle(new, ref):
    assert [(vid, c, type(c)) for vid, c in new.coeffs] == [(vid, c, type(c)) for vid, c in ref.coeffs]
    assert (repr(new), str(new)) == (repr(ref), str(ref))
    facts = ("support", "is_zero", "is_effective", "is_integral")
    assert [getattr(new, name) for name in facts] == [getattr(ref, name) for name in facts]
    assert [(c, type(c)) for c in new.vector()] == [(c, type(c)) for c in ref.vector()]


def _same_value(new, ref):
    assert (new, type(new)) == (ref, type(ref))


@settings(max_examples=60, deadline=None)
@given(wide_graphs(), st.data())
def test_vector_cycles_pair_and_combine_like_the_keyed_reference(g, data):
    raw = [data.draw(cycle_items(g)) for _ in range(2)]
    (a, b), (ra, rb) = [cycle(g, items) for items in raw], [reference.keyed_cycle(g, items) for items in raw]
    for new, ref in ((a, ra), (b, rb)):
        _same_cycle(new, ref)
        _same_value(k_dot(new), reference.k_dot(ref))
        _same_value(is_antinef(new), reference.is_antinef(ref))
        for vid in g.ids:
            _same_value(row_pairing(new, vid), reference.row_pairing(ref, vid))
    for (x, y), (rx, ry) in (((a, b), (ra, rb)), ((b, a), (rb, ra)), ((a, a), (ra, ra))):
        _same_value(pair(x, y), reference.pair(rx, ry))
        _same_value(x.dominates(y), rx.dominates(ry))
        _same_cycle(x + y, rx + ry)
        _same_cycle(x - y, rx - ry)
    scalar = data.draw(_COEFFS)
    _same_cycle(scalar * a, scalar * ra)
    _same_cycle(a * scalar, ra * scalar)
    _same_cycle(-b, -rb)
    kept = data.draw(st.lists(st.sampled_from(g.ids), min_size=1, unique=True))
    target = dual_graph("t", [v for v in g.vertices if v.id in kept] + [("W", -2, 0)])
    _same_cycle(a.restricted_to(target), ra.restricted_to(target))
    # equality both ways, and equal hashes for equal cycles
    twins = [(a, ra), (b, rb), (a + b - b, ra + rb - rb)]
    twins.append((cycle(g, raw[0][::-1]), reference.keyed_cycle(g, raw[0][::-1])))
    for x, rx in twins:
        for y, ry in twins:
            assert (x == y, y == x) == (rx == ry, ry == rx)
            assert x != y or hash(x) == hash(y)
