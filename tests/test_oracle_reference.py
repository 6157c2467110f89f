"""Property: the depth-first oracles give exactly the answers of the numpy
box enumerations they replaced, on small random graphs and towers.

The graphs have at most six vertices and include non-trees, multi-edges
and graphs that are not negative definite.  An oracle's answer is either
its value or the class and message of the error it raises.
"""

from hypothesis import given, settings, strategies as st

import oracle_reference as reference
from antinef import corpus, oracle
from antinef.birational import Tower
from antinef.errors import LatticeError
from antinef.graph import cycle, dual_graph, unit_cycle
from antinef.lattice import antinef_closure
from towers import grow


def _answer(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except LatticeError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    ids = [f"V{k}" for k in range(n)]
    vertices = [(vid, draw(st.integers(-6, -1)), draw(st.integers(-2, 3))) for vid in ids]
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
