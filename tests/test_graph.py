"""Dual graph construction, validation, and cycle arithmetic."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from antinef import corpus
from antinef.errors import InputError, PreconditionError
from antinef.graph import (
    Cycle,
    _eliminate,
    cycle,
    det_bareiss,
    dual_graph,
    normal,
    unit_cycle,
    validate_graph,
    zero_cycle,
)
from antinef.lattice import canonical_cycle, row_pairing
from oracle_reference import det_bareiss as dense_det, leading_minors, unreachable


def _mult(g, a, b):
    """The multiplicity of the edge a--b of g, 0 when there is none."""
    return sum(m for u, v, m in g.edges if {u, v} == {a, b})


class TestConstruction:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError):
            dual_graph("g", [("E1", -2, 0), ("E1", -3, 1)])

    def test_self_loop_rejected(self):
        with pytest.raises(InputError):
            dual_graph("g", [("E1", -2, 0)], [("E1", "E1")])

    def test_edge_to_unknown_vertex_rejected(self):
        with pytest.raises(InputError):
            dual_graph("g", [("E1", -2, 0)], [("E1", "E2")])

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            dual_graph("g", [])

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(InputError):
            dual_graph("g", [("E1", -2, 0), ("E2", -2, 0)], [("E1", "E2", 0)])

    def test_parallel_edges_merge(self):
        g = dual_graph("g", [("A", -3, 1), ("B", -3, 1)], [("A", "B"), ("B", "A")])
        assert _mult(g, "A", "B") == 2

    def test_vertex_order_is_canonical(self):
        g1 = dual_graph("g", [("A", -2, 0), ("B", -2, 0)], [("A", "B")])
        g2 = dual_graph("g", [("B", -2, 0), ("A", -2, 0)], [("B", "A")])
        assert g1 == g2

    def test_matrix_is_symmetric_with_self_ints_on_diagonal(self):
        g = corpus.get("D4").graph
        m = g.matrix()
        n = len(g.ids)
        assert all(m[i][j] == m[j][i] for i in range(n) for j in range(n))
        assert all(m[i][i] == g.vertices[i].self_int for i in range(n))


class TestValidation:
    @pytest.mark.parametrize("name", ["A1", "A5", "D4", "E8", "HJ(7,3)", "ex244min"])
    def test_corpus_graphs_are_valid(self, name):
        assert validate_graph(corpus.get(name).graph).ok

    def test_disconnected_graph_flagged(self):
        g = dual_graph("g", [("A", -2, 0), ("B", -2, 0)])
        report = validate_graph(g)
        assert not report.connected and not report.ok

    def test_non_negative_definite_flagged(self):
        # a (-1)-curve meeting two others with total multiplicity 2 is fine,
        # but a 0-curve is outside the lattice class entirely
        g = dual_graph("g", [("A", 0, -2)])
        report = validate_graph(g)
        assert not report.negative_definite and not report.ok

    def test_adjunction_violation_flagged(self):
        # self + kappa must be even and >= -2
        g = dual_graph("g", [("A", -2, 1)])
        report = validate_graph(g)
        assert not report.adjunction_ok and not report.ok

    def test_negative_definite_boundary(self):
        # the cycle graph of three (-2)-curves is negative semi-definite only
        g = dual_graph(
            "cycle3",
            [("A", -2, 0), ("B", -2, 0), ("C", -2, 0)],
            [("A", "B"), ("B", "C"), ("A", "C")],
        )
        assert not g.negative_definite

    def test_bareiss_determinant_matches_known_values(self):
        # det of the negated A_n matrix is n+1; of E8 it is 1
        for n in range(1, 8):
            m = [[-x for x in row] for row in corpus.get(f"A{n}").graph.matrix()]
            assert det_bareiss(m) == dense_det(m) == n + 1
        m = [[-x for x in row] for row in corpus.get("E8").graph.matrix()]
        assert det_bareiss(m) == dense_det(m) == 1
        assert det_bareiss([]) == dense_det([]) == 1


class TestCycles:
    def test_zero_coefficients_dropped(self):
        g = corpus.get("A2").graph
        z = cycle(g, {"E1": 0, "E2": 3})
        assert z.coeffs == (("E2", 3),)
        assert z.coeff("E1") == 0

    def test_unknown_vertex_rejected(self):
        g = corpus.get("A2").graph
        with pytest.raises(InputError):
            cycle(g, {"E9": 1})

    @pytest.mark.parametrize("value", [True, False, 1.0, "1"])
    def test_non_exact_coefficients_rejected(self, value):
        with pytest.raises(InputError):
            cycle(corpus.get("A2").graph, {"E1": value})

    def test_a_scalar_that_is_not_exact_is_refused(self):
        with pytest.raises(InputError) as err:
            unit_cycle(corpus.get("A2").graph, "E1") * 1.5
        assert str(err.value) == "a cycle's scalar must be an integer or Fraction, got float"

    def test_fraction_coefficients(self):
        g = corpus.get("A2").graph
        z = cycle(g, {"E1": Fraction(1, 2)})
        assert not z.is_integral
        assert (2 * z).is_integral

    def test_repeated_fractions_summing_to_an_integer_are_integral(self):
        g = corpus.get("A2").graph
        z = cycle(g, [("E1", Fraction(1, 2)), ("E1", Fraction(1, 2))])
        assert z.is_integral and type(z.coeff("E1")) is int

    def test_dominates(self):
        g = corpus.get("A2").graph
        big = cycle(g, {"E1": 2, "E2": 1})
        small = cycle(g, {"E1": 1})
        assert big.dominates(small) and not small.dominates(big)

    def test_cross_graph_arithmetic_rejected(self):
        from antinef.errors import PreconditionError

        za = unit_cycle(corpus.get("A1").graph, "E1")
        zb = unit_cycle(corpus.get("A2").graph, "E1")
        with pytest.raises(PreconditionError):
            za + zb


_COEFFS = st.integers(min_value=-4, max_value=4)


@given(a=st.lists(_COEFFS, min_size=4, max_size=4), b=st.lists(_COEFFS, min_size=4, max_size=4))
def test_cycle_group_laws(a, b):
    g = corpus.get("D4").graph
    za = cycle(g, dict(zip(g.ids, a)))
    zb = cycle(g, dict(zip(g.ids, b)))
    assert za + zb == zb + za
    assert za - za == zero_cycle(g)
    assert -(za + zb) == (-za) + (-zb)
    assert 2 * za == za + za


_RATIONALS = st.one_of(_COEFFS, st.fractions(min_value=-4, max_value=4, max_denominator=3))


@settings(max_examples=25)
@given(st.data())
def test_arithmetic_carries_m_z_when_every_operand_has_built_it(data):
    """M.Z is linear: a sum, a difference and a multiple carry the rows of
    operands that built theirs, equal to the rows their vector gives, in
    normal form; an operand without built rows seeds nothing."""
    g = corpus.get(data.draw(st.sampled_from(["D4", "E6", "HJ(7,3)"]))).graph
    n = len(g.ids)
    a, b = (Cycle(g, tuple(map(normal, data.draw(st.lists(_RATIONALS, min_size=n, max_size=n))))) for _ in "ab")
    for z in (a, b):
        if data.draw(st.booleans()):
            assert z.rows  # built
    scalar = data.draw(st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)))
    for result, operands in ((a + b, (a, b)), (a - b, (a, b)), (b - a, (a, b)), (scalar * a, (a,)),
                             (b * scalar, (b,)), (-a, (a,))):
        carried = vars(result).get("rows")
        assert (carried is not None) == all("rows" in vars(z) for z in operands)
        if carried is not None:
            fresh = Cycle(g, result.vec).rows
            assert carried == fresh and list(map(type, carried)) == list(map(type, fresh))


class TestCorpusNames:
    def test_every_d_n_resolves(self):
        for n in range(4, 41):
            assert corpus.get(f"D{n}").graph == corpus.d_n(n)

    @pytest.mark.parametrize("name", ["D3", "D04", "D0"])
    def test_bad_d_names_rejected(self, name):
        with pytest.raises(InputError):
            corpus.get(name)

    @pytest.mark.parametrize("name", ["A" + "1" * 5000, "D" + "9" * 5000, f"HJ(2,{'1' * 5000})", "A12345",
                                      "D10000", f"HJ({'9' * 100},2)", "A3\n"],
                             ids=["A-5000", "D-5000", "HJ-5000", "A12345", "D10000", "HJ-100", "newline"])
    def test_a_number_past_its_digits_is_refused_before_any_graph_is_built(self, name):
        with pytest.raises(InputError, match="^unknown corpus name"):
            corpus.get(name)

    @pytest.mark.parametrize("name", ["HJ(10001,10000)", f"HJ({10 ** 98 + 1},{10 ** 98})"])
    def test_an_hj_chain_of_more_than_9999_curves_is_refused_before_it_is_built(self, name):
        with pytest.raises(InputError, match="^HJ chains have at most 9999 curves$"):
            corpus.get(name)

    @pytest.mark.parametrize("name, curves", [("A160", 160), ("D40", 40), ("HJ(12,5)", 3), ("HJ(12345,2)", 2),
                                              (f"HJ({10 ** 98 + 1},2)", 2)])
    def test_names_within_the_bounds_resolve(self, name, curves):
        assert len(corpus.get(name).graph.vertices) == curves


# --- the sparse elimination against dense determinants ----------------------


def _leading_minor_test(m):
    """Sylvester's criterion the slow way: every leading minor of -M > 0."""
    neg = [[-x for x in row] for row in m]
    return all(dense_det([row[:k] for row in neg[:k]]) > 0 for k in range(1, len(m) + 1))


@st.composite
def small_graphs(draw):
    """Any small weighted graph: indefinite, singular, E^2 >= 0, cycles, multi-edges."""
    n = draw(st.integers(min_value=1, max_value=6))
    ids = [f"E{i}" for i in range(n)]
    verts = [(vid, draw(st.integers(-6, 2)), draw(st.integers(-3, 3))) for vid in ids]
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    return dual_graph("g", verts, edges)


@st.composite
def sized_graphs(draw):
    """Graphs of up to 40 vertices: chains, trees, and cycles with chords and
    double edges, E^2 from -6 to 2 (-2 drawn as often as the rest), a few
    edges left out so that some are not connected or have isolated
    vertices.  Zero pivots, singular forms and pivot rows rescaled from a
    stale scale all occur."""
    n = draw(st.integers(min_value=1, max_value=40))
    shape = draw(st.sampled_from(["chain", "tree", "cycle"]))
    ids = [f"E{i:02d}" for i in range(n)]
    e2 = draw(st.lists(st.one_of(st.just(-2), st.integers(-6, 2)), min_size=n, max_size=n))
    kappa = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    parents = [draw(st.integers(0, i - 1)) if shape == "tree" else i - 1 for i in range(1, n)]
    edges = [(parents[i - 1], i) for i in range(1, n)]
    if shape == "cycle" and n > 2:
        edges.append((n - 1, 0))
        pick = st.integers(0, n - 1)
        edges += [e for e in draw(st.lists(st.tuples(pick, pick), max_size=4)) if e[0] != e[1]]
        edges += [edges[k] for k in draw(st.lists(st.integers(0, n - 1), max_size=4))]
    if edges:
        gone = draw(st.sets(st.integers(0, len(edges) - 1), max_size=3))
        edges = [e for k, e in enumerate(edges) if k not in gone]
    return dual_graph("g", zip(ids, e2, kappa), [(ids[a], ids[b]) for a, b in edges])


class TestElimination:
    def test_zero_pivot_takes_another_column(self):
        e = _eliminate([{1: 1}, {0: 1}], [2, 3])
        assert (e.negative_definite, e.det, e.solution) == (False, -1, (3, 2))

    def test_singular_matrix(self):
        e = _eliminate([{0: -2, 1: 2}, {0: 2, 1: -2}], [1, 1])
        assert (e.negative_definite, e.det, e.solution) == (False, 0, None)

    def test_large_chain_is_exact(self):
        g = corpus.get("A160").graph
        assert validate_graph(g).ok
        assert _eliminate(g.sparse_matrix()).det == 161
        assert canonical_cycle(g).is_zero

    @given(small_graphs())
    def test_agrees_with_dense_determinants(self, g):
        m = g.matrix()
        e = _eliminate(g.sparse_matrix())
        assert e.negative_definite == g.negative_definite == _leading_minor_test(m)
        assert e.det == dense_det(m) == det_bareiss(m)
        if e.det == 0:
            with pytest.raises(PreconditionError, match="singular intersection matrix"):
                canonical_cycle(g)
        else:
            zk = canonical_cycle(g)
            assert all(row_pairing(zk, v.id) == -v.kappa for v in g.vertices)

    @settings(max_examples=60, deadline=None)
    @given(sized_graphs())
    def test_agrees_with_the_dense_references_at_size(self, g):
        """det, definiteness by the leading minors, the exact solution of
        M x = -kappa with ints where integral, and connectivity with the
        walk by vertex id, on graphs of up to 40 vertices."""
        m = g.matrix()
        e = g._elimination
        minors = leading_minors([[-x for x in row] for row in m])
        assert e.negative_definite == (len(minors) == len(m) and min(minors) > 0)
        assert e.det == dense_det(m)
        x = e.solution
        if e.det == 0:
            assert x is None
        else:
            assert [type(v) for v in x] == [type(normal(v)) for v in x]
            assert [sum(map(operator.mul, row, x)) for row in m] == [-v.kappa for v in g.vertices]
        missing = unreachable(g)
        report = validate_graph(g)
        assert report.connected == (not missing)
        text = [f"graph is not connected (unreachable: {', '.join(missing)})"] if missing else []
        assert [f for f in report.failures if "connected" in f] == text
