"""Brute-force oracles: independent checks of the fast algorithms."""

from fractions import Fraction

import pytest

from antinef import corpus
from antinef.birational import Tower, free_point
from antinef.errors import PreconditionError
from antinef.graph import cycle, dual_graph, unit_cycle, zero_cycle
from antinef.ideals import colon_and_core, represent, singularity_model
from antinef.lattice import antinef_closure, fundamental_cycle, is_antinef
from antinef.oracle import (
    SearchBound,
    antinef_closure_bruteforce,
    enumerate_max_Y,
    fundamental_cycle_bruteforce,
    negdef_bruteforce,
)


class TestFundamentalCycleOracle:
    @pytest.mark.parametrize("name", ["A1", "A6", "D5", "E6", "HJ(11,3)", "ex244min"])
    def test_matches_worklist_algorithm(self, name):
        g = corpus.get(name).graph
        zf = fundamental_cycle(g)
        top = max(c for _, c in zf.coeffs)
        assert fundamental_cycle_bruteforce(g, SearchBound(max_coeff=top)) == zf

    def test_candidate_cap(self):
        g = corpus.get("E8").graph
        with pytest.raises(PreconditionError):
            fundamental_cycle_bruteforce(g, SearchBound(max_coeff=6, max_candidates=100))


class TestClosureOracle:
    @pytest.mark.parametrize("name", ["A3", "D5", "HJ(7,3)"])
    def test_matches_laufer_closure(self, name):
        g = corpus.get(name).graph
        for d in [unit_cycle(g, g.ids[0]), cycle(g, {g.ids[-1]: 3, g.ids[1]: 1})]:
            assert antinef_closure_bruteforce(d, SearchBound(max_coeff=8)) == antinef_closure(d)

    def test_seed_above_the_box_finds_none(self):
        g = corpus.get("A3").graph
        assert antinef_closure_bruteforce(cycle(g, {"E1": 4}), SearchBound(max_coeff=3)) is None

    def test_fractional_seed_counts_as_its_ceiling(self):
        g = corpus.get("A3").graph
        d = cycle(g, {"E1": Fraction(1, 2), "E3": Fraction(5, 3)})
        assert antinef_closure_bruteforce(d, SearchBound(max_coeff=4)) == antinef_closure(cycle(g, {"E1": 1, "E3": 2}))

    def test_exact_on_huge_weights(self):
        g = dual_graph("huge", [("E", -(2**62), 2**62 - 2)])
        closure = antinef_closure_bruteforce(unit_cycle(g, "E"), SearchBound(max_coeff=2))
        assert str(closure) == "1*E"


class TestNegdefOracle:
    def test_agrees_with_sylvester(self):
        good = corpus.get("D4").graph
        bad = dual_graph(
            "cycle3",
            [("A", -2, 0), ("B", -2, 0), ("C", -2, 0)],
            [("A", "B"), ("B", "C"), ("A", "C")],
        )
        for g in (good, bad):
            assert negdef_bruteforce(g, SearchBound(max_coeff=4)) == g.negative_definite

    # D4~ is semidefinite: its null cycle 2C + L0 + L1 + L2 + L3 has W.W = 0 at
    # the vertex of its run along a leaf, away from the run's ends.  E + F has
    # W.W = 0 at F = 1, the integer just above the vertex 3/5 of its run along
    # F, where W.W = -1 at F = 0.
    @pytest.mark.parametrize("g, b", [
        (d4_affine := dual_graph("D4~", [("C", -2, 0)] + [(f"L{k}", -2, 0) for k in range(4)],
                                 [("C", f"L{k}") for k in range(4)]), 3),
        (d4_affine, 4),
        (dual_graph("EF", [("E", -1, -1), ("F", -5, 3)], [("E", "F", 3)]), 1),
    ], ids=["D4~-3", "D4~-4", "EF-1"])
    def test_finds_w_w_nonnegative_next_to_the_vertex_of_a_run(self, g, b):
        assert not g.negative_definite
        assert negdef_bruteforce(g, SearchBound(max_coeff=b)) is False

    def test_exact_on_huge_weights(self):
        # W.M.W leaves int64 once |W_i| >= 2; the search is in exact integers
        g = dual_graph("huge", [("E", -(2**62), 2**62 - 2)])
        assert negdef_bruteforce(g, SearchBound(max_coeff=2)) is True
        assert negdef_bruteforce(g, SearchBound(max_coeff=1)) is True
        y = enumerate_max_Y(cycle(g, {"E": 3}), zero_cycle(g), bound=SearchBound(max_coeff=3))
        assert str(y) == "0"


class TestEnumerateMaxY:
    def test_a1b_example(self, a1b):
        z = cycle(a1b, {"E": 1, "C1": 2})
        y = enumerate_max_Y(z, zero_cycle(a1b))
        assert y == cycle(a1b, {"C1": 1})

    def test_good_ideal_gives_zero(self):
        g = corpus.get("A2").graph
        zf = fundamental_cycle(g)
        assert enumerate_max_Y(zf, zero_cycle(g)) == zero_cycle(g)

    def test_matches_algorithm_on_chain(self, chain):
        base = corpus.get("A1").graph
        model = singularity_model(base, gorenstein=True)
        t = Tower.base(base).blow_up(free_point("E1", "C1")).blow_up(free_point("C1", "C2"))
        z = cycle(t.top, {"E1": 2, "C1": 4, "C2": 5})
        ideal = represent(model, t, 2, z)
        rep = colon_and_core(ideal)
        assert enumerate_max_Y(ideal.z, ideal.c) == rep.y

    def test_respects_cohom_cycle(self, ex244):
        t = ex244.tower
        z = ex244.cycles["Z"]
        c = unit_cycle(t.top, "E0")
        assert enumerate_max_Y(z, c) == zero_cycle(t.top)

    def test_cohom_cycle_on_another_graph(self):
        g, other = corpus.get("A2").graph, corpus.get("A3").graph
        # E3 is not on A2; E1 is, but the cycle still lives on A3
        for vid in ("E3", "E1"):
            with pytest.raises(PreconditionError, match="cycles live on different graphs"):
                enumerate_max_Y(fundamental_cycle(g), unit_cycle(other, vid))

    @pytest.mark.parametrize("coeff", [-1, Fraction(1, 2)])
    def test_refuses_a_cohomological_cycle_that_is_not_effective_and_integral(self, a1b, coeff):
        z = cycle(a1b, {"E": 1, "C1": 2})
        with pytest.raises(PreconditionError, match="^oracle needs an effective integral C$"):
            enumerate_max_Y(z, cycle(a1b, {"E": coeff}))

    def test_candidate_guard(self):
        g = corpus.get("E8").graph
        z = 6 * fundamental_cycle(g)
        with pytest.raises(PreconditionError):
            enumerate_max_Y(z, zero_cycle(g), bound=SearchBound(max_candidates=10))


@pytest.mark.parametrize("bound", [
    SearchBound(max_coeff=0), SearchBound(max_coeff=-1), SearchBound(max_vertices=0), SearchBound(max_candidates=0),
])
def test_every_oracle_refuses_a_bound_that_is_not_positive(bound):
    g = corpus.get("A3").graph
    z = fundamental_cycle(g)
    for call in (lambda: enumerate_max_Y(z, zero_cycle(g), bound=bound),
                 lambda: antinef_closure_bruteforce(z, bound),
                 lambda: fundamental_cycle_bruteforce(g, bound),
                 lambda: negdef_bruteforce(g, bound)):
        with pytest.raises(PreconditionError, match="^search bounds must be positive$"):
            call()
