"""Pairing, fundamental/canonical cycles, rationality, colength."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracle_reference as reference
from antinef import corpus, graph, lattice
from antinef.errors import InputError, PreconditionError
from antinef.graph import cycle, dual_graph, unit_cycle, validate_graph
from antinef.lattice import (
    antinef_closure,
    arithmetic_genus,
    canonical_cycle,
    colength,
    contracts_to_smooth,
    epsilon,
    fundamental_cycle,
    is_antinef,
    is_numerically_gorenstein,
    is_rational,
    k_dot,
    multiplicity,
    pair,
)


class TestFundamentalCycle:
    def test_an_is_reduced(self):
        # the fundamental cycle of A_n is the sum of all curves
        for n in (1, 3, 6, 9):
            g = corpus.get(f"A{n}").graph
            zf = fundamental_cycle(g)
            assert zf == cycle(g, {vid: 1 for vid in g.ids})

    def test_e8_highest_root(self):
        # coefficients of the E8 highest root, cross-checked by brute force
        # in the acceptance suite
        g = corpus.get("E8").graph
        zf = fundamental_cycle(g)
        assert zf.as_dict() == {
            "E1": 2, "E2": 4, "E3": 6, "E4": 5, "E5": 4, "E6": 3, "E7": 2, "E8": 3
        }

    def test_start_independence(self):
        g = corpus.get("D5").graph
        zfs = {fundamental_cycle(g, start=vid) for vid in g.ids}
        assert len(zfs) == 1

    def test_is_antinef_and_minimal_support(self):
        for name in ("A4", "D6", "E7", "HJ(11,4)", "ex244min"):
            g = corpus.get(name).graph
            zf = fundamental_cycle(g)
            assert is_antinef(zf)
            assert set(zf.support) == set(g.ids)


class TestAntinefClosure:
    def test_closure_dominates_and_is_antinef(self, a1b):
        d = cycle(a1b, {"C1": 1})
        z = antinef_closure(d)
        assert is_antinef(z) and z.dominates(d)

    def test_closure_of_antinef_is_identity(self):
        g = corpus.get("D4").graph
        zf = fundamental_cycle(g)
        assert antinef_closure(zf) == zf

    def test_trace_replays(self):
        g = corpus.get("E6").graph
        steps = []
        z = antinef_closure(unit_cycle(g, "E1"), on_step=lambda vid, c: steps.append((vid, c)))
        replay = {vid: 0 for vid in g.ids}
        replay["E1"] = 1
        for vid, c in steps:
            replay[vid] = c
        assert cycle(g, replay) == z

    def test_rejects_non_effective_seed(self):
        g = corpus.get("A2").graph
        with pytest.raises(PreconditionError):
            antinef_closure(cycle(g, {"E1": -1}))

    def test_indefinite_graph_fails_within_n_raises(self):
        # two (-1)-curves meeting twice: det M = -3
        g = dual_graph("twice", [("E1", -1, -1), ("E2", -1, -1)], [("E1", "E2", 2)])
        steps = []
        with pytest.raises(PreconditionError, match="needs a negative-definite graph"):
            antinef_closure(unit_cycle(g, "E1"), on_step=lambda vid, c: steps.append((vid, c)))
        assert steps == []  # refused before the first raise

    def test_nonnegative_self_intersection_fails_at_once(self):
        g = dual_graph("g", [("E1", -2, 0), ("E2", 0, -2)], [("E1", "E2")])
        with pytest.raises(PreconditionError, match="needs a negative-definite graph"):
            antinef_closure(unit_cycle(g, "E1"))

    def test_large_seed_takes_few_raises(self):
        g = corpus.get("E8").graph
        d = cycle(g, {"E1": 1000})
        steps = []
        z = antinef_closure(d, on_step=lambda vid, c: steps.append(vid))
        assert z == _unit_step_closure(d)
        # +1 raises would take sum(Z - D) = 10500 steps
        assert sum(z.vector()) - 1000 == 10500 and len(steps) < 1000


def _unit_step_closure(d):
    """Laufer's loop with +1 raises: the reference for the jumping closure."""
    g = d.graph
    z = dict(zip(g.ids, d.vector()))
    dirty = True
    while dirty:
        dirty = False
        for vid in g.ids:
            row = z[vid] * g.vertex(vid).self_int + sum(m * z[o] for o, m in g.adjacency[vid])
            if row > 0:
                z[vid] += 1
                dirty = True
    return cycle(g, z)


@st.composite
def definite_graphs(draw):
    """Random connected graphs with -E_i^2 above the weighted degree, so the
    form is negative definite; cycles and double edges included."""
    n = draw(st.integers(min_value=1, max_value=7))
    mult = {}
    for i in range(1, n):
        mult[(draw(st.integers(0, i - 1)), i)] = 1
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        if u != v:
            key = (min(u, v), max(u, v))
            mult[key] = mult.get(key, 0) + 1
    wdeg = [0] * n
    for (u, v), m in mult.items():
        wdeg[u] += m
        wdeg[v] += m
    verts = [(f"E{i}", -(wdeg[i] + draw(st.integers(1, 2))), 0) for i in range(n)]
    return dual_graph("g", verts, [(f"E{u}", f"E{v}", m) for (u, v), m in mult.items()])


@given(definite_graphs(), st.data())
def test_jumping_closure_matches_unit_steps(g, data):
    seed = {vid: data.draw(st.integers(0, 30)) for vid in g.ids}
    seed[g.ids[0]] += 1
    d = cycle(g, seed)
    steps = []
    z = antinef_closure(d, on_step=lambda vid, c: steps.append((vid, c)))
    assert z == _unit_step_closure(d)
    replay = dict(zip(g.ids, d.vector()))
    for vid, c in steps:
        assert c > replay[vid]
        replay[vid] = c
    assert cycle(g, replay) == z


class TestCanonicalCycle:
    def test_ade_canonical_is_zero(self):
        for name in ("A3", "D4", "E6", "E8"):
            assert canonical_cycle(corpus.get(name).graph).is_zero

    def test_residual_equation(self):
        from antinef.lattice import row_pairing

        for name in ("HJ(5,2)", "HJ(12,5)", "ex244min"):
            g = corpus.get(name).graph
            zk = canonical_cycle(g)
            assert all(row_pairing(zk, vid) + g.vertex(vid).kappa == 0 for vid in g.ids)

    def test_hj_canonical_is_fractional(self):
        zk = canonical_cycle(corpus.get("HJ(5,2)").graph)
        assert not zk.is_integral
        assert not is_numerically_gorenstein(corpus.get("HJ(5,2)").graph)

    def test_ex244_canonical(self, ex244):
        base = ex244.tower.levels[0]
        assert canonical_cycle(base) == unit_cycle(base, "E0")
        assert is_numerically_gorenstein(base)


class TestGenusAndRationality:
    def test_pa_of_single_curves(self):
        g = corpus.get("A1").graph
        assert arithmetic_genus(unit_cycle(g, "E1")) == 0
        e0 = corpus.get("ex244min").graph
        assert arithmetic_genus(unit_cycle(e0, "E0")) == 1

    def test_rational_corpus(self):
        for name in ("A7", "D8", "E7", "HJ(12,7)"):
            assert is_rational(corpus.get(name).graph)
        assert not is_rational(corpus.get("ex244min").graph)

    def test_pa_additive_formula(self, chain):
        # p_a(A+B) = p_a(A) + p_a(B) + A.B - 1
        a = cycle(chain, {"E1": 1, "C1": 2})
        b = cycle(chain, {"C1": 1, "C2": 3})
        lhs = arithmetic_genus(a + b)
        assert lhs == arithmetic_genus(a) + arithmetic_genus(b) + pair(a, b) - 1


class TestColengthAndMultiplicity:
    def test_a1_maximal_ideal(self):
        g = corpus.get("A1").graph
        zf = fundamental_cycle(g)
        assert multiplicity(zf) == 2
        assert colength(zf) == 1

    def test_ex244_values(self, ex244):
        base = ex244.tower.levels[0]
        m3 = 3 * unit_cycle(base, "E0")
        assert multiplicity(m3) == 18
        assert colength(m3, pg=1, h1=0) == 7
        z = ex244.cycles["Z"]
        assert multiplicity(z) == 12
        assert k_dot(z) == 0
        assert colength(z, pg=1, h1=1) == 6

    def test_h1_bounds(self):
        g = corpus.get("A1").graph
        zf = fundamental_cycle(g)
        with pytest.raises(PreconditionError):
            colength(zf, pg=0, h1=1)

    def test_non_antinef_rejected(self, a1b):
        with pytest.raises(PreconditionError):
            colength(unit_cycle(a1b, "E"))

    def test_epsilon_range(self):
        assert epsilon(1, 0, 0, 0) == 1
        assert epsilon(1, 1, 1, 1) == 0
        with pytest.raises(PreconditionError):
            epsilon(1, 1, 1, 0)  # value -1 falls outside [0, pg]


class TestContractsToSmooth:
    def test_zero_cycle(self):
        from antinef.graph import zero_cycle

        assert contracts_to_smooth(zero_cycle(corpus.get("A1").graph))

    def test_exceptional_cycle_of_blowup(self, a1b):
        assert contracts_to_smooth(unit_cycle(a1b, "C1"))
        assert not contracts_to_smooth(unit_cycle(a1b, "E"))


_SMALL = ["A1", "A2", "A3", "D4", "HJ(5,2)", "HJ(7,3)"]


@given(
    name=st.sampled_from(_SMALL),
    data=st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
)
def test_closure_is_monotone_and_idempotent(name, data):
    g = corpus.get(name).graph
    d = cycle(g, dict(zip(g.ids, data)))
    if d.is_zero:
        d = unit_cycle(g, g.ids[0])
    z = antinef_closure(d)
    assert is_antinef(z) and z.dominates(d)
    assert antinef_closure(z) == z
    bigger = antinef_closure(d + unit_cycle(g, g.ids[-1]))
    assert bigger.dominates(z) or bigger == z


@given(
    a=st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
    b=st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_pairing_is_symmetric_bilinear(a, b):
    g = corpus.get("D4").graph
    za = cycle(g, dict(zip(g.ids, a)))
    zb = cycle(g, dict(zip(g.ids, b)))
    assert pair(za, zb) == pair(zb, za)
    assert pair(za + zb, zb) == pair(za, zb) + pair(zb, zb)
    if not za.is_zero:
        assert pair(za, za) < 0  # negative definiteness


# --- one elimination and one fundamental cycle per graph ------------------------------


def test_a_graph_is_eliminated_once_and_closed_from_e1_once(monkeypatch):
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(graph, "_eliminate")
    for module in (graph, lattice):
        counted(module, "laufer_closure")
    g = corpus.get("HJ(12,5)").graph
    for _ in range(2):
        assert validate_graph(g).ok
        assert not canonical_cycle(g).is_integral
        zf = fundamental_cycle(g)
        assert is_rational(g)
        assert (multiplicity(zf), colength(zf)) == (-pair(zf, zf), 1)
    assert calls == {"_eliminate": 1, "laufer_closure": 1}
    # an explicit start or a listener runs the closure again
    steps = []
    assert fundamental_cycle(g, start=g.ids[-1]) == fundamental_cycle(g, on_step=lambda *s: steps.append(s)) == zf
    assert calls == {"_eliminate": 1, "laufer_closure": 3} and steps


def test_definiteness_alone_builds_no_canonical_cycle_and_two_reads_build_it_once():
    g = dual_graph("hj52", [("E1", -3, 1), ("E2", -2, 0)], [("E1", "E2")])  # fresh: nothing cached
    assert validate_graph(g).ok
    e = g._elimination
    assert "solution" not in vars(e)  # the back-substitution has not run
    zk = canonical_cycle(g)
    assert canonical_cycle(g).vec is zk.vec is e.solution and g._elimination is e
    assert zk == cycle(g, {"E1": Fraction(2, 5), "E2": Fraction(1, 5)})


def test_a_read_canonical_cycle_lets_the_pivot_rows_go():
    d = corpus.get("D12").graph
    for g in (dual_graph("hj52", [("E1", -3, 1), ("E2", -2, 0)], [("E1", "E2")]),
              dual_graph(d.name, d.vertices, d.edges)):  # fresh: nothing cached
        assert validate_graph(g).ok
        e = g._elimination
        assert e._steps  # kept while Z_K is unread
        zk = canonical_cycle(g)
        assert e._steps is None and g._elimination is e
        assert canonical_cycle(g) == zk and zk.rows == tuple(-v.kappa for v in g.vertices)  # Z_K.E = -K.E


def test_row_pairing_names_an_unknown_vertex_like_coeff():
    z = fundamental_cycle(corpus.get("A3").graph)
    for read in (z.coeff, lambda vid: lattice.row_pairing(z, vid)):
        with pytest.raises(InputError) as err:
            read("nope")
        assert str(err.value) == "graph 'A3' has no vertex 'nope'"


def test_errors_are_raised_again_on_every_call():
    # the indefinite graph of lattice-sweep: two (-1)-curves meeting twice
    g = dual_graph("indefinite", [("E1", -1, -1), ("E2", -1, -1)], [("E1", "E2", 2)])
    flat = dual_graph("flat", [("E1", -2, 0), ("E2", -2, 0)], [("E1", "E2", 2)])
    # graphs whose closures need at most one raise: E^2 = 0, and det M = 0
    zero = dual_graph("zero", [("E", 0, -2)])
    semi = dual_graph("semi", [("E1", -1, -1), ("E2", -1, -1)], [("E1", "E2")])
    refused = "antinef_closure needs a negative-definite graph; {!r} is not"
    for call, message in [
        (lambda: fundamental_cycle(g), refused.format("indefinite")),
        (lambda: is_rational(g), refused.format("indefinite")),
        (lambda: antinef_closure(unit_cycle(g, "E1")), refused.format("indefinite")),
        (lambda: canonical_cycle(flat), "graph 'flat' has singular intersection matrix"),
        (lambda: fundamental_cycle(zero), refused.format("zero")),
        (lambda: is_rational(zero), refused.format("zero")),
        (lambda: antinef_closure(unit_cycle(zero, "E")), refused.format("zero")),
        (lambda: fundamental_cycle(semi), refused.format("semi")),
        (lambda: fundamental_cycle(semi, start="E2"), refused.format("semi")),
        (lambda: is_rational(semi), refused.format("semi")),
        (lambda: antinef_closure(cycle(semi, {"E1": 1, "E2": 1})), refused.format("semi")),
        (lambda: epsilon(1, 2, 0, 0), "h1_Z=2 outside [0, pg=1]"),
        (lambda: contracts_to_smooth(-unit_cycle(flat, "E1")), "contracts_to_smooth needs an effective cycle"),
        (lambda: pair(unit_cycle(zero, "E"), unit_cycle(semi, "E1")),
         "cycles live on different graphs ('zero' vs 'semi')"),
        (lambda: unit_cycle(zero, "E").dominates(unit_cycle(semi, "E1")),
         "cycles live on different graphs ('zero' vs 'semi')"),
    ]:
        for _ in range(2):
            with pytest.raises(PreconditionError) as err:
                call()
            assert str(err.value) == message


@st.composite
def rational_trees_and_multigraphs(draw):
    """Random rational trees (-E_i^2 >= max(deg, 2)) and multigraphs with
    cycles and double edges (-E_i^2 above the weighted degree), n <= 40."""
    n = draw(st.integers(min_value=1, max_value=40))
    mult = {(draw(st.integers(0, i - 1)), i): 1 for i in range(1, n)}
    tree = draw(st.booleans())
    if not tree:
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n // 4 + 1)):
            if u != v:
                key = (min(u, v), max(u, v))
                mult[key] = min(mult.get(key, 0) + 1, 2)
    wdeg = [0] * n
    for (u, v), m in mult.items():
        wdeg[u] += m
        wdeg[v] += m
    selfs = [-(max(d, 2) if tree else d + 1) - draw(st.integers(0, 1)) for d in wdeg]
    verts = [(f"E{i + 1}", s, -2 - s) for i, s in enumerate(selfs)]
    return dual_graph("tree" if tree else "multi", verts, [(f"E{u + 1}", f"E{v + 1}", m) for (u, v), m in mult.items()])


def _closes_like_the_reference(d):
    """The kernel's closure of d with a listener that compares each raise with
    the dict-based reference's as it happens, so a kernel that would never
    stop fails at its first wrong raise."""
    want = []
    z = reference.antinef_closure(d, on_step=lambda vid, c: want.append((vid, c)))
    steps = iter(want)

    def same(vid, c):
        assert (vid, c) == next(steps, None)
    return z, same, steps


@settings(max_examples=80, deadline=None)
@given(rational_trees_and_multigraphs(), st.data())
def test_the_kernel_raises_like_the_reference_and_every_start_gives_the_cached_zf(g, data):
    seed = data.draw(st.dictionaries(st.sampled_from(g.ids), st.integers(0, 5), max_size=3))
    seed[g.ids[0]] = data.draw(st.integers(1, 1000))
    d = cycle(g, seed)
    z, same, rest = _closes_like_the_reference(d)
    assert antinef_closure(d, on_step=same) == z and next(rest, None) is None
    for vid in g.ids:
        zf, same, rest = _closes_like_the_reference(unit_cycle(g, vid))
        assert fundamental_cycle(g, start=vid, on_step=same) == zf and next(rest, None) is None
    assert fundamental_cycle(g) == zf and all(fundamental_cycle(g, start=vid) == zf for vid in g.ids)
