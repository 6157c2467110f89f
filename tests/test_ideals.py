"""Ideal representations: colon, core, goodness, cones."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from antinef import birational, corpus, graph, ideals, lattice
from antinef.birational import Tower, TowerStep, contract, edge_point, free_point, relative_canonical
from antinef.errors import PreconditionError, TheoremViolationError
from antinef.graph import cycle, dual_graph, unit_cycle
from antinef.ideals import (
    colon_and_core,
    cone_model,
    core_monotone_check,
    good_closure,
    good_gorenstein_crosscheck,
    includes,
    is_good,
    product,
    represent,
    singularity_model,
    stability_defect,
)
from antinef.lattice import antinef_closure, colength, fundamental_cycle, multiplicity, pair, row_pairing
from oracle_reference import is_good as reference_is_good, lift
from towers import grow


def _rational_ideal(base, steps, z_coeffs, gorenstein=False):
    model = singularity_model(base, gorenstein=gorenstein)
    t = Tower.base(base)
    for center in steps:
        t = t.blow_up(center)
    z = cycle(t.top, z_coeffs)
    return model, represent(model, t, t.height, z)


@pytest.fixture
def a1b_ideal():
    base = corpus.get("A1").graph
    return _rational_ideal(
        base, [free_point("E1", "C1")], {"E1": 1, "C1": 2}, gorenstein=True
    )


@pytest.fixture
def chain_ideal():
    base = corpus.get("A1").graph
    return _rational_ideal(
        base,
        [free_point("E1", "C1"), free_point("C1", "C2")],
        {"E1": 2, "C1": 4, "C2": 5},
        gorenstein=True,
    )


@pytest.fixture
def ex244_ideal(ex244):
    t = ex244.tower
    model = singularity_model(t.levels[0], pg=1, gorenstein=True)
    return model, represent(model, t, 4, ex244.cycles["Z"])


class TestModel:
    def test_minimality_enforced(self, a1b):
        with pytest.raises(PreconditionError):
            singularity_model(a1b)

    def test_rational_forces_pg_zero(self):
        with pytest.raises(PreconditionError):
            singularity_model(corpus.get("A1").graph, pg=1)

    def test_non_rational_needs_pg(self):
        with pytest.raises(PreconditionError):
            singularity_model(corpus.get("ex244min").graph)

    @pytest.mark.parametrize("call, message", [
        (lambda model, t, other, m2: singularity_model(model.base, pg=1, c_base=unit_cycle(other, "E0")),
         "cohomological cycle must live on the base graph"),
        (lambda model, t, other, m2: represent(model, Tower.base(other), 0, unit_cycle(other, "E0")),
         "tower must sit over the model's base graph"),
        (lambda model, t, other, m2: represent(model, t, 0, unit_cycle(other, "E0"), h1=1),
         "cycle lives on 'other', not tower level 0"),
        (lambda model, t, other, m2: good_gorenstein_crosscheck(
            _rational_ideal(corpus.get("HJ(5,2)").graph, [], {"E1": 1, "E2": 1})[1]),
         "this criterion needs a Gorenstein model"),
        (lambda model, t, other, m2: good_gorenstein_crosscheck(m2),
         "this criterion needs a numerically-p_g (hence stable) ideal"),
        (lambda model, t, other, m2: stability_defect(m2), "non-p_g ideal needs caller-supplied h1(-2Z)"),
    ], ids=["c-on-another-graph", "tower-over-another-base", "z-on-another-graph", "crosscheck-not-gorenstein",
            "crosscheck-not-pg", "defect-without-h1"])
    def test_a_refusal_names_its_cause(self, ex244, call, message):
        t = ex244.tower
        model = singularity_model(t.bottom, pg=1, gorenstein=True)
        other = dual_graph("other", [("E0", -2, 2)])  # ex244min's lattice under another name
        m2 = represent(model, t, 0, 2 * unit_cycle(t.bottom, "E0"), h1=0)  # not numerically p_g
        with pytest.raises(PreconditionError) as err:
            call(model, t, other, m2)
        assert str(err.value) == message

    def test_gorenstein_cohom_is_canonical(self):
        base = corpus.get("ex244min").graph
        model = singularity_model(base, pg=1, gorenstein=True)
        assert model.c_base == unit_cycle(base, "E0")

    def test_represent_rejects_non_antinef(self):
        base = corpus.get("A2").graph
        model = singularity_model(base, gorenstein=True)
        with pytest.raises(PreconditionError):
            represent(model, Tower.base(base), 0, unit_cycle(base, "E1"))


class TestColonCore:
    def test_a1b_example(self, a1b_ideal):
        _, ideal = a1b_ideal
        rep = colon_and_core(ideal)
        g = ideal.z.graph
        assert rep.y == cycle(g, {"C1": 1})
        assert rep.colon_cycle == cycle(g, {"E1": 1, "C1": 1})
        assert rep.core_cycle == cycle(g, {"E1": 2, "C1": 3})
        assert rep.b == (1,)
        assert not rep.good
        assert rep.iterations_to_good == 1
        assert colength(rep.core_cycle, 0, 0) == 5

    def test_chain_example(self, chain_ideal):
        _, ideal = chain_ideal
        rep = colon_and_core(ideal)
        g = ideal.z.graph
        assert rep.y == cycle(g, {"C1": 1, "C2": 2})
        assert rep.colon_cycle == cycle(g, {"E1": 2, "C1": 3, "C2": 3})
        assert rep.core_cycle == cycle(g, {"E1": 4, "C1": 7, "C2": 8})
        assert sorted(rep.b) == [1, 2]
        assert rep.iterations_to_good == 2

    def test_good_ideal_has_core_2z(self, ex244_ideal):
        _, ideal = ex244_ideal
        rep = colon_and_core(ideal)
        assert rep.good and rep.y.is_zero
        assert rep.colon_cycle == ideal.z
        assert rep.core_cycle == 2 * ideal.z

    def test_colon_is_sandwiched(self, chain_ideal):
        # I subset Q:I subset good closure direction: Z - Y <= Z
        _, ideal = chain_ideal
        rep = colon_and_core(ideal)
        assert ideal.z.dominates(rep.colon_cycle)
        assert rep.colon_cycle.is_effective

    def test_computes_no_colength(self, chain_ideal, ex244_ideal):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            _count_calls(mp, lattice, "colength", calls)
            _count_calls(mp, ideals, "colength", calls)
            for _, ideal in (chain_ideal, ex244_ideal):
                colon_and_core(ideal)
            assert calls == []
            good_gorenstein_crosscheck(ex244_ideal[1])  # a caller of colength, seen through the patch
        assert calls == [ex244_ideal[1].z]

    @pytest.mark.parametrize("plant, message", [
        (lambda mp, ideal: _b1_lowered_to(ideal, -1), "b_1 = -1 < 0"),
        (lambda mp, ideal: mp.setattr(ideals, "contracts_to_smooth", lambda y: False),
         "does not contract to a smooth point"),
        (lambda mp, ideal: mp.setattr(ideals, "Cycle", lambda g, vec: 2 * ideal.z)
         or mp.setattr(ideals, "contracts_to_smooth", lambda y: True),
         "is not an effective anti-nef cycle"),
        (lambda mp, ideal: mp.setattr(ideals, "is_antinef", lambda w: False), "is not an effective anti-nef cycle"),
        (lambda mp, ideal: mp.setattr(ideals, "_pg_numeric", lambda w, c: False), "is not numerically p_g"),
    ], ids=["negative-b", "y-not-smooth", "colon-not-effective", "colon-not-antinef", "colon-not-pg"])
    def test_every_theorem_guard_raises(self, chain_ideal, plant, message):
        """Each guard raises on its own fault, planted where colon/core reads
        it: b from Z's vector, Y (here 2Z) as the cycle its pass builds, and
        the checks on Y and Z - Y.  A plant returns the ideal to run, or None
        for the ideal as it is."""
        _, ideal = chain_ideal
        colon_and_core(ideal)  # the off-C sequence is kept, so a plant reaches only what Z enters
        with pytest.MonkeyPatch.context() as mp:
            planted = plant(mp, ideal) or ideal
            with pytest.raises(TheoremViolationError, match=message):
                colon_and_core(planted)

    def test_needs_pg_numeric(self, ex244):
        t = ex244.tower
        base = t.levels[0]
        model = singularity_model(base, pg=1, gorenstein=True)
        # 2E0 on the base pairs -4 with E0 in supp C: not numerically p_g
        ideal = represent(model, t, 0, 2 * unit_cycle(base, "E0"), h1=0)
        assert not ideal.pg_numeric
        with pytest.raises(PreconditionError):
            colon_and_core(ideal)


def _b1_lowered_to(ideal, b1):
    """The ideal with Z lowered on E_1, the first curve the off-C sequence
    contracts, so that b_1 = Z[E_1] - sum m.Z[u] reads b1."""
    rep = colon_and_core(ideal)
    e1 = rep.contraction_tower.steps[-1].new_id
    return ideal._replace(z=ideal.z - (rep.b[0] - b1) * unit_cycle(ideal.z.graph, e1))


class TestGoodness:
    def test_is_good_matches_report(self, a1b_ideal, chain_ideal, ex244_ideal):
        for _, ideal in (a1b_ideal, chain_ideal, ex244_ideal):
            assert is_good(ideal) == colon_and_core(ideal).good

    def test_gorenstein_crosscheck(self, a1b_ideal, ex244_ideal):
        for _, ideal in (a1b_ideal, ex244_ideal):
            assert good_gorenstein_crosscheck(ideal) == is_good(ideal)

    def test_good_closure_reaches_base(self, chain_ideal):
        _, ideal = chain_ideal
        closed = good_closure(ideal)
        assert is_good(closed)
        assert closed.level == 0
        assert closed.z == 2 * unit_cycle(closed.z.graph, "E1")

    def test_good_closure_of_good_ideal_is_itself(self, ex244_ideal):
        _, ideal = ex244_ideal
        closed = good_closure(ideal)
        assert closed.z == ideal.z.restricted_to(closed.z.graph) or closed.z == ideal.z


class TestMonotonicity:
    def test_includes_is_reverse_domination(self, a1b_ideal):
        model, i1 = a1b_ideal
        g = i1.z.graph
        i2 = represent(model, i1.tower, i1.level, i1.z + cycle(g, {"E1": 1, "C1": 2}))
        assert includes(i2, i1)  # bigger cycle, smaller ideal
        assert not includes(i1, i2)
        assert core_monotone_check(i1, i2)

    def test_monotone_check_requires_nesting(self, a1b_ideal):
        model, i1 = a1b_ideal
        bigger = represent(
            model, i1.tower, i1.level, i1.z + cycle(i1.z.graph, {"E1": 1, "C1": 2})
        )
        with pytest.raises(PreconditionError):
            core_monotone_check(bigger, i1)  # arguments in the wrong order


class TestProduct:
    def test_product_adds_cycles(self, ex244_ideal):
        model, ideal = ex244_ideal
        sq = product(ideal, ideal)
        assert sq.z == 2 * ideal.z
        assert sq.h1 == model.pg

    def test_product_needs_pg_numeric_factor(self, ex244):
        t = ex244.tower
        base = t.levels[0]
        model = singularity_model(base, pg=1, gorenstein=True)
        m2 = represent(model, t, 0, 2 * unit_cycle(base, "E0"), h1=0)
        with pytest.raises(PreconditionError):
            product(m2, m2)


def _ex244_ideals_on_two_towers(ex244):
    """Z on the ex244 tower, and its pullback on that tower blown up once more."""
    t = ex244.tower
    model = singularity_model(t.bottom, pg=1, gorenstein=True)
    t2 = t.blow_up(free_point("E1", "F1"))
    z = ex244.cycles["Z"]
    return represent(model, t, 4, z), represent(model, t2, 5, t2.pullback(z, 4, 5))


class TestTwoIdealRefusals:
    """The refusals of the calls that bring two ideals to a common level."""

    @pytest.mark.parametrize("call, message", [
        (product, "product needs ideals on the same model and tower"),
        (includes, "containment needs ideals on the same model and tower"),
        (core_monotone_check, "containment needs ideals on the same model and tower"),
    ], ids=["product", "includes", "core_monotone_check"])
    def test_ideals_on_different_towers(self, ex244, call, message):
        i1, i2 = _ex244_ideals_on_two_towers(ex244)
        for pair_ in ((i1, i2), (i2, i1)):
            with pytest.raises(PreconditionError) as err:
                call(*pair_)
            assert str(err.value) == message

    @pytest.mark.parametrize("call, message", [
        (product, "product needs ideals on the same model and tower"),
        (includes, "containment needs ideals on the same model and tower"),
    ], ids=["product", "includes"])
    def test_ideals_on_different_models(self, ex244, call, message):
        i1, _ = _ex244_ideals_on_two_towers(ex244)
        other = i1._replace(model=singularity_model(i1.model.base, pg=2, gorenstein=True))
        with pytest.raises(PreconditionError) as err:
            call(i1, other)
        assert str(err.value) == message

    def test_core_monotone_check_needs_numerically_pg_ideals(self, ex244):
        i1, _ = _ex244_ideals_on_two_towers(ex244)
        m2 = represent(i1.model, i1.tower, 0, 2 * unit_cycle(i1.tower.bottom, "E0"), h1=0)
        assert not m2.pg_numeric
        for pair_ in ((i1, m2), (m2, i1)):
            with pytest.raises(PreconditionError) as err:
                core_monotone_check(*pair_)
            assert str(err.value) == "monotonicity check needs numerically-p_g ideals"

    def test_ideals_at_two_levels_meet_at_the_higher_one(self, ex244):
        i1, _ = _ex244_ideals_on_two_towers(ex244)
        m = represent(i1.model, i1.tower, 0, unit_cycle(i1.tower.bottom, "E0"), h1=1)
        # the pullback of E0 to level 4 is E0 + E1 + ... + E4 <= Z
        assert includes(i1, m) and not includes(m, i1)
        assert product(i1, m).z == i1.z + i1.tower.pullback(m.z, 0, 4)
        assert product(m, i1) == product(i1, m)


class TestStabilityDefect:
    def test_pg_numeric_ideal_is_stable(self, ex244_ideal):
        _, ideal = ex244_ideal
        assert stability_defect(ideal) == 0

    def test_m2bar_defect_is_pg(self, ex244):
        t = ex244.tower
        base = t.levels[0]
        model = singularity_model(base, pg=1, gorenstein=True)
        m2 = represent(model, t, 0, 2 * unit_cycle(base, "E0"), h1=0)
        assert stability_defect(m2, 0, 0) == 1


class TestConeModel:
    @pytest.mark.parametrize("e,g,a", [(2, 2, 1), (3, 4, 2), (2, 1, 0)])
    def test_formulas(self, e, g, a):
        model, ideal, stats = cone_model(e, g, a)
        assert stats.all_ok
        assert stats.colength == e + g - 1
        assert stats.mu == e + 1
        assert stats.mult_gap == (a + 1) * e

    def test_inconsistent_parameters_rejected(self):
        with pytest.raises(PreconditionError):
            cone_model(2, 2, 2)  # a*e = 4 != 2g-2 = 2

    def test_ideal_is_pg_numeric_and_good(self):
        _, ideal, _ = cone_model(2, 2, 1)
        assert ideal.pg_numeric
        rep = colon_and_core(ideal)
        assert rep.core_cycle == 2 * ideal.z - rep.y


class TestGorensteinColengthFormula:
    def test_good_iff_e_equals_2l(self, ex244_ideal):
        _, ideal = ex244_ideal
        e = multiplicity(ideal.z)
        l = colength(ideal.z, pg=ideal.model.pg, h1=ideal.h1)
        assert is_good(ideal) == (e == 2 * l)
        assert e == 12 and l == 6


# --- the pullback-and-pair formulas, kept as the reference -----------------


def _reference_pullback(t, w, lo, hi):
    return cycle(t.graph(hi), lift(dict(w.coeffs), t.steps[lo:hi]))


def _reference_relative_canonical(t):
    k = cycle(t.top, {})
    for j, step in enumerate(t.steps):
        k = k + _reference_pullback(t, unit_cycle(t.graph(j + 1), step.new_id), j + 1, t.height)
    return k


def _reference_contractions(g, may_contract):
    """Contract rational (-1)-curves v with may_contract(graph, v) in
    ascending-id scans; the graphs from g down, and the steps."""
    graphs, steps = [g], []
    while True:
        cur = graphs[-1]
        for v in cur.vertices:
            if (v.self_int, v.kappa) == (-1, -1) and may_contract(cur, v.id):
                lower, step = contract(cur, v.id)
                graphs.append(lower)
                steps.append(step)
                break
        else:
            return graphs, steps


def _reference_colon_and_core(ideal):
    """b, Y and the contraction tower: contract rational (-1)-curves off the
    cohomological cycle in ascending-id scans, pull each back to the top as
    F_i and pair it with Z."""
    g, c = ideal.z.graph, ideal.c
    graphs, steps = _reference_contractions(
        g, lambda cur, vid: c.coeff(vid) == 0 and pair(c.restricted_to(cur), unit_cycle(cur, vid)) == 0)
    n = len(steps)
    local = Tower.from_steps(graphs[-1], reversed(steps))
    assert local.levels == tuple(reversed(graphs))
    b, y = [], cycle(g, {})
    for i, step in enumerate(steps):
        f_i = _reference_pullback(local, unit_cycle(local.graph(n - i), step.new_id), n - i, n)
        b.append(-pair(ideal.z, f_i))
        if b[-1] > 0:
            y = y + f_i
    return tuple(b), y, local


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_colon_core_and_relative_canonical_match_pullback_formulas(data):
    name = data.draw(st.sampled_from(["A1", "A3", "D4", "E6", "HJ(7,3)", "HJ(12,5)", "ex244blown"]))
    if name == "ex244blown":
        # the p_g = 1 worked example; growth away from E0 keeps Z numerically p_g
        t = corpus.get(name).tower
        model = singularity_model(t.levels[0], pg=1, gorenstein=True)
        z0, avoid = data.draw(st.integers(1, 2)) * corpus.get(name).cycles["Z"], ("E0",)
    else:
        t = Tower.base(corpus.get(name).graph)
        model = singularity_model(t.levels[0])
        z0, avoid = data.draw(st.integers(1, 2)) * fundamental_cycle(t.levels[0]), ()
    level = t.height
    below = [v for v in t.top.ids if v not in avoid and row_pairing(z0, v) < 0]
    t = grow(data, t, data.draw(st.integers(min_value=0, max_value=40)), avoid=avoid)
    if data.draw(st.booleans()):
        # E_Q on a curve B with Z.B < 0: pullback + k E_Q is anti-nef and not
        # good for 1 <= k <= -Z.B
        b_id = data.draw(st.sampled_from(below))
        k = data.draw(st.integers(1, -row_pairing(z0, b_id)))
        t = t.blow_up(free_point(b_id, "Q"))
        z = _reference_pullback(t, z0, level, t.height) + k * unit_cycle(t.top, "Q")
    else:
        z = _reference_pullback(t, z0, level, t.height)
    ideal = represent(model, t, t.height, z, h1=model.pg)
    assume(ideal.pg_numeric)
    rep = colon_and_core(ideal)
    b, y, local = _reference_colon_and_core(ideal)
    assert rep.b == b
    assert rep.y == y
    assert rep.contraction_tower == local
    assert is_good(ideal) == rep.good
    assert relative_canonical(t) == _reference_relative_canonical(t)
    # a second call, and every step of the colon iteration, read the sequence kept with the graph
    assert colon_and_core(ideal) == rep
    cur, steps = rep, 0
    while not cur.good and steps < rep.iterations_to_good:
        step = represent(model, t, t.height, cur.colon_cycle, h1=model.pg)
        cur, steps = colon_and_core(step), steps + 1
        assert (cur.b, cur.y, cur.contraction_tower) == _reference_colon_and_core(step)
    assert cur.good


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_colon_and_core_builds_no_tower_to_replay_its_contractions(data):
    base = corpus.get(data.draw(st.sampled_from(["A3", "D5", "E6"]))).graph
    t = grow(data, Tower.base(base), data.draw(st.integers(min_value=40, max_value=60)))
    z = t.pullback(fundamental_cycle(base), 0, t.height)
    ideal = represent(singularity_model(base), t, t.height, z)
    calls = []

    def counted(fn):
        return lambda *args: calls.append(fn.__name__) or fn(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(birational, "apply_step", counted(birational.apply_step))
        mp.setattr(Tower, "from_steps", classmethod(counted(Tower.from_steps.__func__)))
        rep = colon_and_core(ideal)
    assert rep.contraction_tower.height >= 40  # every curve above the base contracts
    assert calls == []


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_colon_and_core_and_is_good_read_the_ideals_graph_not_the_tower(data):
    base = corpus.get(data.draw(st.sampled_from(["A3", "D5", "E6"]))).graph
    t = grow(data, Tower.base(base), data.draw(st.integers(min_value=2, max_value=40)))
    level = data.draw(st.integers(min_value=1, max_value=t.height - 1))
    g = t.graph(level)
    raised = data.draw(st.sampled_from([step.new_id for step in t.steps[:level]]))
    z = antinef_closure(t.pullback(fundamental_cycle(base), 0, level) + unit_cycle(g, raised))
    ideal = represent(singularity_model(base), t, level, z)

    def replayed(self, k):
        raise AssertionError(f"Tower.graph({k}) was called")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tower, "graph", replayed)
        rep = colon_and_core(ideal)
        good = is_good(ideal)
    assert rep.core_cycle.graph == g
    assert good == rep.good


# --- the off-C contraction sequence, kept with the graph --------------------------


def _two_models():
    """ex244's tower with P on E1 and Q on P, under two cohomological cycles:
    E0 (Gorenstein), for which Q and then P contract, and 2 E0, for which
    only Q does; Z pairs to zero with E0, ..., E4, so it is numerically p_g
    for both, and neither report is good."""
    t = corpus.get("ex244blown").tower
    t = Tower.from_steps(t.bottom, t.steps + (free_point("E1", "P"), free_point("P", "Q")))
    gorenstein = singularity_model(t.bottom, pg=1, gorenstein=True)
    other = singularity_model(t.bottom, pg=1, c_base=2 * gorenstein.c_base)
    z = cycle(t.top, {"E0": 1, "E1": 3, "E2": 1, "E3": 1, "E4": 1, "P": 5, "Q": 6})
    return t, gorenstein, other, z


def _count_calls(mp, module, name, log):
    """Wrap module.name so that each call appends its first argument to log."""
    fn = getattr(module, name)
    mp.setattr(module, name, lambda *args: log.append(args[0]) or fn(*args))


def test_the_off_c_sequence_is_contracted_and_checked_once_per_graph():
    t, model, _, z = _two_models()
    g, h = t.top, t.height
    contracted, replayed = [], []
    with pytest.MonkeyPatch.context() as mp:
        _count_calls(mp, ideals, "contract_positions", contracted)
        _count_calls(mp, ideals, "replay", replayed)
        ideal = represent(model, t, h, z)
        rep = colon_and_core(ideal)
        again = colon_and_core(ideal)
        step = colon_and_core(represent(model, t, h, rep.colon_cycle))
        closure = good_closure(ideal)
    assert [x for x in contracted if x is g] == [g]
    # the off-C check once, then good_closure's check of the steps below it
    assert replayed == [rep.contraction_tower.bottom, model.base]
    assert not rep.good and again == rep
    # the same reports, computed afresh on an equal graph that holds nothing yet
    t2 = Tower.from_steps(t.bottom, t.steps)
    assert t2.top == g and t2.top is not g and not t2.top._off_c_towers
    ideal2 = represent(model, t2, h, cycle(t2.top, z.coeffs))
    rep2 = colon_and_core(ideal2)
    assert rep2 == rep
    assert colon_and_core(represent(model, t2, h, rep2.colon_cycle)) == step
    assert good_closure(ideal2) == closure


def test_two_cohomological_cycles_on_one_graph_keep_their_own_sequences():
    t, gorenstein, other, z = _two_models()
    reps = []
    for model in (gorenstein, other, gorenstein, other):
        ideal = represent(model, t, t.height, z)
        rep = colon_and_core(ideal)
        assert (rep.b, rep.y, rep.contraction_tower) == _reference_colon_and_core(ideal)
        reps.append(rep)
    assert [s.new_id for s in reps[0].contraction_tower.steps] == ["P", "Q"]
    assert [s.new_id for s in reps[1].contraction_tower.steps] == ["Q"]
    assert reps[2:] == reps[:2]
    assert len(t.top._off_c_towers) == 2


def _holds(x, target, seen):
    """Whether x is target or holds it through tuples, lists, dicts and
    instance attributes."""
    if x is target:
        return True
    if isinstance(x, (str, int)) or id(x) in seen:
        return False
    seen.add(id(x))
    if isinstance(x, dict):
        parts = [*x, *x.values()]
    elif isinstance(x, (tuple, list)):
        parts = x
    else:
        parts = vars(x).values() if hasattr(x, "__dict__") else ()
    return any(_holds(part, target, seen) for part in parts)


def test_the_kept_off_c_sequence_holds_no_reference_to_its_graph():
    """The sequence is kept in a cache on g, so a reference back to g would
    make a cycle of references that only the garbage collector frees."""
    t, gorenstein, other, z = _two_models()
    g = t.top
    for model in (gorenstein, other):
        ideal = represent(model, t, t.height, z)
        colon_and_core(ideal)
        good_closure(ideal)
    kept = g._off_c_towers
    assert len(kept) == 2
    assert not any(_holds(value, g, set()) for value in kept.values())
    assert _holds(((1, [2]), {"k": z}), g, set())  # the walk finds g where it is: z.graph


def test_a_failed_replay_check_raises_and_is_not_kept():
    t, model, _, z = _two_models()
    ideal = represent(model, t, t.height, z)
    replayed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "replay", lambda base, steps: replayed.append(base) or base)  # steps dropped
        for _ in range(2):
            with pytest.raises(TheoremViolationError, match="did not replay"):
                colon_and_core(ideal)
        assert len(replayed) == 2 and not t.top._off_c_towers
    with pytest.MonkeyPatch.context() as mp:
        _count_calls(mp, ideals, "replay", replayed)
        rep = colon_and_core(ideal)
        assert colon_and_core(ideal) == rep
    assert len(replayed) == 3
    assert (rep.b, rep.y, rep.contraction_tower) == _reference_colon_and_core(ideal)


def test_represent_carries_c_only_up_to_its_level():
    base = corpus.get("ex244min").graph
    model = singularity_model(base, pg=1, gorenstein=True)  # C = E0
    t = Tower.base(base)
    for i in range(1, 5):  # E1..E4 on E0, then a chain up from E1
        t = t.blow_up(free_point("E0", f"E{i}"))
    for k in range(4):
        t = t.blow_up(free_point(t.top.ids[-1] if k else "E1", f"P{k}"))
    assert t.height == 8
    e0 = unit_cycle(base, "E0")
    for level in range(t.height + 1):
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            _count_calls(mp, birational, "transported", calls)
            ideal = represent(model, t, level, t.pullback(e0, 0, level), h1=1)
        assert len(calls) == level
        assert ideal.c == unit_cycle(t.graph(level), "E0")


# --- metamorphic invariants at height ---------------------------------------------


def _tall_ideal(data):
    """A numerically p_g ideal on a random tower of height up to 120: Z is a
    pulled-back fundamental cycle, raised on a few curves above the base and
    closed to an anti-nef cycle, so that Y is often not zero."""
    name = data.draw(st.sampled_from(["A3", "D5", "E6", "HJ(7,3)", "ex244blown"]))
    if name == "ex244blown":
        t = corpus.get(name).tower
        model = singularity_model(t.levels[0], pg=1, gorenstein=True)
        z0, avoid = corpus.get(name).cycles["Z"], ("E0",)
    else:
        t = Tower.base(corpus.get(name).graph)
        model = singularity_model(t.levels[0])
        z0, avoid = fundamental_cycle(t.levels[0]), ()
    level = t.height
    t = grow(data, t, data.draw(st.integers(min_value=1, max_value=120)), avoid=avoid)
    new = [step.new_id for step in t.steps[level:]]
    raised = data.draw(st.dictionaries(st.sampled_from(new), st.integers(1, 3), min_size=1, max_size=3))
    z = antinef_closure(t.pullback(z0, level, t.height) + cycle(t.top, raised))
    ideal = represent(model, t, t.height, z, h1=model.pg)
    assume(ideal.pg_numeric)
    return ideal


def _renamed(w, g, rename):
    """The cycle w with every curve id v renamed rename[v], on g."""
    return cycle(g, {rename[vid]: c for vid, c in w.coeffs})


def _relabelled(ideal, rename):
    """The same ideal with every curve id v renamed rename[v]."""
    model, base = ideal.model, ideal.model.base
    base2 = dual_graph(base.name, [(rename[v.id], v.self_int, v.kappa) for v in base.vertices],
                       [(rename[a], rename[b], m) for a, b, m in base.edges])
    steps = [TowerStep(rename[s.new_id], tuple((rename[u], m) for u, m in s.attach)) for s in ideal.tower.steps]
    t2 = Tower.from_steps(base2, steps)
    model2 = singularity_model(base2, pg=model.pg, gorenstein=model.gorenstein,
                               c_base=_renamed(model.c_base, base2, rename))
    return represent(model2, t2, ideal.level, _renamed(ideal.z, t2.top, rename), h1=ideal.h1)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_relabelling_the_curves_maps_colon_and_core_across(data):
    ideal = _tall_ideal(data)
    ids = ideal.tower.top.ids
    rename = dict(zip(ids, data.draw(st.permutations(ids))))  # reorders contract_all's scan
    ideal2 = _relabelled(ideal, rename)
    rep, rep2 = colon_and_core(ideal), colon_and_core(ideal2)
    g2 = ideal2.tower.top
    assert rep2.y == _renamed(rep.y, g2, rename)
    assert rep2.colon_cycle == _renamed(rep.colon_cycle, g2, rename)
    assert rep2.core_cycle == _renamed(rep.core_cycle, g2, rename)
    assert (rep2.good, rep2.iterations_to_good) == (rep.good, rep.iterations_to_good)
    assert sorted(rep2.b) == sorted(rep.b)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_is_good_by_position_matches_its_name_keyed_reference(data):
    """is_good reads the contraction core's maps and its one candidate rule:
    it equals the reference that froze the lower graph and scanned it by
    name, and colon/core's verdict.  A (-1)-curve X set beside the graph,
    meeting nothing, with Z[X] > 0 (so Z.X < 0 and it stays) and C[X] = 0,
    is no candidate and changes neither answer."""
    ideal = _tall_ideal(data)
    good = is_good(ideal)
    assert good == reference_is_good(ideal) == colon_and_core(ideal).good
    g = ideal.z.graph
    split = dual_graph(g.name, g.vertices + (graph.Vertex("X", -1, -1),), g.edges)
    z = cycle(split, {**ideal.z.as_dict(), "X": data.draw(st.integers(1, 3))})
    beside = ideal._replace(z=z, c=cycle(split, ideal.c.as_dict()))
    assert is_good(beside) == reference_is_good(beside) == good


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_a_blowup_off_the_cohomological_cycle_pulls_colon_and_core_back(data):
    ideal = _tall_ideal(data)
    t, h = ideal.tower, ideal.level
    vid = data.draw(st.sampled_from([vid for vid in t.top.ids if ideal.c.coeff(vid) == 0]))
    t2 = t.blow_up(free_point(vid, "Q"))
    rep = colon_and_core(ideal)
    rep2 = colon_and_core(represent(ideal.model, t2, h + 1, t2.pullback(ideal.z, h, h + 1), h1=ideal.h1))
    assert rep2.y == t2.pullback(rep.y, h, h + 1)
    assert rep2.core_cycle == t2.pullback(rep.core_cycle, h, h + 1)
    assert sorted(rep2.b) == sorted(rep.b + (0,))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_a_smaller_ideal_has_smaller_colon_and_core(data):
    i1 = _tall_ideal(data)
    g = i1.tower.top
    raised = data.draw(st.dictionaries(st.sampled_from(g.ids), st.integers(1, 3), min_size=1, max_size=3))
    i2 = represent(i1.model, i1.tower, i1.level, i1.z + antinef_closure(cycle(g, raised)), h1=i1.h1)
    assume(i2.pg_numeric)
    assert core_monotone_check(i1, i2)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_colon_iteration_reaches_the_good_closure_in_max_b_steps(data):
    ideal = _tall_ideal(data)
    # b is linear in Z, so a multiple of Z needs that many times the steps
    ideal = represent(ideal.model, ideal.tower, ideal.level, data.draw(st.integers(1, 4)) * ideal.z, h1=ideal.h1)
    rep = first = colon_and_core(ideal)
    pg = ideal.model.pg
    length = colength(ideal.z, pg, pg)
    cur, steps = ideal, 0
    while True:
        # the paper's colengths, by Riemann-Roch with F_i^2 = K.F_i = -1 and
        # Z.F_i = -b_i: the k-th iterate is Z - sum min(k, b_i) F_i, and each
        # iterate's core has colength 2 l(I) + e(I) - 2 sum b_i for its own b
        c = [min(steps, b_i) for b_i in first.b]
        now = colength(cur.z, pg, pg)
        assert now == length - sum(c_i * b_i for c_i, b_i in zip(c, first.b)) + sum(c_i * (c_i - 1) // 2 for c_i in c)
        assert colength(rep.core_cycle, pg, pg) == 2 * now + multiplicity(cur.z) - 2 * sum(rep.b)
        if rep.good or steps > first.iterations_to_good:
            break
        cur = represent(ideal.model, ideal.tower, ideal.level, rep.colon_cycle, h1=ideal.h1)
        rep, steps = colon_and_core(cur), steps + 1
    assert steps == first.iterations_to_good
    closure = good_closure(ideal)
    assert cur.z == closure.tower.pullback(closure.z, closure.level, closure.tower.height)


def _reference_good_closure(ideal):
    """Level, Z and steps of the good closure: Z pushed down the reference
    off-C contractions, under a tower that contracts the rest to the base."""
    local = _reference_colon_and_core(ideal)[2]
    _, lower = _reference_contractions(local.bottom, lambda cur, vid: True)
    z = cycle(local.bottom, {vid: c for vid, c in ideal.z.coeffs if vid in local.bottom.ids})
    return len(lower), z, tuple(reversed(lower)) + local.steps


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_good_closure_pushes_z_down_the_off_c_sequence_to_a_good_ideal(data):
    ideal = _tall_ideal(data)
    closure = good_closure(ideal)
    assert (closure.level, closure.z, closure.tower.steps) == _reference_good_closure(ideal)
    assert closure.tower.bottom == ideal.model.base and closure.tower.top is ideal.z.graph
    assert is_good(closure)


@settings(max_examples=5, deadline=None)
@given(st.data())
def test_good_closure_runs_no_colon_and_core_and_replays_no_tower(data):
    ideal = _tall_ideal(data)
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        _count_calls(mp, ideals, "colon_and_core", calls)
        _count_calls(mp, Tower, "from_steps", calls)
        good_closure(ideal)
    assert calls == []


def test_good_closure_refuses_a_contraction_to_the_base_that_does_not_replay():
    t, model, _, z = _two_models()
    ideal = represent(model, t, t.height, z)
    colon_and_core(ideal)  # the off-C sequence is kept, so only the lower check replays
    contract_all = ideals.contract_all

    def short(g, rule):
        """The sequence without its top step: its bottom is still the base."""
        t = contract_all(g, rule)
        return t._replace(steps=t.steps[:-1])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "contract_all", short)
        with pytest.raises(TheoremViolationError, match="did not replay to the off-C bottom"):
            good_closure(ideal)


def test_a_tower_top_is_never_eliminated_once_its_base_is(monkeypatch):
    """A blow-up keeps the form definite, and the surgery carries that up: a
    200-level tower over a validated base, closed, cut by its colon and core
    and tested for goodness on its top, runs the one elimination of the base."""
    calls = []
    eliminate = graph._eliminate
    monkeypatch.setattr(graph, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
    d5 = corpus.get("D5").graph
    base = dual_graph(d5.name, d5.vertices, d5.edges)  # fresh: nothing cached
    model = singularity_model(base)
    rng = random.Random(200)
    t = Tower.base(base)
    for k in range(199):  # a crossing in every other step
        top, new = t.top, f"F{k:03d}"
        t = t.blow_up(free_point(rng.choice(top.ids), new) if k % 2 else edge_point(*rng.choice(top.edges)[:2], new))
    zf = fundamental_cycle(base)
    # the last centre is a free point on a curve B with Z_f.B < 0: a non-good ideal
    t = t.blow_up(free_point(next(v for v in base.ids if row_pairing(zf, v) < 0), "F199"))
    z = antinef_closure(t.pullback(zf, 0, t.height) + unit_cycle(t.top, "F199"))
    ideal = represent(model, t, t.height, z)
    assert max(colon_and_core(ideal).b) == 1 and not is_good(ideal)
    assert len(calls) == 1 and t.top.negative_definite
