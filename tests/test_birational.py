"""Blow-ups, contractions, towers, and cycle transport."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from antinef import birational, corpus, graph, ideals
from antinef.birational import (
    Tower,
    TowerStep,
    apply_step,
    associated_pg_cycle,
    contract,
    contract_all,
    edge_point,
    free_point,
    relative_canonical,
    replay,
    transport_cohom,
)
from antinef.cli import _minimalize
from antinef.errors import InputError, PreconditionError
from antinef.graph import Vertex, cycle, dual_graph, unit_cycle, validate_graph, zero_cycle
from antinef.ideals import _off_c, colon_and_core, is_good, represent, singularity_model
from antinef.lattice import (
    antinef_closure,
    arithmetic_genus,
    contracts_to_smooth,
    fundamental_cycle,
    pair,
    row_pairing,
)
import oracle_reference as reference
from oracle_reference import adjacency, by_step, excess, lift, transported
from towers import grow


def _mult(g, a, b):
    """The multiplicity of the edge a--b of g, 0 when there is none."""
    return sum(m for u, v, m in g.edges if {u, v} == {a, b})


class TestBlowup:
    def test_free_point_surgery(self):
        g = corpus.get("A1").graph
        g2 = apply_step(g, free_point("E1", "C"))
        assert g2.vertex("E1").self_int == -3
        assert g2.vertex("E1").kappa == 1
        assert g2.vertex("C").self_int == -1 and g2.vertex("C").kappa == -1
        assert _mult(g2, "E1", "C") == 1
        assert validate_graph(g2).ok

    def test_edge_point_surgery(self):
        g = corpus.get("A2").graph
        g2 = apply_step(g, edge_point("E1", "E2", "C"))
        assert _mult(g2, "E1", "E2") == 0
        assert _mult(g2, "E1", "C") == 1 and _mult(g2, "E2", "C") == 1
        assert g2.vertex("E1").self_int == -3 and g2.vertex("E2").self_int == -3
        assert validate_graph(g2).ok

    def test_edge_point_needs_an_edge(self):
        g = corpus.get("D4").graph  # E3 and E4 are both leaves, not adjacent
        with pytest.raises(PreconditionError):
            apply_step(g, edge_point("E3", "E4", "C"))

    def test_duplicate_id_rejected(self):
        g = corpus.get("A1").graph
        with pytest.raises(InputError):
            apply_step(g, free_point("E1", "E1"))

    @pytest.mark.parametrize("step, message", [
        (TowerStep("C", (("E1", 0),)), "attach multiplicities must be >= 1"),
        (TowerStep("C", ()), "step 'C' attaches to no curve"),
        (TowerStep("C", (("E1", 1.5),)), "attach multiplicities must be ints, not float"),
        (TowerStep("C", (("E1", True),)), "attach multiplicities must be ints, not bool"),
        (TowerStep(7, (("E1", 1),)), "a step's new id must be a str, not int"),
        (TowerStep("C", ((1, 1),)), "a step attaches to curve ids, not int"),
        (TowerStep("C", (("E1", 1), ("E1", 1))), "step attaches to 'E1' twice"),
    ], ids=["multiplicity-0", "no-attachment", "float-multiplicity", "bool-multiplicity", "int-id",
            "int-attachment", "a-curve-twice"])
    def test_a_malformed_step_is_refused(self, step, message):
        with pytest.raises(InputError) as err:
            apply_step(corpus.get("A2").graph, step)
        assert str(err.value) == message


class TestContract:
    def test_roundtrip_free(self):
        g = corpus.get("A3").graph
        g2 = apply_step(g, free_point("E2", "C"))
        lower, step = contract(g2, "C")
        assert lower == g
        assert apply_step(lower, step) == g2

    def test_roundtrip_edge(self):
        g = corpus.get("A3").graph
        g2 = apply_step(g, edge_point("E1", "E2", "C"))
        lower, step = contract(g2, "C")
        assert lower == g
        assert apply_step(lower, step) == g2

    def test_neighbours_already_joined(self):
        # C meets A once and B twice, and A meets B: the edge A-B gains 1 * 2
        g = dual_graph("tri", [("A", -3, 1), ("B", -6, 4), ("C", -1, -1)], [("A", "B"), ("A", "C"), ("B", "C", 2)])
        lower, step = contract(g, "C")
        assert lower == dual_graph("tri", [("A", -2, 0), ("B", -2, 2)], [("A", "B", 3)])
        assert step == TowerStep(new_id="C", attach=(("A", 1), ("B", 2)))
        assert apply_step(lower, step) == g

    def test_only_minus_one_curves_contract(self):
        g = corpus.get("A2").graph
        with pytest.raises(PreconditionError):
            contract(g, "E1")

    def test_last_curve_protected(self):
        g = dual_graph("pt", [("C", -1, -1)])
        with pytest.raises(PreconditionError):
            contract(g, "C")


class TestTower:
    def _tower(self):
        base = corpus.get("A2").graph
        return (
            Tower.base(base)
            .blow_up(free_point("E1", "C1"))
            .blow_up(edge_point("E1", "C1", "C2"))
        )

    def test_levels_and_heights(self):
        t = self._tower()
        assert t.height == 2
        assert len(t.levels) == 3
        assert set(t.top.ids) == {"E1", "E2", "C1", "C2"}

    def test_pullback_pairs_zero_with_new_curves(self):
        t = self._tower()
        zf = fundamental_cycle(t.levels[0])
        lift = t.pullback(zf, 0, 2)
        for vid in ("C1", "C2"):
            e = unit_cycle(t.top, vid)
            assert pair(lift, e) == 0

    def test_projection_formula(self):
        t = self._tower()
        base = t.levels[0]
        a = cycle(base, {"E1": 2, "E2": 1})
        b = cycle(base, {"E1": 1, "E2": 3})
        assert pair(t.pullback(a, 0, 2), t.pullback(b, 0, 2)) == pair(a, b)

    def test_pushforward_inverts_pullback(self):
        t = self._tower()
        z = fundamental_cycle(t.levels[0])
        assert t.pushforward(t.pullback(z, 0, 2), 2, 0) == z

    def test_genus_invariance(self):
        t = self._tower()
        z = fundamental_cycle(t.levels[0])
        assert arithmetic_genus(t.pullback(z, 0, 2)) == arithmetic_genus(z)

    def test_wrong_direction_rejected(self):
        t = self._tower()
        z = fundamental_cycle(t.top)
        with pytest.raises(PreconditionError):
            t.pullback(z, 2, 0)

    def test_a_level_out_of_range_is_refused_before_the_direction(self):
        t = self._tower()
        z, zb = fundamental_cycle(t.top), fundamental_cycle(t.bottom)
        with pytest.raises(InputError, match=r"^tower has levels 0\.\.2, not 7$"):
            t.pushforward(z, 2, 7)
        with pytest.raises(InputError, match=r"^tower has levels 0\.\.2, not -1$"):
            t.pullback(zb, 0, -1)
        with pytest.raises(InputError, match=r"^tower has levels 0\.\.2, not 3$"):
            t.pullback(z, 3, 2)

    def test_relative_canonical_checks_its_levels(self):
        t = self._tower()
        with pytest.raises(InputError):
            relative_canonical(t, bottom_level=-1)
        with pytest.raises(InputError):
            relative_canonical(t, bottom_level=t.height + 1)
        with pytest.raises(PreconditionError):
            relative_canonical(t, top_level=0, bottom_level=1)
        assert relative_canonical(t, top_level=1, bottom_level=1).is_zero

    def test_relative_canonical_contracts_to_smooth(self):
        t = self._tower()
        k = relative_canonical(t)
        assert contracts_to_smooth(k)
        # total transforms of points pair to zero with it is not required,
        # but pullbacks of base cycles are
        z = t.pullback(fundamental_cycle(t.levels[0]), 0, 2)
        assert pair(k, z) == 0


class TestTransport:
    def test_center_off_support_pulls_back(self, ex244):
        t = Tower.base(corpus.get("ex244min").graph).blow_up(free_point("E0", "E1"))
        t = t.blow_up(free_point("E1", "F"))
        c0 = unit_cycle(t.levels[0], "E0")
        track = [transport_cohom(t, c0).restricted_to(g) for g in t.levels]
        # first blow-up sits on supp C: total transform minus the new curve
        assert track[1] == unit_cycle(t.levels[1], "E0")
        # second sits on E1, off supp C: plain pullback (no E1 coefficient)
        assert track[2] == unit_cycle(t.levels[2], "E0")

    def test_ex244_transport(self, ex244):
        t = ex244.tower
        assert transport_cohom(t, unit_cycle(t.levels[0], "E0")) == unit_cycle(t.top, "E0")


class TestAssociatedPgCycle:
    def test_cone_maximal_ideal(self):
        # cone(2,2,1): two branches through the single base curve
        base = dual_graph("cone", [("E", -2, 2)])
        m = unit_cycle(base, "E")
        t, z = associated_pg_cycle(Tower.base(base), m, [("E", 2)], 2 * m)
        assert t.height == 4  # each branch blows up twice to clear C = 2E
        # each step replaces Z by (total transform) + E_new, dropping Z^2 by 1
        assert pair(z, z) == pair(m, m) - t.height
        from antinef.lattice import is_antinef

        assert is_antinef(z)

    def test_branch_balance_enforced(self):
        base = dual_graph("cone", [("E", -2, 2)])
        m = unit_cycle(base, "E")
        with pytest.raises(PreconditionError):
            associated_pg_cycle(Tower.base(base), m, [("E", 1)], 2 * m)


def _ex244_steps():
    """ex244min blown up at a free point of E0, then at a free point of E1."""
    return Tower.base(corpus.get("ex244min").graph).blow_up(free_point("E0", "E1")).blow_up(free_point("E1", "F"))


class TestTransportRefusals:
    def test_pullback_of_a_cycle_from_another_level(self):
        t = _ex244_steps()
        with pytest.raises(PreconditionError) as err:
            t.pullback(unit_cycle(t.top, "E0"), 1, 2)
        assert str(err.value) == "cycle lives on 'ex244min', not on tower level 1"

    @pytest.mark.parametrize("c_base, message", [
        (lambda t: -unit_cycle(t.bottom, "E0"), "cohomological cycle must be effective"),
        (lambda t: unit_cycle(t.top, "E0"), "cohomological cycle must live on the tower's bottom level"),
        # C = E0/2 would transport to 1/2 - 1 on the curve blown up on E0
        (lambda t: cycle(t.bottom, {"E0": Fraction(1, 2)}), "cohomological cycle must be integral"),
    ], ids=["not-effective", "not-on-the-bottom", "not-integral"])
    def test_transport_cohom(self, c_base, message):
        t = _ex244_steps()
        with pytest.raises(PreconditionError) as err:
            transport_cohom(t, c_base(t))
        assert str(err.value) == message

    def test_a_non_integral_c_is_refused_where_it_would_stay_effective(self):
        # C = 3/2 E0 over one free point of E0 would transport to 1/2
        t = Tower.base(corpus.get("ex244min").graph).blow_up(free_point("E0", "E1"))
        with pytest.raises(PreconditionError) as err:
            transport_cohom(t, cycle(t.bottom, {"E0": Fraction(3, 2)}))
        assert str(err.value) == "cohomological cycle must be integral"

    @pytest.mark.parametrize("z, branches, error, message", [
        (lambda t: unit_cycle(t.bottom, "E"), [("E", 1)], PreconditionError,
         "cycle must live on the tower's top level"),
        (lambda t: unit_cycle(t.top, "P"), [], PreconditionError, "associated_pg_cycle needs an anti-nef cycle"),
        (lambda t: antinef_closure(unit_cycle(t.top, "E")), [("X", 1)], InputError,
         "branch record names unknown vertex 'X'"),
        (lambda t: antinef_closure(unit_cycle(t.top, "E")), [("E", -1)], InputError, "branch counts must be >= 0"),
        # -Z.E = 2 here, so each of these records would balance
        (lambda t: antinef_closure(unit_cycle(t.top, "E")), [("E", 2.0)], InputError,
         "branch counts must be integers"),
        (lambda t: antinef_closure(unit_cycle(t.top, "E")), [("E", "2")], InputError,
         "branch counts must be integers"),
        (lambda t: antinef_closure(unit_cycle(t.top, "E")), [("E", True), ("E", 1)], InputError,
         "branch counts must be integers"),
    ], ids=["not-on-the-top", "not-antinef", "unknown-vertex", "negative-count", "float-count", "string-count",
            "bool-count"])
    def test_associated_pg_cycle(self, z, branches, error, message):
        base = dual_graph("cone", [("E", -2, 2)])
        t = Tower.base(base).blow_up(free_point("E", "P"))
        with pytest.raises(error) as err:
            associated_pg_cycle(t, z(t), branches, 2 * unit_cycle(base, "E"))
        assert str(err.value) == message

    @pytest.mark.parametrize("bottom, steps, message", [
        # over the old top A2 the pullback of E1 + 5.E2 answered 1*E1 + 1*E2
        ("A2", (free_point("E1", "E2"),), "vertex id 'E2' already exists on 'A2'"),
        # over the top the steps build in order, the pullback of 2.E1 lost 2*Y
        # and relative_canonical answered 1*X + 1*Y
        ("A1", (free_point("X", "Y"), free_point("E1", "X")), "step attaches to unknown vertex 'X'"),
        # over the old top A3 the pullback of 2.E1 answered 2*E1
        ("A2", (free_point("Q", "E3"),), "step attaches to unknown vertex 'Q'"),
        # steps of the wrong shape, which raised TypeError and ValueError, read
        # an id as its characters or built a tower that could not be hashed
        ("A3", (7,), "a tower step is a new id and its attachments, not 7"),
        ("A3", (("X", (("E1", 1),), "extra"),),
         "a tower step is a new id and its attachments, not ('X', (('E1', 1),), 'extra')"),
        ("A3", (TowerStep("X", ("E1",)),), "step 'X' attaches by (curve id, multiplicity) pairs, not 'E1'"),
        ("A3", (TowerStep("X", (("E1", 1, 2),)),),
         "step 'X' attaches by (curve id, multiplicity) pairs, not ('E1', 1, 2)"),
        ("A3", (TowerStep("X", [("E1", 1)]),), "step 'X' attaches by a tuple, not a list"),
    ], ids=["re-insert", "out-of-order", "foreign-attach", "not-a-step", "a-step-too-long", "an-id-for-a-pair",
            "a-pair-too-long", "a-list-of-pairs"])
    def test_steps_that_build_no_tower_are_refused_at_construction(self, bottom, steps, message):
        with pytest.raises(InputError) as err:
            Tower(corpus.get(bottom).graph, steps)
        assert str(err.value) == message

    def test_a_tower_takes_no_top(self):
        a2, a3, steps = corpus.get("A2").graph, corpus.get("A3").graph, (free_point("E2", "E3"),)
        with pytest.raises(TypeError):
            Tower(a2, steps, a3)
        with pytest.raises(TypeError):
            Tower(a2, steps, top=a3)


@given(st.data())
def test_random_blowup_towers_stay_valid(data):
    base = corpus.get(data.draw(st.sampled_from(["A2", "D4", "HJ(7,3)"]))).graph
    t = Tower.base(base)
    for k in range(data.draw(st.integers(min_value=1, max_value=3))):
        g = t.top
        if g.edges and data.draw(st.booleans()):
            a, b, _ = data.draw(st.sampled_from(g.edges))
            t = t.blow_up(edge_point(a, b, f"N{k}"))
        else:
            t = t.blow_up(free_point(data.draw(st.sampled_from(g.ids)), f"N{k}"))
    assert validate_graph(t.top).ok
    z = fundamental_cycle(base)
    assert t.pushforward(t.pullback(z, 0, t.height), t.height, 0) == z


def _reference_apply_step(g, step):
    """The surgery rebuilt through dual_graph's full normalisation."""
    att = dict(step.attach)
    verts = [Vertex(v.id, v.self_int - att.get(v.id, 0) ** 2, v.kappa + att.get(v.id, 0)) for v in g.vertices]
    verts.append(Vertex(step.new_id, -1, -1))
    edges = {(a, b): m for a, b, m in g.edges}
    for i, (u, mu) in enumerate(step.attach):
        for v, mv in step.attach[i + 1:]:
            edges[min(u, v), max(u, v)] -= mu * mv
    for vid, m in step.attach:
        key = (min(vid, step.new_id), max(vid, step.new_id))
        edges[key] = edges.get(key, 0) + m
    return dual_graph(g.name, verts, [(a, b, m) for (a, b), m in edges.items() if m > 0])


def _reference_contract(g, vid):
    attach = adjacency(g)[vid]
    att = dict(attach)
    verts = [Vertex(w.id, w.self_int + att.get(w.id, 0) ** 2, w.kappa - att.get(w.id, 0))
             for w in g.vertices if w.id != vid]
    edges = [(a, b, m) for a, b, m in g.edges if vid not in (a, b)]
    for i, (u, mu) in enumerate(attach):
        for w, mw in attach[i + 1:]:
            edges.append((u, w, mu * mw))
    return dual_graph(g.name, verts, edges), TowerStep(new_id=vid, attach=attach)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_surgery_keeps_canonical_order(data):
    base = corpus.get(data.draw(st.sampled_from(["A1", "A4", "D5", "E6", "HJ(7,3)", "ex244min"]))).graph
    t = grow(data, Tower.base(base), data.draw(st.integers(min_value=1, max_value=40)))
    levels = t.levels
    for k, step in enumerate(t.steps):
        g = levels[k + 1]
        _assert_canonical(g)
        assert g == _reference_apply_step(levels[k], step)
        for v in g.vertices:
            if v.self_int == -1 and v.kappa == -1:
                lower, back = contract(g, v.id)
                _assert_canonical(lower)
                assert (lower, back) == _reference_contract(g, v.id)
                assert apply_step(lower, back) == g
    # the one-graph replay and the tower built level by level agree
    assert Tower.from_steps(base, t.steps).levels == levels
    k = data.draw(st.integers(min_value=0, max_value=t.height))
    assert replay(base, t.steps[:k]) == Tower.from_steps(base, t.steps[:k]).top == levels[k]
    # ... and refuse a bad step alike, wherever it comes
    g = levels[k]
    a, b, m = g.edges[0] if g.edges else (g.ids[0], g.ids[0], 0)
    for bad in (TowerStep("Q", (("nowhere", 1),)),  # an unknown vertex
                TowerStep(g.ids[-1], ((g.ids[0], 1),)),  # a taken id
                TowerStep("Q", ((a, m + 1), (b, 1)))):  # an edge that would go negative
        assert _refusal(lambda: replay(base, t.steps[:k] + (bad,))) == _refusal(lambda: apply_step(g, bad))


# --- a tower is what its steps build -------------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_a_tower_is_the_replay_of_its_steps(data):
    """Tower(bottom, steps) replays the top that blow_up hands over, and
    copy, deepcopy and pickle rebuild an equal tower through that replay.  A
    step list moved out of order, with a step repeated or with an attachment
    renamed to an id on no level is refused when the tower is built, and a
    top cannot be handed in.  ``_replace`` builds through the constructor:
    it refuses a top and such steps, and replays the steps it is given."""
    base = corpus.get(data.draw(st.sampled_from(["A3", "D5", "E6", "HJ(7,3)", "ex244min"]))).graph
    t = grow(data, Tower.base(base), data.draw(st.integers(min_value=0, max_value=120)))
    assert Tower(t.bottom, t.steps) == Tower.from_steps(t.bottom, t.steps) == t
    assert copy.copy(t) == copy.deepcopy(t) == pickle.loads(pickle.dumps(t)) == t
    with pytest.raises(TypeError):
        Tower(*t)
    with pytest.raises(TypeError):
        Tower(t.bottom, t.steps, top=t.top)
    with pytest.raises(TypeError):
        t._replace(top=t.bottom)
    cut = t.steps[: data.draw(st.integers(0, t.height))]
    assert t._replace(steps=cut) == Tower(t.bottom, cut)
    if not t.steps:
        return
    steps = list(t.steps)
    position = {step.new_id: k for k, step in enumerate(steps)}
    later = [(j, position[u]) for j, step in enumerate(steps) for u, _ in step.attach if u in position]
    kinds = ["repeat", "rename"] + (["early"] if later else [])
    kind, k = data.draw(st.sampled_from(kinds)), data.draw(st.integers(0, len(steps) - 1))
    if kind == "early":  # before the step that inserts a curve it attaches to
        j, i = data.draw(st.sampled_from(later))
        steps.insert(i, steps.pop(j))
        message = "step attaches to unknown vertex"
    elif kind == "repeat":
        steps.insert(data.draw(st.integers(k + 1, len(steps))), steps[k])
        message = f"vertex id {steps[k].new_id!r} already exists"
    else:
        assert "nowhere" not in t.top.ids
        new_id, ((_, m), *rest) = steps[k]
        steps[k] = TowerStep(new_id, (("nowhere", m), *rest))
        message = "step attaches to unknown vertex 'nowhere'"
    with pytest.raises(InputError, match=message):
        Tower(t.bottom, steps)
    with pytest.raises(InputError, match=message):
        t._replace(steps=steps)


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_every_level_is_the_replay_of_the_steps_below_it(data):
    base = corpus.get(data.draw(st.sampled_from(["A3", "D5", "E6", "HJ(7,3)", "ex244min"]))).graph
    grown = grow(data, Tower.base(base), data.draw(st.integers(min_value=0, max_value=120)))
    for t in (grown, Tower.from_steps(base, grown.steps), contract_all(grown.top, lambda p, attach: True)):
        levels = t.levels
        assert len(levels) == t.height + 1 == len(t.steps) + 1
        assert (levels[0], levels[-1]) == (t.bottom, t.top)
        for k in range(t.height + 1):
            assert t.graph(k) == levels[k] == replay(t.bottom, t.steps[:k])


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_a_pullback_between_equal_levels_is_its_cycle(data):
    """pullback(w, k, k) equals w at every level, and is w itself where w
    lives on the level's own graph (the bottom and the top); a cycle on
    another level is still refused."""
    base = corpus.get(data.draw(st.sampled_from(["A3", "D5", "ex244min"]))).graph
    t = grow(data, Tower.base(base), data.draw(st.integers(min_value=1, max_value=12)))
    for k, g in enumerate(t.levels):
        w = cycle(g, {vid: data.draw(st.sampled_from([-2, 0, 1, 3, Fraction(1, 2)])) for vid in g.ids})
        back = t.pullback(w, k, k)
        assert back == w and back.graph == t.graph(k) and back.vec is w.vec
        if g is t.graph(k):
            assert back is w
        other = data.draw(st.sampled_from([j for j in range(t.height + 1) if j != k]))
        with pytest.raises(PreconditionError, match=f"^cycle lives on '{g.name}', not on tower level {other}$"):
            t.pullback(w, other, other)


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_contraction_down_and_insertion_up_agree_at_height(data):
    """contract_all keeps its own neighbour maps going down, replay its
    sorted lists going up.  Over a minimal base, contracting every rational
    (-1)-curve of a tower up to 300 levels high reaches the base, and the
    steps of that sequence, or of one that misses a cohomological cycle C,
    replay to the top; a (-1)-curve set beside the base, meeting nothing,
    stays."""
    base = corpus.get(data.draw(st.sampled_from(["A3", "D5", "E6", "HJ(7,3)", "ex244min"]))).graph
    t = grow(data, Tower.base(base), data.draw(st.integers(min_value=0, max_value=300)))
    everything = contract_all(t.top, lambda p, attach: True)
    assert everything.bottom == base
    assert replay(everything.bottom, everything.steps) == t.top
    c = transport_cohom(t, cycle(base, {vid: data.draw(st.integers(0, 2)) for vid in base.ids}))
    off_c = contract_all(t.top, _off_c(c))
    assert replay(off_c.bottom, off_c.steps) == t.top
    split = dual_graph(base.name, base.vertices + (Vertex("X", -1, -1),), base.edges)
    assert contract_all(replay(split, t.steps), lambda p, attach: True) == Tower.from_steps(split, everything.steps)


# bases that are not negative definite: two (-1)-curves meeting once
# (semidefinite), a curve with E^2 = 0, one with E^2 = 1, and a cycle of
# (-2)-curves (the affine A_3, semidefinite)
_NOT_DEFINITE = [
    dual_graph("semi", [("E1", -1, -1), ("E2", -1, -1)], [("E1", "E2")]),
    dual_graph("zero", [("E", 0, -2)]),
    dual_graph("plus", [("E", 1, -3), ("F", -2, 0)], [("E", "F")]),
    dual_graph("affine", [(f"E{i}", -2, 0) for i in range(4)], [(f"E{i}", f"E{(i + 1) % 4}") for i in range(4)]),
]


def _own_definiteness(g):
    """Definiteness from g's own elimination, whatever g carries."""
    return graph._eliminate(g.sparse_matrix()).negative_definite


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_every_surgery_carries_its_parents_definiteness(data):
    """A step adds or removes an orthogonal (-1), so the definiteness a
    surgery carries up or down a tower of up to 500 levels is each graph's
    own; a parent whose definiteness is unknown passes nothing on."""
    base = data.draw(st.sampled_from([corpus.get(name).graph for name in ("A3", "D5", "ex244min")] + _NOT_DEFINITE))
    base = dual_graph(base.name, base.vertices, base.edges)  # fresh: nothing cached
    known = data.draw(st.booleans())
    if known:
        assert base.negative_definite == _own_definiteness(base)
    want = _own_definiteness(base) if known else None
    t = grow(data, Tower.base(base), data.draw(st.integers(min_value=1, max_value=500)))
    h = t.height
    down = contract_all(t.top, lambda p, attach: True).bottom
    mid = [t.graph(data.draw(st.integers(0, h // 2))), t.graph(data.draw(st.integers(h // 2 + 1, h)))]
    levels = t.levels
    assert {vars(g).get("negative_definite") for g in levels + (down, *mid)} == {want}
    for g in [t.top, down, *mid, levels[data.draw(st.integers(0, h))]]:
        assert g.negative_definite == _own_definiteness(g) == _own_definiteness(base)


def test_contract_all_from_steps_and_blow_up_each_freeze_one_graph(monkeypatch):
    t = Tower.base(corpus.get("D5").graph)
    for k in range(20):
        t = t.blow_up(free_point(t.top.ids[-1], f"F{k:02d}"))  # a chain above E5
    frozen = []
    monkeypatch.setattr(birational, "DualGraph", lambda *args: frozen.append(args) or graph.DualGraph(*args))
    for build, height in ((lambda: contract_all(t.top, lambda p, attach: True), 20),
                          (lambda: Tower.from_steps(t.bottom, t.steps), 20),
                          (lambda: t.blow_up(free_point("E1", "P")), 21)):
        frozen.clear()
        assert build().height == height
        assert len(frozen) == 1


def test_a_level_is_replayed_up_from_the_bottom(monkeypatch):
    t = Tower.base(corpus.get("D5").graph)
    for k in range(25):  # crossings and free points, so edges are cut as well as added
        last, new = t.top.ids[-1], f"F{k:02d}"
        nb = adjacency(t.top)[last][0][0]
        t = t.blow_up(free_point(last, new) if k % 2 else edge_point(last, nb, new))
    levels = t.levels
    inserted = []
    insert = birational._Surgery.insert
    monkeypatch.setattr(birational._Surgery, "insert", lambda s, step: inserted.append(step) or insert(s, step))
    for k in range(t.height + 1):
        inserted.clear()
        g = t.graph(k)
        # the ends are stored; a level between is k steps up from the bottom
        assert inserted == ([] if k == t.height else list(t.steps[:k]))
        assert g == levels[k]
        _assert_canonical(g)
    assert t.graph(0) is t.bottom and t.graph(t.height) is t.top


def test_a_level_out_of_range_is_refused():
    t = Tower.base(corpus.get("A2").graph).blow_up(free_point("E1", "C"))
    for level in (-1, 2):
        with pytest.raises(InputError, match=f"tower has levels 0..1, not {level}"):
            t.graph(level)


def test_a_level_that_is_not_an_int_is_refused():
    base = corpus.get("A3").graph
    t1 = Tower.base(base).blow_up(free_point("E1", "C1"))
    t = t1.blow_up(free_point("C1", "C2"))
    zb = fundamental_cycle(base)
    z = t.pullback(zb, 0, 2)
    model = singularity_model(base)
    refused = [
        lambda: t1.graph(1.0),  # a height-1 tower's top, were it read as 1
        lambda: t.graph(0.5),
        lambda: t.graph(True),
        lambda: t.graph("1"),
        lambda: t.pullback(zb, 0.0, 2),
        lambda: t.pullback(zb, 0, 2.0),
        lambda: t.pullback(zb, False, 2),
        lambda: t.pushforward(z, 2.0, 0),
        lambda: t.pushforward(z, 2, 0.0),
        lambda: represent(model, t, 2.0, z),
    ]
    for call in refused:
        with pytest.raises(InputError, match="a tower level must be an int, not (float|bool|str)"):
            call()
    assert t.pushforward(z, 2, 0) == zb and represent(model, t, 2, z).z == z


def _assert_canonical(g):
    """g is in dual_graph's canonical order, and its seeded caches are what
    dual_graph's graph computes."""
    ref = dual_graph(g.name, g.vertices, g.edges)
    assert g == ref
    assert g.ids == ref.ids and g._index == ref._index and adjacency(g) == adjacency(ref)


def _refusal(call):
    with pytest.raises((InputError, PreconditionError)) as err:
        call()
    return err.type, str(err.value)


# --- the contraction loops as they were written before contract_all --------


def _reference_loop(g, may_go, spare_last=False):
    """Scan for a rational (-1)-curve, contract it, rescan.  ``may_go(cur,
    lower, step)`` judges the contraction after it is made; the loop of the
    CLI's minimalization also left the last curve alone."""
    graphs, steps = [g], []
    while True:
        cur = graphs[-1]
        for v in cur.vertices:
            if (v.self_int, v.kappa) != (-1, -1) or (spare_last and len(cur.vertices) == 1):
                continue
            lower, step = contract(cur, v.id)
            if may_go(cur, lower, step):
                graphs.append(lower)
                steps.append(step)
                break
        else:
            break
    t = Tower.from_steps(graphs[-1], reversed(steps))
    assert t.levels == tuple(reversed(graphs))
    return t


def _pairs_to_zero(w):
    """The old rule of colon/core and is_good: W.E = 0 on the graph E leaves."""
    return lambda cur, lower, step: pair(w.restricted_to(cur), unit_cycle(cur, step.new_id)) == 0


def _transports_back(c):
    """The old minimalization rule: re-inserting the curve transports C
    (restricted to the lower graph) back to C itself."""
    def may_go(cur, lower, step):
        c_low = c.restricted_to(lower)
        t = Tower(lower, (step,))
        assert t.top == cur
        lifted = t.pullback(c_low, 0, 1)
        if any(c_low.coeff(u) > 0 for u, _ in step.attach):
            lifted = lifted - unit_cycle(cur, step.new_id)
        return lifted == c.restricted_to(cur)
    return may_go


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_contract_all_matches_the_four_loops(data):
    name = data.draw(st.sampled_from(["A1", "A3", "D4", "E6", "HJ(7,3)", "ex244blown"]))
    if name == "ex244blown":
        t = corpus.get(name).tower
        model = singularity_model(t.levels[0], pg=1, gorenstein=True)
        z0, avoid = corpus.get(name).cycles["Z"], ("E0",)
    else:
        t = Tower.base(corpus.get(name).graph)
        model = singularity_model(t.levels[0])
        z0, avoid = fundamental_cycle(t.levels[0]), ()
    level = t.height
    t = grow(data, t, data.draw(st.integers(min_value=0, max_value=25)), avoid=avoid)
    g = t.top
    c = transport_cohom(t, model.c_base)
    z = t.pullback(data.draw(st.integers(1, 2)) * z0, level, t.height)
    if data.draw(st.booleans()):
        # a cohomological cycle that some contraction would not transport
        vid = data.draw(st.sampled_from(g.ids))
        c_any = c + unit_cycle(g, vid)
    else:
        c_any = c
    zc, cc, ca = z.as_dict(), c.as_dict(), c_any.as_dict()
    disjoint = contract_all(g, by_step(g, lambda step: step.new_id not in cc and excess(cc, step) == 0))
    assert disjoint == _reference_loop(
        g, lambda cur, lower, step: c.coeff(step.new_id) == 0 and _pairs_to_zero(c)(cur, lower, step)
    )
    assert contract_all(g, by_step(g, lambda step: excess(zc, step) == 0)) == _reference_loop(g, _pairs_to_zero(z))
    everything = contract_all(g, lambda p, attach: True)
    assert everything == _reference_loop(g, lambda cur, lower, step: True)
    assert everything.levels[0] == t.levels[0]
    minimal = contract_all(g, by_step(g, lambda step: ca.get(step.new_id, 0) == transported(ca, step.attach)))
    assert minimal == _reference_loop(g, _transports_back(c_any), spare_last=True)
    # the library and CLI paths run the same engine
    assert _minimalize(g, c_any) == (minimal, c_any.restricted_to(minimal.levels[0]))
    ideal = represent(model, t, t.height, z, h1=model.pg)
    if ideal.pg_numeric:
        assert colon_and_core(ideal).contraction_tower == disjoint


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_rules_by_position_contract_like_their_name_keyed_references(data):
    """The four contraction rules read cycles by position on the top: the
    off-C rule, is_good's Z.E = 0 rule, the minimalization's transport rule
    and True.  On towers up to 300 levels high each builds the same tower
    as its name-keyed reference run on the step that would re-insert the
    curve, and colon/core's b and Y are those of excess and lift."""
    name = data.draw(st.sampled_from(["A3", "D5", "E6", "HJ(7,3)", "ex244min"]))
    base = corpus.get(name).graph
    model = singularity_model(base, pg=1, gorenstein=True) if name == "ex244min" else singularity_model(base)
    t = grow(data, Tower.base(base), data.draw(st.integers(min_value=0, max_value=300)))
    for k in range(data.draw(st.integers(0, 3))):  # curves met twice, so that multiplicities count
        t = t.blow_up(TowerStep(f"M{k}", ((data.draw(st.sampled_from(t.top.ids)), 2),)))
    g = t.top
    c = transport_cohom(t, model.c_base)
    raised = data.draw(st.dictionaries(st.sampled_from(g.ids), st.integers(1, 3), max_size=3))
    z = antinef_closure(t.pullback(fundamental_cycle(base), 0, t.height) + cycle(g, raised))
    # C itself, or effective cycles that some contraction would not transport
    c_any = data.draw(st.sampled_from([c, c + unit_cycle(g, data.draw(st.sampled_from(g.ids))), cycle(
        g, data.draw(st.dictionaries(st.sampled_from(g.ids), st.integers(0, 2), max_size=6)))]))
    zc, ca = z.as_dict(), c_any.as_dict()
    ideal = represent(model, t, t.height, z, h1=model.pg)

    assert contract_all(g, _off_c(c_any)) == contract_all(
        g, by_step(g, lambda step: step.new_id not in ca and excess(ca, step) == 0))
    assert _minimalize(g, c_any)[0] == contract_all(
        g, by_step(g, lambda step: ca.get(step.new_id, 0) == transported(ca, step.attach)))
    assert contract_all(g, lambda p, attach: True) == contract_all(g, by_step(g, lambda step: True))
    if not ideal.pg_numeric:
        return
    rules = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ideals, "contract_positions",
                   lambda graph, rule: rules.append(rule) or birational.contract_positions(graph, rule))
        is_good(ideal)
    assert contract_all(g, rules[0]) == contract_all(g, by_step(g, lambda step: excess(zc, step) == 0))
    rep = colon_and_core(ideal)
    steps = rep.contraction_tower.steps
    assert rep.b == tuple(excess(zc, step) for step in reversed(steps))
    assert rep.y == cycle(g, lift({}, steps, [int(b > 0) for b in reversed(rep.b)]))


# --- the worklist against the rescan it replaced -------------------------------


def _library_rules(g, zv, cv, vid):
    """The rules the library hands ``contract_positions`` on g, caught as it
    hands them over: colon/core's off-C rule, is_good's Z.E = 0 rule, the
    CLI's transport rule and contract's q == p; then good_closure's True.
    zv and cv are vectors on g, cv effective and integral."""
    rules = [_off_c(graph.Cycle(g, cv))]
    real = birational.contract_positions
    with pytest.MonkeyPatch.context() as mp:
        for module in (birational, ideals):
            mp.setattr(module, "contract_positions", lambda g, rule: rules.append(rule) or real(g, rule))
        is_good(ideals.IdealRep(None, None, 0, graph.Cycle(g, zv), 0, True, graph.Cycle(g, cv)))
        _minimalize(g, graph.Cycle(g, cv))
        try:
            contract(g, vid)
        except PreconditionError:
            pass
    assert len(rules) == 4
    return rules + [lambda p, attach: True]


def _assert_contracts_like_the_rescan(data, g, zv, cv):
    salt = data.draw(st.integers(0, 2**32))
    rules = _library_rules(g, zv, cv, data.draw(st.sampled_from(g.ids)))
    for rule in rules + [lambda p, attach: hash((salt, p, attach)) % 3 != 0]:  # a random pure rule
        verts, adj, seq = birational.contract_positions(g, rule)
        ref_verts, ref_adj, ref_seq = reference.contract_positions(g, rule)
        assert list(verts.items()) == list(ref_verts.items())
        assert [(p, list(nb.items())) for p, nb in adj.items()] == [(p, list(nb.items())) for p, nb in ref_adj.items()]
        assert seq == ref_seq


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_the_worklist_contracts_towers_like_the_rescan(data):
    """On towers up to 1,000 levels high, the worklist leaves the survivors
    and makes the sequence, in order, that the rescan does, under every rule
    of the library and a random pure rule."""
    name = data.draw(st.sampled_from(["A1", "A3", "D5", "E6", "HJ(7,3)", "ex244min"]))
    base = corpus.get(name).graph
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    t = Tower.base(base)
    for k in range(data.draw(st.integers(0, 1000))):
        g = t.top
        if g.edges and rng.random() < 0.4:
            a, b, _ = rng.choice(g.edges)
            t = t.blow_up(edge_point(a, b, f"X{k}"))
        else:
            t = t.blow_up(free_point(rng.choice(g.ids), f"X{k}"))
    g = t.top
    c = transport_cohom(t, unit_cycle(base, "E0") if name == "ex244min" else zero_cycle(base))
    cv = list(c.vec)
    if data.draw(st.booleans()):  # a C that some contraction would not transport
        cv[rng.randrange(len(cv))] += 1
    zv = list(t.pullback(fundamental_cycle(base), 0, t.height).vec)
    for _ in range(data.draw(st.integers(0, 3))):  # Z.E != 0 on a few curves
        zv[rng.randrange(len(zv))] += 1
    _assert_contracts_like_the_rescan(data, g, tuple(zv), tuple(cv))


@st.composite
def multigraphs(draw):
    """Graphs of up to 24 curves with cycles and edges met twice, among
    whose curves contractions make new rational (-1)-curves."""
    n = draw(st.integers(1, 24))
    kinds = st.sampled_from([(-1, -1), (-1, -1), (-2, 0), (-2, 0), (-2, 0), (-3, 1), (-5, 1), (-1, 0), (-2, -1)])
    vertices = [(f"V{k:02d}", *draw(kinds)) for k in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.dictionaries(pairs.map(sorted).map(tuple), st.integers(1, 2), max_size=2 * n)) if n > 1 else {}
    return dual_graph("multi", vertices, [(f"V{a:02d}", f"V{b:02d}", m) for (a, b), m in edges.items()])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_worklist_contracts_multigraphs_like_the_rescan(data):
    g = data.draw(multigraphs())
    zv = tuple(data.draw(st.lists(st.integers(0, 2), min_size=len(g.ids), max_size=len(g.ids))))
    cv = tuple(data.draw(st.lists(st.integers(0, 1), min_size=len(g.ids), max_size=len(g.ids))))
    _assert_contracts_like_the_rescan(data, g, zv, cv)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_upward_passes_match_their_name_keyed_references(data):
    """Every pass up a tower runs in place on a container that holds every
    curve the steps name: pullback, relative_canonical, transport_cohom,
    associated_pg_cycle's Z and colon/core's Y equal the name-keyed lift and
    transported, on towers up to 300 levels high with curves met twice and
    an effective integral C != 0."""
    name = data.draw(st.sampled_from(["A3", "D5", "E6", "HJ(7,3)", "ex244min"]))
    base = corpus.get(name).graph
    model = singularity_model(base, pg=1, gorenstein=True) if name == "ex244min" else singularity_model(base)
    t = grow(data, Tower.base(base), data.draw(st.integers(min_value=0, max_value=300)))
    for k in range(data.draw(st.integers(0, 3))):  # curves met twice, so that multiplicities count
        t = t.blow_up(TowerStep(f"M{k}", ((data.draw(st.sampled_from(t.top.ids)), 2),)))
    g, h = t.top, t.height
    lo = data.draw(st.integers(0, h))
    hi = data.draw(st.integers(lo, h))
    below = t.graph(lo)
    coeff = st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    w = cycle(below, data.draw(st.dictionaries(st.sampled_from(below.ids), coeff, max_size=6)))
    steps = t.steps[lo:hi]
    assert t.pullback(w, lo, hi) == cycle(t.graph(hi), lift(w.as_dict(), steps))
    assert relative_canonical(t, hi, lo) == cycle(t.graph(hi), lift({}, steps, [1] * len(steps)))

    c_base = cycle(base, {vid: data.draw(st.integers(0, 2)) for vid in base.ids})
    c_base = c_base + unit_cycle(base, data.draw(st.sampled_from(base.ids)))
    coeffs = c_base.as_dict()
    for step in t.steps:
        coeffs[step.new_id] = transported(coeffs, step.attach)
    assert transport_cohom(t, c_base) == cycle(g, coeffs)

    raised = data.draw(st.dictionaries(st.sampled_from(g.ids), st.integers(1, 3), max_size=3))
    z = antinef_closure(t.pullback(fundamental_cycle(base), 0, h) + cycle(g, raised))
    branches = [(vid, -row) for vid, row in zip(g.ids, z.rows) if row]
    grown, zp = associated_pg_cycle(t, z, branches, c_base)
    new = grown.steps[h:]
    assert zp == cycle(grown.top, lift(z.as_dict(), new, [1] * len(new)))

    ideal = represent(model, t, h, z, h1=model.pg)
    if ideal.pg_numeric:
        rep = colon_and_core(ideal)
        assert rep.y == cycle(g, lift({}, rep.contraction_tower.steps, [int(b > 0) for b in reversed(rep.b)]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_transport_is_pullback_minus_the_new_curve_on_supp(data):
    t = grow(data, corpus.get("ex244blown").tower, data.draw(st.integers(min_value=1, max_value=20)))
    top = transport_cohom(t, unit_cycle(t.levels[0], "E0"))
    track = [top.restricted_to(g) for g in t.levels]
    for k, step in enumerate(t.steps):
        want = t.pullback(track[k], k, k + 1)
        if any(track[k].coeff(u) > 0 for u, _ in step.attach):
            want = want - unit_cycle(t.graph(k + 1), step.new_id)
        assert track[k + 1] == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_a_zero_cohomological_cycle_skips_the_pass_and_matches_it(data):
    """The full pass of ``transported`` over every step, against
    ``transport_cohom``: the zero C it returns at once, and effective
    integral C that it carries up."""
    base = corpus.get(data.draw(st.sampled_from(["A1", "A4", "D5", "E6", "HJ(7,3)", "ex244min"]))).graph
    t = grow(data, Tower.base(base), data.draw(st.integers(min_value=0, max_value=30)))
    for c_base in (zero_cycle(base), cycle(base, {vid: data.draw(st.integers(0, 2)) for vid in base.ids})):
        coeffs = c_base.as_dict()
        for step in t.steps:
            coeffs[step.new_id] = transported(coeffs, step.attach)
        assert transport_cohom(t, c_base) == cycle(t.top, coeffs)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_transport_keeps_an_integral_effective_c_effective(data):
    """Why ``transport_cohom`` needs no check inside its pass: over steps of
    one attachment each, of multiplicity 1 to 3, an integral C >= 0 gains
    sum m.C[u] - 1 >= 0 when some C[u] > 0, and 0 otherwise."""
    base = corpus.get(data.draw(st.sampled_from(["A1", "A4", "D5", "ex244min"]))).graph
    ids, steps = list(base.ids), []
    for k in range(data.draw(st.integers(0, 20))):
        steps.append(TowerStep(f"N{k}", ((data.draw(st.sampled_from(ids)), data.draw(st.integers(1, 3))),)))
        ids.append(f"N{k}")
    t = Tower.from_steps(base, steps)
    c = transport_cohom(t, cycle(base, {vid: data.draw(st.integers(0, 3)) for vid in base.ids}))
    assert c.is_effective and c.is_integral


# --- associated_pg_cycle's loop as it was written on Cycles ------------------


def _reference_associated_pg_cycle(t, z, branches, c_base):
    """Blow up a live branch through supp C, pull Z and C back over the new
    curve, add it to Z and take it off C; repeat until no branch meets C."""
    counts = {}
    for vid, n in branches:
        counts[vid] = counts.get(vid, 0) + n
    live = [vid for vid, n in counts.items() for _ in range(n)]
    c = transport_cohom(t, c_base)
    while True:
        for i, vid in enumerate(live):
            if c.coeff(vid) > 0:
                break
        else:
            return t, z
        n = 1
        while f"P{n}" in set(t.top.ids) | set(live):
            n += 1
        t = t.blow_up(free_point(vid, f"P{n}"))
        lvl = t.height
        z = t.pullback(z, lvl - 1, lvl) + unit_cycle(t.top, f"P{n}")
        c = t.pullback(c, lvl - 1, lvl) - unit_cycle(t.top, f"P{n}")
        assert c.is_effective
        live[i] = f"P{n}"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_associated_pg_cycle_matches_the_cycle_loop(data):
    if data.draw(st.booleans()):
        # a cone base: one curve of genus g and degree e, with C = kE
        e, genus = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))
        base = dual_graph("cone", [("E", -e, 2 * genus - 2 + e)])
        t = Tower.base(base)
        c_base = data.draw(st.integers(1, 3)) * unit_cycle(base, "E")
    else:
        base = corpus.get("ex244min").graph
        t = grow(data, Tower.base(base), data.draw(st.integers(0, 6)))
        c_base = unit_cycle(base, "E0")
    g = t.top
    z = antinef_closure(cycle(g, data.draw(st.dictionaries(st.sampled_from(g.ids), st.integers(1, 3), min_size=1))))
    # balanced: -Z.E_i branches on each E_i, in records of any order
    branches = data.draw(st.permutations([(vid, -row_pairing(z, vid)) for vid in g.ids]))
    want = _reference_associated_pg_cycle(t, z, branches, c_base)
    assert associated_pg_cycle(t, z, branches, c_base) == want


def _assert_count_rule(t0, branches, c_base, t, z):
    """The associated p_g-cycle checked by its count, in time linear in the
    height: sum n.C[E_i] new curves over the records (E_i, n), each a free
    point; one branch tip per branch, on its last new curve or on E_i when
    C[E_i] = 0; Z.E = -(tips on E) for every curve E of the top; C = 0 at
    every tip."""
    c0 = transport_cohom(t0, c_base)
    assert t.bottom == t0.bottom and t.steps[:t0.height] == t0.steps
    new = t.steps[t0.height:]
    assert len(new) == sum(n * c0.coeff(vid) for vid, n in branches)
    assert all(len(step.attach) == 1 and step.attach[0][1] == 1 for step in new)
    tips = Counter(vid for vid, n in branches for _ in range(n) if c0.coeff(vid) == 0)
    continued = {step.attach[0][0] for step in new}
    tips.update(step.new_id for step in new if step.new_id not in continued)
    assert sum(tips.values()) == sum(n for _, n in branches)
    assert dict(zip(t.top.ids, z.rows)) == {vid: -tips[vid] for vid in t.top.ids}
    c = transport_cohom(t, c_base)
    assert all(c.coeff(vid) == 0 for vid in tips)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_associated_pg_cycle_blows_each_branch_up_c_times(data):
    if data.draw(st.booleans()):
        # a cone base, Z = E with e branches and C = kE, up to heights near 2,000
        e, genus = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))
        base = dual_graph("cone", [("E", -e, 2 * genus - 2 + e)])
        t, z = Tower.base(base), unit_cycle(base, "E")
        c_base = data.draw(st.integers(1, 2000 // e)) * z
    else:
        # ex244min with levels named P<k>, which the new curves' names skip
        base = corpus.get("ex244min").graph
        t = grow(data, Tower.base(base), data.draw(st.integers(0, 4)))
        for k in data.draw(st.lists(st.integers(1, 9), unique=True, max_size=4)):
            t = t.blow_up(free_point(data.draw(st.sampled_from(t.top.ids)), f"P{k}"))
        c_base = data.draw(st.integers(1, 3)) * unit_cycle(base, "E0")
        g = t.top
        z = antinef_closure(cycle(g, data.draw(st.dictionaries(st.sampled_from(g.ids), st.integers(1, 3), min_size=1))))
    branches = data.draw(st.permutations([(vid, -row_pairing(z, vid)) for vid in t.top.ids]))
    top, z_top = associated_pg_cycle(t, z, branches, c_base)
    _assert_count_rule(t, branches, c_base, top, z_top)
    if top.height <= 30:
        assert (top, z_top) == _reference_associated_pg_cycle(t, z, branches, c_base)


def test_associated_pg_cycle_builds_its_top_by_one_replay(monkeypatch):
    """The cone(1, 2000, 3998) base, C = 3,999 E and one branch: 3,999
    blow-ups from one transport of C and one replay."""
    calls = Counter()
    for name in ("replay", "transport_cohom"):
        def counted(*args, _f=getattr(birational, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(birational, name, counted)
    base = dual_graph("cone(1,2000,3998)", [("E", -1, 3999)])
    m, c_base = unit_cycle(base, "E"), 3999 * unit_cycle(base, "E")
    t, z = associated_pg_cycle(Tower.base(base), m, [("E", 1)], c_base)
    assert calls == {"replay": 1, "transport_cohom": 1}
    assert t.height == 3999
    _assert_count_rule(Tower.base(base), [("E", 1)], c_base, t, z)
