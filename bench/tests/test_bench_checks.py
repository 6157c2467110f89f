"""The benchmark's output checks accept correct results and reject
deliberately corrupted ones; a seed always generates the same inputs."""

import copy
import dataclasses
import json
from fractions import Fraction

import pytest

import cli_session
import corpus_verify
import lattice_sweep
import tower_ideals
from reference import CheckFailed, Lattice, max_y
from run import load, setup


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    _, _, wl, _ = setup(lattice_sweep, 7, tmp_path_factory.mktemp("sweep"), repeats=1)
    ops = [op for op in wl.ops if op.size_class == "n10" or op.family == "indefinite"]
    return wl, [(op, wl.summary(op, wl.run(op))) for op in ops]


@pytest.fixture(scope="module")
def towers(tmp_path_factory):
    _, _, wl, _ = setup(tower_ideals, 7, tmp_path_factory.mktemp("towers"), repeats=1)
    ops = [op for op in wl.ops if op.size_class in ("h5", "ex244", "cone")]
    return wl, [(op, wl.summary(op, wl.run(op))) for op in ops]


def _one(pairs, pred):
    return next((op, copy.deepcopy(s)) for op, s in pairs if pred(op, s))


def test_graph_checks_accept_program_output(sweep):
    wl, pairs = sweep
    for op, s in pairs:
        lattice_sweep.check_graph(op, s)


@pytest.mark.parametrize("corrupt", [
    lambda s: s["zk"].update({next(iter(s["zk"])): s["zk"][next(iter(s["zk"]))] + 1}),
    lambda s: s["zf"].update({next(iter(s["zf"])): 2}),
    lambda s: s["closure"].update({next(iter(s["closure"])): 99}),
    lambda s: s.update(e=s["e"] + 1),
    lambda s: s.update(rational=not s["rational"]),
    lambda s: s["report"].update(negative_definite=False),
])
def test_graph_checks_reject_corruption(sweep, corrupt):
    _, pairs = sweep
    op, s = _one(pairs, lambda op, s: op.family == "cusp")  # Z_K = sum of the curves
    corrupt(s)
    with pytest.raises(CheckFailed):
        lattice_sweep.check_graph(op, s)


def test_graph_check_rejects_wrong_determinant(sweep):
    wl, pairs = sweep
    op, s = _one(pairs, lambda op, s: op.family == "A")
    wl.check(op, s)
    with pytest.raises(CheckFailed):
        wl.check(dataclasses.replace(op, det=op.det + 1), s)


def test_indefinite_graph_must_raise(sweep):
    _, pairs = sweep
    op, s = _one(pairs, lambda op, s: op.family == "indefinite")
    lattice_sweep.check_graph(op, s)
    s.pop("raised")
    with pytest.raises(CheckFailed):
        lattice_sweep.check_graph(op, s)


def test_ideal_checks_accept_program_output(towers):
    wl, pairs = towers
    kinds = set()
    for op, s in pairs:
        tower_ideals.check_ideal(op, s)
        kinds.add((op.kind, s["good"]))
    assert ("random", True) in kinds and ("random", False) in kinds


@pytest.mark.parametrize("field", ["y", "core", "colon", "z", "k", "vt"])
def test_ideal_checks_reject_a_raised_coefficient(towers, field):
    _, pairs = towers
    op, s = _one(pairs, lambda op, s: op.kind == "random" and s["y"])
    vid = next(iter(s[field]))
    s[field][vid] += 1
    with pytest.raises(CheckFailed):
        tower_ideals.check_ideal(op, s)


@pytest.mark.parametrize("corrupt", [
    lambda s: s.update(iterations=s["iterations"] + 1),
    lambda s: s.update(is_good=not s["is_good"]),
    lambda s: s["closure"].update(level=s["closure"]["level"] + 1),
    lambda s: s.update(back={}),
])
def test_ideal_checks_reject_corruption(towers, corrupt):
    _, pairs = towers
    op, s = _one(pairs, lambda op, s: op.kind == "random" and s["y"])
    corrupt(s)
    with pytest.raises(CheckFailed):
        tower_ideals.check_ideal(op, s)


def test_worked_example_is_pinned_to_the_paper(towers):
    _, pairs = towers
    op, s = _one(pairs, lambda op, s: op.worked_example)
    tower_ideals.check_ideal(op, s)
    s["y"] = {"E1": 1}
    with pytest.raises(CheckFailed):
        tower_ideals.check_ideal(op, s)


def test_max_y_reference_on_the_two_curve_example():
    # E(-3) -- C1(-1) with Z = E + 2C1: Y = C1 (the documented worked example)
    from reference import Spec

    lat = Lattice(Spec("a1b", (("E", -3, 1), ("C1", -1, -1)), (("E", "C1", 1),)))
    assert max_y(lat, {"E": 1, "C1": 2}, {}) == {"C1": 1}


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    return cli_session.plan(7, tmp_path_factory.mktemp("cli")).calls


def test_cli_check_rejects_wrong_exit_code(calls):
    call = next(c for c in calls if c.args[0] == "validate" and c.exit_code == 1 and c.fault is None)
    assert cli_session.check_call(call, 1, "", "error: invalid JSON")
    with pytest.raises(CheckFailed):
        cli_session.check_call(call, 0, "", "")
    with pytest.raises(CheckFailed):
        cli_session.check_call(call, 1, "", "Traceback (most recent call last):\n")


def test_cli_check_rejects_wrong_output(calls):
    call = next(c for c in calls if c.args[0] == "fundamental-cycle" and c.exit_code == 0)
    want = json.loads(json.dumps({"fundamental_cycle": {}}))
    with pytest.raises(CheckFailed):
        cli_session.check_call(call, 0, json.dumps(want), "")


def test_cli_known_faults_count_as_failed_until_fixed(calls):
    assert len([c for c in calls if c.fault]) == 3
    inline = next(c for c in calls if c.fault and "inline" in c.fault.what)
    dup = next(c for c in calls if c.fault and "JSON key" in c.fault.what)
    huge = next(c for c in calls if c.fault and "overflow" in c.fault.what)
    # today's wrong output counts as failed
    assert cli_session.check_call(inline, 0, '{"closure": {"E1": 3, "E2": 2, "E3": 1}}', "") is False
    assert cli_session.check_call(dup, 0, json.dumps({"ok": True, "adjunction_ok": True}), "") is False
    assert cli_session.check_call(huge, 0, '{"negative_definite": false}', "") is False
    # the fixed behaviour passes
    assert cli_session.check_call(inline, 1, "", "error: duplicate id 'E1'") is True
    assert cli_session.check_call(dup, 1, "", "error: duplicate key 'kappa'") is True
    assert cli_session.check_call(huge, 0, '{"negative_definite": true}', "") is True
    assert cli_session.check_call(huge, 2, "", "error: coefficients overflow int64") is True
    # any other deviation on these inputs is a wrong output, not the known fault
    for wrong in [(inline, 0, '{"closure": {"E1": 5, "E2": 3, "E3": 1}}', ""),
                  (inline, 1, "", "Traceback (most recent call last):\n"),
                  (dup, 2, "", "error: not negative definite"),
                  (dup, 0, json.dumps({"ok": False, "adjunction_ok": False}), ""),
                  (huge, 0, "negative_definite = false", ""),
                  (huge, 1, "", "error: something else")]:
        with pytest.raises(CheckFailed):
            cli_session.check_call(*wrong)


def test_criterion_check_rejects_a_failure():
    wl = corpus_verify.CorpusVerify.__new__(corpus_verify.CorpusVerify)
    assert wl.check("1 ex244 reproduction", {"ok": True, "detail": ""})
    with pytest.raises(CheckFailed):
        wl.check("1 ex244 reproduction", {"ok": False, "detail": "e = 11"})


def test_a_seed_always_generates_the_same_inputs(tmp_path):
    for module in (lattice_sweep, tower_ideals):
        assert module.plan(3) == module.plan(3)
        assert module.plan(3) != module.plan(4)
    docs = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        _, _, wl, _ = setup(cli_session, seed, tmp_path / name, repeats=1)
        files = sorted(p.name for p in (tmp_path / name).iterdir())
        docs.append(([[a.replace(str(tmp_path / name), "") for a in c.args] for c in wl.calls],
                     [(tmp_path / name / f).read_text() for f in files]))
    assert docs[0] == docs[1]
    assert docs[0] != docs[2]


def test_set_up_rejects_a_corpus_graph_that_differs_from_its_definition(tmp_path):
    prog = load(tower_ideals.MODULES)
    ops = tower_ideals.plan(3)
    made = tower_ideals.prepare(prog, ops)
    made["D5"] = prog.corpus.get("D4").graph
    with pytest.raises(CheckFailed):
        tower_ideals.build(prog, ops, made)


def test_set_up_rejects_an_emitted_document_that_differs_from_its_recipe(tmp_path):
    prog = load(cli_session.MODULES)
    p = cli_session.plan(3, tmp_path)
    made = cli_session.prepare(prog, p)
    doc = json.loads(made["tree.json"])
    doc["vertices"][0]["kappa"] += 1
    made["tree.json"] = json.dumps(doc)
    with pytest.raises(CheckFailed):
        cli_session.build(prog, p, made)


def test_canonical_cycle_residual_uses_exact_fractions():
    from reference import Spec

    lat = Lattice(Spec("hj52", (("E1", -3, 1), ("E2", -2, 0)), (("E1", "E2", 1),)))
    assert lat.residual({"E1": Fraction(2, 5), "E2": Fraction(1, 5)}) == {}
    assert lat.residual({"E1": Fraction(2, 5), "E2": Fraction(1, 4)}) != {}


def test_busy_time_counts_nested_spans_once_and_self_time_subtracts_children():
    from tracing import Tracer

    t = Tracer()
    a, b = t._name_id("A"), t._name_id("B")
    t.spans = [(a, 0, 100, -1), (b, 10, 40, 0), (b, 50, 60, 0), (a, 70, 80, 0)]
    times = t.layer_times()
    assert times["A"] == (100 / 1e6, 60 / 1e6, 2)
    assert times["B"] == (40 / 1e6, 40 / 1e6, 2)
    assert t.busy_under([0]) == {"B": 40 / 1e6}  # the inner A lies inside the outer one


def test_install_wraps_every_binding_of_a_function():
    import importlib

    from tracing import Tracer

    load(["antinef.ideals"])
    lattice, ideals = (importlib.import_module(f"antinef.{m}") for m in ("lattice", "ideals"))
    assert ideals.pair is lattice.pair
    t = Tracer()
    t.install()
    assert ideals.pair is lattice.pair and hasattr(lattice.pair, "__wrapped__")
    g = importlib.import_module("antinef.graph").dual_graph("a2", [("E1", -2, 0), ("E2", -2, 0)], [("E1", "E2")])
    z = lattice.fundamental_cycle(g)
    assert ideals.pair(z, z) == -2
    assert t.layer_times()["lattice.pair"][2] == 1
    assert t.counts["lattice.closure_raises"] == 1
    load(["antinef.ideals"])  # leave unwrapped modules to later tests
