"""Release acceptance gate.

Runs every acceptance criterion exactly as shipped (exact arithmetic,
tolerance zero) and prints one PASS/FAIL line per criterion.  The same
checks back the CLI's ``corpus verify``.  The gate's failing branch is
checked on a planted wrong result: the criterion that sees it reports FAIL
and the others still run.  A sample count below one is refused, and the
random instances are the same as when every instance built its own model.
"""

import random
from collections import Counter

import pytest

from antinef import corpus, verify
from antinef.cli import main
from antinef.errors import InputError, TheoremViolationError
from antinef.graph import unit_cycle
from antinef.ideals import represent, singularity_model
from antinef.verify import CRITERIA, DEFAULT_SAMPLES, DEFAULT_SEED

COLON_CORE = "3 colon/core vs oracle"


@pytest.mark.parametrize("criterion", list(CRITERIA), ids=lambda c: c.replace(" ", "-"))
def test_acceptance(criterion, capsys):
    result = CRITERIA[criterion](seed=DEFAULT_SEED, samples=DEFAULT_SAMPLES)
    with capsys.disabled():
        print(f"\n{'PASS' if result.ok else 'FAIL'}  {criterion}: {result.detail}")
    assert result.ok, f"{criterion}: {result.detail}"


@pytest.fixture
def wrong_y(monkeypatch):
    """The gate's colon_and_core with one more curve in every Y."""
    right = verify.colon_and_core

    def planted(ideal):
        rep = right(ideal)
        return rep._replace(y=rep.y + unit_cycle(rep.y.graph, rep.y.graph.ids[0]))

    monkeypatch.setattr(verify, "colon_and_core", planted)


def test_a_wrong_y_fails_criterion_3_with_its_detail(wrong_y):
    result = CRITERIA[COLON_CORE](samples=2)
    assert not result.ok
    assert result.detail.startswith("Y mismatch on ") and ", oracle " in result.detail


def test_a_lattice_error_inside_a_criterion_is_a_fail(monkeypatch):
    def planted(ideal):
        raise TheoremViolationError("planted violation")

    monkeypatch.setattr(verify, "colon_and_core", planted)
    assert CRITERIA[COLON_CORE](samples=2) == ("colon_core_vs_oracle", False, "planted violation")


def test_run_all_runs_every_criterion_past_a_failure(wrong_y):
    results = verify.run_all(samples=2)
    assert [r.ok for r in results] == [name != COLON_CORE for name in CRITERIA]


def test_corpus_verify_exits_3_on_a_failure(wrong_y, capsys):
    assert main(["corpus", "verify", "--samples", "2"]) == 3
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == len(CRITERIA)
    assert [line.split()[0] for line in lines] == ["FAIL" if name == COLON_CORE else "PASS" for name in CRITERIA]
    assert "Y mismatch on " in lines[list(CRITERIA).index(COLON_CORE)]


@pytest.mark.parametrize("samples", [0, -3])
def test_a_sample_count_that_is_not_positive_is_refused(samples):
    for check in CRITERIA.values():
        with pytest.raises(InputError, match=f"^sample count must be positive, got {samples}$"):
            check(samples=samples)
    with pytest.raises(InputError):
        verify.run_all(samples=samples)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_corpus_verify_refuses_a_sample_count_that_is_not_positive(samples, capsys):
    assert main(["corpus", "verify", "--samples", samples]) == 1
    assert capsys.readouterr() == ("", f"error: sample count must be positive, got {samples}\n")


def _reference_instances(rng, count, gorenstein_only=False):
    """``verify._random_instances`` building a fresh model for every instance."""
    bases = [n for n in verify._RATIONAL_BASES if not (gorenstein_only and n.startswith("HJ"))]
    for _ in range(count):
        base = corpus.get(rng.choice(bases)).graph
        model = singularity_model(base, gorenstein=all(v.kappa == 0 for v in base.vertices))
        t = verify._random_tower(rng, base)
        z = verify._random_antinef(rng, t.graph(t.height))
        yield model, represent(model, t, t.height, z)


def _instance(model, ideal):
    return model.base.name, model.gorenstein, ideal.tower.steps, ideal.level, ideal.z, ideal.c


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 7])
@pytest.mark.parametrize("gorenstein_only", [False, True])
def test_one_model_per_base_draws_the_same_instances(seed, gorenstein_only):
    new = verify._random_instances(random.Random(seed), 40, gorenstein_only)
    ref = _reference_instances(random.Random(seed), 40, gorenstein_only)
    assert [_instance(*pair) for pair in new] == [_instance(*pair) for pair in ref]


def test_a_generator_builds_each_base_model_at_most_once(monkeypatch):
    built = Counter()
    build = verify.singularity_model

    def counted(base, **kwargs):
        built[base.name] += 1
        return build(base, **kwargs)

    monkeypatch.setattr(verify, "singularity_model", counted)
    for gorenstein_only in (False, True):
        built.clear()
        names = {model.base.name for model, _ in verify._random_instances(random.Random(3), 200, gorenstein_only)}
        assert names and set(built) >= names and max(built.values()) == 1
