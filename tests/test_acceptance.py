"""Release acceptance gate.

Runs every acceptance criterion exactly as shipped (exact arithmetic,
tolerance zero) and prints one PASS/FAIL line per criterion.  The same
checks back the CLI's ``corpus verify``.  The gate's failing branch is
checked on a planted wrong result: the criterion that sees it reports FAIL
and the others still run.
"""

import pytest

from antinef import verify
from antinef.cli import main
from antinef.errors import TheoremViolationError
from antinef.graph import unit_cycle
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
