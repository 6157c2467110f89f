"""The suite's per-test time limit, set in ``conftest.py``."""

import os
import subprocess
import sys
from pathlib import Path

import antinef

SLOW = '''
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st


@settings(max_examples=50, deadline=None, database=None)
@given(st.integers(0, 100))
def test_slow(n):
    with open(Path(__file__).with_name("calls"), "a") as calls:
        calls.write("x")
    time.sleep(30)
'''


def test_a_test_past_the_limit_fails_once_without_shrinking(tmp_path):
    """The suite's conftest with its limit cut to 0.2 s, in a session of its
    own: a Hypothesis test that sleeps fails on its first example, which
    runs once."""
    source = Path(__file__).with_name("conftest.py").read_text()
    assert source.count("TIME_LIMIT_S = 120\n") == 1
    (tmp_path / "conftest.py").write_text(source.replace("TIME_LIMIT_S = 120\n", "TIME_LIMIT_S = 0.2\n"))
    (tmp_path / "test_slow.py").write_text(SLOW)
    env = {**os.environ, "PYTHONPATH": str(Path(antinef.__file__).parents[1]), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "test_slow.py"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed" in run.stdout
    assert "TimeLimitExceeded: the test ran past its 0.2 s limit" in run.stdout
    assert (tmp_path / "calls").read_text() == "x"
