import signal

import pytest

from antinef import corpus

# the wall time one test may take; a test past it fails instead of hanging the suite
TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """A test ran past TIME_LIMIT_S.  Not an Exception, so that Hypothesis
    passes it on at once instead of shrinking the example that raised it."""


def _past_the_limit(signum, frame):
    raise TimeLimitExceeded(f"the test ran past its {TIME_LIMIT_S} s limit")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    previous = signal.signal(signal.SIGALRM, _past_the_limit)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def a1b():
    """Blown-up A1: E(-3) -- C1(-1), the running two-curve example."""
    from antinef.graph import dual_graph

    return dual_graph("a1b", [("E", -3, 1), ("C1", -1, -1)], [("E", "C1")])


@pytest.fixture
def chain():
    """Three-curve chain E1(-3) -- C1(-2) -- C2(-1) used for the
    two-iteration good-closure example."""
    from antinef.graph import dual_graph

    return dual_graph(
        "chain",
        [("E1", -3, 1), ("C1", -2, 0), ("C2", -1, -1)],
        [("E1", "C1"), ("C1", "C2")],
    )


@pytest.fixture
def ex244():
    return corpus.get("ex244blown")
