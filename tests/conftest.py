"""A time limit for every test, so that a loop that never ends fails its
test instead of stalling the suite.

The autouse fixture arms a one-shot SIGALRM timer of TIME_LIMIT_S
seconds before each test and disarms it after.  When it goes off, the
handler raises TimeLimitExceeded, a BaseException, so no `except
Exception` in the code under test swallows it and Hypothesis does not
replay the stuck example.  A test may re-arm the timer with
`set_time_limit`: each acceptance criterion sets its own budget.  Once
MAX_TIMED_OUT tests have failed on their limit the run stops, since a
defect that hangs many tests would otherwise hold the suite for the sum
of their limits.

Only the pytest process is ever timed.  A fork child keeps no timer of
its parent, and the handler ignores the signal in any process but the
one that installed it, so the worker children of `_run_trials` run as
they would outside the suite.
"""

from __future__ import annotations

import os
import signal

import pytest

# Well above the slowest test outside the acceptance gate, which takes
# about 6 s on a 2-core machine.
TIME_LIMIT_S = 120.0

MAX_TIMED_OUT = 3

pytest_plugins = ["pytester"]

_PID = os.getpid()
_TIMED_OUT = pytest.StashKey[int]()


class TimeLimitExceeded(BaseException):
    """A test ran past its time limit."""


def _expired(signum, frame):
    if os.getpid() != _PID:
        return
    raise TimeLimitExceeded(
        f"test still running after its time limit "
        f"(conftest.TIME_LIMIT_S = {TIME_LIMIT_S:.0f} s, or the budget it set)")


def set_time_limit(seconds: float) -> None:
    """Re-arm the running test's timer to go off `seconds` from now."""
    signal.setitimer(signal.ITIMER_REAL, seconds)


@pytest.fixture(autouse=True)
def _time_limit():
    previous = signal.signal(signal.SIGALRM, _expired)
    set_time_limit(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    excinfo = call.excinfo
    if excinfo is not None and excinfo.errisinstance(TimeLimitExceeded):
        stash = item.session.stash
        stash[_TIMED_OUT] = timed_out = stash.get(_TIMED_OUT, 0) + 1
        if timed_out >= MAX_TIMED_OUT:
            item.session.shouldstop = (
                f"stopping after {timed_out} tests failed on their time limit")
    return report
