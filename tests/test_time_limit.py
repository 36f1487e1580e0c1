"""The per-test time limit set in conftest: every test runs under it, a
loop that never ends fails its test, the run stops after MAX_TIMED_OUT
such failures, and the worker children of `experiments._run_trials`
never see it."""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest

from ldlab import experiments

import conftest
from conftest import TIME_LIMIT_S, TimeLimitExceeded, set_time_limit


def test_every_test_runs_under_the_limit():
    remaining = signal.getitimer(signal.ITIMER_REAL)[0]
    assert 0 < remaining <= TIME_LIMIT_S


def test_stuck_loop_fails_at_its_limit():
    """A loop that swallows every Exception still ends at the limit."""
    set_time_limit(0.05)
    start = time.perf_counter()
    with pytest.raises(TimeLimitExceeded):
        while True:
            try:
                time.sleep(0.01)
            except Exception:
                pass
    assert time.perf_counter() - start < 5


def test_run_stops_after_three_time_limit_failures(pytester):
    """Five stuck tests under this conftest, each at a 0.05 s limit: the
    first three fail on it, the run stops with one line naming the count,
    and the last two are not run."""
    assert conftest.MAX_TIMED_OUT == 3
    pytester.makeconftest(Path(conftest.__file__).read_text())
    pytester.makepyfile(test_stuck="""
        import time

        import pytest

        from conftest import set_time_limit

        @pytest.mark.parametrize("i", range(5))
        def test_stuck(i):
            set_time_limit(0.05)
            while True:
                try:
                    time.sleep(0.01)
                except Exception:
                    pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider",
                                           timeout=60)
    result.assert_outcomes(failed=3)
    result.stdout.fnmatch_lines(
        ["*Interrupted: stopping after 3 tests failed on their time limit*"])
    assert result.stdout.str().count("TimeLimitExceeded") >= 3
    assert "test_stuck[3]" not in result.stdout.str()


def _job_sees_limit(caller: int):
    """A trial job giving (in a child, seconds left on the timer); in a
    child it first sends itself the alarm, which must not stop it."""
    def job(cell: int, t: int) -> tuple[bool, float]:
        child = os.getpid() != caller
        if child:
            os.kill(os.getpid(), signal.SIGALRM)
        return child, signal.getitimer(signal.ITIMER_REAL)[0]

    return job


def test_run_trials_children_see_no_limit(monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    [out] = experiments._run_trials(_job_sees_limit(os.getpid()), 1, 4, 2)
    assert [child for child, _ in out] == [False, False, True, True]
    assert out[0][1] > 0 and out[2][1] == 0
