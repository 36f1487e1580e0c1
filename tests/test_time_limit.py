"""The per-test time limit set in conftest: every test runs under it, a
loop that never ends fails its test, and the worker children of
`experiments._run_trials` never see it."""

from __future__ import annotations

import os
import signal
import time

import pytest

from ldlab import experiments

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


def _chunk_sees_limit(caller: int, start: int, stop: int) -> list:
    """(in a child, seconds left on the timer) for each trial; a child
    first sends itself the alarm, which must not stop it."""
    child = os.getpid() != caller
    if child:
        os.kill(os.getpid(), signal.SIGALRM)
    return [(child, signal.getitimer(signal.ITIMER_REAL)[0])] * (stop - start)


def test_run_trials_children_see_no_limit(monkeypatch):
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    out = experiments._run_trials(_chunk_sees_limit, os.getpid(), 4, 2)
    assert [child for child, _ in out] == [False, False, True, True]
    assert out[0][1] > 0 and out[2][1] == 0
