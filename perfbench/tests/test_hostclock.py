"""The host clock: its probe covers every kind, its timer runs only
inside the block, and the probes' own time stays out of a region.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import signal
import time

from perfbench.hostclock import REF_S, HostClock, probe, speed


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_times_every_kind():
    times = probe()
    assert set(times) == set(REF_S)
    assert all(t > 0 for t in times.values())
    assert speed({kind: 2 * ref for kind, ref in REF_S.items()}) == 0.5


def test_measure_excludes_probe_time_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostClock(interval=0.01) as clock:
        wall, adjusted = clock.measure(lambda: _busy(0.2))
        assert len(clock.speeds) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # The busy loop ends 0.2 s after it starts, probes included, so the
    # region's time without them is shorter by what they took.
    assert 0.2 - clock.spent - 0.01 <= wall < 0.2
    assert adjusted > 0
    assert clock.slowdown() > 0
