"""Host-speed adjustment of timed regions.

The benchmark runs on a few cores of a shared host. There the same code
runs up to 1.6 times slower (pure Python) and up to 3 times slower
(loopback connections) for seconds at a time while a neighbour is busy,
and a run's median wall time mostly tells how busy the neighbours were
during it: ten runs of one operation spread by up to 0.41 of their
median (interquartile distance), whatever the run length.

So while a run measures, ``SIGALRM`` fires every ``INTERVAL_S`` and its
handler times a fixed probe made of the kinds of work the program does:
a pure-Python loop, random reads of Python objects spread over several
megabytes, a small ``numpy`` sort, a ``numpy`` gather from an 8 MB
array, a pipe round trip and a loopback TCP connection. Each kind slows
by its own factor when the host is busy. A timed region is reported as
its wall time, less the probes' own time, times the mean over the probes
taken during it (and the last one before it) of the mean over kinds of
``REF_S[kind] / time``: the seconds the region would take on a host that
runs each kind of probe in its ``REF_S``. A change to the program moves
the adjusted time as it moves the wall time; a neighbour's load moves
the probe as it moves the program and cancels, up to how closely the
probe's mix matches the program's.

The probe only runs between Python bytecodes of the main thread, so a
long C call (a large ``numpy`` kernel, a blocking ``wait``) delays it;
its samples are still spread over the region. System calls it
interrupts are retried by Python (PEP 475), and forked or spawned
children inherit no timer. The probe's arrays add about 15 MB to the
run's resident memory.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import statistics
import struct
import time

import numpy as np

__all__ = ["HostClock", "probe", "REF_S", "INTERVAL_S"]

#: Seconds between probes.
INTERVAL_S = 0.04
#: Time of each kind of probe on the reference host: its median inside
#: a ``live`` run on the 2-vCPU host the bounds were set on, so that each
#: kind weighs about the same in ``speed``.
REF_S = {"python": 2.2e-4, "objects": 2.7e-4, "sort": 1.2e-4,
         "gather": 2.4e-4, "pipe": 6.0e-5, "tcp": 4.8e-4}

_LOOP = 2000
_SORTED = np.random.default_rng(7).random(4096)
_ARRAY = np.random.default_rng(9).random(1 << 20)
_GATHER = np.random.default_rng(11).integers(0, 1 << 20, 10_000)
_OBJECTS = [float(i) for i in range(200_000)]
random.Random(3).shuffle(_OBJECTS)
_READS = random.Random(5).sample(range(200_000), 500)
#: ``SO_LINGER`` on, timeout 0: close with a reset, so probe
#: connections leave no ``TIME_WAIT`` sockets behind.
_RESET = struct.pack("ii", 1, 0)


class _Probe:
    """The fixed probe and the pipe and listening socket it uses."""

    def __init__(self) -> None:
        self.read_end, self.write_end = os.pipe()
        self.listener = socket.socket()
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(4)
        self.address = self.listener.getsockname()

    def close(self) -> None:
        os.close(self.read_end)
        os.close(self.write_end)
        self.listener.close()

    def __call__(self) -> dict[str, float]:
        clock = time.perf_counter
        times = {}
        started = clock()
        total = 0
        for i in range(_LOOP):
            total += i * i % 7
        times["python"] = clock() - started
        started = clock()
        value = 0.0
        for i in _READS:
            value += _OBJECTS[i]
        times["objects"] = clock() - started
        started = clock()
        np.sort(_SORTED)
        times["sort"] = clock() - started
        started = clock()
        _ARRAY.take(_GATHER).sum()
        times["gather"] = clock() - started
        started = clock()
        for _ in range(20):
            os.write(self.write_end, b"x")
            os.read(self.read_end, 1)
        times["pipe"] = clock() - started
        started = clock()
        with socket.create_connection(self.address) as client:
            server, _ = self.listener.accept()
            with server:
                client.sendall(b"x")
                server.recv(1)
                server.sendall(b"y")
                client.recv(1)
                client.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                  _RESET)
        times["tcp"] = clock() - started
        return times


def probe() -> dict[str, float]:
    """Times of one run of each kind of probe, in seconds."""
    once = _Probe()
    try:
        return once()
    finally:
        once.close()


def speed(times: dict[str, float]) -> float:
    """How fast one probe ran against the reference: mean over kinds of
    reference time over time (1.0 at the reference, 0.5 at half speed)."""
    return statistics.fmean(REF_S[kind] / t for kind, t in times.items())


class HostClock:
    """Times regions in seconds adjusted to the reference host speed.

    Use as a context manager: the timer runs only inside the block.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        #: ``speed`` of every probe taken so far.
        self.speeds: list[float] = []
        #: Wall time spent inside the probe handler so far.
        self.spent = 0.0
        self._probe: _Probe | None = None
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a late probe is skipped, never nested
            return
        self._busy = True
        started = time.perf_counter()
        try:
            self.speeds.append(speed(self._probe()))
        finally:
            self.spent += time.perf_counter() - started
            self._busy = False

    def __enter__(self) -> "HostClock":
        self._probe = _Probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)  # a sample before the first region
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe.close()

    def measure(self, fn) -> tuple[float, float]:
        """Run ``fn()``; return its (wall, adjusted) time in seconds.

        The wall time excludes the probes that ran inside the region.
        """
        first, spent = len(self.speeds), self.spent
        started = time.perf_counter()
        fn()
        wall = time.perf_counter() - started - (self.spent - spent)
        return wall, wall * statistics.fmean(self.speeds[max(0, first - 1):])

    def slowdown(self) -> float:
        """How much slower than the reference the host ran while the
        clock was on: the inverse of the median probe speed."""
        return 1.0 / statistics.median(self.speeds)
