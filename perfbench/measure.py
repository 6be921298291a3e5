"""The run loop shared by every workload.

A run is: several timed set-ups (``setup_s``), then whole rounds of
the workload's operations until ``--seconds`` have passed
(``primary_s``, ``secondary_s``), then the correctness checks, all in
one process, and last fresh-process start-up spawns (``start_s``).
Every round runs the same operations, so the operations attempted are
always a whole number of rounds. Every end-to-end time is taken with a
``HostClock`` running, in seconds adjusted to the reference host speed
(see ``perfbench/hostclock.py``).

In a traced run the same untraced phase runs first; then the workload's
wrappers are installed and the phase runs again under spans, with no
probe running, so the traced-minus-untraced difference of each phase's
wall times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.hostclock import HostClock
from perfbench.layers import PER_LAYER, install, layer_metrics
from perfbench.spans import Span, Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (journals, span dumps).
WORK_DIR = ROOT / ".perfbench"

#: Fresh-process spawns per run; ``start_s`` is their median.
SPAWNS = 5
END_TO_END = ("start_s", "setup_s", "peak_rss_mb", "primary_s",
              "secondary_s")
#: (metric, unit) of every end-to-end metric.
UNITS = {"start_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "primary_s": "s", "secondary_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], timeout: float = 120.0) -> None:
    """Run one fresh ``python <args>`` process from the checkout root
    (its output discarded); raises when it fails."""
    subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, check=True, timeout=timeout)


def import_seconds(module: str = "repro.cli") -> float:
    """Time to ``import module`` in a fresh interpreter, measured inside
    the child (interpreter start-up itself excluded)."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=child_env(), capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Phase:
    """Samples of one (untraced or traced) measurement phase: per
    metric, the adjusted times and the wall times of its regions."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    walls: dict[str, list[float]] = field(default_factory=dict)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0

    def add(self, metric: str, wall: float, adjusted: float) -> None:
        self.walls.setdefault(metric, []).append(wall)
        self.samples.setdefault(metric, []).append(adjusted)

    def medians(self, wall: bool = False) -> dict[str, float]:
        values = self.walls if wall else self.samples
        return {metric: statistics.median(v) for metric, v in values.items()}


class Workload:
    """One benchmark workload; subclasses fill in the hooks.

    ``ops()`` returns ``[(metric, callable)]`` — the operations of one
    round. Every run sets up ``setups`` times before the first round
    (``setup_s`` is the median); ``setup_per_round`` workloads, whose
    operations consume their inputs, also set up again before every
    later round.
    """

    name = ""
    cli: list[str] = []
    setups = 3
    #: Rounds every run makes at least, however short ``--seconds`` is.
    min_rounds = 2
    #: Every run makes a multiple of this many rounds (a workload that
    #: cycles through several inputs ends each run on a whole cycle).
    round_cycle = 1
    setup_per_round = False

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.problems: list[str] = []
        #: The tracer of a traced phase, else None.
        self.tracer: Tracer | None = None

    def span(self, name: str):
        """A span around the workload's own call into a layer (traced
        phases only; untraced it records nothing)."""
        if self.tracer is None:
            return contextlib.nullcontext(Span(name, 0.0))
        return self.tracer.span(name)

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def check(self) -> None:
        """Append to ``self.problems`` every output that is wrong."""
        raise NotImplementedError

    def layer_metrics(self, tracer: Tracer) -> dict[str, float]:
        """Per-layer metrics the generic span folds cannot derive."""
        return {}

    def teardown(self) -> None:
        """Release what the last set-up holds (servers, files)."""


def _timed(fn) -> tuple[float, float]:
    started = time.perf_counter()
    fn()
    wall = time.perf_counter() - started
    return wall, wall


def run_phase(workload: Workload, seconds: float,
              tracer: Tracer | None = None,
              clock: HostClock | None = None) -> Phase:
    """Set-ups and rounds; timed by ``clock`` when given (untraced),
    else in plain wall time under ``tracer``'s spans."""
    phase = Phase()
    workload.tracer = tracer
    measure = clock.measure if clock is not None else _timed

    def timed(name: str, fn) -> tuple[float, float]:
        if tracer is None:
            return measure(fn)

        def spanned():
            with tracer.span(name):
                fn()
        return measure(spanned)

    def setup_once() -> None:
        gc.collect()
        phase.add("setup_s", *timed("bench.setup", workload.setup))
        phase.attempted += 1

    for _ in range(workload.setups):
        setup_once()
    deadline = time.perf_counter() + seconds
    while (phase.rounds < workload.min_rounds
           or phase.rounds % workload.round_cycle
           or time.perf_counter() < deadline):
        if workload.setup_per_round and phase.rounds:
            setup_once()
        for metric, fn in workload.ops():
            # Each operation starts from a fully collected heap, so the
            # cyclic collector's passes land at the same points of every
            # repetition of it.
            gc.collect()
            phase.attempted += 1
            try:
                wall, adjusted = timed("bench." + metric, fn)
            except Exception:  # noqa: BLE001 - counted, reported, run goes on
                traceback.print_exc(file=sys.stderr)
                phase.failed += 1
                continue
            phase.add(metric, wall, adjusted)
        phase.rounds += 1
    workload.tracer = None
    return phase


def pin_to_one_cpu() -> None:
    """Keep this process and the children it spawns on one CPU, so the
    host clock's probe runs on the core the measured work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload: Workload, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object to print."""
    WORK_DIR.mkdir(exist_ok=True)
    pin_to_one_cpu()
    attempted = failed = 0
    try:
        with HostClock() as clock:
            base = run_phase(workload, seconds, clock=clock)
            if not trace:
                args = ["-m", "repro.cli", *workload.cli]
                spawns = [clock.measure(lambda: spawn(args))[1]
                          for _ in range(SPAWNS)]
        print(f"perfbench: the host ran {clock.slowdown():.2f}x slower "
              f"than the reference", file=sys.stderr)
        attempted += base.attempted
        failed += base.failed
        workload.check()
        if not trace:
            attempted += SPAWNS
            values = base.medians()
            values["start_s"] = statistics.median(spawns)
            values["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {name: {"value": values[name], "unit": UNITS[name]}
                       for name in END_TO_END}
        else:
            tracer = Tracer()
            install(tracer)
            try:
                traced = run_phase(workload, seconds, tracer)
            finally:
                tracer.uninstall()
            attempted += traced.attempted
            failed += traced.failed
            workload.check()
            metrics = layer_report(workload, tracer, base, traced)
            metrics["host.slowdown"] = {"value": clock.slowdown(),
                                        "unit": PER_LAYER["host.slowdown"]}
            tracer.dump(WORK_DIR / f"spans-{workload.name}-"
                                   f"{workload.seed}.jsonl")
    finally:
        workload.teardown()
    return {"correct": not workload.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def layer_report(workload: Workload, tracer: Tracer, base: Phase,
                 traced: Phase) -> dict:
    """Every per-layer metric; layers this workload leaves idle read 0."""
    values = {name: 0.0 for name in PER_LAYER if name != "host.slowdown"}
    values["import.repro_s"] = statistics.median(
        import_seconds() for _ in range(SPAWNS))
    values.update(layer_metrics(tracer))
    values.update(workload.layer_metrics(tracer))
    untraced, with_spans = base.medians(wall=True), traced.medians()
    for metric in ("setup_s", "primary_s", "secondary_s"):
        values["overhead." + metric] = with_spans[metric] - untraced[metric]
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"per-layer metrics missing from PER_LAYER: "
                       f"{sorted(unknown)}")
    return {name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in values.items()}
