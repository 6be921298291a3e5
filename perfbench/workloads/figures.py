"""``figures``: three paper sweeps on the columnar batch engine.

At the ``default`` scale, re-seeded from ``--seed``:

* the Figure-4 rank sweep (W=0, C=1, indexed grouping, rank 1..5,
  S-EDF(NP) and MRSF(P) plus the offline Local-Ratio approximation);
* the Figure-8 budget sweep (intensity x2, C=1..5, four policies);
* the fault sweep (failure rates 0..0.5, eight policies, one retry and
  the circuit breaker).

``primary_s`` times the two figure sweeps, ``secondary_s`` the fault
sweep. Set-up generates every instance the sweeps use into a fresh
instance cache, so the timed sweeps start from generated inputs as a
warm ``InstanceCache`` would hand them. The harness's columnar-lowering
cache is emptied before every round: each round lowers its blocks, as a
fresh ``repro-experiments`` process does.
"""

from __future__ import annotations

import random
import statistics

from repro.experiments import faults, harness, instances
from repro.experiments.config import baseline
from repro.faults.breaker import CircuitBreaker, RetryConfig
from repro.faults.model import FaultSpec
from repro.online.registry import parse_policy_spec
from repro.simulation.proxy import run_online

from perfbench.measure import Workload

RANKS = (1, 2, 3, 4, 5)
RANK_POLICIES = ("S-EDF(NP)", "MRSF(P)")
BUDGETS = (1, 2, 3, 4, 5)
#: The fault sweep's per-repetition settings, as ``fault_sweep`` documents
#: them: one in-chronon retry and a (3, 4, 2.0, 64) circuit breaker.
RETRY = RetryConfig(1)
BREAKER = dict(failure_threshold=3, cooldown=4, backoff_factor=2.0,
               max_cooldown=64)
FAULT_SEED_STRIDE = 7919


class Figures(Workload):
    name = "figures"
    cli = ["fig8", "--scale", "smoke", "--engine", "batch"]
    setups = 5  # cheap set-ups: more samples for a steadier median

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        base = baseline("default").with_(seed=seed)
        self.rank_config = base.with_(window=0, budget=1,
                                      grouping="indexed")
        self.budget_config = base.with_(intensity=base.intensity * 2)
        self.fault_config = base
        self.rank_sweep = self.budget_sweep = self.fault_result = None

    def _configs(self):
        for rank in RANKS:
            yield self.rank_config.with_(max_rank=rank)
        for budget in BUDGETS:
            yield self.budget_config.with_(budget=budget)
        yield self.fault_config

    def setup(self) -> None:
        cache = instances.configure_instances(max_entries=64)
        for config in self._configs():
            for repetition in range(config.repetitions):
                harness.make_instance(config, repetition, cache=cache)

    def ops(self) -> list:
        return [("primary_s", self._figures), ("secondary_s", self._faults)]

    def _figures(self) -> None:
        getattr(harness, "_COLUMNAR_CACHE", {}).clear()
        self.rank_sweep = harness.sweep(
            "Figure 4", self.rank_config, "max_rank", RANKS,
            policies=list(RANK_POLICIES), include_offline=True,
            engine="batch")
        self.budget_sweep = harness.sweep(
            "Figure 8", self.budget_config, "budget", BUDGETS,
            engine="batch")

    def _faults(self) -> None:
        getattr(harness, "_COLUMNAR_CACHE", {}).clear()
        self.fault_result = faults.fault_sweep(config=self.fault_config,
                                               engine="batch")

    def _reference_gc(self, config, label: str, rate: float | None = None):
        """Mean GC of ``label`` on the reference engine over the same
        repetitions (and, for a fault point, the same fault settings)."""
        values = []
        for repetition in range(config.repetitions):
            _trace, profiles = harness.make_instance(config, repetition)
            policy, preemptive = parse_policy_spec(label)
            kwargs = {}
            if rate is not None:
                kwargs = dict(
                    faults=FaultSpec(failure_probability=rate,
                                     seed=config.seed
                                     + FAULT_SEED_STRIDE * repetition),
                    retry=RETRY, breaker=CircuitBreaker(**BREAKER))
            result = run_online(profiles, config.epoch,
                                config.budget_vector, policy,
                                preemptive=preemptive, engine="reference",
                                **kwargs)
            values.append(result.gc)
        return statistics.fmean(values)

    def check(self) -> None:
        sweeps = (self.rank_sweep, self.budget_sweep, self.fault_result)
        if any(s is None for s in sweeps):
            self.problems.append("figures: a sweep produced no result")
            return
        for sweep in sweeps:
            if sweep.fell_back:
                self.problems.append(
                    f"figures: {sweep.name} fell back to the fast engine "
                    f"{sweep.fell_back} times")
        # One sampled (x, policy) point per sweep, drawn from the seed.
        rng = random.Random(self.seed)
        points = []
        for sweep in (self.rank_sweep, self.budget_sweep):
            at = rng.randrange(len(sweep.runs))
            labels = [name for name in sweep.labels()
                      if name != harness.OFFLINE_LABEL]
            label = rng.choice(labels)
            points.append((sweep, at, label, None))
        fault_labels = self.fault_result.labels()
        rates = self.fault_result.x_values
        nonzero = rng.choice([i for i, r in enumerate(rates) if r > 0])
        for at in (rates.index(0.0), nonzero):
            points.append((self.fault_result, at, rng.choice(fault_labels),
                           rates[at]))
        for sweep, at, label, rate in points:
            run = sweep.runs[at]
            want = self._reference_gc(run.config, label, rate)
            got = run.mean_gc(label)
            if got != want:
                self.problems.append(
                    f"figures: {sweep.name} at {sweep.parameter}="
                    f"{sweep.x_values[at]} {label}: batch mean GC {got!r}, "
                    f"reference engine {want!r}")
