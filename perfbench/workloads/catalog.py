"""``catalog``: one large lowered catalog, one M-EDF(P) epoch two ways.

Set-up generates a 20k-profile catalog (500 resources, epoch 100, C=16,
W=5, ~300k t-intervals) and lowers it once with
``ColumnarInstance.build``; set-up dominates this workload. The timed
operations are one epoch through ``run_block`` (``primary_s``) and the
same epoch through ``federated_run(shards=2)`` (``secondary_s``), both
on the shared lowering.
"""

from __future__ import annotations

import gc

from repro.experiments import instances
from repro.experiments.config import ExperimentConfig
from repro.online.registry import parse_policy_spec
from repro.simulation import batch, shard
from repro.simulation.columnar import ColumnarInstance

from perfbench.checker import check_schedule
from perfbench.measure import Workload

CATALOG = dict(epoch_length=100, num_resources=500, num_profiles=20_000,
               intensity=20.0, budget=16, window=5, repetitions=1,
               grouping="overlap")
POLICY = "M-EDF(P)"
SHARDS = 2


class Catalog(Workload):
    name = "catalog"
    cli = ["federation", "--scale", "smoke"]
    # Each set-up takes about 5 s: two keep a run within its time.
    setups = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = ExperimentConfig(**CATALOG, seed=seed)
        self.profiles = self.columnar = None
        self.block = self.federated = None

    def setup(self) -> None:
        # One catalog in memory at a time: drop the last set-up's first.
        self.profiles = self.columnar = None
        gc.collect()
        _trace, self.profiles = instances.generate_instance(self.config, 0)
        self.columnar = ColumnarInstance.build(self.profiles,
                                               self.config.epoch)

    def ops(self) -> list:
        return [("primary_s", self._epoch), ("secondary_s", self._federated)]

    def _epoch(self) -> None:
        policy, preemptive = parse_policy_spec(POLICY)
        self.block = batch.run_block(
            self.profiles, self.config.epoch,
            [(policy, preemptive, self.config.budget_vector)],
            columnar=self.columnar)[0]

    def _federated(self) -> None:
        policy, preemptive = parse_policy_spec(POLICY)
        self.federated = shard.federated_run(
            self.profiles, self.config.epoch, self.config.budget_vector,
            policy, preemptive=preemptive, shards=SHARDS,
            columnar=self.columnar).result

    def check(self) -> None:
        block, federated = self.block, self.federated
        if block is None or federated is None:
            self.problems.append("catalog: an epoch produced no result")
            return
        probes = list(block.schedule.probes())
        if probes != list(federated.schedule.probes()):
            self.problems.append(
                "catalog: run_block and federated_run schedules differ")
        report = check_schedule(self.profiles, probes, self.config.budget)
        for label, result in (("run_block", block),
                              ("federated_run", federated)):
            if (result.report.captured != len(report.captured)
                    or result.gc != report.gc):
                self.problems.append(
                    f"catalog: {label} reports GC {result.gc!r} "
                    f"({result.report.captured} captured), the checker "
                    f"finds {report.gc!r} ({len(report.captured)})")
        if not report.budget_ok:
            self.problems.append(
                f"catalog: chronons over budget {report.over_budget[:5]}")
        if not probes:
            self.problems.append("catalog: the epoch probed nothing")
