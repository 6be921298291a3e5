"""``live``: one churn plan through the incremental engine and the
incremental offline solver.

The plan: 300 clients with unit-width (W=0) profiles join uniformly over
the first 90 % of a 1000-chronon epoch (150 resources, C=1) and half of
them leave at the three-quarter mark. ``primary_s`` runs it through the
fast engine's incremental churn path (``run_churned``); ``secondary_s``
feeds the same registrations and cancellations, in plan order, to
``IncrementalLocalRatio``, resolving every ``RESOLVE_EVERY`` events and
once at the end.
"""

from __future__ import annotations

from repro.core.budget import BudgetVector
from repro.core.profile import ProfileSet
from repro.experiments import churn
from repro.offline.incremental import IncrementalLocalRatio
from repro.offline.local_ratio import LocalRatioApproximation
from repro.online.registry import parse_policy_spec
from repro.simulation.churn import run_churned

from perfbench.checker import check_schedule
from perfbench.measure import Workload

PLAN = dict(epoch_length=1000, num_resources=150, intensity=15.0,
            num_clients=300, profiles_per_client=6, window=0, budget=1,
            join_spread=0.9, leave_probability=0.5)
POLICY = "MRSF(P)"
RESOLVE_EVERY = 300


class Live(Workload):
    name = "live"
    cli = ["churn", "--scale", "smoke"]
    # Cheap set-ups and rounds: more samples for steadier medians (with
    # three or four rounds per run the run medians spread by 0.26).
    setups = 5
    min_rounds = 6

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.config = churn.ChurnConfig(**PLAN, policy=POLICY, seed=seed)
        self.budget = BudgetVector(self.config.budget)
        self.engine_result = self.offline_result = None

    def setup(self) -> None:
        self.initial, self.plan, self.epoch = \
            churn.build_churn_workload(self.config)

    def ops(self) -> list:
        # The engine epoch is short; three per round give its median
        # three times the samples for a fraction of the round's time.
        return [("primary_s", self._engine)] * 3 + \
            [("secondary_s", self._offline)]

    def _engine(self) -> None:
        policy, preemptive = parse_policy_spec(POLICY)
        self.engine_result = run_churned(
            self.initial, self.epoch, self.budget, policy, plan=self.plan,
            preemptive=preemptive)

    def _offline(self) -> None:
        solver = IncrementalLocalRatio(self.epoch, self.budget)
        for profile in self.initial:
            solver.add_profile(profile)
        for done, event in enumerate(self.plan, start=1):
            if event.action == "add":
                solver.add_profile(event.profile)
            else:
                solver.remove_profile(event.profile_id)
            if done % RESOLVE_EVERY == 0:
                solver.resolve()
        self.offline_result = solver.resolve()
        solver.close()

    def _registrations(self):
        """Every profile in engine id order, with its visibility window.

        An add at chronon T takes part from T+1; a removal at chronon T
        is applied after chronon T is processed, so T is its last.
        """
        profiles = list(self.initial)
        windows: dict[int, tuple] = {}
        removed: list[int] = []
        for event in self.plan:
            if event.action == "add":
                windows[len(profiles)] = (event.chronon + 1, None)
                profiles.append(event.profile)
            else:
                arrive, _ = windows.get(event.profile_id, (None, None))
                windows[event.profile_id] = (arrive, event.chronon)
                removed.append(event.profile_id)
        return profiles, windows, set(removed)

    def check(self) -> None:
        result, offline = self.engine_result, self.offline_result
        if result is None or offline is None:
            self.problems.append("live: an operation produced no result")
            return
        profiles, windows, removed = self._registrations()
        probes = list(result.schedule.probes())
        report = check_schedule(profiles, probes, self.config.budget,
                                windows)
        found: dict[int, int] = {}
        for profile_index, _ in report.captured:
            found[profile_index] = found.get(profile_index, 0) + 1
        for profile_id, (captured, _total) in \
                result.report.per_profile.items():
            if captured != found.get(profile_id, 0):
                self.problems.append(
                    f"live: engine reports {captured} captures for "
                    f"profile {profile_id}, the checker confirms "
                    f"{found.get(profile_id, 0)}")
                break
        if not report.budget_ok:
            self.problems.append(
                f"live: chronons over budget {report.over_budget[:5]}")
        if result.report.captured == 0:
            self.problems.append("live: the engine captured nothing")

        survivors = ProfileSet([p for i, p in enumerate(profiles)
                                if i not in removed])
        scratch = LocalRatioApproximation().solve(survivors, self.epoch,
                                                  self.budget)
        if (list(offline.schedule.probes())
                != list(scratch.schedule.probes())
                or offline.report.captured != scratch.report.captured
                or offline.report.per_rank != scratch.report.per_rank):
            self.problems.append(
                "live: IncrementalLocalRatio.resolve() differs from a "
                "from-scratch LocalRatioApproximation().solve()")
