"""``service``: the async proxy behind its HTTP/SSE front end.

Fault-free ``build_scenario`` plans of ``repro.runtime.aio.chaos``
(500 chronons, 500 profiles over 64 resources, C=4, about 30 % of the
profiles arriving mid-epoch and 15 % cancelled), with the write-ahead
journal on. The epoch is half the 1000-chronon, 1000-profile size so
that a run holds several of them: with two or three epochs per run, the
run medians spread by 0.14 to 0.35 of their value. A run cycles through
``VARIANTS`` plans drawn from its seed, one per round, and makes whole
cycles: one plan's t-interval count moves by ±7 % from seed to seed,
and recovery time faster than that (it grows with the square of the
journaled completions), so a single plan per run spread the run medians
by 0.16 to 0.22 however steady the host.

A ``ProxyService`` listens on loopback; in the same process and event
loop one client registers every profile with ``POST /profiles`` and
cancels with ``DELETE /profiles/<id>``, one request at a time, each
waiting for its reply, while one ``GET /events`` stream stays open —
at most two connections at once. Between requests the benchmark ticks
the proxy with ``astep()`` as fast as it goes: the loop is closed, and
no clock paces the ticks.

``primary_s`` is one epoch: from the first registration until the SSE
stream delivers the last chronon's tick. ``secondary_s`` is crash
recovery: ``AsyncMonitoringProxy.recover`` (journal replay plus
rebuilding the proxy), twice per round from the same journal. Each epoch consumes its proxy, so every round
after the first sets up afresh: build the scenario, start the server,
open the stream.

Faults stay off: the async retry, hedge and slow-server paths sleep in
real time, which would put wall-clock waits into the timed region.
"""

from __future__ import annotations

import asyncio
import gc
import json
import statistics

from repro.core.budget import BudgetVector
from repro.online import MRSFPolicy
from repro.runtime.aio import chaos, journal
from repro.runtime.aio.proxy import AsyncMonitoringProxy
from repro.runtime.aio.service import ProxyService

from perfbench.checker import check_schedule
from perfbench.measure import WORK_DIR, Workload

SCENARIO = dict(epoch_length=500, num_resources=64, num_profiles=500,
                budget=4, update_intensity=12.0)
KEY = "perfbench"
#: Plans per run; plan ``k`` of seed ``s`` is drawn from seed
#: ``s * VARIANTS + k``.
VARIANTS = 3
#: Longest wait for one reply or stream event before the run gives up.
TIMEOUT_S = 60.0


def _body(profile) -> bytes:
    return json.dumps({
        "name": profile.name,
        "tintervals": [[[ei.resource_id, ei.start, ei.finish] for ei in eta]
                       for eta in profile],
    }).encode("utf-8")


class Service(Workload):
    name = "service"
    # Cold start of the service until it has served an (empty) smoke
    # epoch; ``soak`` would run fault scenarios that sleep in real time.
    cli = ["serve", "--scale", "smoke", "--port", "0",
           "--tick-interval", "0"]
    setup_per_round = True
    min_rounds = 6
    round_cycle = VARIANTS

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.configs = [chaos.ChaosConfig(**SCENARIO,
                                          seed=seed * VARIANTS + k)
                        for k in range(VARIANTS)]
        self.config = self.configs[0]
        self.setups_done = 0
        self.journal_path = WORK_DIR / f"journal-service-{seed}.jsonl"
        self.loop = asyncio.new_event_loop()
        self.service = None
        self.recovered = None

    # -- lifecycle ----------------------------------------------------

    def setup(self) -> None:
        self.loop.run_until_complete(self._stop())
        # Every epoch starts from the same heap: the last round's proxies
        # are dropped and collected here, not inside a timed region.
        self.proxy = self.recovered = None
        gc.collect()
        self.journal_path.unlink(missing_ok=True)
        self.config = self.configs[self.setups_done % VARIANTS]
        self.setups_done += 1
        self.epoch, self.plan, self.proxy = chaos.build_scenario(
            self.config, self.journal_path)
        self.service = ProxyService(self.proxy)
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        host, port = await self.service.start()
        self.address = (host, port)
        self.notified: list[tuple[int, int]] = []
        self.tick_probes: list[int] = []
        self.statuses: dict[int, int] = {}
        self.last_tick = self.loop.create_future()
        reader, self.stream = await asyncio.open_connection(host, port)
        self.stream.write(b"GET /events HTTP/1.1\r\nHost: bench\r\n\r\n")
        await self.stream.drain()
        while (await reader.readline()) != b": connected\n":
            pass
        self.reader_task = self.loop.create_task(self._read_events(reader))

    async def _read_events(self, reader: asyncio.StreamReader) -> None:
        kind = None
        while True:
            line = await reader.readline()
            if not line:
                return
            if line.startswith(b"event: "):
                kind = line[7:].strip().decode("ascii")
            elif line.startswith(b"data: "):
                payload = json.loads(line[6:])
                if kind == "notification":
                    self.notified.append((payload["profile_id"],
                                          payload["tinterval_id"]))
                elif kind == "tick":
                    self.tick_probes.append(payload["probes"])
                    if (payload["chronon"] == self.epoch.last
                            and not self.last_tick.done()):
                        self.last_tick.set_result(None)

    async def _stop(self) -> None:
        if self.service is None:
            return
        self.stream.close()
        self.reader_task.cancel()
        await self.service.stop()
        # The server's SSE handler waits on its event queue; end it too.
        pending = [task for task in asyncio.all_tasks()
                   if task is not asyncio.current_task()]
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        self.service = None

    def teardown(self) -> None:
        self.loop.run_until_complete(self._stop())
        self.loop.close()
        self.journal_path.unlink(missing_ok=True)

    # -- operations ---------------------------------------------------

    def ops(self) -> list:
        # Recovery only reads the journal, so it repeats exactly: two per
        # round give its median twice the samples.
        return [("primary_s", self._epoch_op)] + \
            [("secondary_s", self._recover)] * 2

    def _epoch_op(self) -> None:
        self.loop.run_until_complete(
            asyncio.wait_for(self._epoch(), TIMEOUT_S))

    async def _request(self, method: str, path: str,
                       body: bytes = b"") -> tuple[int, bytes]:
        with self.span("service.request"):
            reader, writer = await asyncio.open_connection(*self.address)
            writer.write(
                f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Authorization: Bearer {KEY}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
                + body)
            await writer.drain()
            raw = await reader.read()
            writer.close()
            await writer.wait_closed()
        head, _, payload = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        self.statuses[status] = self.statuses.get(status, 0) + 1
        return status, payload

    async def _register(self, profile, ids: list[int]) -> None:
        status, payload = await self._request("POST", "/profiles",
                                              _body(profile))
        if status == 201:
            ids.append(json.loads(payload)["profile_id"])

    async def _epoch(self) -> None:
        ids: list[int] = []
        for profile in self.plan.initial:
            await self._register(profile, ids)
        for chronon in range(1, self.epoch.last + 1):
            for profile in self.plan.arrivals.get(chronon, ()):
                await self._register(profile, ids)
            for order in self.plan.cancels.get(chronon, ()):
                if order < len(ids):
                    await self._request("DELETE", f"/profiles/{ids[order]}")
            await self.proxy.astep()
        await self.proxy.arun()  # past the last chronon: flush only
        await self.last_tick
        self.proxy.journal.close()

    def _recover(self) -> None:
        self.recovered = AsyncMonitoringProxy.recover(
            self.journal_path, self.proxy.server, self.epoch,
            BudgetVector(self.config.budget), MRSFPolicy())
        self.recovered.journal.close()

    # -- checks and counts --------------------------------------------

    def check(self) -> None:
        proxy = self.proxy
        completed = set(proxy.completed_log)
        if len(self.notified) != len(set(self.notified)):
            self.problems.append("service: a t-interval was notified twice")
        stats = proxy.stats()
        if set(self.notified) != completed or \
                len(completed) != stats.completed:
            self.problems.append(
                f"service: {len(set(self.notified))} notified on the SSE "
                f"stream, {len(completed)} in the completed log, "
                f"stats.completed={stats.completed}")
        state = journal.replay_journal(self.journal_path)
        if set(state.completions) != completed:
            self.problems.append(
                "service: the journal's completion records differ from "
                "the notifications")
        report = check_schedule([], proxy.schedule.probes(),
                                self.config.budget)
        if not report.budget_ok or max(self.tick_probes, default=0) > \
                self.config.budget:
            self.problems.append("service: a tick probed more than C")
        if self.recovered is None or \
                self.recovered.completed_log != proxy.completed_log:
            self.problems.append(
                "service: the recovered proxy's completed log differs "
                "from the live one")
        bad = {s: n for s, n in self.statuses.items() if s not in (201, 204)}
        if bad:
            self.problems.append(f"service: unexpected replies {bad}")
        if not completed:
            self.problems.append("service: nothing was notified")

    def layer_metrics(self, tracer) -> dict[str, float]:
        epochs = [r for r in tracer.roots() if r.name == "bench.primary_s"]
        data = self.journal_path.read_bytes()
        notifications = len(self.notified)
        return {
            "service.requests": sum(self.statuses.values()),
            "aio.probes": len(self.proxy.schedule),
            "aio.notifications": notifications,
            "aio.notifications_per_s": notifications / statistics.median(
                r.duration for r in epochs),
            "journal.bytes": len(data),
            "journal.records": data.count(b"\n"),
            "probes": len(self.proxy.schedule),
            "captured": notifications,
        }
