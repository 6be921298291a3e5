"""Per-layer metrics: which functions are wrapped, and how spans fold.

Each layer is one module under ``src/repro/``; its spans wrap the
public functions the workloads reach it through. A per-layer time is
the layer's self time per operation: for each kind of benchmark root
span (``bench.setup``, ``bench.primary_s``, ``bench.secondary_s``) the
median over roots of that kind of the layer's summed self time below
the root, added over kinds — the cost of one set-up plus one of each
timed operation. Counts fold the same way and repeat exactly for one
seed. Tail percentiles pool every call of the traced phase.

A layer a workload leaves idle reads 0 on it.
"""

from __future__ import annotations

import statistics

from perfbench.spans import Tracer, percentile

__all__ = ["PER_LAYER", "install", "layer_metrics"]

#: name -> unit of every per-layer metric, in report order.
PER_LAYER: dict[str, str] = {
    "import.repro_s": "s",
    "instances.generate_s": "s",
    "instances.tintervals": "count",
    "columnar.build_s": "s",
    "columnar.eis": "count",
    "columnar.eis_per_s": "1/s",
    "batch.run_block_s": "s",
    "batch.faulted_run_block_s": "s",
    "batch.lane_chronons": "count",
    "batch.lane_chronons_per_s": "1/s",
    "harness.self_s": "s",
    "offline.solve_s": "s",
    "offline.solves": "count",
    "shard.federated_run_s": "s",
    "engine.begin_s": "s",
    "engine.advance_s": "s",
    "engine.finish_s": "s",
    "engine.add_profile_us.p50": "us",
    "engine.add_profile_us.p99": "us",
    "engine.remove_profile_us.p50": "us",
    "engine.remove_profile_us.p99": "us",
    "engine.churn_events": "count",
    "incremental.add_profile_us.p50": "us",
    "incremental.add_profile_us.p99": "us",
    "incremental.remove_profile_us.p50": "us",
    "incremental.remove_profile_us.p99": "us",
    "incremental.resolve_s": "s",
    "service.request_ms.p50": "ms",
    "service.request_ms.p99": "ms",
    "service.requests": "count",
    "aio.astep_ms.p50": "ms",
    "aio.astep_ms.p99": "ms",
    "aio.probes": "count",
    "aio.notifications": "count",
    "aio.notifications_per_s": "1/s",
    "journal.bytes": "B",
    "journal.records": "count",
    "journal.replay_s": "s",
    "probes": "count",
    "captured": "count",
    "overhead.setup_s": "s",
    "overhead.primary_s": "s",
    "overhead.secondary_s": "s",
    "host.slowdown": "x",
}

_KINDS = ("bench.setup", "bench.primary_s", "bench.secondary_s")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer the workloads reach."""
    from repro.experiments import churn, faults, harness, instances
    from repro.offline import incremental, local_ratio
    from repro.runtime.aio import journal
    from repro.runtime.aio import proxy as aio_proxy
    from repro.simulation import batch, columnar, engine, shard

    def tintervals(span, _args, _kwargs, result):
        span.attrs["tintervals"] = sum(len(p) for p in result[1])

    def churn_tintervals(span, _args, _kwargs, result):
        initial, plan, _epoch = result
        span.attrs["tintervals"] = (
            sum(len(p) for p in initial)
            + sum(len(e.profile) for e in plan if e.action == "add"))

    def eis(span, _args, _kwargs, result):
        span.attrs["eis"] = result.E

    def block_name(args, kwargs):
        lanes = args[2] if len(args) > 2 else kwargs["lanes"]
        faulted = any(len(lane) > 4 and lane[4] is not None
                      for lane in lanes)
        return "batch.faulted_run_block" if faulted else "batch.run_block"

    def block_counts(span, args, _kwargs, results):
        epoch = args[1]
        span.attrs["lane_chronons"] = len(results) * len(epoch)
        span.attrs["probes"] = sum(r.probes_used for r in results)
        span.attrs["captured"] = sum(r.report.captured for r in results)

    def finish_counts(span, _args, _kwargs, result):
        span.attrs["probes"] = result.probes_used
        span.attrs["captured"] = result.report.captured

    tracer.wrap(instances, "generate_instance", "instances.generate",
                tintervals)
    tracer.wrap(churn, "build_churn_workload", "instances.generate",
                churn_tintervals)
    for method in ("build", "build_many"):
        tracer.wrap(columnar.ColumnarInstance, method, "columnar.build",
                    eis)
    tracer.wrap(batch, "run_block", block_name, block_counts)
    tracer.wrap(harness, "sweep", "harness")
    tracer.wrap(faults, "fault_sweep", "harness")
    tracer.wrap(local_ratio.LocalRatioApproximation, "solve",
                "offline.solve")
    tracer.wrap(shard, "federated_run", "shard.federated_run")
    for method in ("begin", "advance", "add_profile", "remove_profile"):
        tracer.wrap(engine.FastProxySimulator, method, "engine." + method)
    tracer.wrap(engine.FastProxySimulator, "finish", "engine.finish",
                finish_counts)
    for method in ("add_profile", "remove_profile", "resolve"):
        tracer.wrap(incremental.IncrementalLocalRatio, method,
                    "incremental." + method)
    tracer.wrap(aio_proxy.AsyncMonitoringProxy, "astep", "aio.astep")
    tracer.wrap(journal, "replay_journal", "journal.replay")


def _per_op(tracer: Tracer, names: tuple[str, ...], value) -> float:
    """Fold ``value(span)`` over spans named ``names``: summed per root,
    median over the roots of one kind, added over kinds."""
    total = 0.0
    for kind in _KINDS:
        roots = [r for r in tracer.roots() if r.name == kind]
        sums = []
        for root in roots:
            spans = [s for s in tracer.within(root) if s.name in names]
            sums.append((bool(spans), sum(value(s) for s in spans)))
        if any(seen for seen, _ in sums):
            total += statistics.median(v for _, v in sums)
    return total


def _time(tracer: Tracer, *names: str) -> float:
    return _per_op(tracer, names, lambda s: s.self_time(tracer.spans))


def _count(tracer: Tracer, attr: str | None, *names: str) -> float:
    if attr is None:
        return _per_op(tracer, names, lambda s: 1)
    return _per_op(tracer, names, lambda s: s.attrs.get(attr, 0))


def _tail(tracer: Tracer, name: str, scale: float) -> dict[str, float]:
    durations = [d * scale for d in tracer.durations(name)]
    return {".p50": percentile(durations, 0.50),
            ".p99": percentile(durations, 0.99)}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every span-derived per-layer metric (the workload adds its own)."""
    out: dict[str, float] = {
        "instances.generate_s": _time(tracer, "instances.generate"),
        "instances.tintervals": _count(tracer, "tintervals",
                                       "instances.generate"),
        "columnar.build_s": _time(tracer, "columnar.build"),
        "columnar.eis": _count(tracer, "eis", "columnar.build"),
        "batch.run_block_s": _time(tracer, "batch.run_block"),
        "batch.faulted_run_block_s": _time(tracer,
                                           "batch.faulted_run_block"),
        "batch.lane_chronons": _count(tracer, "lane_chronons",
                                      "batch.run_block",
                                      "batch.faulted_run_block"),
        "harness.self_s": _time(tracer, "harness"),
        "offline.solve_s": _time(tracer, "offline.solve"),
        "offline.solves": _count(tracer, None, "offline.solve"),
        "shard.federated_run_s": _time(tracer, "shard.federated_run"),
        "engine.begin_s": _time(tracer, "engine.begin"),
        "engine.advance_s": _time(tracer, "engine.advance"),
        "engine.finish_s": _time(tracer, "engine.finish"),
        "engine.churn_events": _count(tracer, None, "engine.add_profile",
                                      "engine.remove_profile"),
        "incremental.resolve_s": _time(tracer, "incremental.resolve"),
        "journal.replay_s": _time(tracer, "journal.replay"),
    }
    if out["columnar.build_s"] > 0:
        out["columnar.eis_per_s"] = (out["columnar.eis"]
                                     / out["columnar.build_s"])
    block_s = out["batch.run_block_s"] + out["batch.faulted_run_block_s"]
    if block_s > 0:
        out["batch.lane_chronons_per_s"] = out["batch.lane_chronons"] / block_s
    for layer, unit, scale in (("engine.add_profile", "_us", 1e6),
                               ("engine.remove_profile", "_us", 1e6),
                               ("incremental.add_profile", "_us", 1e6),
                               ("incremental.remove_profile", "_us", 1e6),
                               ("aio.astep", "_ms", 1e3),
                               ("service.request", "_ms", 1e3)):
        for suffix, value in _tail(tracer, layer, scale).items():
            out[layer + unit + suffix] = value
    # The correctness anchor: what the primary operation probed and
    # captured, from the spans that return simulation results.
    primary = [r for r in tracer.roots() if r.name == "bench.primary_s"]
    for attr in ("probes", "captured"):
        per_root = [sum(s.attrs.get(attr, 0) for s in tracer.within(root))
                    for root in primary]
        if per_root:
            out[attr] = statistics.median(per_root)
    return out
