"""Metric catalogue, summary statistics and the compare verdicts.

``END_TO_END`` lists every end-to-end metric with its unit, direction,
bound (the share of the baseline median by which it may worsen before it
counts as a regression) and the workloads that report it.
``BENCHMARK.json`` carries the ones every workload reports; the others
are printed, recorded in the results file and compared the same way.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

ALL = ("social", "road", "shards", "serve")
ENGINES = ("social", "road", "shards")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None
    workloads: tuple[str, ...] = ALL
    #: The layer metric's meaning (per-layer metrics only).
    what: str = ""


END_TO_END = (
    Metric("setup_s", "s", bound=0.25),
    Metric("pass_s", "s", bound=0.25),
    Metric("submit_p50_s", "s", bound=0.25, workloads=("serve",)),
    Metric("submit_p95_s", "s", bound=0.25, workloads=("serve",)),
    Metric("read_p50_s", "s", bound=0.25, workloads=("serve",)),
    Metric("ingest_p50_s", "s", bound=0.25, workloads=("serve",)),
    Metric("error_rate", "ratio", bound=0.0),
    Metric("rss_mb", "MB", bound=0.1),
    Metric("sim_makespan_s", "s", bound=0.0, workloads=ENGINES),
    Metric("sim_comm_mb", "MB", bound=0.0, workloads=ENGINES),
    Metric("sim_peak_mb", "MB", bound=0.0, workloads=ENGINES),
)

#: Per-layer metrics of the traced run, reported on every workload
#: (0 where the workload does not reach the layer).
PER_LAYER = (
    Metric("core.rmeef.busy_s", "s", what="RMeefWorker.process_group self time per pass"),
    Metric("core.rmeef.groups", "count", what="process_group calls per pass"),
    Metric("core.rmeef.oom_splits", "count",
           what="SimulatedMemoryError from process_group per pass"),
    Metric("core.rmeef.ops", "count", what="rmeef_ops counter per pass"),
    Metric("core.rmeef.trie_mb", "MB", what="trie_bytes counter per pass"),
    Metric("core.sme.busy_s", "s", what="SingleMachineSplit.run self time per pass"),
    Metric("core.sme.share", "ratio", better="higher", what="sme_embeddings / embeddings"),
    Metric("core.region.busy_s", "s", what="RegionGrouper.groups self time per pass"),
    Metric("core.region.groups", "count", what="region groups formed per pass"),
    Metric("core.cache.fetches", "count", what="ForeignVertexCache.put calls per pass"),
    Metric("core.cache.evictions", "count", what="puts that evicted per pass"),
    Metric("cluster.network.rpcs", "count", what="Network.rpc calls per pass"),
    Metric("cluster.network.mb", "MB", what="cross-machine RPC bytes per pass"),
    Metric("enumeration.backtracking.busy_s", "s",
           what="BacktrackingEnumerator.run consumption self time per pass"),
    Metric("enumeration.ops", "count", what="sme_ops + enum_ops counters per pass"),
    Metric("engines.run_s", "s", what="EnumerationEngine.run time per pass"),
    Metric("api.session.self_s", "s", what="Session.run minus engine run per pass"),
    Metric("query.plan_s", "s", what="best_execution_plan time per pass"),
    Metric("partition.make_s", "s", what="RunConfig.make_partition in one set-up"),
    Metric("partition.cut_ratio", "ratio", what="cut edges / edges"),
    Metric("runtime.executor.batch_s", "s", what="SerialExecutor.run_tasks time per pass"),
    Metric("runtime.executor.tasks", "count", what="serial executor tasks per pass"),
    Metric("distributed.batch_s", "s", what="SocketExecutor.run_tasks time per pass"),
    Metric("distributed.shard_busy_ratio", "ratio", better="higher",
           what="worker.task time / (shards x batch wall)"),
    Metric("distributed.wire_mb", "MB", what="protocol pack+unpack bytes per pass"),
    Metric("distributed.pack_s", "s", what="protocol pack+unpack time per pass"),
    Metric("distributed.resubmits", "count", what="distributed.resubmits counter per pass"),
    Metric("service.cache.hit_ratio", "ratio", better="higher",
           what="ResultCache.get hits / calls"),
    Metric("service.cache.get_s", "s", what="ResultCache.get time per pass"),
    Metric("service.cache.invalidations", "count", what="metrics op cache invalidations per pass"),
    Metric("service.queue_wait_p50_s", "s", what="metrics op queue_wait p50"),
    Metric("service.protocol_s", "s", what="client submit p50 minus server latency p50"),
    Metric("store.put_s", "s", what="EmbeddingStore.put time per pass"),
    Metric("store.read_s", "s", what="EmbeddingStore page/lookup/aggregate time per pass"),
    Metric("streaming.apply_batch_s", "s", what="Graph.apply_batch time per pass"),
    Metric("streaming.delta_s", "s", what="IncrementalMatcher.delta time per pass"),
    Metric("streaming.dropped", "count", what="watch dropped deltas"),
    Metric("obs.wrap_overhead", "ratio", what="traced pass / untraced pass"),
    Metric("obs.trace_ratio", "ratio", what="Session.run(trace=True) pass / plain pass (road)"),
    Metric("obs.profile_ratio", "ratio", what="Session.run(profile=True) pass / plain pass (road)"),
)

BY_NAME = {metric.name: metric for metric in (*END_TO_END, *PER_LAYER)}


def supports(samples: int) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if samples * (100 - p) / 100 >= 10:
            return f"p{p}"
    return "median" if samples else "none"


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * p / 100
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def record(value: float, unit: str, samples: int, percentile: str) -> dict:
    """One metric's result-file entry."""
    return {
        "value": value,
        "unit": unit,
        "samples": samples,
        "percentile": percentile,
        "supports": supports(samples),
    }


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half of ``values`` (the median below four).

    ``pass_s`` uses it: shard passes can be bimodal (2.1 s or 2.7 s on
    one input, as the coordinator spreads the tasks over the shards one
    way or the other), and a median then jumps between the modes from
    run to run while this mean moves with their mix.
    """
    ordered = sorted(values)
    if len(ordered) < 4:
        return statistics.median(ordered)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric: Metric, base: list[float], new: list[float]) -> tuple[str, float]:
    """Compare two sets of runs of one metric under its bound.

    Returns the verdict and the signed change of the median as a share
    of the baseline's (positive = worse).  ``worse`` needs the change to
    exceed the bound; ``better`` needs the improvement to exceed the
    baseline's own quartile spread.  When either side's spread is wider
    than the bound the answer is ``unresolved`` — unless every new run
    beats (or loses to) every baseline run.
    """
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if metric.better == "lower" else -1.0
    if bm == 0:
        change = 0.0 if nm == 0 else sign * float("inf")
    else:
        change = sign * (nm - bm) / abs(bm)
    bound = metric.bound if metric.bound is not None else 0.25
    spread = max(
        (b3 - b1) / abs(bm) if bm else 0.0,
        (n3 - n1) / abs(nm) if nm else 0.0,
    )
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if spread > bound and not (all_worse or all_better):
        return "unresolved", change
    if change > bound:
        return "worse", change
    if -change > max(spread, 0.0) and change < 0:
        return "better", change
    return "same", change
