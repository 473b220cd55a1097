"""The traced half of a ``--trace 1`` run: per-layer metrics.

After the untraced passes, the road workload times one pass with the
program's own ``Session.run(trace=True)`` and one with ``profile=True``
(``obs.trace_ratio``, ``obs.profile_ratio``).  Then the layer wrappers
go in, the workload is set up afresh (so engines bind the wrapped plan
function, and ``partition.make_s`` is one real set-up) and the traced
passes run.  Every per-layer value is per traced pass unless its
definition says otherwise; layers a workload does not reach read 0.
"""

from __future__ import annotations

import json
import time

import metrics as M
from layers import LayerTracer
from procs import ROOT
from workloads import measure

#: Span dumps of traced runs, one file per workload and seed.
OUT_DIR = ROOT / ".perfbench_out"


def _tree_time(node: dict | None, name: str) -> float:
    if not node:
        return 0.0
    own = node.get("duration", 0.0) if node.get("name") == name else 0.0
    return own + sum(_tree_time(c, name) for c in node.get("children", ()))


def traced_run(workload, rec, budget: float, untraced: list[float]) -> dict:
    plain = M.interquartile_mean(untraced)
    ratios = {"obs.trace_ratio": 0.0, "obs.profile_ratio": 0.0}
    if workload.name == "road":
        for key, flag in (("obs.trace_ratio", "trace"),
                          ("obs.profile_ratio", "profile")):
            began = time.perf_counter()
            workload.run_pass(rec, **{flag: True})
            ratios[key] = (time.perf_counter() - began) / plain

    tracer = LayerTracer().install()
    try:
        workload.setup()
        setup = tracer.reset()
        server_before = (
            workload.server_metrics() if workload.name == "serve" else None
        )
        submits_before = len(rec.samples.get("submit", []))
        times, results = measure(
            workload, rec, budget,
            before=lambda index: setattr(tracer, "phase", f"pass{index}"),
            # Shard busy time comes from the program's worker.task spans.
            trace=workload.name == "shards",
        )
        tracer.phase = "teardown"
        server_after = (
            workload.server_metrics() if workload.name == "serve" else None
        )
        submits = rec.samples.get("submit", [])[submits_before:]
        cut = _cut_ratio(workload)
    finally:
        tracer.uninstall()
    _write_spans(workload, tracer)
    return _fold(
        workload, tracer, setup, times, plain, results, ratios, cut,
        server_before, server_after, submits,
    )


def _cut_ratio(workload) -> float:
    session = getattr(workload, "session", None)
    if session is None:
        return 0.0
    cluster = session.cluster()
    owner = cluster.partition.owner
    from inputs import edge_array

    edges = edge_array(cluster.graph)
    if not len(edges):
        return 0.0
    return float((owner[edges[:, 0]] != owner[edges[:, 1]]).mean())


def _fold(workload, tracer, setup, times, plain, results, ratios, cut,
          server_before, server_after, submits) -> dict:
    n = len(times)
    traced = M.interquartile_mean(times)
    self_s, total_s = tracer.self_s, tracer.total_s
    calls, counts = tracer.calls, tracer.counts

    def counter(key: str) -> float:
        return sum(r.counters.get(key, 0) for r in results)

    embeddings = sum(r.embedding_count for r in results)
    shards = getattr(workload, "shard_count", 0)
    batch = total_s["distributed.batch"]
    worker_busy = sum(_tree_time(r.trace, "worker.task") for r in results)
    value = {
        "core.rmeef.busy_s": self_s["core.rmeef"] / n,
        "core.rmeef.groups": calls["core.rmeef"] / n,
        "core.rmeef.oom_splits": counts["core.rmeef.errors"] / n,
        "core.rmeef.ops": counter("rmeef_ops") / n,
        "core.rmeef.trie_mb": counter("trie_bytes") / 1e6 / n,
        "core.sme.busy_s": self_s["core.sme"] / n,
        "core.sme.share": (
            counter("sme_embeddings") / embeddings if embeddings else 0.0
        ),
        "core.region.busy_s": self_s["core.region"] / n,
        "core.region.groups": counts["core.region.groups"] / n,
        "core.cache.fetches": counts["core.cache.fetches"] / n,
        "core.cache.evictions": counts["core.cache.evictions"] / n,
        "cluster.network.rpcs": counts["cluster.network.rpcs"] / n,
        "cluster.network.mb": counts["cluster.network.bytes"] / 1e6 / n,
        "enumeration.backtracking.busy_s":
            self_s["enumeration.backtracking"] / n,
        "enumeration.ops": (counter("sme_ops") + counter("enum_ops")) / n,
        "engines.run_s": total_s["engines.run"] / n,
        "api.session.self_s": self_s["api.session"] / n,
        "query.plan_s": total_s["query.plan"] / n,
        "partition.make_s": setup["total_s"].get("partition.make", 0.0),
        "partition.cut_ratio": cut,
        "runtime.executor.batch_s": total_s["runtime.executor"] / n,
        "runtime.executor.tasks": counts["runtime.executor.tasks"] / n,
        "distributed.batch_s": batch / n,
        "distributed.shard_busy_ratio": (
            worker_busy / (shards * batch) if shards and batch else 0.0
        ),
        "distributed.wire_mb": counts["distributed.wire_bytes"] / 1e6 / n,
        "distributed.pack_s": total_s["distributed.pack"] / n,
        "distributed.resubmits": counter("distributed.resubmits") / n,
        "service.cache.hit_ratio": (
            counts["service.cache.hits"] / calls["service.cache.get"]
            if calls["service.cache.get"] else 0.0
        ),
        "service.cache.get_s": total_s["service.cache.get"] / n,
        "service.cache.invalidations": 0.0,
        "service.queue_wait_p50_s": 0.0,
        "service.protocol_s": 0.0,
        "store.put_s": total_s["store.put"] / n,
        "store.read_s": total_s["store.read"] / n,
        "streaming.apply_batch_s": total_s["streaming.apply_batch"] / n,
        "streaming.delta_s": total_s["streaming.delta"] / n,
        "streaming.dropped": 0.0,
        "obs.wrap_overhead": traced / plain,
        **ratios,
    }
    if server_after is not None:
        value["service.cache.invalidations"] = (
            server_after["cache"]["invalidations"]
            - server_before["cache"]["invalidations"]
        ) / n
        hist = server_after["histograms"]
        value["service.queue_wait_p50_s"] = hist["queue_wait"]["p50"]
        value["service.protocol_s"] = (
            M.percentile(submits, 50) - hist["latency"]["p50"]
        )
        value["streaming.dropped"] = float(sum(
            w["dropped"] for w in server_after["streaming"]["watches"]
        ))
    out = {}
    for metric in M.PER_LAYER:
        samples = 1 if metric.name.startswith(("partition.", "obs.t", "obs.p")) else n
        out[metric.name] = M.record(
            float(value[metric.name]), metric.unit, samples, "mean"
        )
    _print_fold(tracer, times, plain)
    return out


def _print_fold(tracer, times: list[float], plain: float) -> None:
    """Self time per layer, as a share of the traced passes' wall time."""
    wall = sum(times)
    traced = M.interquartile_mean(times)
    print("== self time per layer (traced passes)")
    for layer, seconds in sorted(
        tracer.self_s.items(), key=lambda item: -item[1]
    ):
        print(f"  {layer:34s} {seconds:10.4f} s  {seconds / wall:6.1%} of passes")
    print(f"  obs.wrap_overhead = {traced / plain:.4f} "
          f"(traced pass {traced:.4f} s / untraced {plain:.4f} s)")


def _write_spans(workload, tracer) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload.name}-{workload.seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": workload.seed,
                   "spans": tracer.spans}, fh)
