"""Per-layer tracing for the traced run, done entirely from here.

:class:`LayerTracer` wraps the public entry points of each layer of the
program (``install`` patches them, ``uninstall`` restores them) and
records a span around every call: layer name, span and parent ids,
request id (the outermost span on its thread, so every query, submit
or server-side execution is one request), start, duration and self time
(duration minus the time of spans nested inside it on the same thread).
Hot calls that only need counting (network RPCs, cache inserts, wire
packing, each item of the backtracking generator) bump counters instead
of recording spans.  Spans stay in memory and are written out when the
run ends.

Nothing under ``src/`` changes: the wrappers are installed by the
benchmark process, so they see the calls made in that process only —
shard workers report through the program's own ``worker.task`` spans,
and ``serve``'s traced run hosts the server in-process.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: Spans kept in memory (the aggregates are exact past this cap).
MAX_SPANS = 200_000


class LayerTracer:
    """Span recorder plus the patch table of wrapped entry points."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: What the run is doing (``setup``, ``pass3``...), on every span.
        self.phase = "setup"
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count(1)

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        # [layer, start, child time, span id, parent id, request id]:
        # a request is the outermost span on its thread.
        frame = [
            layer, time.perf_counter(), 0.0, span_id,
            parent[3] if parent else None,
            parent[5] if parent else span_id,
        ]
        stack.append(frame)
        return frame

    def exit(self, frame: list, *, keep: bool = True) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        layer, start, child, span_id, parent, request = frame
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[layer] += duration - child
            self.total_s[layer] += duration
            if keep:
                self.calls[layer] += 1
                if len(self.spans) < MAX_SPANS:
                    self.spans.append({
                        "id": span_id,
                        "parent": parent,
                        "request": request,
                        "phase": self.phase,
                        "thread": threading.current_thread().name,
                        "layer": layer,
                        "start": start,
                        "duration": duration,
                        "self": duration - child,
                    })
        return duration

    def reset(self) -> dict:
        """Snapshot and clear the aggregates (spans are kept)."""
        with self._lock:
            snapshot = {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }
            self.self_s.clear()
            self.total_s.clear()
            self.calls.clear()
            self.counts.clear()
        return snapshot

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    # -- patching --------------------------------------------------------
    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        original = getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper(original))

    def timed(self, owner: Any, name: str, layer: str, *,
              on_result: Callable | None = None,
              on_error: type | None = None) -> None:
        """Record a span around every call of ``owner.name``."""
        tracer = self

        def wrapper(fn):
            bind = inspect.signature(fn).bind

            @functools.wraps(fn)
            def timed_call(*args, **kwargs):
                frame = tracer.enter(layer)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    if on_error is not None and isinstance(exc, on_error):
                        tracer.count(f"{layer}.errors")
                    raise
                finally:
                    tracer.exit(frame)
                if on_result is not None:
                    on_result(tracer, bind(*args, **kwargs).arguments, result)
                return result

            return timed_call

        self._patch(owner, name, wrapper)

    def counted(self, owner: Any, name: str,
                on_call: Callable[["LayerTracer", dict, Any], None]) -> None:
        """Count calls of ``owner.name`` without recording spans."""
        tracer = self

        def wrapper(fn):
            bind = inspect.signature(fn).bind

            @functools.wraps(fn)
            def counted_call(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_call(tracer, bind(*args, **kwargs).arguments, result)
                return result

            return counted_call

        self._patch(owner, name, wrapper)

    def timed_counted(self, owner: Any, name: str, layer: str,
                      on_call: Callable[["LayerTracer", dict, Any], None]) -> None:
        """Time and count ``owner.name`` without recording spans (for
        calls too frequent to keep one span each)."""
        tracer = self

        def wrapper(fn):
            bind = inspect.signature(fn).bind

            @functools.wraps(fn)
            def call(*args, **kwargs):
                frame = tracer.enter(layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.exit(frame, keep=False)
                on_call(tracer, bind(*args, **kwargs).arguments, result)
                return result

            return call

        self._patch(owner, name, wrapper)

    def timed_generator(self, owner: Any, name: str, layer: str) -> None:
        """Time the consumption of the generator ``owner.name`` returns:
        each ``next()`` is a frame of ``layer``; one span per generator
        would hide the work its consumer does between items."""
        tracer = self

        def wrapper(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                with tracer._lock:
                    tracer.calls[layer] += 1

                def consume():
                    while True:
                        frame = tracer.enter(layer)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            tracer.exit(frame, keep=False)
                        yield item

                return consume()

            return generator

        self._patch(owner, name, wrapper)

    def uninstall(self) -> None:
        """Restore every patched entry point (idempotent)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- the program's layers ------------------------------------------
    def install(self) -> "LayerTracer":
        """Wrap every layer's public entry point (see ``PER_LAYER``)."""
        from repro.api.config import RunConfig
        from repro.api.session import Session
        from repro.cluster.machine import SimulatedMemoryError
        from repro.cluster.network import Network
        from repro.core import rads
        from repro.core.cache import ForeignVertexCache
        from repro.core.region import RegionGrouper
        from repro.core.rmeef import RMeefWorker
        from repro.core.sme import SingleMachineSplit
        from repro.distributed import protocol as wire
        from repro.distributed.executor import SocketExecutor
        from repro.engines.base import EnumerationEngine
        from repro.enumeration.backtracking import BacktrackingEnumerator
        from repro.graph.graph import Graph
        from repro.query import plan
        from repro.runtime.executor import SerialExecutor
        from repro.service.cache import ResultCache
        from repro.store.store import EmbeddingStore
        from repro.streaming.incremental import IncrementalMatcher

        self.timed(Session, "run", "api.session")
        self.timed(EnumerationEngine, "run", "engines.run")
        # RADS binds its plan provider at construction: patch before the
        # engine is built (workloads install before they select engines).
        self.timed(plan, "best_execution_plan", "query.plan")
        self.timed(rads, "best_execution_plan", "query.plan")
        self.timed(RunConfig, "make_partition", "partition.make")
        self.timed(
            SerialExecutor, "run_tasks", "runtime.executor",
            on_result=lambda t, a, r: t.count("runtime.executor.tasks", len(a["tasks"])),
        )
        self.timed(SocketExecutor, "run_tasks", "distributed.batch")
        self.timed(SingleMachineSplit, "run", "core.sme")
        self.timed(
            RegionGrouper, "groups", "core.region",
            on_result=lambda t, a, r: t.count("core.region.groups", len(r)),
        )
        self.timed(RMeefWorker, "process_group", "core.rmeef",
                   on_error=SimulatedMemoryError)
        self.timed_generator(BacktrackingEnumerator, "run",
                             "enumeration.backtracking")
        self.counted(ForeignVertexCache, "put", _cache_put)
        self.counted(Network, "rpc", _network_rpc)
        self.timed_counted(wire, "pack", "distributed.pack", _wire_bytes)
        self.timed_counted(wire, "unpack", "distributed.pack",
                           lambda t, a, r: _wire_bytes(t, a, a["text"]))
        self.timed(
            ResultCache, "get", "service.cache.get",
            on_result=lambda t, a, r: t.count("service.cache.hits", r is not None),
        )
        self.timed(ResultCache, "put", "service.cache.put")
        self.timed(EmbeddingStore, "put", "store.put")
        for read in ("page", "lookup", "aggregate"):
            self.timed(EmbeddingStore, read, "store.read")
        self.timed(Graph, "apply_batch", "streaming.apply_batch")
        self.timed(IncrementalMatcher, "delta", "streaming.delta")
        return self


def _cache_put(tracer: LayerTracer, _args: dict, evicted: int) -> None:
    tracer.count("core.cache.fetches")
    if evicted:
        tracer.count("core.cache.evictions")


def _network_rpc(tracer: LayerTracer, args: dict, _result: Any) -> None:
    tracer.count("cluster.network.rpcs")
    if args["requester"].machine_id != args["responder"].machine_id:
        tracer.count(
            "cluster.network.bytes",
            args["request_bytes"] + args["response_bytes"],
        )


def _wire_bytes(tracer: LayerTracer, _args: dict, text: str) -> None:
    tracer.count("distributed.wire_bytes", len(text))
