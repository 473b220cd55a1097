"""The four benchmark workloads: social, road, shards and serve.

Each workload builds its inputs from the seed (:mod:`inputs`), computes
its reference answers with the ``Single`` engine before anything is
timed, and then offers ``setup()`` (timed as ``setup_s``) and
``run_pass()`` (one pass over its fixed request list, timed as
``pass_s``).  Every operation goes through a :class:`Recorder`, which
times it and checks its answer; a failure is an exception, a refusal, a
protocol error or a wrong answer.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import inputs
from procs import ROOT, Children, vm_hwm_mb

import repro
from repro.graph.graph import Graph
from repro.graph.io import save_binary

#: Client socket timeout: a hung server fails the op, never the run.
CLIENT_TIMEOUT_S = 120.0


class Recorder:
    """Attempts, failures and latency samples of one run (thread-safe)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.sims: list[tuple] = []
        self._lock = threading.Lock()

    def fail(self, what: str) -> None:
        with self._lock:
            self.failures.append(what)

    def attempt(self, kind: str, call: Callable[[], Any],
                check: Callable[[Any], "str | None"] | None = None) -> Any:
        """Run one operation: count it, time it, check its answer.

        Returns the answer, or None when the call raised.
        """
        with self._lock:
            self.attempted += 1
        start = time.perf_counter()
        try:
            value = call()
        except Exception as exc:  # any failure of the program counts
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        with self._lock:
            self.samples[kind].append(elapsed)
        try:
            problem = check(value) if check is not None else None
        except Exception as exc:  # a malformed answer
            problem = f"unreadable answer: {type(exc).__name__}: {exc}"
        if problem:
            self.fail(f"{kind}: {problem}")
        return value

    def reset_timings(self) -> None:
        """Drop the latency samples so far (after the warm-up pass)."""
        with self._lock:
            self.samples.clear()


def measure(workload: "Workload", rec: Recorder, seconds: float, *,
            before: Callable[[int], None] | None = None,
            **kwargs: Any) -> tuple[list[float], list]:
    """Time passes until ``seconds`` have elapsed (at least one).

    Returns the pass times and every result the passes returned;
    ``before(index)`` runs ahead of each pass, outside its timing.
    """
    times: list[float] = []
    results: list = []
    start = time.perf_counter()
    while True:
        if before is not None:
            before(len(times))
        gc.collect()
        began = time.perf_counter()
        results.extend(workload.run_pass(rec, **kwargs))
        times.append(time.perf_counter() - began)
        if time.perf_counter() - start >= seconds:
            return times, results


def single_count(graph: Graph, query: str) -> int:
    """The reference: the ``Single`` engine's count on ``graph``."""
    result = repro.open(graph).engine("single").query(query).run()
    if result.failed:
        raise RuntimeError(f"reference run failed: {result.failure}")
    return result.embedding_count


def _count_check(expected: int) -> Callable[[Any], "str | None"]:
    def check(result) -> "str | None":
        if result.failed:
            return f"{result.pattern_name} failed: {result.failure}"
        if result.embedding_count != expected:
            return (
                f"{result.pattern_name} counted {result.embedding_count}, "
                f"Single counts {expected}"
            )
        return None

    return check


class Workload:
    """Shared life cycle; subclasses fill in the workload's parts."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.children = Children()
        self.session = None
        #: Per-run scratch directory inside the checkout.
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=_tmp_root()))

    def rss_mb(self) -> float:
        """Peak RSS of this process plus its live children, in MB."""
        return vm_hwm_mb() + self.children.rss_mb()

    def teardown(self) -> None:
        """Release what the last ``setup()`` built (idempotent)."""
        if self.session is not None:
            self.session.close()
            self.session = None
        self.children.close()

    def close(self) -> None:
        self.teardown()
        shutil.rmtree(self.tmp, ignore_errors=True)


def _tmp_root() -> Path:
    root = ROOT / ".perfbench_tmp"
    root.mkdir(exist_ok=True)
    return root


# ---------------------------------------------------------------------------
# Session workloads: social, road, shards
# ---------------------------------------------------------------------------
class SessionWorkload(Workload):
    """RADS over ``Session.run`` on a 10-machine simulated cluster."""

    queries: tuple[str, ...] = ()
    machines = 10
    engine = "rads"

    def make_graph(self) -> Graph:
        raise NotImplementedError

    def open(self, graph: Graph):
        return repro.open(graph).with_cluster(machines=self.machines).backend(
            "serial"
        )

    def reference(self) -> None:
        self.graph_digest = inputs.input_digest(graph := self.make_graph())
        self.refs = {
            q: single_count(graph, q)
            for q in (*self.queries, inputs.BIND_QUERY[self.name])
        }

    def setup(self) -> None:
        """Build the graph, open and partition the session, bind it."""
        self.teardown()
        graph = self.make_graph()
        self.session = self.open(graph).engine(self.engine)
        # The tiny bind query partitions the graph (and, on the socket
        # backend, ships it to the shards).
        bind = inputs.BIND_QUERY[self.name]
        result = self.session.query(bind).run()
        problem = _count_check(self.refs[bind])(result)
        if problem or inputs.input_digest(graph) != self.graph_digest:
            raise RuntimeError(f"set-up failed: {problem or 'graph differs'}")

    def run_pass(self, rec: Recorder, *, trace: bool = False,
                 profile: bool = False) -> list:
        """Run every query once; returns the results (for trace trees)."""
        results = []
        sims = []
        for q in self.queries:
            session = self.session.query(q)
            result = rec.attempt(
                "query",
                lambda: session.run(trace=trace, profile=profile),
                _count_check(self.refs[q]),
            )
            if result is None:
                sims.append((q, None))
                continue
            results.append(result)
            sims.append((
                q,
                result.makespan,
                result.total_comm_bytes,
                result.peak_memory,
            ))
        rec.sims.append(tuple(sims))
        return results


class Social(SessionWorkload):
    name = "social"
    why = (
        "RADS on a power-law social graph where SM-E finds nothing and "
        "the R-Meef expand-verify-filter loop does ~99% of the pass "
        "(q6: many results, trie-heavy)"
    )
    queries = inputs.SOCIAL_QUERIES

    def make_graph(self) -> Graph:
        return inputs.social_graph(self.seed)


class Road(SessionWorkload):
    name = "road"
    why = (
        "RADS on a sparse road grid where SM-E backtracking does most of "
        "the work and partitioning dominates set-up: the counterpart of "
        "social"
    )
    queries = inputs.ROAD_QUERIES

    def make_graph(self) -> Graph:
        return inputs.road_graph(self.seed)


class Shards(SessionWorkload):
    name = "shards"
    why = (
        "road's graph and queries over the socket backend with 2 local "
        "shard processes: the distributed runtime, the wire and the "
        "pre-balanced parallel R-Meef path, which road never reaches"
    )
    queries = inputs.SHARDS_QUERIES
    shard_count = 2

    def make_graph(self) -> Graph:
        return inputs.road_graph(self.seed)

    def open(self, graph: Graph):
        addresses = self.children.start(
            *[
                ["worker", "--host", "127.0.0.1", "--port", "0",
                 "--workers", "0"]
                for _ in range(self.shard_count)
            ]
        )
        return repro.open(graph).with_cluster(machines=self.machines).backend(
            "socket", shards=[f"{host}:{port}" for host, port in addresses]
        )


# ---------------------------------------------------------------------------
# serve: a query server under a mixed read/write closed loop
# ---------------------------------------------------------------------------
class Serve(Workload):
    """``repro serve --threads 2 --store-dir ...`` driven by two clients.

    Connection A only submits; connection B runs the ingest cycles.
    B's k-th cycle starts once A has sent k/len(cycles) of its submits,
    so both connections are busy at once and every pass sees the same
    number of graph versions at the same points of A's list.
    """

    name = "serve"
    why = (
        "a query server under a closed loop mixing cached and uncached "
        "submits with ingests, watch polls and store reads: a read-side "
        "gain must not hide a write-side cost"
    )
    threads = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.server = None
        self.clients: list = []
        #: Host the server in this process (the traced run does, so the
        #: layer wrappers see the server's calls).
        self.in_process = False

    def reference(self) -> None:
        graph = inputs.serve_graph(self.seed)
        self.graph_digest = inputs.input_digest(graph)
        self.plan = inputs.serve_plan(graph, self.seed)
        states = self.plan.edge_sets(graph)
        if states[-1] != states[0]:
            raise RuntimeError("serve ingest batches do not restore the graph")
        self.states = states[:-1]
        names = {
            *inputs.SERVE_QUERIES,
            inputs.SERVE_STORE_QUERY,
            inputs.SERVE_WATCH_QUERY,
            inputs.BIND_QUERY[self.name],
        }
        n = graph.num_vertices
        graphs = [Graph.from_edges(n, sorted(edges)) for edges in self.states]
        self.refs = [
            {q: single_count(g, q) for q in names} for g in graphs
        ]
        # Cycle k reads the stored set back at the state its ingest made.
        self.lookup_refs = [
            _containing(graphs[(k + 1) % len(graphs)], cycle.lookup_vertex)
            for k, cycle in enumerate(self.plan.cycles)
        ]

    def setup(self) -> None:
        self.teardown()
        graph = inputs.serve_graph(self.seed)
        if inputs.input_digest(graph) != self.graph_digest:
            raise RuntimeError("set-up failed: graph differs")
        store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=self.tmp))
        if self.in_process:
            self.server = repro.open(graph).serve(
                host="127.0.0.1", port=0, threads=self.threads,
                store_dir=str(store_dir),
            )
            address = self.server.address
        else:
            path = self.tmp / "graph.npz"
            save_binary(graph, path)
            (address,) = self.children.start([
                "serve", "--graph", str(path), "--host", "127.0.0.1",
                "--port", "0", "--threads", str(self.threads),
                "--store-dir", str(store_dir),
            ])
        self.clients = [
            repro.connect(address, timeout=CLIENT_TIMEOUT_S) for _ in range(2)
        ]
        self.watch = self.clients[1].register(inputs.SERVE_WATCH_QUERY)["watch"]
        self.version = 0
        bind = inputs.BIND_QUERY[self.name]
        result = self.clients[1].submit(bind, engine="Single")
        if result.embedding_count != self.refs[0][bind]:
            raise RuntimeError("set-up failed: bind query miscounted")

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.server is not None:
            self.server.close()
            self.server = None
        super().teardown()

    # -- one pass --------------------------------------------------------
    def _state(self, version: int) -> int:
        return version % len(self.states)

    def run_pass(self, rec: Recorder, **_ignored: Any) -> list:
        a_client, b_client = self.clients
        cycles = self.plan.cycles
        a_list = self.plan.a_submits
        go = [threading.Event() for _ in cycles]
        base = self.version
        # Versions acknowledged / sent by B, for A's in-flight windows.
        seen = {"acked": base, "sent": base}
        lock = threading.Lock()

        def a_loop() -> None:
            for index, sub in enumerate(a_list):
                for k in range(len(cycles)):
                    if index == k * len(a_list) // len(cycles):
                        go[k].set()
                with lock:
                    low = seen["acked"]
                expected = set()

                def check(result, sub=sub, low=low) -> "str | None":
                    with lock:
                        high = seen["sent"]
                    expected.update(
                        self.refs[self._state(v)][sub.name]
                        for v in range(low, high + 1)
                    )
                    if result.failed or result.embedding_count not in expected:
                        return (
                            f"{sub.engine} {sub.text!r} counted "
                            f"{result.embedding_count}, expected one of "
                            f"{sorted(expected)}"
                        )
                    return None

                rec.attempt(
                    "submit", lambda sub=sub: a_client.submit(
                        sub.text, engine=sub.engine
                    ), check,
                )

        def a_main() -> None:
            try:
                a_loop()
            except Exception as exc:  # recorded, never lost with the thread
                rec.fail(f"connection A: {type(exc).__name__}: {exc}")
            finally:
                for event in go:
                    event.set()

        a_thread = threading.Thread(target=a_main, name="serve-A")
        a_thread.start()
        try:
            for k, cycle in enumerate(cycles):
                go[k].wait()
                self._cycle(rec, b_client, k, seen, lock)
        finally:
            for event in go:
                event.set()
            a_thread.join()
        return []

    def _cycle(self, rec: Recorder, client, k: int, seen: dict,
               lock: threading.Lock) -> None:
        cycle = self.plan.cycles[k]
        before = self._state(self.version)
        with lock:
            seen["sent"] = self.version + 1
        report = rec.attempt(
            "ingest",
            lambda: client.ingest(
                list(cycle.batch.additions), list(cycle.batch.deletions)
            ),
        )
        # The server applied the batch even if the answer was lost.
        self.version += 1
        with lock:
            seen["acked"] = self.version
        after = self._state(self.version)
        refs = self.refs[after]
        tri = inputs.SERVE_WATCH_QUERY
        net = refs[tri] - self.refs[before][tri]
        if report is not None:
            outcome = report["watches"].get(self.watch, {})
            if report.get("version") != self.version:
                rec.fail(f"ingest: version {report.get('version')}, "
                         f"expected {self.version}")
            if outcome.get("added", 0) - outcome.get("removed", 0) != net:
                rec.fail(f"ingest: watch delta {outcome}, expected net {net}")

        def check_poll(records) -> "str | None":
            got = [(r.version, r.added_count - r.removed_count) for r in records]
            if got != [(self.version, net)]:
                return f"watch deltas {got}, expected {[(self.version, net)]}"
            return None

        rec.attempt("poll", lambda: client.poll(self.watch), check_poll)
        store_q, store_e = inputs.SERVE_STORE_QUERY, inputs.SERVE_STORE_ENGINE
        rec.attempt(
            "submit",
            lambda: client.submit(store_q, engine=store_e, collect="store"),
            _count_check(refs[store_q]),
        )
        total = refs[store_q]
        offset = cycle.page_offset

        def check_page(page) -> "str | None":
            want = max(0, min(inputs.SERVE_PAGE_LIMIT, total - offset))
            if page["total"] != total or len(page["embeddings"]) != want:
                return (f"page total {page['total']} rows "
                        f"{len(page['embeddings'])}, expected {total}/{want}")
            return None

        rec.attempt(
            "read",
            lambda: client.page(store_q, store_e,
                                limit=inputs.SERVE_PAGE_LIMIT, offset=offset),
            check_page,
        )
        want_lookup = self.lookup_refs[k]
        rec.attempt(
            "read",
            lambda: client.lookup(store_q, store_e, vertex=cycle.lookup_vertex),
            lambda found: None if found["count"] == want_lookup else
            f"lookup({cycle.lookup_vertex}) {found['count']}, "
            f"expected {want_lookup}",
        )
        rec.attempt(
            "read",
            lambda: client.aggregate(store_q, store_e),
            lambda agg: None if agg["total"] == total else
            f"aggregate total {agg['total']}, expected {total}",
        )
        for sub in cycle.submits:
            rec.attempt(
                "submit",
                lambda sub=sub: client.submit(sub.text, engine=sub.engine),
                _count_check(refs[sub.name]),
            )

    def server_metrics(self) -> dict:
        return self.clients[1].metrics()


def _containing(graph: Graph, vertex: int) -> int:
    """Store-query embeddings of ``graph`` that contain ``vertex``."""
    result = (
        repro.open(graph).engine("single").query(inputs.SERVE_STORE_QUERY)
        .run(collect=True)
    )
    return sum(1 for emb in result.embeddings if vertex in emb)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Social, Road, Shards, Serve)
}
