"""Golden simulated accounting: every simulated number is pinned.

The engines' simulated outputs (embedding count, makespan, communication
bytes, peak memory and the per-category op/byte counters) are the
reproduction's results, so a kernel rewrite that is meant to be a pure
speed-up must leave every one of them bit-identical.  The cross-engine
tests only check that engines agree with each other, and the benchmark
only checks that figures repeat from pass to pass; this module compares
against values recorded in ``golden_accounting.json``.

Cases: RADS (serial backend) and Single on q1-q8 over
``roadnet_like(0.2)`` and ``livejournal_like(0.05)``; one Crystal run
that takes the general (backtracking) core path; one streaming
:class:`IncrementalMatcher` delta; one memory-starved RADS run in which
the foreign-vertex cache evicts and a region group OOM-splits; and one
cache-starved RADS q6 run in which evicted pivots are fetched again in
the middle of rounds >= 1, where frontier leaves share candidate lists.

Re-record (only when a change is *meant* to move simulated figures, and
say so in the change description)::

    PYTHONPATH=src python tests/test_golden_accounting.py
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.bench.datasets import livejournal_like, roadnet_like
from repro.cluster import Cluster
from repro.cluster.machine import SimulatedMemoryError
from repro.core.cache import ForeignVertexCache
from repro.core.rads import RADSEngine
from repro.core.rmeef import RMeefWorker
from repro.engines.crystal import CrystalEngine
from repro.engines.single import SingleMachineEngine
from repro.enumeration.backtracking import EnumerationStats
from repro.query import named_patterns
from repro.streaming.incremental import IncrementalMatcher

FIXTURE = Path(__file__).with_name("golden_accounting.json")
QUERIES = [f"q{i}" for i in range(1, 9)]
GRAPHS = {
    "road": lambda: roadnet_like(0.2),
    "lj": lambda: livejournal_like(0.05),
}
MACHINES = 4

#: Starved RADS: 64 KiB per machine and a 5% cache share make the
#: foreign-vertex cache evict and one region group OOM-split (the test
#: asserts both happen, so the case cannot silently go slack).
STARVED = {"graph": "lj", "machines": 8, "memory_capacity": 64 * 1024,
           "cache_budget_fraction": 0.05, "query": "q3"}

#: Cache-starved RADS q6: a 0.5% cache share makes pivots that the
#: round-start batch fetched get evicted before their frontier leaves are
#: expanded, so R-Meef re-fetches them on demand inside rounds >= 1 (the
#: test asserts this happens).
STARVED_Q6 = {"graph": "lj", "machines": 4, "memory_capacity": 512 * 1024,
              "cache_budget_fraction": 0.005, "query": "q6"}


@lru_cache(maxsize=None)
def _graph(name: str):
    return GRAPHS[name]()


@lru_cache(maxsize=None)
def _cluster(name: str, machines: int, memory_capacity: int | None = None):
    return Cluster.create(_graph(name), machines,
                          memory_capacity=memory_capacity)


def _record(result) -> dict:
    return {
        "embedding_count": result.embedding_count,
        "failed": result.failed,
        "makespan": result.makespan,
        "total_comm_bytes": result.total_comm_bytes,
        "peak_memory": result.peak_memory,
        "counters": dict(sorted(result.counters.items())),
    }


def _engine_case(engine_cls, graph: str, query: str) -> dict:
    result = engine_cls().run(
        _cluster(graph, MACHINES).fresh_copy(), named_patterns()[query],
        collect_embeddings=False,
    )
    return _record(result)


def _crystal_case() -> dict:
    # q4's core is not a clique, so the core goes through backtracking.
    result = CrystalEngine().run(
        _cluster("lj", MACHINES).fresh_copy(), named_patterns()["q4"],
        collect_embeddings=False,
    )
    return _record(result)


def _delta_case() -> dict:
    old = _graph("road")
    additions = [(0, 2), (0, 32), (5, 37), (40, 72), (100, 133), (7, 9)]
    deletions = [tuple(int(x) for x in (v, old.neighbors(v)[0]))
                 for v in (3, 50, 200, 401)]
    new = old.apply_batch(additions=additions, deletions=deletions)
    matcher = IncrementalMatcher(named_patterns()["q4"])
    stats = EnumerationStats()
    added, removed = matcher.delta(
        old, new,
        [(min(a, b), max(a, b)) for a, b in additions],
        [(min(a, b), max(a, b)) for a, b in deletions],
        stats=stats,
    )
    return {
        "added": sorted(list(e) for e in added),
        "removed": sorted(list(e) for e in removed),
        "candidates_scanned": stats.candidates_scanned,
        "intersections": stats.intersections,
        "recursive_calls": stats.recursive_calls,
        "embeddings": stats.embeddings,
    }


def _starved_run(cfg: dict) -> dict:
    result = RADSEngine(
        cache_budget_fraction=cfg["cache_budget_fraction"]
    ).run(
        _cluster(cfg["graph"], cfg["machines"],
                 cfg["memory_capacity"]).fresh_copy(),
        named_patterns()[cfg["query"]],
        collect_embeddings=False,
    )
    return _record(result)


def _starved_case() -> dict:
    """Starved RADS run, plus how often the cache evicted and groups split."""
    seen = {"evicting_puts": 0, "oom_splits": 0}
    put, process_group = ForeignVertexCache.put, RMeefWorker.process_group

    def counting_put(self, v, adjacency):
        evicted = put(self, v, adjacency)
        seen["evicting_puts"] += bool(evicted)
        return evicted

    def counting_process_group(self, group, collect=True):
        try:
            return process_group(self, group, collect)
        except SimulatedMemoryError:
            seen["oom_splits"] += 1
            raise

    ForeignVertexCache.put = counting_put
    RMeefWorker.process_group = counting_process_group
    try:
        record = _starved_run(STARVED)
    finally:
        ForeignVertexCache.put = put
        RMeefWorker.process_group = process_group
    return {**record, **seen}


def _starved_q6_case() -> dict:
    """Cache-starved RADS q6, plus its on-demand pivot re-fetches.

    A re-fetch is a `fetchV` issued from below the group loop: the
    round-start batches and round 0's start-candidate fetches are the only
    ones ``_process_group`` issues itself.
    """
    seen = {"round_refetches": 0}
    refetching = [False]
    fetch, put = RMeefWorker._fetch_vertices, ForeignVertexCache.put

    def counting_fetch(self, vertices):
        caller = sys._getframe(1).f_code.co_name
        refetching[0] = caller != "_process_group"
        try:
            return fetch(self, vertices)
        finally:
            refetching[0] = False

    def counting_put(self, v, adjacency):
        seen["round_refetches"] += refetching[0]
        return put(self, v, adjacency)

    RMeefWorker._fetch_vertices = counting_fetch
    ForeignVertexCache.put = counting_put
    try:
        record = _starved_run(STARVED_Q6)
    finally:
        RMeefWorker._fetch_vertices = fetch
        ForeignVertexCache.put = put
    return {**record, **seen}


def _cases() -> dict:
    cases = {}
    for graph in GRAPHS:
        for query in QUERIES:
            cases[f"rads-{graph}-{query}"] = (
                lambda g=graph, q=query: _engine_case(RADSEngine, g, q)
            )
            cases[f"single-{graph}-{query}"] = (
                lambda g=graph, q=query: _engine_case(
                    SingleMachineEngine, g, q)
            )
    cases["crystal-lj-q4"] = _crystal_case
    cases["delta-road-q4"] = _delta_case
    cases["rads-starved-lj-q3"] = _starved_case
    cases["rads-starved-lj-q6"] = _starved_q6_case
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_accounting_unchanged(golden, case):
    got = json.loads(json.dumps(CASES[case]()))
    assert got == golden[case]


def test_starved_case_evicts_and_splits(golden):
    starved = golden["rads-starved-lj-q3"]
    assert not starved["failed"]
    assert starved["evicting_puts"] > 0
    assert starved["oom_splits"] > 0


def test_starved_q6_case_refetches_in_later_rounds(golden):
    starved = golden["rads-starved-lj-q6"]
    assert not starved["failed"]
    assert starved["round_refetches"] > 0


if __name__ == "__main__":
    records = {name: json.loads(json.dumps(fn()))
               for name, fn in sorted(CASES.items())}
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {FIXTURE}", file=sys.stderr)
