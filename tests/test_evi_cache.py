"""Tests for the edge verification index and the foreign-vertex cache."""

import numpy as np
import pytest

from repro.core.cache import ForeignVertexCache
from repro.core.embedding_trie import EmbeddingTrie
from repro.core.evi import EdgeVerificationIndex


class TestEVI:
    @pytest.fixture()
    def leaves(self):
        trie = EmbeddingTrie()
        return [trie.extend_path(None, (i, i + 1)) for i in range(0, 9, 3)]

    def test_shared_edge_groups_ecs(self, leaves):
        """Def. 5: ECs sharing an undetermined edge live under one key."""
        evi = EdgeVerificationIndex()
        evi.add((5, 9), leaves[0])
        evi.add((9, 5), leaves[1])  # reversed endpoints, same edge
        assert len(evi) == 1
        assert len(evi.leaves_for((5, 9))) == 2

    def test_failed_leaves_dedup(self, leaves):
        evi = EdgeVerificationIndex()
        evi.add((1, 2), leaves[0])
        evi.add((3, 4), leaves[0])  # same EC depends on two edges
        evi.add((3, 4), leaves[1])
        dead = evi.failed_leaves([(1, 2), (3, 4)])
        assert len(dead) == 2  # leaf 0 counted once

    def test_group_by_machine(self, leaves):
        evi = EdgeVerificationIndex()
        evi.add((0, 7), leaves[0])
        evi.add((2, 9), leaves[1])
        groups = evi.group_by_machine(lambda v: v % 2)
        assert set(groups) == {0}
        evi.add((1, 8), leaves[2])
        groups = evi.group_by_machine(lambda v: v % 2)
        assert sorted(groups) == [0, 1]

    def test_contains_and_clear(self, leaves):
        evi = EdgeVerificationIndex()
        evi.add((4, 2), leaves[0])
        assert (2, 4) in evi
        evi.clear()
        assert len(evi) == 0


class TestForeignVertexCache:
    def test_put_get(self):
        cache = ForeignVertexCache()
        adj = np.array([1, 2, 3], dtype=np.int64)
        assert cache.put(7, adj) == 0
        assert 7 in cache and 3 not in cache
        assert len(cache) == 1
        assert cache.bytes_used == ForeignVertexCache.entry_bytes(adj)

    def test_vertices_view_stays_live(self):
        cache = ForeignVertexCache(budget_bytes=32)
        view = cache.vertices()
        cache.put(1, np.arange(1, dtype=np.int64))  # 16 bytes
        assert 1 in view
        cache.put(2, np.arange(2, dtype=np.int64))  # 24 bytes: evicts 1
        assert 1 not in view and 2 in view
        cache.clear()
        assert 2 not in view and len(view) == 0

    def test_eviction_under_budget(self):
        cache = ForeignVertexCache(budget_bytes=100)
        a = np.arange(5, dtype=np.int64)   # 48 bytes
        b = np.arange(5, dtype=np.int64)
        c = np.arange(5, dtype=np.int64)
        cache.put(1, a)
        cache.put(2, b)
        evicted = cache.put(3, c)  # must evict the oldest (1)
        assert evicted == ForeignVertexCache.entry_bytes(a)
        assert 1 not in cache and 2 in cache and 3 in cache
        assert cache.evictions == 1

    def test_budget_respected(self):
        cache = ForeignVertexCache(budget_bytes=200)
        for v in range(20):
            cache.put(v, np.arange(4, dtype=np.int64))
        assert cache.bytes_used <= 200

    def test_duplicate_put_free(self):
        cache = ForeignVertexCache()
        adj = np.arange(3, dtype=np.int64)
        cache.put(1, adj)
        before = cache.bytes_used
        assert cache.put(1, adj) == 0
        assert cache.bytes_used == before

    def test_clear(self):
        cache = ForeignVertexCache()
        cache.put(1, np.arange(10, dtype=np.int64))
        released = cache.clear()
        assert released > 0
        assert len(cache) == 0 and cache.bytes_used == 0


class TestEvictionPolicies:
    def _fill(self, cache):
        # Three single-neighbour entries of 16 bytes each.
        for v in (1, 2, 3):
            cache.put(v, np.array([v + 10], dtype=np.int64))

    def test_fifo_evicts_oldest_even_if_hot(self):
        cache = ForeignVertexCache(budget_bytes=48)
        self._fill(cache)
        cache.put(1, np.array([11], dtype=np.int64))  # re-put: no refresh
        cache.put(4, np.array([14], dtype=np.int64))
        assert 1 not in cache
        assert 2 in cache and 3 in cache and 4 in cache
