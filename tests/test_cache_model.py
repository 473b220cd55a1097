"""Model-based test: ForeignVertexCache against a reference model.

A hypothesis state machine drives the cache with arbitrary put/clear
sequences and checks every observable (membership, byte accounting,
eviction count, FIFO eviction order) against a straightforward Python
model.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.cache import ForeignVertexCache

BUDGET = 160  # small enough that eviction happens constantly


def entry_cost(degree: int) -> int:
    return (degree + 1) * 8


class CacheModel(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.cache = ForeignVertexCache(budget_bytes=BUDGET)
        self.model: dict[int, int] = {}  # vertex -> degree, in order
        self.evictions = 0

    # ------------------------------------------------------------------
    @rule(v=st.integers(0, 14), degree=st.integers(0, 8))
    def put(self, v, degree):
        adjacency = np.arange(degree, dtype=np.int64)
        evicted = self.cache.put(v, adjacency)
        if v in self.model:
            assert evicted == 0  # duplicate put is a no-op
            return
        cost = entry_cost(degree)
        used = sum(entry_cost(d) for d in self.model.values())
        released = 0
        while self.model and used + cost > BUDGET:
            oldest = next(iter(self.model))
            freed = entry_cost(self.model.pop(oldest))
            used -= freed
            released += freed
            self.evictions += 1
        assert evicted == released
        self.model[v] = degree

    @rule()
    def clear(self):
        released = self.cache.clear()
        assert released == sum(entry_cost(d) for d in self.model.values())
        self.model.clear()

    # ------------------------------------------------------------------
    @invariant()
    def same_membership(self):
        if not hasattr(self, "model"):
            return
        for v in range(15):
            assert (v in self.cache) == (v in self.model)
        assert len(self.cache) == len(self.model)

    @invariant()
    def byte_accounting_matches(self):
        if not hasattr(self, "model"):
            return
        assert self.cache.bytes_used == sum(
            entry_cost(d) for d in self.model.values()
        )
        assert self.cache.bytes_used <= BUDGET or len(self.model) == 1

    @invariant()
    def evictions_match(self):
        if not hasattr(self, "model"):
            return
        assert self.cache.evictions == self.evictions


TestCacheModel = CacheModel.TestCase
TestCacheModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
