"""Foreign-vertex adjacency cache (paper Sec. 3.2 / Appendix B).

Fetched adjacency lists are cached so each foreign vertex is fetched at most
once while memory lasts; under pressure the oldest entries are evicted
(the paper: "when more data vertices need to be fetched, we may release
some previously cached data vertices").
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import KeysView

import numpy as np


class ForeignVertexCache:
    """Byte-budgeted adjacency cache with FIFO eviction.

    The paper only says stale entries "may" be released.  R-Meef only
    asks whether a vertex is cached and inserts fetched lists, so there
    are no reads for a recency order to follow: the oldest entry goes
    first, which matches the fetch-once-per-round access pattern.
    """

    def __init__(self, budget_bytes: int | None = None):
        self._entries: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._budget = budget_bytes
        self.bytes_used = 0
        self.evictions = 0

    def __contains__(self, v: int) -> bool:
        return v in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def vertices(self) -> KeysView[int]:
        """Live read-only view of the cached ids (stays current as the
        cache changes); ``v in view`` skips :meth:`__contains__`'s call."""
        return self._entries.keys()

    @staticmethod
    def entry_bytes(adjacency: np.ndarray) -> int:
        """Simulated footprint of one cached adjacency list."""
        return (len(adjacency) + 1) * 8

    def put(self, v: int, adjacency: np.ndarray) -> int:
        """Insert an adjacency list; returns bytes evicted to make room."""
        if v in self._entries:
            return 0
        cost = self.entry_bytes(adjacency)
        evicted = 0
        if self._budget is not None:
            while self._entries and self.bytes_used + cost > self._budget:
                _, old = self._entries.popitem(last=False)
                released = self.entry_bytes(old)
                self.bytes_used -= released
                evicted += released
                self.evictions += 1
        self._entries[v] = adjacency
        self.bytes_used += cost
        return evicted

    def clear(self) -> int:
        """Drop everything; returns bytes released."""
        released = self.bytes_used
        self._entries.clear()
        self.bytes_used = 0
        return released
