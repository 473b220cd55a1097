"""Partitioned data-graph views: ownership, border vertices, border distance.

Storage model follows the paper exactly (Sec. 2): each machine stores the
adjacency lists of the vertices it *owns* plus a full ownership map
(one byte per vertex, built offline).  An edge resides on a machine iff at
least one endpoint is owned there, so an edge can reside on two machines.
A *border vertex* is an owned vertex with at least one foreign neighbour.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graph.graph import Graph


class MachinePartition:
    """The slice of the data graph owned by one machine ``M_t``."""

    def __init__(self, graph: Graph, owner: np.ndarray, machine_id: int):
        self._graph = graph
        self._owner = owner
        self._machine_id = machine_id
        self._owned = np.where(owner == machine_id)[0].astype(np.int64)
        self._owned_mask: list[bool] | None = None
        self._border: np.ndarray | None = None
        self._border_distance: dict[int, int] | None = None

    # ------------------------------------------------------------------
    @property
    def machine_id(self) -> int:
        """Index of this machine."""
        return self._machine_id

    @property
    def graph(self) -> Graph:
        """The full data graph (used only through owned adjacency)."""
        return self._graph

    @property
    def owned_vertices(self) -> np.ndarray:
        """Sorted array of vertices owned here."""
        return self._owned

    @property
    def owned_mask(self) -> list[bool]:
        """``owned_mask[v]`` is True iff ``v`` is owned here (built once).

        A plain list: the enumeration kernels test ownership per
        candidate, and indexing a list costs a fraction of a numpy
        scalar lookup.
        """
        if self._owned_mask is None:
            self._owned_mask = (self._owner == self._machine_id).tolist()
        return self._owned_mask

    def is_owned(self, v: int) -> bool:
        """True iff ``v`` resides on this machine."""
        return int(self._owner[v]) == self._machine_id

    def owner_of(self, v: int) -> int:
        """Ownership map lookup (available on every machine, Sec. 3.2)."""
        return int(self._owner[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Adjacency list of an *owned* vertex."""
        if not self.is_owned(v):
            raise KeyError(
                f"vertex {v} is foreign to machine {self._machine_id}"
            )
        return self._graph.neighbors(v)

    def degree(self, v: int) -> int:
        """Degree of an owned vertex."""
        if not self.is_owned(v):
            raise KeyError(
                f"vertex {v} is foreign to machine {self._machine_id}"
            )
        return self._graph.degree(v)

    # ------------------------------------------------------------------
    def can_verify_edge(self, u: int, v: int) -> bool:
        """True iff edge existence is decidable locally (an endpoint owned)."""
        return self.is_owned(u) or self.is_owned(v)

    def verify_edge(self, u: int, v: int) -> bool:
        """Local edge test (daemon `verifyE` handler uses this)."""
        if self.is_owned(u):
            return self._graph.has_edge(u, v)
        if self.is_owned(v):
            return self._graph.has_edge(v, u)
        raise KeyError(
            f"edge ({u},{v}) is undetermined on machine {self._machine_id}"
        )

    # ------------------------------------------------------------------
    @property
    def border_vertices(self) -> np.ndarray:
        """Owned vertices with at least one foreign neighbour (cached)."""
        if self._border is None:
            # Running count of foreign entries over the CSR index array:
            # a row has a foreign neighbour iff the count grows across it.
            foreign = np.concatenate(([0], np.cumsum(
                self._owner[self._graph.indices] != self._machine_id
            )))
            indptr, owned = self._graph.indptr, self._owned
            self._border = owned[foreign[indptr[owned + 1]] > foreign[indptr[owned]]]
        return self._border

    def border_distance(self, v: int) -> int:
        """Paper Def. 1: hop distance from ``v`` to the nearest border vertex.

        Distances are measured inside the local partition (only hops across
        owned vertices).  Vertices in partitions with no border at all (a
        fully interior component) get a large sentinel distance.
        """
        if self._border_distance is None:
            self._border_distance = self._compute_border_distances()
        return self._border_distance.get(int(v), _FAR)

    def _compute_border_distances(self) -> dict[int, int]:
        owned = self.owned_mask
        border = self.border_vertices.tolist()
        dist: dict[int, int] = dict.fromkeys(border, 0)
        queue: deque[int] = deque(border)
        while queue:
            v = queue.popleft()
            dv = dist[v] + 1
            for w in self._graph.neighbors(v).tolist():
                if owned[w] and w not in dist:
                    dist[w] = dv
                    queue.append(w)
        return dist

    def adjacency_bytes(self) -> int:
        """Bytes of adjacency data stored here (8 bytes per neighbour entry)."""
        degrees = self._graph.degrees()
        return int(degrees[self._owned].sum()) * 8


_FAR = 1 << 30


class GraphPartition:
    """A full partitioning ``{G_1 .. G_m}`` of a data graph."""

    def __init__(self, graph: Graph, owner: np.ndarray):
        owner = np.asarray(owner, dtype=np.int64)
        if len(owner) != graph.num_vertices:
            raise ValueError("owner array length mismatch")
        self._graph = graph
        self._owner = owner
        self._num_machines = int(owner.max()) + 1 if len(owner) else 0
        self._machines = [
            MachinePartition(graph, owner, t) for t in range(self._num_machines)
        ]

    @property
    def graph(self) -> Graph:
        """The underlying data graph."""
        return self._graph

    @property
    def num_machines(self) -> int:
        """Number of machines."""
        return self._num_machines

    @property
    def owner(self) -> np.ndarray:
        """The ownership map."""
        return self._owner

    def machine(self, t: int) -> MachinePartition:
        """The partition slice of machine ``t``."""
        return self._machines[t]

    def machines(self) -> list[MachinePartition]:
        """All machine slices."""
        return list(self._machines)

    def owner_of(self, v: int) -> int:
        """Machine owning vertex ``v``."""
        return int(self._owner[v])
