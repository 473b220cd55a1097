"""Backtracking subgraph enumeration over sorted adjacency.

The enumerator is deliberately generic: adjacency is any callable
``v -> sorted numpy array``, and an optional ``allowed`` predicate restricts
the data vertices that may be matched (RADS' SM-E passes "owned by this
machine" as an ownership-mask lookup).  Candidates are generated by
intersecting the adjacency of already-matched pattern neighbours, with
symmetry-breaking constraints applied as ``bisect`` cuts of the sorted
candidate list.

The kernel works on plain Python lists and sets.  The adjacency lists it
intersects hold a few to a few dozen ids, and at that size one numpy call
costs more than the whole intersection.  So each adjacency array is
converted with ``tolist()`` where it is used (no memo: a whole-graph
cache would cost more memory than it saves time), candidates are the
shortest list filtered by set membership, and bounds are ``bisect`` cuts.
The invariant is that candidate order and every operation charge equal
the sorted-array formulas: candidates come out ascending, each
intersection charges ``min(len(a), len(b))`` with the lists taken
shortest first, and each scan charges the candidate count after the
symmetry cuts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.query.pattern import Pattern
from repro.query.symmetry import constraint_map


@dataclass
class EnumerationStats:
    """Operation counters for cost accounting."""

    candidates_scanned: int = 0
    intersections: int = 0
    embeddings: int = 0
    recursive_calls: int = 0

    @property
    def total_ops(self) -> int:
        """Aggregate work units (fed to the simulated cost model)."""
        return (
            self.candidates_scanned
            + self.intersections
            + self.recursive_calls
        )


def compute_matching_order(
    pattern: Pattern,
    start: int | None = None,
    *,
    prefix: list[int] | None = None,
) -> list[int]:
    """Connectivity-preserving matching order.

    Starts from the highest-degree vertex (or ``start``), then repeatedly
    picks the vertex with the most already-ordered neighbours (ties by
    degree, then id) — the standard "most constrained first" heuristic.

    ``prefix`` forces the first vertices of the order (the streaming
    delta matcher pins a pattern edge's endpoints there so enumeration
    can be rooted at a touched data edge); each prefix vertex after the
    first must be adjacent to an earlier one, and the greedy heuristic
    fills in the rest.  ``start`` and ``prefix`` are mutually exclusive.
    """
    if prefix:
        if start is not None:
            raise ValueError("pass either start or prefix, not both")
        order = list(prefix)
        if len(set(order)) != len(order):
            raise ValueError("prefix repeats a pattern vertex")
        for i, u in enumerate(order):
            if u not in pattern.vertices():
                raise ValueError(f"prefix vertex {u} not in pattern")
            if i and not (pattern.adj(u) & set(order[:i])):
                raise ValueError(
                    f"prefix vertex {u} has no earlier pattern neighbour"
                )
    else:
        if start is None:
            start = max(
                pattern.vertices(), key=lambda u: (pattern.degree(u), -u)
            )
        order = [start]
    remaining = set(pattern.vertices()) - set(order)
    while remaining:
        placed = set(order)
        nxt = max(
            (u for u in remaining if pattern.adj(u) & placed),
            key=lambda u: (
                len(pattern.adj(u) & placed),
                pattern.degree(u),
                -u,
            ),
            default=None,
        )
        if nxt is None:
            raise ValueError("pattern is disconnected")
        order.append(nxt)
        remaining.discard(nxt)
    return order


@dataclass
class BacktrackingEnumerator:
    """Reusable enumerator bound to a pattern and an adjacency source."""

    pattern: Pattern
    adjacency: Callable[[int], np.ndarray]
    constraints: list[tuple[int, int]] = field(default_factory=list)
    order: list[int] | None = None
    allowed: Callable[[int], bool] | None = None
    stats: EnumerationStats = field(default_factory=EnumerationStats)

    def __post_init__(self) -> None:
        if self.order is None:
            self.order = compute_matching_order(self.pattern)
        if set(self.order) != set(self.pattern.vertices()):
            raise ValueError("order must cover all pattern vertices")
        self._position = {u: i for i, u in enumerate(self.order)}
        smaller, greater = constraint_map(
            self.constraints, self.pattern.num_vertices
        )
        # For each pattern vertex: constraint partners matched earlier.
        self._upper_partners: list[list[int]] = [[] for _ in self.order]
        self._lower_partners: list[list[int]] = [[] for _ in self.order]
        for u in self.pattern.vertices():
            pos_u = self._position[u]
            for v in smaller[u]:  # f(u) < f(v)
                if self._position[v] < pos_u:
                    self._upper_partners[pos_u].append(v)
                else:
                    self._lower_partners[self._position[v]].append(u)
        for u in self.pattern.vertices():
            pos_u = self._position[u]
            for v in greater[u]:  # f(v) < f(u)
                if self._position[v] < pos_u:
                    self._lower_partners[pos_u].append(v)
        self._min_degree = [self.pattern.degree(u) for u in self.order]
        # Backward pattern neighbours per position.
        self._backward: list[list[int]] = []
        for i, u in enumerate(self.order):
            self._backward.append(
                [w for w in self.pattern.adj(u) if self._position[w] < i]
            )

    # ------------------------------------------------------------------
    def candidates_for(
        self, position: int, mapping: Sequence[int]
    ) -> list[int]:
        """Ascending candidate list for the pattern vertex at ``position``.

        ``mapping[w]`` must hold the image of every pattern vertex ``w``
        placed before ``position`` in the matching order.  The backward
        neighbours' adjacency lists are intersected shortest first, each
        step charging ``min(len(a), len(b))``; symmetry-breaking bounds
        then cut the sorted result with ``bisect``.
        """
        backward = self._backward[position]
        if not backward:
            raise ValueError(
                "candidates_for requires at least one matched neighbour"
            )
        arrays = sorted([self.adjacency(mapping[w]) for w in backward], key=len)
        cands = arrays[0].tolist()
        for arr in arrays[1:]:
            self.stats.intersections += min(len(cands), len(arr))
            members = set(arr.tolist())
            cands = [x for x in cands if x in members]
            if not cands:
                return cands
        for w in self._lower_partners[position]:
            cands = cands[bisect_right(cands, mapping[w]):]
        for w in self._upper_partners[position]:
            cands = cands[:bisect_left(cands, mapping[w])]
        return cands

    def _searcher(
        self,
        mapping: list[int],
        used: set[int],
        limit: int | None,
    ) -> tuple[Callable[[int], Iterator[tuple[int, ...]]], list[int]]:
        """The recursive search over ``mapping``/``used``.

        Returns ``(extend, emitted)``: ``extend(position)`` yields every
        completion of the order prefix already in ``mapping``, and
        ``emitted[0]`` counts the embeddings it has yielded, so a caller
        looping over start vertices can honour ``limit`` too.
        """
        order = self.order
        n = len(order)
        stats = self.stats
        adjacency = self.adjacency
        allowed = self.allowed
        candidates_for = self.candidates_for
        min_degree = self._min_degree
        emitted = [0]

        def extend(position: int) -> Iterator[tuple[int, ...]]:
            stats.recursive_calls += 1
            u = order[position]
            cands = candidates_for(position, mapping)
            stats.candidates_scanned += len(cands)
            degree = min_degree[position]
            last = position + 1 == n
            for v in cands:
                if v in used:
                    continue
                if allowed is not None and not allowed(v):
                    continue
                if len(adjacency(v)) < degree:
                    continue
                mapping[u] = v
                if last:
                    stats.embeddings += 1
                    emitted[0] += 1
                    yield tuple(mapping)
                else:
                    used.add(v)
                    yield from extend(position + 1)
                    used.discard(v)
                if limit is not None and emitted[0] >= limit:
                    return

        return extend, emitted

    def run(
        self,
        start_candidates: Iterable[int],
        limit: int | None = None,
    ) -> Iterator[tuple[int, ...]]:
        """Yield embeddings as tuples ``emb[u] = v`` (indexed by vertex id).

        ``start_candidates`` are tried for ``order[0]``; they are validated
        against ``allowed`` and the degree filter.  (The first order
        vertex has no earlier symmetry partner, so no bound applies.)
        """
        n = self.pattern.num_vertices
        start_vertex = self.order[0]
        start_degree = self._min_degree[0]
        mapping = [-1] * n
        used: set[int] = set()
        extend, emitted = self._searcher(mapping, used, limit)
        for v0 in start_candidates:
            v0 = int(v0)
            if self.allowed is not None and not self.allowed(v0):
                continue
            self.stats.candidates_scanned += 1
            if len(self.adjacency(v0)) < start_degree:
                continue
            mapping[start_vertex] = v0
            used.add(v0)
            if n == 1:
                yield (v0,)
            else:
                yield from extend(1)
            used.discard(v0)
            if limit is not None and emitted[0] >= limit:
                return

    def run_seeded(
        self,
        seed: dict[int, int],
        limit: int | None = None,
    ) -> Iterator[tuple[int, ...]]:
        """Embeddings extending a pre-matched ``seed`` mapping.

        ``seed`` must map exactly the first ``len(seed)`` vertices of the
        matching order (build the order with ``prefix=`` to control which
        ones those are).  The seeded assignments are validated up front —
        injectivity, ``allowed``/degree filters, data edges for every
        pattern edge between seeded vertices, symmetry-breaking bounds —
        and on any violation the iterator is simply empty.  The streaming
        layer uses this to root enumeration at one touched data edge
        instead of scanning every start candidate.
        """
        pattern = self.pattern
        order = self.order
        n = pattern.num_vertices
        k = len(seed)
        if k == 0:
            raise ValueError("seed must map at least one pattern vertex")
        if set(order[:k]) != set(seed):
            raise ValueError(
                f"seed must cover the first {k} order vertices {order[:k]}"
            )
        if len(set(seed.values())) != k:
            return  # non-injective seed matches nothing
        for u, x in seed.items():
            if self.allowed is not None and not self.allowed(x):
                return
            if len(self.adjacency(x)) < pattern.degree(u):
                return
            position = self._position[u]
            for w in self._lower_partners[position]:
                if w in seed and seed[w] >= x:
                    return
            for w in self._upper_partners[position]:
                if w in seed and seed[w] <= x:
                    return
            for w in pattern.adj(u):
                if w in seed and self._position[w] < position:
                    if x not in self.adjacency(seed[w]).tolist():
                        return

        mapping = [-1] * n
        for u, x in seed.items():
            mapping[u] = x
        if k == n:
            self.stats.embeddings += 1
            yield tuple(mapping)
            return
        extend, _ = self._searcher(mapping, set(seed.values()), limit)
        yield from extend(k)


def enumerate_embeddings(
    adjacency: Callable[[int], np.ndarray],
    vertices: Iterable[int],
    pattern: Pattern,
    constraints: list[tuple[int, int]] | None = None,
    order: list[int] | None = None,
    allowed: Callable[[int], bool] | None = None,
    limit: int | None = None,
    stats: EnumerationStats | None = None,
) -> list[tuple[int, ...]]:
    """Convenience wrapper returning the embedding list.

    ``vertices`` supplies the start candidates for the first vertex of the
    matching order.
    """
    enumerator = BacktrackingEnumerator(
        pattern=pattern,
        adjacency=adjacency,
        constraints=constraints or [],
        order=order,
        allowed=allowed,
        stats=stats or EnumerationStats(),
    )
    return list(enumerator.run(vertices, limit=limit))
