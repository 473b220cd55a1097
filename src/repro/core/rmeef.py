"""R-Meef: region-grouped multi-round expand, verify & filter
(paper Sec. 3.2, Algorithms 1-2, Appendix B).

One :class:`RMeefWorker` runs on one *executor* machine.  It processes a
region group of start candidates through ``|PL|`` rounds; in round ``i`` the
embeddings of ``P_{i-1}`` (stored in the embedding trie) are expanded through
decomposition unit ``dp_i``:

- the adjacency lists of foreign pivots are batch-fetched (`fetchV`) and
  cached;
- candidates for each leaf come from intersecting the locally-known
  adjacency of already-matched neighbours;
- verification edges whose endpoints both lack local adjacency become
  *undetermined* and are registered in the edge-verification index;
- one `verifyE` batch per remote machine then filters failed embedding
  candidates out of the trie (cascade removal).

No intermediate results ever leave the executor machine.

The expansion kernel runs on plain Python lists and sets: adjacency lists
here hold tens of ids, where a numpy call costs more than the work it
does.  Ownership is one index into the partition's owned-vertex mask;
a known vertex's adjacency is converted once per worker into a sorted list
plus a membership set (read only after the ownership/cache test, so an
evicted foreign vertex is unknown again); intersections filter the shorter
list by the other's set and symmetry bounds are ``bisect`` cuts.

Candidate reuse across frontier leaves.  A position's candidate list
(pivot adjacency intersected with the known refine adjacencies, the
symmetry cuts, the deferred images and the op charge of all that) depends
only on the images of the pivot, the refine positions and the bound
positions, and on which of them are known here.  In rounds >= 1 the
frontier is walked in trie order, so a *run* of consecutive leaves with
equal images at those positions (typically siblings, which differ only in
the last vertex matched) computes the list once, in
:meth:`RMeefWorker._candidates`, and every leaf of the run reuses it.
Siblings also share the walk up the parent chain: only the last mapped
vertex is reset.  Each leaf still pays the list's op charge, walks the
candidates in the same ascending order against its own ``used`` set, pays
its own deferred-edge checks and registers its own undetermined edges; a
leaf whose shared list is empty is charged and removed without expanding.

Why known-ness cannot change within a run: after a round's batch
`fetchV`, the only fetch is the on-demand pivot re-fetch in
:meth:`RMeefWorker._candidates`, and all leaves of a run share the pivot,
so nothing is fetched (or evicted) between a run's first computation and
the next change of key.  ``verifyE`` flushes and result emission touch the
trie only, never the cache.

The invariant is that candidate order and every op charge equal the
per-leaf sorted-array formulas (``min(len(a), len(b))`` per intersection,
the candidate count per scan, one per locally decided deferred edge, one
per trie node created or released), and that trie bytes reach the
simulated machine at the same nodes: the per-node 16 KiB flush test is
kept (inlined in the hot loops), and the op total at every flush, where a
simulated OOM can cut a group short, is the per-leaf code's.  So
``rmeef_ops``, trie bytes, fetch/verifyE RPCs and cache evictions, the ops
charged when a group OOM-splits, and with them the simulated makespan,
communication and peak memory, are unchanged.

Region groups are independent units of work: under the serial backend the
RADS scheduler interleaves workers by virtual clock, while under the
process backend (:mod:`repro.runtime`) each worker is constructed inside
an OS worker process against a shared-memory replica of the cluster and
drains one machine's whole queue; either way the per-group computation —
and therefore the embedding count — is identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine, SimulatedMemoryError
from repro.core.cache import ForeignVertexCache
from repro.core.embedding_trie import NODE_BYTES, EmbeddingTrie, TrieNode
from repro.core.evi import EdgeVerificationIndex
from repro.query.pattern import Pattern
from repro.query.plan import ExecutionPlan
from repro.query.symmetry import constraint_map


@dataclass
class _PositionInfo:
    """Static per-matching-order-position expansion metadata."""

    vertex: int
    unit_index: int
    pivot_position: int
    # Earlier positions adjacent in the pattern (excluding the pivot).
    refine_positions: list[int]
    # Symmetry breaking: f(here) must be greater than these positions' images.
    lower_positions: list[int]
    # ... and smaller than these.
    upper_positions: list[int]
    min_degree: int


class RMeefWorker:
    """Executes region groups of query ``pattern`` on machine ``executor``."""

    def __init__(
        self,
        cluster: Cluster,
        pattern: Pattern,
        plan: ExecutionPlan,
        constraints: list[tuple[int, int]],
        executor_id: int,
        cache: ForeignVertexCache,
        flush_threshold: float = 4 * 1024 * 1024,
    ):
        self._flush_threshold = flush_threshold
        self._cluster = cluster
        self._pattern = pattern
        self._plan = plan
        self._executor_id = executor_id
        self._machine: Machine = cluster.machine(executor_id)
        self._local = cluster.partition.machine(executor_id)
        self._cache = cache
        self._cached = cache.vertices()
        self._order = plan.matching_order()
        self._position = {u: q for q, u in enumerate(self._order)}
        self._prefix_len = [
            len(plan.subpattern_vertices(i)) for i in range(plan.num_rounds)
        ]
        self._info = self._build_position_info(constraints)
        self._graph = cluster.graph
        self._owned = self._local.owned_mask
        self._degree = self._graph.degrees().tolist()
        self._memo: dict[int, tuple[list[int], set[int]]] = {}
        # Mutable per-round state.
        self._ops = 0
        # The group trie's live bytes are `_trie_flushed` (charged to the
        # machine) plus `_trie_delta` (buffered, not yet charged).
        self._trie_flushed = 0
        self._trie_delta = 0
        self.embeddings_found = 0
        self.last_group_count = 0

    # ------------------------------------------------------------------
    # Static plan analysis
    # ------------------------------------------------------------------
    def _build_position_info(
        self, constraints: list[tuple[int, int]]
    ) -> list[_PositionInfo]:
        pattern, plan = self._pattern, self._plan
        smaller, greater = constraint_map(constraints, pattern.num_vertices)
        unit_of: dict[int, int] = {}
        for i, unit in enumerate(plan.units):
            for leaf in unit.leaves:
                unit_of[leaf] = i
        infos: list[_PositionInfo] = []
        for q, u in enumerate(self._order):
            if q == 0:
                infos.append(
                    _PositionInfo(u, 0, -1, [], [], [], pattern.degree(u))
                )
                continue
            unit_index = unit_of[u]
            pivot = plan.units[unit_index].pivot
            pivot_position = self._position[pivot]
            refine = [
                self._position[w]
                for w in pattern.adj(u)
                if self._position[w] < q and w != pivot
            ]
            lower = [
                self._position[w] for w in greater[u] if self._position[w] < q
            ]
            upper = [
                self._position[w] for w in smaller[u] if self._position[w] < q
            ]
            # Constraints whose partner comes later are handled at the
            # partner's position.
            infos.append(
                _PositionInfo(
                    u, unit_index, pivot_position, sorted(refine),
                    lower, upper, pattern.degree(u),
                )
            )
        return infos

    # ------------------------------------------------------------------
    # Adjacency access (owned / cached / fetch)
    # ------------------------------------------------------------------
    def _adjacency(self, v: int) -> tuple[list[int], set[int]] | None:
        """``(sorted neighbours, neighbour set)`` if known here, else None.

        Conversions are memoised for the worker's lifetime, but the memo
        is only consulted after the ownership/cache test, so a foreign
        vertex the cache has evicted reads as unknown, as the paper's
        executor would see it.
        """
        if not (self._owned[v] or v in self._cached):
            return None
        entry = self._memo.get(v)
        if entry is None:
            neighbours = self._graph.neighbors(v).tolist()
            entry = self._memo[v] = (neighbours, set(neighbours))
        return entry

    def _fetch_vertices(self, vertices: list[int]) -> None:
        """Batched `fetchV`: one request per remote owner machine."""
        owned, cache = self._owned, self._cached
        need = [v for v in vertices if not (owned[v] or v in cache)]
        if not need:
            return
        by_owner: dict[int, list[int]] = defaultdict(list)
        for v in need:
            by_owner[self._cluster.partition.owner_of(v)].append(v)
        graph = self._cluster.graph
        model = self._cluster.cost_model
        for owner, verts in sorted(by_owner.items()):
            response_bytes = sum(
                model.adjacency_bytes(graph.degree(v)) for v in verts
            )
            self._cluster.network.rpc(
                requester=self._machine,
                responder=self._cluster.machine(owner),
                request_bytes=len(verts) * model.bytes_per_vertex_id,
                response_bytes=response_bytes,
                service_ops=float(len(verts)),
            )
            for v in verts:
                adjacency = graph.neighbors(v)
                evicted = self._cache.put(v, adjacency)
                if evicted:
                    self._machine.free(evicted)
                self._machine.allocate(
                    ForeignVertexCache.entry_bytes(adjacency), "cache_bytes"
                )

    #: Allocation buffering granularity: per-node accounting calls would
    #: dominate the Python hot loop, so deltas are flushed to the simulated
    #: machine in 16 KiB steps (OOM detection is delayed by at most that).
    _FLUSH_BYTES = 16384

    def _count_nodes(self, nodes: int) -> None:
        """Account ``nodes`` trie nodes created (> 0) or released (< 0).

        Trie maintenance is real work the SM-E path does not pay: one op
        per node created or released.  The hot loops inline this: node
        creation in :meth:`_expand_unit`, frontier-leaf release in
        :meth:`_process_group`.
        """
        self._ops += abs(nodes)
        self._trie_delta += nodes * NODE_BYTES
        # The buffer stays strictly within +-16 KiB between calls, so a
        # creation can only cross the upper bound and a release the lower.
        if not -self._FLUSH_BYTES < self._trie_delta < self._FLUSH_BYTES:
            self._flush_trie_delta()

    def _flush_trie_delta(self) -> None:
        if self._trie_delta > 0:
            self._machine.allocate(self._trie_delta, "trie_bytes")
        elif self._trie_delta < 0:
            self._machine.free(-self._trie_delta)
        self._trie_flushed += self._trie_delta
        self._trie_delta = 0

    # ------------------------------------------------------------------
    # Group processing
    # ------------------------------------------------------------------
    def process_group(
        self, group: list[int], collect: bool = True
    ) -> list[tuple[int, ...]]:
        """Run all rounds for one region group; returns final embeddings.

        On simulated OOM the group's trie memory is rolled back before the
        exception propagates, so the engine can split the group and retry
        (``self.last_group_count`` reports the embeddings of the last
        *successful* group, for count-only runs).
        """
        try:
            return self._process_group(group, collect)
        except SimulatedMemoryError:
            # Only the flushed bytes were charged to the machine (the rest
            # sits in the buffer, or failed to allocate).
            self._machine.free(self._trie_flushed)
            self._trie_flushed = 0
            self._trie_delta = 0
            self._machine.charge_ops(self._ops, "rmeef_ops")
            self._ops = 0
            raise

    def _process_group(
        self, group: list[int], collect: bool
    ) -> list[tuple[int, ...]]:
        trie = EmbeddingTrie()
        self._trie_flushed = 0
        threshold = self._flush_threshold
        results: list[tuple[int, ...]] = []
        emitted = 0

        def emit(leaves: list[TrieNode]) -> None:
            """Stream verified final-round results out of the trie.

            Final embeddings are *output*, not intermediate state, so they
            are converted and their trie nodes freed immediately — this is
            what keeps the per-group peak within the region-group budget.
            """
            nonlocal emitted
            n = self._pattern.num_vertices
            for leaf in leaves:
                if collect:
                    emb = [0] * n
                    for q, v in enumerate(leaf.path()):
                        emb[self._order[q]] = v
                    results.append(tuple(emb))
                emitted += 1
                self._count_nodes(-trie.remove_leaf(leaf))

        num_rounds = self._plan.num_rounds
        mapping: list[int] = [-1] * self._pattern.num_vertices
        owned, cache = self._owned, self._cached
        # Round 0: start candidates (foreign when the group was stolen).
        self._fetch_vertices(list(group))
        final = num_rounds == 1
        frontier: list[TrieNode] = []
        evi = EdgeVerificationIndex()
        min_degree = self._info[0].min_degree
        for v in sorted(group):
            if not (owned[v] or v in cache):
                # The batch fetch above may have been evicted already on a
                # memory-starved cache (or the group was stolen): re-fetch
                # rather than silently dropping the candidate.
                self._fetch_vertices([v])
            self._ops += 1
            if not (owned[v] or v in cache) or self._degree[v] < min_degree:
                continue
            root = trie.add_root(v)
            self._count_nodes(1)
            mapping[0] = v
            self._expand_unit(
                trie, evi, 0, root, 1, mapping, {v}, frontier,
                *self._candidates(1, mapping),
            )
            if root.child_count == 0:
                self._count_nodes(-trie.remove_leaf(root))
            if final and self._trie_flushed + self._trie_delta > threshold:
                emit(self._verify_and_filter(trie, evi, frontier))
                frontier = []
                evi = EdgeVerificationIndex()
        frontier = self._verify_and_filter(trie, evi, frontier)
        if final:
            emit(frontier)
        # Rounds 1..l.
        for i in range(1, num_rounds):
            final = i == num_rounds - 1
            evi = EdgeVerificationIndex()
            start = self._prefix_len[i - 1]
            last = start - 1  # frontier depth (>= 1: unit 0 has a leaf)
            info = self._info[start]
            # Read each pivot image off the frontier's parent chains, once
            # per family of siblings unless the pivot is the leaf itself.
            if info.pivot_position == last:
                pivots = {leaf.v for leaf in frontier}
            else:
                pivots = set()
                parent = None
                for leaf in frontier:
                    if leaf.parent is not parent:
                        parent = node = leaf.parent
                        for _ in range(last - 1 - info.pivot_position):
                            node = node.parent
                        pivots.add(node.v)
            self._fetch_vertices(sorted(pivots))
            # Everything position `start`'s candidates depend on.
            key_of = itemgetter(
                info.pivot_position, *info.refine_positions,
                *info.lower_positions, *info.upper_positions,
            )
            key = parent = shared = None
            used: set[int] = set()
            next_frontier: list[TrieNode] = []
            flush_bytes = self._FLUSH_BYTES
            for leaf in frontier:
                if leaf.parent is not parent:
                    # Siblings differ only in the last mapped vertex: walk
                    # the parent chain once per family.
                    parent = node = leaf.parent
                    q = last - 1
                    while node is not None:
                        mapping[q] = node.v
                        node, q = node.parent, q - 1
                    used = set(mapping[:last])
                mapping[last] = leaf.v
                leaf_key = key_of(mapping)
                if leaf_key != key:
                    key = leaf_key
                    shared = self._candidates(start, mapping)
                ops, entries = shared
                if entries:
                    used.add(leaf.v)
                    self._expand_unit(
                        trie, evi, i, leaf, start, mapping, used,
                        next_frontier, ops, entries,
                    )
                    used.discard(leaf.v)
                else:
                    self._ops += ops
                if leaf.child_count == 0:
                    removed = trie.remove_leaf(leaf)
                    self._ops += removed
                    self._trie_delta -= removed * NODE_BYTES
                    if self._trie_delta <= -flush_bytes:
                        self._flush_trie_delta()
                if final and self._trie_flushed + self._trie_delta > threshold:
                    emit(self._verify_and_filter(trie, evi, next_frontier))
                    next_frontier = []
                    evi = EdgeVerificationIndex()
            frontier = self._verify_and_filter(trie, evi, next_frontier)
            if final:
                emit(frontier)
        self._machine.charge_ops(self._ops, "rmeef_ops")
        self._ops = 0
        self.embeddings_found += emitted
        self.last_group_count = emitted
        self._count_nodes(-trie.num_nodes)
        self._flush_trie_delta()
        return results

    # ------------------------------------------------------------------
    def _candidates(
        self, position: int, mapping: list[int]
    ) -> tuple[int, list[tuple[int, int, tuple | None]]]:
        """Candidates for matching-order ``position`` under ``mapping``.

        Returns ``(ops, entries)``: the op charge of the intersection and
        the scan, and one ``(v, checks, edges)`` entry per candidate in
        ascending order.  ``checks`` is the op charge of testing ``v``'s
        edges to the deferred images locally; ``edges`` is None if such a
        test failed, else the undetermined edges to register for ``v``.
        Candidates whose known degree is too small are dropped (they cost
        nothing).  Nothing here depends on the partial embedding's
        ``used`` set, which the caller applies per leaf.
        """
        info = self._info[position]
        pivot_value = mapping[info.pivot_position]
        pivot = self._adjacency(pivot_value)
        if pivot is None:
            # Batched at round start, but a tiny cache may have evicted the
            # entry before use — re-fetch on demand (extra RPC, as a real
            # cache-starved machine would pay).
            self._fetch_vertices([pivot_value])
            pivot = self._adjacency(pivot_value)
        if pivot is None:  # pragma: no cover - fetch always caches one
            raise AssertionError("pivot adjacency must be known")
        candidates, candidate_set = pivot
        ops = 0
        # Images of earlier neighbours whose adjacency is unknown here:
        # each candidate's edge to them is checked (or deferred) below.
        deferred: list[int] = []
        for p in info.refine_positions:
            w = mapping[p]
            other = self._adjacency(w)
            if other is None:
                deferred.append(w)
                continue
            other_list, other_set = other
            ops += min(len(candidates), len(other_list))
            # Filter whichever side is shorter against the other's set;
            # both lists are ascending, so the result is too.
            if candidate_set is not None and len(other_list) < len(candidates):
                candidates = [x for x in other_list if x in candidate_set]
            else:
                candidates = [x for x in candidates if x in other_set]
            candidate_set = None
            if not candidates:
                return ops, []
        if info.lower_positions:
            lo = max([mapping[p] for p in info.lower_positions])
            candidates = candidates[bisect_right(candidates, lo):]
        if info.upper_positions:
            hi = min([mapping[p] for p in info.upper_positions])
            candidates = candidates[:bisect_left(candidates, hi)]
        ops += len(candidates)
        owned, cache, degree = self._owned, self._cached, self._degree
        min_degree = info.min_degree
        if not deferred:
            return ops, [
                (v, 0, ()) for v in candidates
                if degree[v] >= min_degree or not (owned[v] or v in cache)
            ]
        entries: list[tuple[int, int, tuple | None]] = []
        for v in candidates:
            known = owned[v] or v in cache
            if known and degree[v] < min_degree:
                continue
            if not known:
                entries.append((v, 0, tuple([(v, w) for w in deferred])))
            else:
                members = self._adjacency(v)[1]
                checks = 0
                for w in deferred:
                    checks += 1
                    if w not in members:
                        entries.append((v, checks, None))
                        break
                else:
                    entries.append((v, checks, ()))
        return ops, entries

    def _expand_unit(
        self,
        trie: EmbeddingTrie,
        evi: EdgeVerificationIndex,
        unit_index: int,
        node: TrieNode,
        position: int,
        mapping: list[int],
        used: set[int],
        out: list[TrieNode],
        ops: int,
        entries: list[tuple[int, int, tuple | None]],
        pending: tuple = (),
    ) -> None:
        """Recursive leaf matching for unit ``unit_index`` (Algorithm 2).

        ``ops``/``entries`` are position ``position``'s candidates from
        :meth:`_candidates`, possibly shared with other frontier leaves;
        ``used`` holds ``node``'s own partial embedding.  ``pending``
        carries the undetermined edges accumulated along the current
        partial path; they are registered against the completed EC's leaf
        node.  Deeper positions of the unit are computed per child.
        """
        self._ops += ops
        at_end = position + 1 == self._prefix_len[unit_index]
        flush_bytes = self._FLUSH_BYTES
        for v, checks, edges in entries:
            if v in used:
                continue
            if edges is None:
                self._ops += checks
                continue
            child = trie.add_child(node, v)
            self._ops += checks + 1
            self._trie_delta += NODE_BYTES
            if self._trie_delta >= flush_bytes:
                self._flush_trie_delta()
            if at_end:
                if pending or edges:
                    for edge in pending + edges:
                        evi.add(edge, child)
                out.append(child)
                continue
            mapping[position] = v
            deeper_ops, deeper = self._candidates(position + 1, mapping)
            if deeper:
                used.add(v)
                self._expand_unit(
                    trie, evi, unit_index, child, position + 1, mapping,
                    used, out, deeper_ops, deeper, pending + edges,
                )
                used.discard(v)
            else:
                self._ops += deeper_ops
            if child.child_count == 0:
                # Non-cascading: `node` is still being extended.
                self._count_nodes(-trie.detach_childless(child))

    # ------------------------------------------------------------------
    def _verify_and_filter(
        self,
        trie: EmbeddingTrie,
        evi: EdgeVerificationIndex,
        frontier: list[TrieNode],
    ) -> list[TrieNode]:
        """Batch `verifyE` per remote machine; drop failed ECs (Prop. 2)."""
        if len(evi) == 0:
            return frontier
        failed: list[tuple[int, int]] = []
        model = self._cluster.cost_model
        groups = evi.group_by_machine(self._cluster.partition.owner_of)
        for owner, edges in sorted(groups.items()):
            self._cluster.network.rpc(
                requester=self._machine,
                responder=self._cluster.machine(owner),
                request_bytes=len(edges) * 2 * model.bytes_per_vertex_id,
                response_bytes=len(edges),
                service_ops=2.0 * len(edges),
            )
            graph = self._cluster.graph
            failed.extend(
                edge for edge in edges if not graph.has_edge(*edge)
            )
        dead = evi.failed_leaves(failed)
        dead_ids = {id(n) for n in dead}
        for leaf in dead:
            self._count_nodes(-trie.remove_leaf(leaf))
        if not dead_ids:
            return frontier
        return [n for n in frontier if id(n) not in dead_ids]
