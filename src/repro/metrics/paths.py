"""Shortest-path metrics over topologies.

Path lengths are measured in switch-to-switch hops (link capacities do not
affect distance), matching the paper's ``<D>`` and the Cerf et al. bound it
is compared against. Includes a self-contained Yen's algorithm for the
k-shortest simple paths used by the path-restricted LP and the MPTCP
simulator.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterator

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix
from repro.util.validation import check_positive_int


def shortest_path_lengths_from(topo: Topology, source) -> dict:
    """Hop distances from ``source`` to every reachable switch (BFS)."""
    if source not in topo:
        raise TopologyError(f"switch {source!r} does not exist")
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in topo.neighbors(node):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                frontier.append(neighbor)
    return dist


def all_pairs_shortest_lengths(topo: Topology) -> dict:
    """Mapping node -> {node -> hop distance} over reachable pairs."""
    return {v: shortest_path_lengths_from(topo, v) for v in topo.switches}


def average_shortest_path_length(topo: Topology) -> float:
    """ASPL over all ordered pairs of distinct switches (the paper's ``<D>``).

    Raises :class:`TopologyError` on disconnected or single-switch networks,
    where the quantity is undefined.
    """
    nodes = topo.switches
    if len(nodes) < 2:
        raise TopologyError("ASPL is undefined for fewer than 2 switches")
    total = 0
    count = 0
    for source in nodes:
        dist = shortest_path_lengths_from(topo, source)
        if len(dist) != len(nodes):
            raise TopologyError(
                f"topology {topo.name!r} is disconnected; ASPL undefined"
            )
        total += sum(dist.values())
        count += len(nodes) - 1
    return total / count


def diameter(topo: Topology) -> int:
    """Longest shortest-path distance between any switch pair."""
    nodes = topo.switches
    if len(nodes) < 2:
        raise TopologyError("diameter is undefined for fewer than 2 switches")
    worst = 0
    for source in nodes:
        dist = shortest_path_lengths_from(topo, source)
        if len(dist) != len(nodes):
            raise TopologyError(
                f"topology {topo.name!r} is disconnected; diameter undefined"
            )
        worst = max(worst, max(dist.values()))
    return worst


def path_length_histogram(topo: Topology) -> dict[int, int]:
    """Mapping hop distance -> number of ordered switch pairs at it."""
    hist: dict[int, int] = {}
    for source in topo.switches:
        dist = shortest_path_lengths_from(topo, source)
        for node, d in dist.items():
            if node == source:
                continue
            hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))


def demand_weighted_aspl(topo: Topology, traffic: TrafficMatrix) -> float:
    """Average hop distance across demand pairs, weighted by demand units.

    This is the ``<D>`` that enters the throughput decomposition for a
    concrete workload; for uniform workloads over evenly spread servers it
    coincides with the unweighted ASPL up to sampling noise.
    """
    if not traffic.demands:
        raise TopologyError("traffic matrix has no network demands")
    by_source: dict = {}
    for (u, v), units in traffic.demands.items():
        by_source.setdefault(u, []).append((v, units))
    weighted = 0.0
    total_units = 0.0
    for source, dests in by_source.items():
        dist = shortest_path_lengths_from(topo, source)
        for v, units in dests:
            if v not in dist:
                raise TopologyError(
                    f"demand {source!r}->{v!r} has no path in {topo.name!r}"
                )
            weighted += units * dist[v]
            total_units += units
    return weighted / total_units


def demand_hop_sum(
    topo: Topology,
    traffic: TrafficMatrix,
    chunk_size: int = 512,
    max_sources: "int | None" = None,
    seed: int = 0,
) -> float:
    """Sum over demands of ``units * hop_distance(u, v)``, at scale.

    This is the denominator of the capacity-charging throughput bound
    (each delivered unit consumes at least its shortest-path hops of
    capacity) and equals ``demand_weighted_aspl * total_demand``. Unlike
    the pure-python BFS in :func:`demand_weighted_aspl`, distances come
    from a bit-parallel multi-source BFS over the CSR adjacency: each
    batch of ``chunk_size`` sources is packed 64 to a ``uint64`` word
    and advanced one level per pass over the edges, and hop counts are
    read only at the batch's demand pairs, never as N-wide distance
    rows. ``chunk_size`` bounds the level buffer at
    ``nnz * ceil(chunk_size / 64) * 8`` bytes. Pairs are summed source
    by source (sources ordered by ``repr``), destinations in demand
    order, so the result is bit-identical to a per-source
    ``scipy.sparse.csgraph`` BFS summed the same way (the reference of
    ``tests/test_differential_hop_sum.py``). Raises
    :class:`TopologyError` on an unroutable demand, naming the first
    such pair in that order.

    ``max_sources`` caps the number of BFS roots: when set below the
    number of distinct demand sources, that many sources are drawn
    uniformly without replacement (deterministic in ``seed``) and the
    sampled hop sum is scaled by ``num_sources / max_sources`` — the
    Horvitz-Thompson estimator, unbiased over the sampling draw. This is
    what takes the bound estimator to N = 100,000, where exact all-source
    BFS costs hours: ~256 sampled sources pin a permutation workload's
    hop sum to well under a percent. Unroutable demands are only detected
    at sampled sources in this mode.
    """
    if not traffic.demands:
        raise TopologyError("traffic matrix has no network demands")
    check_positive_int(chunk_size, "chunk_size")
    if max_sources is not None:
        check_positive_int(max_sources, "max_sources")
    import numpy as np

    nodes = topo.switches
    index = {node: i for i, node in enumerate(nodes)}
    by_source: dict = {}
    for (u, v), units in traffic.demands.items():
        for node in (u, v):
            if node not in index:
                raise TopologyError(f"demand endpoint {node!r} is not a switch")
        by_source.setdefault(u, []).append((index[v], units))
    from repro.estimate.batch import active_artifacts

    store = active_artifacts()
    if store is not None:
        # Same matrix the direct build produces, shared across the batch's
        # backends.
        adjacency = store.csr_adjacency(topo)
    else:
        adjacency = topo.csr_adjacency()
    sources = sorted(by_source, key=repr)
    scale = 1.0
    if max_sources is not None and max_sources < len(sources):
        rng = np.random.default_rng(seed)
        picks = np.sort(
            rng.choice(len(sources), size=max_sources, replace=False)
        )
        scale = len(sources) / max_sources
        sources = [sources[i] for i in picks]
    # The kernel pulls each node's frontier from its in-neighbours, which
    # are the rows of the transpose: the same direction csgraph follows.
    in_edges = adjacency.T.tocsr()
    total = 0.0
    for start in range(0, len(sources), chunk_size):
        batch = sources[start : start + chunk_size]
        pair_source: list = []
        pair_dest: list = []
        pair_units: list = []
        for offset, source in enumerate(batch):
            for dest_row, units in by_source[source]:
                pair_source.append(offset)
                pair_dest.append(dest_row)
                pair_units.append(units)
        hops = _batch_pair_hops(
            in_edges,
            np.fromiter((index[u] for u in batch), np.int64, len(batch)),
            np.asarray(pair_source, dtype=np.int64),
            np.asarray(pair_dest, dtype=np.int64),
        )
        unreachable = np.flatnonzero(hops < 0)
        if unreachable.size:
            first = int(unreachable[0])
            raise TopologyError(
                f"demand {batch[pair_source[first]]!r}->"
                f"{nodes[pair_dest[first]]!r} has no path in {topo.name!r}"
            )
        for units, pair_hops in zip(pair_units, hops.tolist()):
            total += units * float(pair_hops)
    return total * scale


def _batch_pair_hops(in_edges, source_rows, pair_source, pair_dest):
    """Hop distance of each demand pair of one source batch (-1: no path).

    Bit-parallel multi-source BFS: bit ``j`` of the ``uint64`` word
    ``j // 64`` in a node's row stands for batch source ``j``. Each level
    ORs the frontier rows of every node's in-neighbours (the rows of
    ``in_edges``, CSR) and masks out bits already visited, so one pass
    over the edges advances all sources at once. Pair ``p`` — batch
    source ``pair_source[p]`` to node ``pair_dest[p]`` — is read only on
    the level its bit first reaches the destination, and the search
    stops once every pair is resolved or the frontier empties. The level
    gather holds ``nnz * ceil(len(source_rows) / 64)`` words.
    """
    import numpy as np

    num_nodes = in_edges.shape[0]
    words = -(-len(source_rows) // 64)
    bit = np.arange(len(source_rows))
    frontier = np.zeros((num_nodes, words), dtype=np.uint64)
    frontier[source_rows, bit >> 6] = np.left_shift(
        np.uint64(1), (bit & 63).astype(np.uint64)
    )
    visited = frontier.copy()
    pair_word = pair_source >> 6
    pair_bit = np.left_shift(np.uint64(1), (pair_source & 63).astype(np.uint64))
    # ``reduceat`` mis-reads empty segments (it returns the next element,
    # and raises on an index equal to nnz), so only rows with in-edges
    # are reduced; the rest can never be reached past level 0.
    degree = np.diff(in_edges.indptr)
    reduced_rows = np.flatnonzero(degree)
    starts = in_edges.indptr[reduced_rows]
    all_rows_reduced = reduced_rows.size == num_nodes
    hops = np.full(len(pair_dest), -1, dtype=np.int64)
    pending = np.arange(len(pair_dest))
    level = 0
    while pending.size:
        hit = (
            frontier[pair_dest[pending], pair_word[pending]] & pair_bit[pending]
        ) != 0
        hops[pending[hit]] = level
        pending = pending[~hit]
        if not pending.size:
            break
        reached = np.bitwise_or.reduceat(
            frontier[in_edges.indices], starts, axis=0
        )
        if all_rows_reduced:
            frontier = reached
        else:
            frontier = np.zeros_like(visited)
            frontier[reduced_rows] = reached
        frontier &= ~visited
        if not frontier.any():
            break
        visited |= frontier
        level += 1
    return hops


class DemandHopTracker:
    """Incrementally-maintained :func:`demand_hop_sum` for demand deltas.

    Built once per topology, the tracker caches each demand source's BFS
    distance row (distances depend only on the topology, which replay
    holds fixed) and its per-source hop-sum contribution. Applying a
    :class:`~repro.traffic.timeline.DemandDelta` re-prices **only the
    touched sources** — an O(changed pairs) dictionary update per source
    already priced, one BFS for a source never seen — so
    ``estimate_bound`` re-prices a timestep without the all-source sweep.

    Exact (no ``max_sources`` sampling): replay compares steps against
    each other, where sampling noise would swamp small deltas.
    """

    def __init__(
        self,
        topo: Topology,
        traffic: TrafficMatrix,
        chunk_size: int = 512,
    ) -> None:
        if not traffic.demands:
            raise TopologyError("traffic matrix has no network demands")
        check_positive_int(chunk_size, "chunk_size")
        self._topo = topo
        self._nodes = topo.switches
        self._index = {node: i for i, node in enumerate(self._nodes)}
        self._chunk_size = chunk_size
        from repro.estimate.batch import active_artifacts

        store = active_artifacts()
        if store is not None:
            self._adjacency = store.csr_adjacency(topo)
        else:
            self._adjacency = topo.csr_adjacency()
        self._by_source: dict = {}
        for (u, v), units in traffic.demands.items():
            for node in (u, v):
                if node not in self._index:
                    raise TopologyError(
                        f"demand endpoint {node!r} is not a switch"
                    )
            self._by_source.setdefault(u, {})[v] = units
        self._dist_rows: dict = {}
        self._source_sums: dict = {}
        self.num_repriced = 0
        self._price_sources(sorted(self._by_source, key=repr))
        self.total = float(sum(self._source_sums.values()))

    # ------------------------------------------------------------------
    def _price_sources(self, sources: list) -> None:
        """(Re)compute hop-sum contributions for ``sources``."""
        import numpy as np
        from scipy.sparse import csgraph

        missing = [u for u in sources if u not in self._dist_rows]
        for start in range(0, len(missing), self._chunk_size):
            batch = missing[start : start + self._chunk_size]
            rows = np.fromiter(
                (self._index[u] for u in batch),
                dtype=np.int64,
                count=len(batch),
            )
            distances = csgraph.dijkstra(
                self._adjacency, unweighted=True, indices=rows
            )
            for offset, source in enumerate(batch):
                self._dist_rows[source] = distances[offset]
        import math

        for source in sources:
            row = self._dist_rows[source]
            dests = self._by_source.get(source, {})
            subtotal = 0.0
            for v, units in dests.items():
                hops = float(row[self._index[v]])
                if not math.isfinite(hops):
                    raise TopologyError(
                        f"demand {source!r}->{v!r} has no path in "
                        f"{self._topo.name!r}"
                    )
                subtotal += units * hops
            self._source_sums[source] = subtotal
            self.num_repriced += 1

    def apply_delta(self, delta) -> float:
        """Fold a delta in; returns the new total hop sum.

        Raises :class:`TopologyError` on unknown endpoints or a pair
        driven negative, leaving the tracker untouched in that case.
        """
        from repro.traffic.timeline import ZERO_DEMAND_TOLERANCE

        pending: dict = {}
        for (u, v), units in delta.changes:
            for node in (u, v):
                if node not in self._index:
                    raise TopologyError(
                        f"delta endpoint {node!r} is not a switch"
                    )
            current = pending.get((u, v))
            if current is None:
                current = self._by_source.get(u, {}).get(v, 0.0)
            new_units = current + units
            if new_units < -ZERO_DEMAND_TOLERANCE:
                raise TopologyError(
                    f"delta {delta.label!r} drives demand for ({u!r}, {v!r}) "
                    f"negative ({new_units})"
                )
            pending[(u, v)] = new_units
        touched: dict = {}
        for (u, v), new_units in pending.items():
            dests = self._by_source.setdefault(u, {})
            if abs(new_units) <= ZERO_DEMAND_TOLERANCE:
                dests.pop(v, None)
            else:
                dests[v] = new_units
            touched.setdefault(u, None)
        self._price_sources(sorted(touched, key=repr))
        for u in list(touched):
            if not self._by_source.get(u):
                self._by_source.pop(u, None)
        self.total = float(sum(self._source_sums.values()))
        return self.total


# ----------------------------------------------------------------------
# Path enumeration
# ----------------------------------------------------------------------
def _bfs_path(adjacency: dict, source, target, banned_nodes: set, banned_edges: set):
    """Shortest path avoiding banned nodes/edges; None if unreachable."""
    if source == target:
        return [source]
    parent = {source: None}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in adjacency[node]:
            if neighbor in parent or neighbor in banned_nodes:
                continue
            if (node, neighbor) in banned_edges:
                continue
            parent[neighbor] = node
            if neighbor == target:
                path = [neighbor]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            frontier.append(neighbor)
    return None


def k_shortest_paths(topo: Topology, source, target, k: int) -> list[list]:
    """Yen's algorithm: up to ``k`` shortest simple paths (by hops).

    Returns fewer than ``k`` paths when the graph does not contain that many
    simple paths. Ties are broken deterministically by path node sequence.
    """
    check_positive_int(k, "k")
    for node in (source, target):
        if node not in topo:
            raise TopologyError(f"switch {node!r} does not exist")
    if source == target:
        raise TopologyError("source and target must differ")
    adjacency = {v: sorted(topo.neighbors(v), key=repr) for v in topo.switches}

    first = _bfs_path(adjacency, source, target, set(), set())
    if first is None:
        return []
    accepted: list[list] = [first]
    candidates: list[tuple[int, list, list]] = []  # (length, tiebreak, path)
    seen: set[tuple] = {tuple(first)}

    while len(accepted) < k:
        prev = accepted[-1]
        for j in range(len(prev) - 1):
            spur_node = prev[j]
            root = prev[: j + 1]
            banned_edges: set = set()
            for path in accepted:
                if len(path) > j and path[: j + 1] == root:
                    banned_edges.add((path[j], path[j + 1]))
                    banned_edges.add((path[j + 1], path[j]))
            banned_nodes = set(root[:-1])
            spur = _bfs_path(adjacency, spur_node, target, banned_nodes, banned_edges)
            if spur is None:
                continue
            candidate = root[:-1] + spur
            key = tuple(candidate)
            if key in seen:
                continue
            seen.add(key)
            heapq.heappush(
                candidates, (len(candidate), [repr(n) for n in candidate], candidate)
            )
        if not candidates:
            break
        _, _, best = heapq.heappop(candidates)
        accepted.append(best)
    return accepted


def all_shortest_paths(
    topo: Topology, source, target, limit: "int | None" = None
) -> Iterator[list]:
    """Enumerate every shortest path from ``source`` to ``target`` (ECMP set).

    Builds the BFS predecessor DAG and walks it; ``limit`` truncates the
    enumeration (shortest-path counts can grow exponentially).
    """
    for node in (source, target):
        if node not in topo:
            raise TopologyError(f"switch {node!r} does not exist")
    if source == target:
        raise TopologyError("source and target must differ")
    dist = shortest_path_lengths_from(topo, source)
    if target not in dist:
        return
    predecessors: dict = {}
    for v in dist:
        predecessors[v] = [
            u for u in topo.neighbors(v) if dist.get(u, -1) == dist[v] - 1
        ]

    emitted = 0
    stack = [(target, [target])]
    while stack:
        node, suffix = stack.pop()
        if node == source:
            yield list(reversed(suffix))
            emitted += 1
            if limit is not None and emitted >= limit:
                return
            continue
        for pred in predecessors[node]:
            stack.append((pred, suffix + [pred]))
