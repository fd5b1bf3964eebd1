"""Differential test: the bit-parallel hop sum vs the csgraph reference.

:func:`repro.metrics.paths.demand_hop_sum` computes the Theorem-1 hop
sum with a bit-parallel multi-source BFS. The reference below is the
per-source ``csgraph.dijkstra`` loop it replaced, kept here verbatim in
its arithmetic: the same source order, destination order and float
accumulation. Both must agree bit for bit (``==``, not approx) and raise
the same :class:`TopologyError` message for the same first unroutable
pair, across the topology families the estimator runs on, source counts
straddling the 64-bit word boundaries, chunk sizes that are not a
multiple of 64, isolated switches and the ``max_sources`` sampled path.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from repro.exceptions import TopologyError
from repro.metrics.paths import _batch_pair_hops, demand_hop_sum
from repro.topology.base import Topology
from repro.topology.heterogeneous import heterogeneous_random_topology
from repro.topology.random_regular import random_regular_topology
from repro.topology.two_cluster import two_cluster_random_topology
from repro.traffic.base import TrafficMatrix

SETTINGS = settings(max_examples=20, deadline=None)

seeds = st.integers(min_value=0, max_value=10_000)
#: Word boundaries of the 64-bit source packing.
source_counts = st.sampled_from([1, 63, 64, 65, 129])
chunk_sizes = st.sampled_from([1, 70, 512])


def reference_hop_sum(
    topo: Topology,
    traffic: TrafficMatrix,
    chunk_size: int = 512,
    max_sources: "int | None" = None,
    seed: int = 0,
) -> float:
    """The per-source ``csgraph.dijkstra`` hop sum (the former kernel)."""
    nodes = topo.switches
    index = {node: i for i, node in enumerate(nodes)}
    by_source: dict = {}
    for (u, v), units in traffic.demands.items():
        by_source.setdefault(u, []).append((index[v], units))
    adjacency = nx.to_scipy_sparse_array(
        topo.graph, nodelist=nodes, weight=None, format="csr"
    )
    sources = sorted(by_source, key=repr)
    scale = 1.0
    if max_sources is not None and max_sources < len(sources):
        rng = np.random.default_rng(seed)
        picks = np.sort(
            rng.choice(len(sources), size=max_sources, replace=False)
        )
        scale = len(sources) / max_sources
        sources = [sources[i] for i in picks]
    source_rows = np.fromiter(
        (index[u] for u in sources), dtype=np.int64, count=len(sources)
    )
    total = 0.0
    for start in range(0, len(sources), chunk_size):
        batch = source_rows[start : start + chunk_size]
        distances = csgraph.dijkstra(adjacency, unweighted=True, indices=batch)
        for offset, source in enumerate(sources[start : start + chunk_size]):
            row = distances[offset]
            for dest_row, units in by_source[source]:
                hops = row[dest_row]
                if not np.isfinite(hops):
                    raise TopologyError(
                        f"demand {source!r}->{nodes[dest_row]!r} has no path "
                        f"in {topo.name!r}"
                    )
                total += units * float(hops)
    return total * scale


def outcome(fn, topo, traffic, **options):
    """``("value", hop sum)`` or ``("error", message)``."""
    try:
        return ("value", fn(topo, traffic, **options))
    except TopologyError as exc:
        return ("error", str(exc))


def assert_matches_reference(topo, traffic, **options):
    ours = outcome(demand_hop_sum, topo, traffic, **options)
    assert ours == outcome(reference_hop_sum, topo, traffic, **options)
    return ours


def demand_traffic(topo: Topology, num_sources: int, seed: int, among=None):
    """Demands from ``num_sources`` distinct switches to 1-3 destinations
    each (both drawn from ``among``, default every switch), with
    fractional units so the float accumulation order shows."""
    rng = np.random.default_rng(seed)
    switches = list(topo.switches if among is None else among)
    picks = rng.choice(len(switches), size=num_sources, replace=False)
    demands = {}
    for pick in picks:
        source = switches[pick]
        others = [v for v in switches if v != source]
        for dest in rng.choice(len(others), size=rng.integers(1, 4), replace=False):
            demands[(source, others[dest])] = float(rng.uniform(0.1, 5.0))
    return TrafficMatrix(name="differential", demands=demands)


def rrg(num_switches: int, degree: int, seed: int) -> Topology:
    return random_regular_topology(
        num_switches, degree, servers_per_switch=1, seed=seed
    )


class TestMatchesReference:
    @given(st.integers(130, 170), st.integers(3, 6), source_counts,
           chunk_sizes, seeds)
    @SETTINGS
    def test_rrg(self, num_switches, degree, num_sources, chunk_size, seed):
        topo = rrg(num_switches, degree, seed)
        traffic = demand_traffic(topo, num_sources, seed)
        kind, _ = assert_matches_reference(topo, traffic, chunk_size=chunk_size)
        assert kind == "value"

    @given(st.integers(130, 160), source_counts, chunk_sizes, seeds)
    @SETTINGS
    def test_heterogeneous(self, num_switches, num_sources, chunk_size, seed):
        rng = np.random.default_rng(seed)
        ports = {v: int(rng.integers(3, 9)) for v in range(num_switches)}
        servers = {v: int(rng.integers(0, 2)) for v in range(num_switches)}
        topo = heterogeneous_random_topology(ports, servers, seed=seed)
        traffic = demand_traffic(topo, num_sources, seed)
        assert_matches_reference(topo, traffic, chunk_size=chunk_size)

    @given(st.integers(65, 90), st.integers(65, 90),
           st.sampled_from([0.0, 0.05, 0.5, 1.0]), source_counts,
           chunk_sizes, seeds)
    @SETTINGS
    def test_two_cluster(self, num_large, num_small, cross_fraction,
                         num_sources, chunk_size, seed):
        # A cross fraction of 0 leaves the clusters disconnected, so the
        # error path is exercised alongside the value path.
        topo = two_cluster_random_topology(
            num_large, 6, num_small, 3,
            servers_per_large=1, servers_per_small=1,
            cross_fraction=cross_fraction, seed=seed,
        )
        traffic = demand_traffic(topo, num_sources, seed)
        assert_matches_reference(topo, traffic, chunk_size=chunk_size)

    @given(st.integers(130, 170), source_counts, st.integers(1, 140),
           chunk_sizes, seeds)
    @SETTINGS
    def test_sampled_sources(self, num_switches, num_sources, max_sources,
                             chunk_size, seed):
        topo = rrg(num_switches, 4, seed)
        traffic = demand_traffic(topo, num_sources, seed)
        kind, _ = assert_matches_reference(
            topo, traffic, chunk_size=chunk_size,
            max_sources=max_sources, seed=seed,
        )
        assert kind == "value"

    @given(source_counts, chunk_sizes, seeds)
    @SETTINGS
    def test_isolated_switches_off_the_demands(self, num_sources,
                                               chunk_size, seed):
        # Isolated switches, the last row among them, have no in-edges
        # and are skipped by the level reduction.
        topo = rrg(140, 4, seed)
        connected = list(topo.switches)
        for extra in (1000, 1001, 1002):
            topo.add_switch(extra)
        assert topo.switches[-1] == 1002
        traffic = demand_traffic(topo, num_sources, seed, among=connected)
        kind, _ = assert_matches_reference(topo, traffic, chunk_size=chunk_size)
        assert kind == "value"


class TestUnroutable:
    def test_demand_into_isolated_last_switch(self):
        topo = rrg(140, 4, 3)
        topo.add_switch(999)
        traffic = demand_traffic(topo, 65, 3, among=topo.switches[:-1])
        demands = dict(traffic.demands)
        demands[(topo.switches[5], 999)] = 2.5
        kind, message = assert_matches_reference(
            topo, TrafficMatrix(name="t", demands=demands), chunk_size=70
        )
        assert kind == "error"
        assert message == f"demand 5->999 has no path in {topo.name!r}"

    def test_demand_out_of_isolated_switch(self):
        topo = rrg(20, 4, 1)
        topo.add_switch(50)
        traffic = TrafficMatrix(name="t", demands={(50, 0): 1.0, (0, 1): 1.0})
        kind, message = assert_matches_reference(topo, traffic, chunk_size=1)
        assert kind == "error"
        assert message.startswith("demand 50->0 has no path")

    @given(source_counts, chunk_sizes, seeds)
    @SETTINGS
    def test_disconnected_components(self, num_sources, chunk_size, seed):
        left = rrg(70, 4, seed)
        right = rrg(70, 4, seed + 1)
        topo = Topology("two-islands")
        for v in left.switches:
            topo.add_switch(("L", v), servers=1)
        for v in right.switches:
            topo.add_switch(("R", v), servers=1)
        for link in left.links:
            topo.add_link(("L", link.u), ("L", link.v))
        for link in right.links:
            topo.add_link(("R", link.u), ("R", link.v))
        traffic = demand_traffic(topo, num_sources, seed)
        kind, message = assert_matches_reference(
            topo, traffic, chunk_size=chunk_size
        )
        crosses = any(u[0] != v[0] for u, v in traffic.demands)
        assert kind == ("error" if crosses else "value")
        if crosses:
            assert "has no path in 'two-islands'" in message


class TestKernelOnDirectedMatrices:
    """The kernel follows edge direction exactly as ``csgraph`` does."""

    @given(st.integers(2, 150), st.floats(0.0, 0.08), st.integers(1, 130),
           seeds)
    @SETTINGS
    def test_matches_dijkstra(self, num_nodes, density, num_sources, seed):
        rng = np.random.default_rng(seed)
        matrix = sp.random(
            num_nodes, num_nodes, density=density, format="csr", rng=rng
        )
        matrix.data[:] = 1.0
        # Some nodes lose every out-edge and others every in-edge (the
        # kernel's empty rows), the last node in both groups.
        def keep_mask():
            dead = rng.choice(num_nodes, size=max(1, num_nodes // 10),
                              replace=False)
            dead = np.union1d(dead, [num_nodes - 1])
            return np.isin(np.arange(num_nodes), dead, invert=True)

        matrix = sp.csr_matrix(
            matrix.multiply(keep_mask()[:, None]).multiply(keep_mask()[None, :])
        )
        matrix.eliminate_zeros()
        num_sources = min(num_sources, num_nodes)
        rows = rng.choice(num_nodes, size=num_sources, replace=False)
        pair_source = rng.integers(0, num_sources, size=3 * num_sources)
        pair_dest = rng.integers(0, num_nodes, size=3 * num_sources)
        hops = _batch_pair_hops(
            matrix.T.tocsr(), rows, pair_source, pair_dest
        )
        distances = csgraph.dijkstra(matrix, unweighted=True, indices=rows)
        expected = distances[pair_source, pair_dest]
        expected = np.where(np.isfinite(expected), expected, -1)
        assert hops.tolist() == expected.astype(np.int64).tolist()
