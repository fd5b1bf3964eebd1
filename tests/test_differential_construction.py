"""Differential tests: instance construction against its former code.

Every grid cell builds a topology and a workload and fingerprints both,
so the builders, the bulk link insert, the permutation generator and the
fingerprints were rewritten for speed under one rule: every output stays
byte-identical. The references below are the replaced code, kept here
verbatim in behaviour: the Fenwick-indexed fill with one ``size=2``
draw per pair, the frozenset edge set, one ``add_link`` per edge, the
accessor-based fingerprints and the per-element permutation builder.
Each must agree with the library under ``==``: edge lists, RNG end
states, node and edge order with their data, demand order, server pairs
and both digests — across RRG, heterogeneous and two-cluster builders,
odd and dense budgets that stall and rewire, int, tuple and string node
ids, every numpy bit generator, clusters and switch types, aggregated
parallel capacities and failure-degraded fabrics. The CSR adjacency is
compared array by array with ``networkx.to_scipy_sparse_array``.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphConstructionError, TrafficError
from repro.pipeline import fingerprint
from repro.resilience.inject import apply_failures
from repro.resilience.spec import FailureSpec
from repro.topology import builders
from repro.topology.base import Topology
from repro.topology.heterogeneous import (
    heterogeneous_random_topology,
    mixed_linespeed_topology,
)
from repro.topology.random_regular import random_regular_topology
from repro.topology.serialization import encode_node
from repro.topology.two_cluster import two_cluster_random_topology
from repro.traffic.base import TrafficMatrix
from repro.traffic.permutation import random_permutation_traffic
from repro.util.hashing import stable_digest
from repro.util.rng import as_rng, random_derangement

SETTINGS = settings(max_examples=30, deadline=None)

BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
bit_generators = st.sampled_from(BIT_GENERATORS)
#: Node-id families: the fingerprint encodes int, str and tuple ids.
id_kinds = st.sampled_from(["int", "str", "tuple"])


def _node_ids(kind: str, count: int) -> list:
    if kind == "int":
        return list(range(count))
    if kind == "str":
        # "1" and "10" share a prefix; "s1" sorts unlike its integer.
        return [f"s{i}" for i in range(count)]
    return [("pod", i % 3, i) for i in range(count)]


# ----------------------------------------------------------------------
# Reference construction: the replaced code
# ----------------------------------------------------------------------
class _RefAliveIndex:
    """The Fenwick-tree index: ``select(k)`` walks the tree."""

    def __init__(self, nodes) -> None:
        self._order = list(nodes)
        self._pos = {node: i for i, node in enumerate(self._order)}
        self._size = len(self._order)
        self.count = self._size
        tree = [0] * (self._size + 1)
        for i in range(1, self._size + 1):
            tree[i] += 1
            parent = i + (i & -i)
            if parent <= self._size:
                tree[parent] += tree[i]
        self._tree = tree

    def remove(self, node) -> None:
        i = self._pos[node] + 1
        while i <= self._size:
            self._tree[i] -= 1
            i += i & -i
        self.count -= 1

    def select(self, k: int):
        remaining = k + 1
        idx = 0
        bit = 1 << (self._size.bit_length() - 1) if self._size else 0
        while bit:
            probe = idx + bit
            if probe <= self._size and self._tree[probe] < remaining:
                idx = probe
                remaining -= self._tree[probe]
            bit >>= 1
        return self._order[idx]


class _RefFreeDict(dict):
    def __init__(self, items) -> None:
        super().__init__(items)
        self.alive = _RefAliveIndex(self)

    def __delitem__(self, node) -> None:
        super().__delitem__(node)
        self.alive.remove(node)

    def spend(self, node, amount: int = 1) -> None:
        self[node] -= amount
        if self[node] == 0:
            del self[node]


class _RefEdgeSet:
    """Frozenset membership and the per-edge ``repr`` sort."""

    def __init__(self, nodes=()) -> None:
        self.edges: set = set()
        self.adjacency: dict = {}

    def __len__(self) -> int:
        return len(self.edges)

    def has(self, u, v) -> bool:
        return frozenset((u, v)) in self.edges

    def add(self, u, v) -> None:
        if u == v:
            raise GraphConstructionError(f"attempted self-loop at {u!r}")
        key = frozenset((u, v))
        if key in self.edges:
            raise GraphConstructionError(f"attempted parallel edge {u!r}-{v!r}")
        self.edges.add(key)
        self.adjacency.setdefault(u, set()).add(v)
        self.adjacency.setdefault(v, set()).add(u)

    def remove(self, u, v) -> None:
        key = frozenset((u, v))
        if key not in self.edges:
            raise GraphConstructionError(f"no edge {u!r}-{v!r} to remove")
        self.edges.remove(key)
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)

    def neighbors(self, u) -> set:
        return self.adjacency.get(u, set())

    def as_pairs(self) -> list:
        return sorted(
            (tuple(sorted(edge, key=repr)) for edge in self.edges), key=repr
        )


def _ref_fill_random_graph(degrees, rng):
    """The fill loop with one ``size=2`` draw per candidate pair. The
    scan and rewire moves are the library's: they touch edges and budgets
    only through the reference classes' methods."""
    edge_set = _RefEdgeSet(degrees)
    free = _RefFreeDict(
        (node, budget) for node, budget in degrees.items() if budget > 0
    )
    alive = free.alive
    stalls = 0
    while True:
        if alive.count < 2:
            nodes = list(free)
            if not nodes or not builders._rewire_for_progress(
                edge_set, free, rng, nodes
            ):
                break
            continue
        pick = rng.integers(alive.count, size=2)
        u, v = alive.select(int(pick[0])), alive.select(int(pick[1]))
        if u != v and not edge_set.has(u, v):
            builders._consume(edge_set, free, u, v)
            stalls = 0
            continue
        stalls += 1
        if stalls < builders._STALL_LIMIT:
            continue
        stalls = 0
        nodes = list(free)
        if builders._connect_any_free_pair(edge_set, free, rng, nodes):
            continue
        if not builders._rewire_for_progress(edge_set, free, rng, nodes):
            break
    return edge_set, dict(free)


def _ref_add_links(self, edges, capacity: float = 1.0) -> None:
    for u, v in edges:
        self.add_link(u, v, capacity=capacity)


@contextmanager
def reference_construction():
    """Run the library's builders on the replaced fill, edge set and
    per-edge ``add_link`` loop."""
    with mock.patch.object(
        builders, "_fill_random_graph", _ref_fill_random_graph
    ), mock.patch.object(builders, "_EdgeSet", _RefEdgeSet), mock.patch.object(
        Topology, "add_links", _ref_add_links
    ):
        yield


def ref_topology_fingerprint(topo: Topology) -> str:
    switches = sorted(
        (
            [
                encode_node(node),
                topo.servers_at(node),
                topo.cluster_of(node),
                topo.switch_type_of(node),
            ]
            for node in topo.switches
        ),
        key=lambda entry: str(entry[0]),
    )
    links = sorted(
        (
            [encode_node(link.u), encode_node(link.v), link.capacity]
            for link in topo.links
        ),
        key=lambda entry: (str(entry[0]), str(entry[1])),
    )
    return stable_digest({"switches": switches, "links": links})


def ref_traffic_fingerprint(traffic: TrafficMatrix) -> str:
    demands = sorted(
        (
            [encode_node(u), encode_node(v), units]
            for (u, v), units in traffic.demands.items()
        ),
        key=lambda entry: (str(entry[0]), str(entry[1])),
    )
    return stable_digest(
        {
            "demands": demands,
            "num_flows": traffic.num_flows,
            "num_local_flows": traffic.num_local_flows,
        }
    )


def ref_clean_demands(demands: dict) -> dict:
    """The former ``TrafficMatrix.__post_init__`` demand cleaning."""
    cleaned: dict = {}
    for (u, v), units in demands.items():
        if u == v:
            raise TrafficError("self demand")
        units = float(units)
        if units < 0:
            raise TrafficError("negative demand")
        if units > 0:
            cleaned[(u, v)] = units
    return cleaned


def ref_from_server_pairs(pairs, name: str = "custom") -> TrafficMatrix:
    demands: dict = {}
    kept: list = []
    num_flows = 0
    num_local = 0
    for src, dst in pairs:
        if src == dst:
            raise TrafficError(f"server {src!r} cannot send to itself")
        num_flows += 1
        kept.append((src, dst))
        src_switch, _ = src
        dst_switch, _ = dst
        if src_switch == dst_switch:
            num_local += 1
            continue
        key = (src_switch, dst_switch)
        demands[key] = demands.get(key, 0.0) + 1.0
    return TrafficMatrix(
        name=name,
        demands=demands,
        num_flows=num_flows,
        num_local_flows=num_local,
        server_pairs=kept,
    )


def ref_random_permutation_traffic(topo: Topology, seed=None) -> TrafficMatrix:
    out: list = []
    for switch, count in topo.server_map().items():
        for index in range(int(count)):
            out.append((switch, index))
    rng = as_rng(seed)
    perm = random_derangement(rng, len(out))
    pairs = [(out[i], out[int(perm[i])]) for i in range(len(out))]
    return ref_from_server_pairs(pairs, name="random-permutation")


# ----------------------------------------------------------------------
# Assertions
# ----------------------------------------------------------------------
def assert_same_topology(got: Topology, ref: Topology) -> None:
    assert list(got.graph.nodes(data=True)) == list(ref.graph.nodes(data=True))
    assert list(got.graph.edges(data=True)) == list(ref.graph.edges(data=True))
    assert fingerprint.topology_fingerprint(got) == ref_topology_fingerprint(ref)


def assert_same_traffic(got: TrafficMatrix, ref: TrafficMatrix) -> None:
    assert list(got.demands.items()) == list(ref.demands.items())
    assert got.server_pairs == ref.server_pairs
    assert (got.num_flows, got.num_local_flows) == (
        ref.num_flows,
        ref.num_local_flows,
    )
    assert fingerprint.traffic_fingerprint(got) == ref_traffic_fingerprint(ref)


def _state(rng) -> dict:
    """The bit generator's state, arrays (MT19937, Philox) as lists."""

    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


def _paired_rngs(bit_generator, seed: int):
    return (
        np.random.Generator(bit_generator(seed)),
        np.random.Generator(bit_generator(seed)),
    )


# ----------------------------------------------------------------------
# The draw
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("count", [2, 3, 1000, 2**31 + 7, 3 * 2**30, 2**33 + 1])
def test_two_scalar_draws_equal_one_size_two_draw(bit_generator, count):
    # 3 * 2**30 rejects about a quarter of the raw 32-bit words, so the
    # rejection loop runs; 2**33 + 1 takes the 64-bit path.
    scalar, pair = _paired_rngs(bit_generator, 12345)
    for _ in range(500):
        drawn = [int(scalar.integers(count)), int(scalar.integers(count))]
        assert drawn == [int(x) for x in pair.integers(count, size=2)]
    assert _state(scalar) == _state(pair)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
@st.composite
def degree_budgets(draw):
    """Budgets from sparse to dense (near n - 1: stalls and rewires),
    with odd totals and zero budgets."""
    kind = draw(id_kinds)
    count = draw(st.integers(min_value=2, max_value=40))
    nodes = _node_ids(kind, count)
    dense = draw(st.booleans())
    low = max(0, count - 3) if dense else 0
    high = count - 1 if dense else min(count - 1, 8)
    return {
        node: draw(st.integers(min_value=low, max_value=high)) for node in nodes
    }


@SETTINGS
@given(degrees=degree_budgets(), bit_generator=bit_generators, seed=seeds)
def test_fill_matches_reference(degrees, bit_generator, seed):
    rng, ref_rng = _paired_rngs(bit_generator, seed)
    edge_set, free = builders._fill_random_graph(degrees, rng)
    ref_edges, ref_free = _ref_fill_random_graph(degrees, ref_rng)
    assert edge_set.as_pairs() == ref_edges.as_pairs()
    assert free == ref_free
    assert _state(rng) == _state(ref_rng)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("kind", ["int", "str", "tuple"])
def test_fill_matches_reference_through_the_scan(bit_generator, kind):
    # Near-complete budgets on 60 nodes stall 64 draws in a row while a
    # connectable pair is left, so the exhaustive scan places edges.
    placed = []
    scan = builders._connect_any_free_pair

    def counted(*args):
        placed.append(scan(*args))
        return placed[-1]

    degrees = dict.fromkeys(_node_ids(kind, 60), 58)
    for seed in range(3):
        rng, ref_rng = _paired_rngs(bit_generator, seed)
        with mock.patch.object(builders, "_connect_any_free_pair", counted):
            edge_set, free = builders._fill_random_graph(degrees, rng)
        ref_edges, ref_free = _ref_fill_random_graph(degrees, ref_rng)
        assert edge_set.as_pairs() == ref_edges.as_pairs()
        assert free == ref_free
        assert _state(rng) == _state(ref_rng)
    assert any(placed)


@SETTINGS
@given(degrees=degree_budgets(), bit_generator=bit_generators, seed=seeds)
def test_random_graph_from_degrees_matches_reference(degrees, bit_generator, seed):
    rng, ref_rng = _paired_rngs(bit_generator, seed)
    got = builders.random_graph_from_degrees(degrees, rng=rng)
    with reference_construction():
        ref = builders.random_graph_from_degrees(degrees, rng=ref_rng)
    assert got == ref
    assert _state(rng) == _state(ref_rng)


@SETTINGS
@given(
    num_switches=st.integers(min_value=2, max_value=60),
    degree=st.integers(min_value=0, max_value=12),
    servers=st.integers(min_value=0, max_value=3),
    bit_generator=bit_generators,
    seed=seeds,
)
def test_rrg_matches_reference(num_switches, degree, servers, bit_generator, seed):
    degree = min(degree, num_switches - 1)
    rng, ref_rng = _paired_rngs(bit_generator, seed)
    kwargs = dict(servers_per_switch=servers, require_connected=False)
    got = random_regular_topology(num_switches, degree, seed=rng, **kwargs)
    with reference_construction():
        ref = random_regular_topology(num_switches, degree, seed=ref_rng, **kwargs)
    assert_same_topology(got, ref)
    assert _state(rng) == _state(ref_rng)


@SETTINGS
@given(
    kind=id_kinds,
    ports=st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=30),
    seed=seeds,
)
def test_heterogeneous_matches_reference(kind, ports, seed):
    nodes = _node_ids(kind, len(ports))
    port_counts = dict(zip(nodes, ports))
    servers = {node: count % 3 for node, count in port_counts.items()}
    got = heterogeneous_random_topology(port_counts, servers, seed=seed)
    with reference_construction():
        ref = heterogeneous_random_topology(port_counts, servers, seed=seed)
    assert_same_topology(got, ref)


@SETTINGS
@given(
    num_large=st.integers(min_value=2, max_value=10),
    num_small=st.integers(min_value=2, max_value=14),
    cross_fraction=st.sampled_from([0.3, 0.7, 1.0]),
    high_ports=st.integers(min_value=0, max_value=3),
    seed=seeds,
)
def test_two_cluster_and_mixed_speed_match_reference(
    num_large, num_small, cross_fraction, high_ports, seed
):
    # Clusters and switch types; the mixed-speed mesh adds high-speed
    # links over existing low-speed ones, aggregating their capacities.
    def build():
        two = two_cluster_random_topology(
            num_large, 6, num_small, 3, servers_per_large=2,
            servers_per_small=1, cross_fraction=cross_fraction, seed=seed,
        )
        mixed = mixed_linespeed_topology(
            num_large, 6, num_small, 3, 2, 1,
            high_ports_per_large=min(high_ports, num_large - 1),
            high_speed=2.5, cross_fraction=cross_fraction, seed=seed,
        )
        return two, mixed

    got = build()
    with reference_construction():
        ref = build()
    for mine, theirs in zip(got, ref):
        assert_same_topology(mine, theirs)


# ----------------------------------------------------------------------
# Bulk link insert
# ----------------------------------------------------------------------
@SETTINGS
@given(
    kind=id_kinds,
    count=st.integers(min_value=2, max_value=12),
    picks=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=40
    ),
    existing=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=6
    ),
    capacity=st.sampled_from([1.0, 0.1, 2.5, 3]),
)
def test_add_links_matches_add_link_loop(kind, count, picks, existing, capacity):
    # Repeats in either orientation and links that already exist are
    # aggregated by the same float additions as one add_link per edge.
    nodes = _node_ids(kind, count)
    edges = [(nodes[a % count], nodes[b % count]) for a, b in picks]
    edges = [(u, v) for u, v in edges if u != v]
    prior = [(nodes[a % count], nodes[b % count]) for a, b in existing]
    prior = [(u, v) for u, v in prior if u != v]

    def build(bulk: bool) -> Topology:
        topo = Topology("t")
        for i, node in enumerate(nodes):
            topo.add_switch(node, servers=i % 2, cluster=f"c{i % 2}")
        for u, v in prior:
            topo.add_link(u, v, capacity=0.3)
        if bulk:
            topo.add_links(edges, capacity=capacity)
        else:
            _ref_add_links(topo, edges, capacity=capacity)
        return topo

    assert_same_topology(build(True), build(False))


def test_add_links_rejects_without_adding():
    topo = Topology("t")
    for node in range(3):
        topo.add_switch(node)
    for bad in ([(0, 1), (2, 2)], [(0, 1), (1, 9)]):
        with pytest.raises(Exception, match="self-loop|does not exist"):
            topo.add_links(bad)
        assert topo.num_links == 0
    with pytest.raises(ValueError):
        topo.add_links([(0, 1)], capacity=0.0)


def test_from_edges_matches_add_link_loop():
    edges = [(("a", 1), "b"), ("b", 3), (3, ("a", 1)), ("b", ("a", 1))]
    got = Topology.from_edges(edges, servers={"b": 2, 7: 1}, capacity=2.0)
    with reference_construction():
        ref = Topology.from_edges(edges, servers={"b": 2, 7: 1}, capacity=2.0)
    assert_same_topology(got, ref)


# ----------------------------------------------------------------------
# Workloads and fingerprints
# ----------------------------------------------------------------------
@SETTINGS
@given(
    kind=id_kinds,
    servers=st.lists(st.integers(min_value=0, max_value=4), min_size=2, max_size=40),
    bit_generator=bit_generators,
    seed=seeds,
)
def test_permutation_traffic_matches_reference(kind, servers, bit_generator, seed):
    nodes = _node_ids(kind, len(servers))
    topo = Topology("t")
    for node, count in zip(nodes, servers):
        topo.add_switch(node, servers=count)
    if topo.num_servers < 2:
        return
    rng, ref_rng = _paired_rngs(bit_generator, seed)
    got = random_permutation_traffic(topo, seed=rng)
    ref = ref_random_permutation_traffic(topo, seed=ref_rng)
    assert_same_traffic(got, ref)
    assert _state(rng) == _state(ref_rng)


@SETTINGS
@given(
    pairs=st.lists(
        st.tuples(
            st.tuples(st.sampled_from(["a", "b", 3, ("c", 1)]), st.integers(0, 3)),
            st.tuples(st.sampled_from(["a", "b", 3, ("c", 1)]), st.integers(0, 3)),
        ),
        max_size=60,
    )
)
def test_from_server_pairs_matches_reference(pairs):
    if any(src == dst for src, dst in pairs):
        with pytest.raises(TrafficError):
            TrafficMatrix.from_server_pairs(pairs)
        with pytest.raises(TrafficError):
            ref_from_server_pairs(pairs)
        return
    assert_same_traffic(
        TrafficMatrix.from_server_pairs(pairs), ref_from_server_pairs(pairs)
    )


@SETTINGS
@given(
    demands=st.dictionaries(
        st.tuples(
            st.sampled_from(["a", "b", 3, ("c", 1)]), st.sampled_from(["a", 4, "d"])
        ),
        st.one_of(
            st.integers(-1, 3),
            st.floats(-1.0, 5.0),
            st.just(float("nan")),
        ),
        max_size=12,
    )
)
def test_demand_cleaning_matches_reference(demands):
    try:
        expected = ref_clean_demands(demands)
    except TrafficError:
        with pytest.raises(TrafficError):
            TrafficMatrix(name="t", demands=dict(demands))
        return
    got = TrafficMatrix(name="t", demands=dict(demands)).demands
    assert list(got.items()) == list(expected.items())
    assert [type(units) for units in got.values()] == [float] * len(got)


@SETTINGS
@given(
    model=st.sampled_from(["random_links", "random_switches", "correlated"]),
    rate=st.sampled_from([0.1, 0.3, 0.6]),
    seed=seeds,
)
def test_fingerprints_match_reference_on_degraded_fabrics(model, rate, seed):
    topo = two_cluster_random_topology(
        8, 5, 10, 3, servers_per_large=2, servers_per_small=1, seed=seed
    )
    degraded = apply_failures(topo, FailureSpec(model, rate), seed=seed)
    traffic = random_permutation_traffic(topo, seed=seed)
    assert fingerprint.topology_fingerprint(degraded) == ref_topology_fingerprint(
        degraded
    )
    assert fingerprint.traffic_fingerprint(traffic) == ref_traffic_fingerprint(
        traffic
    )


def test_fingerprint_ties_between_equal_texts_keep_insertion_order():
    # The int 1 and the str "1" encode to equal ``str`` texts: rows tie
    # and keep graph order, exactly as the former stable sort did.
    for order in ([1, "1", 2], ["1", 1, 2]):
        topo = Topology("t")
        for node in order:
            topo.add_switch(node, servers=1)
        topo.add_links([(order[0], 2), (order[1], 2), (order[0], order[1])])
        assert fingerprint.topology_fingerprint(topo) == ref_topology_fingerprint(
            topo
        )
        traffic = TrafficMatrix.from_server_pairs(
            [((order[0], 0), (2, 0)), ((order[1], 0), (2, 0)), ((2, 0), ("1", 0))]
        )
        assert fingerprint.traffic_fingerprint(traffic) == ref_traffic_fingerprint(
            traffic
        )


# ----------------------------------------------------------------------
# CSR adjacency
# ----------------------------------------------------------------------
def _assert_same_csr(got, ref) -> None:
    assert type(got) is type(ref) and got.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        mine, theirs = getattr(got, name), getattr(ref, name)
        assert mine.dtype == theirs.dtype, name
        assert np.array_equal(mine, theirs), name
    assert got.has_canonical_format == ref.has_canonical_format


@SETTINGS
@given(
    kind=id_kinds,
    count=st.integers(min_value=1, max_value=30),
    picks=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80),
    capacities=st.sampled_from([1.0, 2.5, 3]),
)
def test_csr_adjacency_matches_networkx(kind, count, picks, capacities):
    # Includes edgeless topologies (networkx's float64 data and int32
    # indices) and aggregated capacities on the weighted matrix.
    nodes = _node_ids(kind, count)
    topo = Topology("t")
    for node in reversed(nodes):
        topo.add_switch(node)
    pairs = [(a % count, b % count) for a, b in picks]
    topo.add_links(
        [(nodes[a], nodes[b]) for a, b in pairs if a != b], capacity=capacities
    )
    for weight, dtype in ((None, None), ("capacity", float), ("capacity", None)):
        ref = nx.to_scipy_sparse_array(
            topo.graph, nodelist=topo.switches, weight=weight, format="csr",
            dtype=dtype,
        )
        _assert_same_csr(topo.csr_adjacency(weight=weight, dtype=dtype), ref)


def test_csr_adjacency_of_rrg_and_degraded_fabric():
    topo = random_regular_topology(200, 6, servers_per_switch=1, seed=3)
    degraded = apply_failures(topo, FailureSpec("random_switches", 0.2), seed=1)
    for instance in (topo, degraded):
        ref = nx.to_scipy_sparse_array(
            instance.graph, nodelist=instance.switches, weight=None, format="csr"
        )
        _assert_same_csr(instance.csr_adjacency(), ref)


def test_csr_adjacency_of_empty_topology_raises_like_networkx():
    with pytest.raises(nx.NetworkXError):
        Topology("empty").csr_adjacency()
