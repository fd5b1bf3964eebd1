"""Differential test: the default LP method vs the dual-simplex reference.

:func:`repro.flow.edge_lp.max_concurrent_flow` solves with
:data:`~repro.flow.edge_lp.DEFAULT_METHOD` (HiGHS interior point with
crossover). ``method="highs"`` (dual simplex) is kept here only as the
reference: both must reach the same optimum to 1e-9 in throughput over
the topology families the paper compares, with per-pair commodities,
and with the ``"drop"`` policy on a fabric degraded by failures. Raw
arc flows are not compared, since the optimal routing is not unique;
the minimum-volume routing of ``keep_commodity_flows`` is compared by
its volume.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.edge_lp import DEFAULT_METHOD, max_concurrent_flow
from repro.flow.path_decomposition import decompose_commodity_flows
from repro.resilience import FailureSpec, apply_failures
from repro.topology.fattree import fat_tree_topology
from repro.topology.random_regular import random_regular_topology
from repro.topology.two_cluster import two_cluster_random_topology
from repro.traffic.alltoall import all_to_all_traffic
from repro.traffic.permutation import random_permutation_traffic

TOL = 1e-9
REFERENCE = "highs"
SETTINGS = settings(max_examples=12, deadline=None)

seeds = st.integers(min_value=0, max_value=10_000)


def assert_matches_reference(topo, traffic, **kwargs):
    default = max_concurrent_flow(topo, traffic, **kwargs)
    reference = max_concurrent_flow(topo, traffic, method=REFERENCE, **kwargs)
    assert abs(default.throughput - reference.throughput) <= TOL, (
        f"{topo.name}/{traffic.name} {kwargs}: {DEFAULT_METHOD} "
        f"{default.throughput!r} != {REFERENCE} {reference.throughput!r}"
    )
    assert default.total_demand == reference.total_demand
    assert default.dropped_pairs == reference.dropped_pairs
    return default, reference


@SETTINGS
@given(
    st.integers(8, 18),
    st.sampled_from([3, 4, 5]),
    st.integers(1, 3),
    seeds,
)
def test_rrg_matches_reference(num_switches, degree, servers, seed):
    topo = random_regular_topology(
        num_switches, degree, servers_per_switch=servers, seed=seed
    )
    assert_matches_reference(topo, random_permutation_traffic(topo, seed=seed))


@SETTINGS
@given(seeds)
def test_fat_tree_matches_reference(seed):
    topo = fat_tree_topology(4)
    assert_matches_reference(topo, random_permutation_traffic(topo, seed=seed))


@SETTINGS
@given(st.integers(4, 8), st.integers(4, 8), st.floats(0.3, 1.0), seeds)
def test_two_cluster_matches_reference(num_large, num_small, cross, seed):
    topo = two_cluster_random_topology(
        num_large, 5, num_small, 3,
        servers_per_large=2, servers_per_small=1,
        cross_fraction=cross, seed=seed,
    )
    assert_matches_reference(topo, random_permutation_traffic(topo, seed=seed))


@SETTINGS
@given(st.integers(6, 9), seeds)
def test_per_pair_commodities_match_reference(num_switches, seed):
    topo = random_regular_topology(
        num_switches, 3 if num_switches % 2 == 0 else 4,
        servers_per_switch=1, seed=seed,
    )
    assert_matches_reference(
        topo, all_to_all_traffic(topo), aggregate_by_source=False
    )


@SETTINGS
@given(
    st.sampled_from(["random_links", "random_switches"]),
    st.floats(0.1, 0.4),
    seeds,
)
def test_drop_on_degraded_fabric_matches_reference(model, rate, seed):
    topo = random_regular_topology(14, 4, servers_per_switch=1, seed=seed)
    traffic = random_permutation_traffic(topo, seed=seed + 1)
    degraded = apply_failures(topo, FailureSpec.make(model, rate=rate), seed=seed)
    assert_matches_reference(degraded, traffic, unreachable="drop")


@SETTINGS
@given(st.integers(8, 14), st.sampled_from([3, 4]), seeds)
def test_kept_routing_is_method_independent(num_switches, degree, seed):
    """``keep_commodity_flows`` re-routes at minimum volume: the volume,
    hence the §6.1 utilization and stretch, does not depend on which
    optimal vertex the method returns, and the flows are cycle-free."""
    if num_switches * degree % 2:
        num_switches += 1
    topo = random_regular_topology(
        num_switches, degree, servers_per_switch=2, seed=seed
    )
    traffic = random_permutation_traffic(topo, seed=seed)
    kept, reference = assert_matches_reference(
        topo, traffic, keep_commodity_flows=True
    )
    assert abs(
        kept.total_flow_volume - reference.total_flow_volume
    ) <= 1e-6 * reference.total_flow_volume
    paths = [
        p for group in decompose_commodity_flows(kept).values() for p in group
    ]
    path_volume = sum(p.amount * (len(p.nodes) - 1) for p in paths)
    assert abs(path_volume - kept.total_flow_volume) <= 1e-6 * path_volume
