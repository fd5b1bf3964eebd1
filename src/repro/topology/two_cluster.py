"""Two-cluster random networks with controlled cross-cluster connectivity.

The paper's §5-§6 experiments sweep the number of links crossing between a
cluster of "large" switches and a cluster of "small" switches, holding per
switch port budgets fixed. The x-axis in Figures 6-8, 10 and 11 is the ratio
of realized cross links to the number expected under an unbiased uniform
random wiring; :func:`expected_cross_links` computes that expectation from
the configuration model, and :func:`two_cluster_random_topology` realizes a
random network with an exact cross-link count.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import GraphConstructionError, TopologyError
from repro.topology.base import Topology
from repro.topology.builders import (
    random_bipartite_matching,
    random_graph_from_degrees,
)
from repro.util.rng import as_rng
from repro.util.validation import check_non_negative_int, check_positive_int

LARGE = "large"
SMALL = "small"


def expected_cross_links(stubs_a: int, stubs_b: int) -> float:
    """Expected cross-cluster links under unbiased random stub matching.

    With ``R_a`` network ports in one cluster and ``R_b`` in the other, the
    configuration model pairs ``(R_a + R_b) / 2`` edges uniformly, so the
    expected number with one endpoint in each cluster is
    ``R_a * R_b / (R_a + R_b)``.
    """
    stubs_a = check_non_negative_int(stubs_a, "stubs_a")
    stubs_b = check_non_negative_int(stubs_b, "stubs_b")
    total = stubs_a + stubs_b
    if total == 0:
        return 0.0
    return stubs_a * stubs_b / total


def _spread_cross_stubs(
    rng: np.random.Generator,
    budgets: dict,
    count: int,
    other_side_size: int,
) -> dict:
    """Randomly assign ``count`` cross stubs to nodes within port budgets.

    Each node can host at most ``min(budget, other_side_size)`` cross edges
    (the simple-graph constraint caps a node's cross degree at the size of
    the opposite cluster).
    """
    caps = {node: min(budget, other_side_size) for node, budget in budgets.items()}
    room = sum(caps.values())
    if count > room:
        raise TopologyError(
            f"requested {count} cross links but cluster can host only {room}"
        )
    assigned = {node: 0 for node in budgets}
    stub_pool: list = []
    for node, cap in caps.items():
        stub_pool.extend([node] * cap)
    pool = np.array(stub_pool, dtype=object)
    chosen = rng.choice(len(pool), size=count, replace=False)
    for idx in chosen:
        assigned[pool[int(idx)]] += 1
    return {node: cnt for node, cnt in assigned.items() if cnt > 0}


def two_cluster_random_topology(
    num_large: int,
    large_network_ports: int,
    num_small: int,
    small_network_ports: int,
    servers_per_large: int = 0,
    servers_per_small: int = 0,
    cross_fraction: "float | None" = 1.0,
    cross_links: "int | None" = None,
    capacity: float = 1.0,
    clamp_cross: bool = False,
    seed=None,
    name: "str | None" = None,
) -> Topology:
    """Build a two-cluster random network with an exact cross-link count.

    Parameters
    ----------
    num_large, num_small:
        Switch counts in the two clusters.
    large_network_ports, small_network_ports:
        Switch-to-switch ports per switch of each type (server ports are
        separate; pass the post-server budget).
    servers_per_large, servers_per_small:
        Servers attached to each switch of the type. These do not consume
        ``*_network_ports``.
    cross_fraction:
        Cross-link count as a multiple of the unbiased-random expectation
        (the paper's x-axis). ``1.0`` reproduces vanilla randomness in
        expectation; ignored when ``cross_links`` is given.
    cross_links:
        Absolute number of cross-cluster links, overriding
        ``cross_fraction``.
    clamp_cross:
        If ``True``, an infeasibly large cross-link request is clamped to
        the maximum a simple graph can host instead of raising; useful for
        parameter sweeps that probe the upper end of the feasible range.

    Returns
    -------
    Topology
        Switch ids are ``0 .. num_large-1`` (cluster ``"large"``) followed by
        ``num_large .. num_large+num_small-1`` (cluster ``"small"``). Odd
        within-cluster stub remainders are left unused, as in a physical
        wiring.
    """
    num_large = check_positive_int(num_large, "num_large")
    num_small = check_positive_int(num_small, "num_small")
    large_network_ports = check_non_negative_int(
        large_network_ports, "large_network_ports"
    )
    small_network_ports = check_non_negative_int(
        small_network_ports, "small_network_ports"
    )
    servers_per_large = check_non_negative_int(servers_per_large, "servers_per_large")
    servers_per_small = check_non_negative_int(servers_per_small, "servers_per_small")
    rng = as_rng(seed)

    stubs_large = num_large * large_network_ports
    stubs_small = num_small * small_network_ports
    expected = expected_cross_links(stubs_large, stubs_small)
    if cross_links is None:
        if cross_fraction is None:
            cross_fraction = 1.0
        if cross_fraction < 0:
            raise TopologyError(f"cross_fraction must be >= 0, got {cross_fraction}")
        cross_links = int(round(cross_fraction * expected))
    cross_links = check_non_negative_int(cross_links, "cross_links")
    max_cross = min(stubs_large, stubs_small, num_large * num_small)
    if cross_links > max_cross:
        if clamp_cross:
            cross_links = max_cross
        else:
            raise TopologyError(
                f"cross_links={cross_links} exceeds the feasible maximum {max_cross}"
            )

    large_nodes = list(range(num_large))
    small_nodes = list(range(num_large, num_large + num_small))
    label = name or (
        f"two-cluster(L={num_large}x{large_network_ports}, "
        f"S={num_small}x{small_network_ports}, X={cross_links})"
    )

    topo = Topology(label)
    for v in large_nodes:
        topo.add_switch(v, servers=servers_per_large, cluster=LARGE, switch_type=LARGE)
    for v in small_nodes:
        topo.add_switch(v, servers=servers_per_small, cluster=SMALL, switch_type=SMALL)

    budgets_large = {v: large_network_ports for v in large_nodes}
    budgets_small = {v: small_network_ports for v in small_nodes}
    # An unlucky stub spread can be unrealizable as a simple bipartite graph
    # (e.g. two cross links whose stubs all land on one switch pair), so the
    # spread and the matching retry together with fresh randomness.
    last_error: "Exception | None" = None
    for attempt in range(16):
        cross_a = _spread_cross_stubs(rng, budgets_large, cross_links, num_small)
        cross_b = _spread_cross_stubs(rng, budgets_small, cross_links, num_large)
        try:
            cross_edges = random_bipartite_matching(cross_a, cross_b, rng=rng)
        except GraphConstructionError as exc:
            last_error = exc
            continue
        break
    else:
        raise TopologyError(
            f"could not realize {cross_links} cross links after 16 attempts: "
            f"{last_error}"
        )
    topo.add_links(cross_edges, capacity=capacity)

    for budgets, cross in ((budgets_large, cross_a), (budgets_small, cross_b)):
        remaining = {
            node: budget - cross.get(node, 0) for node, budget in budgets.items()
        }
        if any(value < 0 for value in remaining.values()):
            raise TopologyError("cross-stub assignment exceeded a port budget")
        intra_edges = random_graph_from_degrees(
            remaining, rng=rng, allow_remainder=True, clamp=True
        )
        topo.add_links(intra_edges, capacity=capacity)

    return topo


def cluster_cut_capacity(topo: Topology) -> float:
    """Capacity (both directions) crossing the large/small cluster boundary.

    This is the paper's ``C̄`` for two-cluster topologies built by this
    module (or any topology whose nodes carry ``"large"``/``"small"``
    cluster labels).
    """
    large = topo.nodes_in_cluster(LARGE)
    small = topo.nodes_in_cluster(SMALL)
    if not large or not small:
        raise TopologyError(
            "topology does not carry two non-empty 'large'/'small' clusters"
        )
    return topo.cut_capacity(large, small)
