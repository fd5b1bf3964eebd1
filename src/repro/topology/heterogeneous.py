"""Heterogeneous random networks: diverse port counts and line-speeds.

Covers three constructions the paper evaluates:

- :func:`heterogeneous_random_topology` — arbitrary per-switch port budgets
  and server counts with an unbiased uniform-random interconnect (Figures 4
  and 5),
- :func:`power_law_port_counts` — switch port-count populations following a
  truncated discrete power law (Figure 5),
- :func:`mixed_linespeed_topology` — two clusters at a base line-speed with
  extra high-line-speed ports on the large switches, wired only to other
  high-speed ports (Figure 8).

Server-placement helpers implement the paper's proportional rule and the
β-power generalization (servers at switch i proportional to ``k_i ** beta``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.topology.builders import random_graph_from_degrees
from repro.topology.two_cluster import LARGE, two_cluster_random_topology
from repro.util.rng import as_rng
from repro.util.validation import (
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
)


def proportional_server_split(
    total_servers: int, weights: Mapping[object, float]
) -> dict:
    """Split ``total_servers`` across switches proportionally to ``weights``.

    Uses the largest-remainder (Hamilton) method so the result is integral
    and sums exactly to ``total_servers``. Zero or negative weights receive
    zero servers.
    """
    total_servers = check_non_negative_int(total_servers, "total_servers")
    positive = {node: float(w) for node, w in weights.items() if w > 0}
    if total_servers == 0:
        return {node: 0 for node in weights}
    if not positive:
        raise TopologyError("all weights are zero; cannot place servers")
    weight_sum = sum(positive.values())
    shares = {node: total_servers * w / weight_sum for node, w in positive.items()}
    placed = {node: int(np.floor(share)) for node, share in shares.items()}
    leftover = total_servers - sum(placed.values())
    remainders = sorted(
        positive,
        key=lambda node: (shares[node] - placed[node], repr(node)),
        reverse=True,
    )
    for node in remainders[:leftover]:
        placed[node] += 1
    result = {node: 0 for node in weights}
    result.update(placed)
    return result


def beta_server_distribution(
    port_counts: Mapping[object, int],
    total_servers: int,
    beta: float,
    reserve_ports: int = 1,
) -> dict:
    """Place servers proportionally to ``port_count ** beta`` (Figure 5).

    ``beta = 0`` gives every switch the same share regardless of its size;
    ``beta = 1`` is the paper's optimal proportional-to-degree rule. Each
    switch keeps at least ``reserve_ports`` ports for the network (a switch
    with zero network ports would be disconnected); overflow beyond a
    switch's capacity is redistributed to the remaining switches by repeated
    largest-remainder rounds.
    """
    beta = check_non_negative(beta, "beta")
    reserve_ports = check_non_negative_int(reserve_ports, "reserve_ports")
    capacities = {
        node: max(0, int(ports) - reserve_ports)
        for node, ports in port_counts.items()
    }
    if total_servers > sum(capacities.values()):
        raise TopologyError(
            f"cannot place {total_servers} servers; only "
            f"{sum(capacities.values())} server ports available"
        )
    weights = {node: float(ports) ** beta for node, ports in port_counts.items()}
    placed = {node: 0 for node in port_counts}
    remaining = total_servers
    active = dict(weights)
    while remaining > 0:
        split = proportional_server_split(remaining, active)
        progress = 0
        for node, extra in split.items():
            room = capacities[node] - placed[node]
            take = min(extra, room)
            placed[node] += take
            progress += take
        remaining -= progress
        active = {
            node: w
            for node, w in active.items()
            if capacities[node] - placed[node] > 0
        }
        if progress == 0:
            raise TopologyError("server placement failed to make progress")
    return placed


def heterogeneous_random_topology(
    port_counts: Mapping[object, int],
    servers: Mapping[object, int],
    capacity: float = 1.0,
    seed=None,
    name: "str | None" = None,
) -> Topology:
    """Random network over switches with arbitrary port budgets.

    Each switch ``v`` has ``port_counts[v]`` total ports; ``servers[v]`` of
    them attach servers and the remainder join an unbiased uniform-random
    simple interconnect (odd stub remainders stay unused). This is the
    "vanilla random" construction of §5.1.
    """
    rng = as_rng(seed)
    network_budget = {}
    for node, ports in port_counts.items():
        ports = check_non_negative_int(ports, f"port_counts[{node!r}]")
        attached = check_non_negative_int(
            int(servers.get(node, 0)), f"servers[{node!r}]"
        )
        if attached > ports:
            raise TopologyError(
                f"switch {node!r} has {attached} servers but only {ports} ports"
            )
        network_budget[node] = ports - attached

    topo = Topology(name or f"heterogeneous(n={len(network_budget)})")
    for node, ports in port_counts.items():
        topo.add_switch(node, servers=int(servers.get(node, 0)))
    edges = random_graph_from_degrees(
        network_budget, rng=rng, allow_remainder=True, clamp=True
    )
    topo.add_links(edges, capacity=capacity)
    return topo


def power_law_port_counts(
    num_switches: int,
    exponent: float = 2.0,
    min_ports: int = 4,
    max_ports: int = 64,
    seed=None,
) -> list[int]:
    """Sample switch port counts from a truncated discrete power law.

    ``P(k) ∝ k ** -exponent`` for ``k`` in ``[min_ports, max_ports]``. Used
    to reproduce Figure 5's diverse switch populations.
    """
    num_switches = check_positive_int(num_switches, "num_switches")
    exponent = check_positive(exponent, "exponent")
    min_ports = check_positive_int(min_ports, "min_ports")
    max_ports = check_positive_int(max_ports, "max_ports")
    if max_ports < min_ports:
        raise ValueError(
            f"max_ports {max_ports} must be >= min_ports {min_ports}"
        )
    rng = as_rng(seed)
    support = np.arange(min_ports, max_ports + 1, dtype=np.float64)
    weights = support**-exponent
    weights /= weights.sum()
    draws = rng.choice(support, size=num_switches, p=weights)
    return [int(k) for k in draws]


def power_law_ports_with_mean(
    num_switches: int,
    target_mean: float,
    exponent: float = 2.0,
    min_ports: int = 4,
    seed=None,
    tolerance: float = 0.25,
) -> list[int]:
    """Power-law port counts adjusted so the sample mean is near a target.

    The paper's Figure 5 reports curves by *average* port count (6, 8, 10).
    This helper searches the truncation point ``max_ports`` so the sampled
    population's mean lands within ``tolerance`` of ``target_mean``, then
    returns that sample.
    """
    target_mean = check_positive(target_mean, "target_mean")
    if target_mean < min_ports:
        raise ValueError(
            f"target_mean {target_mean} must be >= min_ports {min_ports}"
        )
    rng = as_rng(seed)
    best: "list[int] | None" = None
    best_gap = float("inf")
    for max_ports in range(min_ports + 1, max(min_ports + 2, int(target_mean * 12))):
        support = np.arange(min_ports, max_ports + 1, dtype=np.float64)
        weights = support**-exponent
        weights /= weights.sum()
        expected = float((support * weights).sum())
        gap = abs(expected - target_mean)
        if gap < best_gap:
            best_gap = gap
            draws = rng.choice(support, size=num_switches, p=weights)
            best = [int(k) for k in draws]
        if expected > target_mean and gap > best_gap:
            break
    assert best is not None
    if best_gap > tolerance + abs(target_mean) * 0.25:
        raise TopologyError(
            f"could not match target mean {target_mean} "
            f"(closest distribution mean gap {best_gap:.2f})"
        )
    return best


def power_law_random_topology(
    num_switches: int,
    exponent: float = 2.0,
    min_ports: int = 4,
    max_ports: int = 64,
    total_servers: "int | None" = None,
    beta: float = 1.0,
    capacity: float = 1.0,
    ports_seed: "int | None" = None,
    seed=None,
    name: "str | None" = None,
) -> Topology:
    """Random network over a power-law switch population (Figure 5).

    Samples per-switch port counts from the truncated discrete power law
    of :func:`power_law_port_counts`, places ``total_servers`` servers
    proportionally to ``port_count ** beta`` (the paper's optimal rule at
    ``beta = 1``), and wires the remaining ports uniformly at random.

    ``ports_seed`` (when given) pins the sampled port-count *population*
    independently of the wiring ``seed``: sweeps and designers can then
    hold the equipment mix fixed — same bill of switches, hence the same
    cost — while re-rolling the interconnect per replicate. Without it
    the population is drawn from ``seed`` like everything else.

    ``total_servers`` defaults to one third of the total port count,
    leaving the majority of ports for the network fabric.
    """
    num_switches = check_positive_int(num_switches, "num_switches")
    rng = as_rng(seed)
    ports_rng = as_rng(ports_seed) if ports_seed is not None else rng
    counts = power_law_port_counts(
        num_switches,
        exponent=exponent,
        min_ports=min_ports,
        max_ports=max_ports,
        seed=ports_rng,
    )
    port_counts = {f"s{i}": ports for i, ports in enumerate(counts)}
    if total_servers is None:
        total_servers = total_ports(port_counts) // 3
    servers = beta_server_distribution(port_counts, total_servers, beta=beta)
    return heterogeneous_random_topology(
        port_counts,
        servers,
        capacity=capacity,
        seed=rng,
        name=name
        or (
            f"power-law(n={num_switches}, a={exponent}, "
            f"ports={min_ports}..{max_ports})"
        ),
    )


def matched_random_topology(
    k: int, capacity: float = 1.0, seed=None, name: "str | None" = None
) -> Topology:
    """Random fabric from exactly a k-ary fat-tree's equipment.

    ``5k^2/4`` switches of ``k`` ports each; ``k^3/4`` servers spread as
    evenly as possible; all remaining ports in a uniform-random
    interconnect. The equipment bill — and hence the equipment cost —
    is identical to :func:`~repro.topology.fattree.fat_tree_topology`
    at the same ``k``, which makes this the paper's equal-cost
    random-graph comparison point.
    """
    k = check_positive_int(k, "k")
    if k % 2:
        raise TopologyError(f"k must be even, got {k}")
    num_switches = 5 * k * k // 4
    num_servers = k * k * k // 4
    base, remainder = divmod(num_servers, num_switches)
    port_counts = {f"s{i}": k for i in range(num_switches)}
    servers = {
        f"s{i}": base + (1 if i < remainder else 0)
        for i in range(num_switches)
    }
    return heterogeneous_random_topology(
        port_counts,
        servers,
        capacity=capacity,
        seed=seed,
        name=name or f"matched-random(k={k})",
    )


def mixed_linespeed_topology(
    num_large: int,
    large_low_ports: int,
    num_small: int,
    small_low_ports: int,
    servers_per_large: int,
    servers_per_small: int,
    high_ports_per_large: int,
    high_speed: float,
    cross_fraction: float = 1.0,
    low_speed: float = 1.0,
    seed=None,
    name: "str | None" = None,
) -> Topology:
    """Two-cluster network plus a high-line-speed mesh among large switches.

    Reproduces §5.2's setting: small switches carry only low-speed ports;
    each large switch additionally has ``high_ports_per_large`` ports of
    capacity ``high_speed`` that connect *only* to other high-speed ports,
    i.e. they form a random ``high_ports_per_large``-regular graph over the
    large cluster (link capacities aggregate when a high-speed link lands on
    a pair already joined at low speed).

    ``*_low_ports`` are network ports (after servers); servers do not consume
    these budgets.
    """
    rng = as_rng(seed)
    high_ports_per_large = check_non_negative_int(
        high_ports_per_large, "high_ports_per_large"
    )
    if high_ports_per_large >= num_large and high_ports_per_large > 0:
        raise TopologyError(
            f"high_ports_per_large {high_ports_per_large} must be < num_large "
            f"{num_large}"
        )
    if high_ports_per_large > 0:
        high_speed = check_positive(high_speed, "high_speed")

    topo = two_cluster_random_topology(
        num_large=num_large,
        large_network_ports=large_low_ports,
        num_small=num_small,
        small_network_ports=small_low_ports,
        servers_per_large=servers_per_large,
        servers_per_small=servers_per_small,
        cross_fraction=cross_fraction,
        capacity=low_speed,
        seed=rng,
        name=name
        or (
            f"mixed-speed(L={num_large}, S={num_small}, "
            f"H={high_ports_per_large}x{high_speed})"
        ),
    )
    if high_ports_per_large > 0:
        large_nodes = topo.nodes_in_cluster(LARGE)
        degrees = {v: high_ports_per_large for v in large_nodes}
        edges = random_graph_from_degrees(degrees, rng=rng, allow_remainder=True)
        topo.add_links(edges, capacity=high_speed)
    return topo


def total_ports(port_counts: "Mapping[object, int] | Sequence[int]") -> int:
    """Total port count across a switch population (mapping or sequence)."""
    if isinstance(port_counts, Mapping):
        return int(sum(int(v) for v in port_counts.values()))
    return int(sum(int(v) for v in port_counts))
