"""Random permutation traffic — the paper's default workload.

Each server sends to (and receives from) exactly one other server, chosen by
a uniformly random derangement over all servers. The switch-level variant
(a "ToR-level permutation") sends each server-bearing switch's entire server
load to one other switch; it is the building block of chunky traffic.
"""

from __future__ import annotations

from repro.exceptions import TrafficError
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix, servers_of
from repro.util.rng import as_rng, random_derangement


def random_permutation_traffic(
    topo: Topology,
    seed=None,
    name: "str | None" = None,
) -> TrafficMatrix:
    """Server-level random permutation over all servers of ``topo``.

    Requires at least two servers. Pairs landing on the same switch are
    recorded as local flows (they bypass the network).
    """
    servers = servers_of(topo.server_map())
    if len(servers) < 2:
        raise TrafficError(
            "need at least 2 servers for a permutation, topology has "
            f"{len(servers)}"
        )
    rng = as_rng(seed)
    perm = random_derangement(rng, len(servers))
    pairs = list(zip(servers, [servers[j] for j in perm.tolist()]))
    tm = TrafficMatrix.from_server_pairs(
        pairs, name=name or "random-permutation"
    )
    return tm


def switch_permutation_traffic(
    topo: Topology,
    seed=None,
    switches=None,
    name: "str | None" = None,
) -> TrafficMatrix:
    """Switch-level (ToR-level) random permutation.

    Each participating switch sends all of its servers' traffic to exactly
    one other participating switch. ``switches`` restricts participation
    (default: every switch with at least one server). Server-level pairs are
    produced by striping each switch's servers across the destination
    switch's servers round-robin, so the packet simulator can replay the
    workload.
    """
    rng = as_rng(seed)
    if switches is None:
        switches = [v for v in topo.switches if topo.servers_at(v) > 0]
    else:
        switches = list(switches)
        for v in switches:
            if topo.servers_at(v) == 0:
                raise TrafficError(f"switch {v!r} has no servers to send from")
    if len(switches) < 2:
        raise TrafficError(
            f"need at least 2 server-bearing switches, got {len(switches)}"
        )
    perm = random_derangement(rng, len(switches))
    pairs: list[tuple] = []
    for i, src_switch in enumerate(switches):
        dst_switch = switches[int(perm[i])]
        dst_count = topo.servers_at(dst_switch)
        if dst_count == 0:
            raise TrafficError(f"destination switch {dst_switch!r} has no servers")
        for j in range(topo.servers_at(src_switch)):
            pairs.append(((src_switch, j), (dst_switch, j % dst_count)))
    return TrafficMatrix.from_server_pairs(
        pairs, name=name or "switch-permutation"
    )
