"""Random regular graphs — the paper's RRG(N, k, r) construct.

An RRG(N, k, r) is a network of ``N`` switches, each with ``k`` ports of
which ``r`` connect to other switches and ``k - r`` attach servers, with the
switch-to-switch graph sampled from (approximately) the uniform distribution
over r-regular simple graphs. This is the Jellyfish topology and the
building block for every heterogeneous design in the paper.
"""

from __future__ import annotations

from repro.exceptions import TopologyError
from repro.topology.base import Topology
from repro.topology.builders import random_graph_from_degrees
from repro.util.rng import as_rng
from repro.util.validation import check_non_negative_int, check_positive_int


def random_regular_topology(
    num_switches: int,
    network_degree: int,
    servers_per_switch: int = 0,
    capacity: float = 1.0,
    seed=None,
    name: "str | None" = None,
    require_connected: bool = True,
    max_attempts: int = 16,
) -> Topology:
    """Build an RRG(N, k, r) topology.

    Parameters
    ----------
    num_switches:
        ``N``, the number of switches.
    network_degree:
        ``r``, switch-to-switch ports per switch. Must satisfy
        ``r < num_switches``; if ``N * r`` is odd one stub is left unused
        (matching physical deployments with a stray port).
    servers_per_switch:
        Servers attached to every switch (``k - r`` in the paper's notation).
    capacity:
        Capacity of each switch-to-switch link (per direction).
    require_connected:
        Resample until the graph is connected (random regular graphs with
        ``r >= 3`` are connected with high probability, so this rarely
        triggers more than once).

    Returns
    -------
    Topology
        Switches are integers ``0 .. N-1``.
    """
    num_switches = check_positive_int(num_switches, "num_switches")
    network_degree = check_non_negative_int(network_degree, "network_degree")
    servers_per_switch = check_non_negative_int(
        servers_per_switch, "servers_per_switch"
    )
    if network_degree >= num_switches:
        raise TopologyError(
            f"network_degree {network_degree} must be < num_switches {num_switches}"
        )
    rng = as_rng(seed)
    label = name or f"rrg(N={num_switches},r={network_degree})"

    last: "Topology | None" = None
    for _ in range(max(1, max_attempts)):
        degrees = {v: network_degree for v in range(num_switches)}
        edges = random_graph_from_degrees(degrees, rng=rng, allow_remainder=True)
        topo = Topology(label)
        for v in range(num_switches):
            topo.add_switch(v, servers=servers_per_switch)
        topo.add_links(edges, capacity=capacity)
        last = topo
        if not require_connected or network_degree == 0 or topo.is_connected():
            return topo
    raise TopologyError(
        f"could not build a connected RRG(N={num_switches}, r={network_degree}) "
        f"in {max_attempts} attempts"
    )
