"""Content fingerprints for topologies, traffic matrices, and solver configs.

The result cache is addressed by *what was actually solved*, not by how
the scenario was described: two grids that construct byte-identical
inputs share cache entries even if their specs differ (e.g. an ``rrg``
built by name vs. the same graph loaded from JSON). Fingerprints are
SHA-256 digests of canonical JSON renderings (see
:mod:`repro.util.hashing`).

Labels (topology/traffic ``name``) are deliberately excluded — they do not
affect the solve.
"""

from __future__ import annotations

from itertools import chain

from repro.flow.solvers import SolverConfig, get_solver
from repro.topology.base import Topology
from repro.topology.serialization import encode_node
from repro.traffic.base import TrafficMatrix
from repro.util.hashing import stable_digest


def _ranks(nodes) -> "tuple[dict, dict, int]":
    """Each node's :func:`encode_node` value, the dense rank of its ``str``
    and the number of ranks.

    Ranks order as the ``str`` texts do (equal texts share a rank), so
    sorting rows by ``rank(u) * width + rank(v)`` is the stable sort by
    ``(str(encode(u)), str(encode(v)))``, with one ``str`` per node.
    """
    encoded = {node: encode_node(node) for node in nodes}
    texts = {node: str(value) for node, value in encoded.items()}
    order = {text: i for i, text in enumerate(sorted(set(texts.values())))}
    return encoded, {node: order[text] for node, text in texts.items()}, len(order)


def topology_fingerprint(topo: Topology) -> str:
    """Digest of the topology's switches, servers, clusters, and links."""
    graph = topo.graph
    encoded, rank, width = _ranks(graph)
    switches = [
        (encoded[v], int(d["servers"]), d.get("cluster"), d.get("switch_type"))
        for v, d in sorted(graph.nodes(data=True), key=lambda item: rank[item[0]])
    ]
    edges = sorted(
        topo.link_items(), key=lambda edge: rank[edge[0]] * width + rank[edge[1]]
    )
    links = [(encoded[u], encoded[v], data["capacity"]) for u, v, data in edges]
    return stable_digest({"switches": switches, "links": links})


def traffic_fingerprint(traffic: TrafficMatrix) -> str:
    """Digest of the switch-level demands and flow counts.

    ``server_pairs`` only matter to the packet simulator, never to the
    flow solvers, so they are excluded; two workloads with identical
    switch-level aggregation share throughput results.
    """
    demands = traffic.demands
    encoded, rank, width = _ranks(dict.fromkeys(chain.from_iterable(demands)))
    items = sorted(
        demands.items(),
        key=lambda item: rank[item[0][0]] * width + rank[item[0][1]],
    )
    return stable_digest(
        {
            "demands": [(encoded[u], encoded[v], x) for (u, v), x in items],
            "num_flows": traffic.num_flows,
            "num_local_flows": traffic.num_local_flows,
        }
    )


def solver_fingerprint(config: SolverConfig) -> str:
    """Digest of a solver backend choice, its code version and options."""
    return stable_digest(
        {**config.to_dict(), "version": get_solver(config.name).version}
    )


def result_key(
    topo_fp: str, traffic_fp: str, solver_fp: str
) -> str:
    """Content address of one solve: (topology, traffic, solver config)."""
    return stable_digest(
        {"topology": topo_fp, "traffic": traffic_fp, "solver": solver_fp}
    )
