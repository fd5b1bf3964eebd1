"""Max concurrent flow restricted to k-shortest path sets.

Solves the same concurrent-flow LP as :mod:`repro.flow.edge_lp` but with
flow variables per (demand pair, path) over the ``k`` shortest simple paths
of each pair. The optimum is a *lower bound* on the unrestricted optimum —
tight in practice for random graphs, where most pairs have many near-minimal
paths — and directly models what MPTCP-over-shortest-paths can use, so it is
the flow-level reference for Figure 13.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import FlowError, SolverError
from repro.flow.edge_lp import DEFAULT_METHOD
from repro.flow.reachability import resolve_unreachable, unserved_result
from repro.flow.result import ThroughputResult
from repro.metrics.paths import k_shortest_paths
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix
from repro.util.validation import check_positive_int


def max_concurrent_flow_paths(
    topo: Topology,
    traffic: TrafficMatrix,
    k: int = 8,
    paths_by_pair: "dict | None" = None,
    unreachable: str = "error",
) -> ThroughputResult:
    """Solve concurrent flow over the k shortest paths of every pair.

    Parameters
    ----------
    k:
        Paths per demand pair (the paper's MPTCP evaluation uses up to 8
        subflows).
    paths_by_pair:
        Optional precomputed mapping ``(u, v) -> list of node paths``;
        overrides ``k`` and skips path enumeration. Each path must run from
        ``u`` to ``v`` along existing links.
    unreachable:
        Policy for demands with no path (degraded fabrics): ``"error"``
        raises, ``"drop"`` solves over the served demand set and records
        the dropped pairs on the result. See
        :mod:`repro.flow.reachability`.

    Returns
    -------
    ThroughputResult
        ``exact=False`` — the value lower-bounds the unrestricted optimum.
    """
    check_positive_int(k, "k")
    traffic, dropped, dropped_demand = resolve_unreachable(
        topo, traffic, unreachable
    )
    if dropped and not traffic.demands:
        return unserved_result(
            topo, "path-lp", dropped, dropped_demand, exact=False
        )
    traffic.validate_against(topo.switches)
    if not traffic.demands:
        raise FlowError("traffic matrix has no network demands")

    pairs = sorted(traffic.demands, key=lambda pair: (repr(pair[0]), repr(pair[1])))
    if paths_by_pair is None:
        paths_by_pair = {
            (u, v): k_shortest_paths(topo, u, v, k) for u, v in pairs
        }
    _validate_paths(topo, pairs, paths_by_pair)

    arcs = topo.arcs()
    arc_index = {(u, v): i for i, (u, v, _) in enumerate(arcs)}
    capacities = np.fromiter((cap for _, _, cap in arcs), dtype=np.float64)
    num_arcs = len(arcs)

    # Layout: one variable per (pair, path), then t last.
    var_paths: list[tuple[int, list]] = []  # (pair_id, node path)
    for pair_id, pair in enumerate(pairs):
        for path in paths_by_pair[pair]:
            var_paths.append((pair_id, path))
    num_path_vars = len(var_paths)
    t_col = num_path_vars
    num_vars = num_path_vars + 1

    eq_rows: list[int] = []
    eq_cols: list[int] = []
    eq_vals: list[float] = []
    ub_rows: list[int] = []
    ub_cols: list[int] = []
    for col, (pair_id, path) in enumerate(var_paths):
        eq_rows.append(pair_id)
        eq_cols.append(col)
        eq_vals.append(1.0)
        for a, b in zip(path[:-1], path[1:]):
            ub_rows.append(arc_index[(a, b)])
            ub_cols.append(col)
    for pair_id, pair in enumerate(pairs):
        eq_rows.append(pair_id)
        eq_cols.append(t_col)
        eq_vals.append(-float(traffic.demands[pair]))

    a_eq = sparse.coo_matrix(
        (eq_vals, (eq_rows, eq_cols)), shape=(len(pairs), num_vars)
    ).tocsr()
    a_ub = sparse.coo_matrix(
        (np.ones(len(ub_rows)), (ub_rows, ub_cols)), shape=(num_arcs, num_vars)
    ).tocsr()

    objective = np.zeros(num_vars)
    objective[t_col] = -1.0
    outcome = linprog(
        objective,
        A_ub=a_ub,
        b_ub=capacities,
        A_eq=a_eq,
        b_eq=np.zeros(len(pairs)),
        bounds=(0, None),
        method=DEFAULT_METHOD,
    )
    if not outcome.success:
        raise SolverError(
            f"HiGHS failed on {topo.name!r} / {traffic.name!r}: {outcome.message}"
        )
    solution = np.asarray(outcome.x)
    throughput = float(solution[t_col])

    arc_flows = {(u, v): 0.0 for u, v, _ in arcs}
    for col, (_, path) in enumerate(var_paths):
        value = float(solution[col])
        if value <= 0:
            continue
        for a, b in zip(path[:-1], path[1:]):
            arc_flows[(a, b)] += value
    return ThroughputResult(
        throughput=throughput,
        arc_flows=arc_flows,
        arc_capacities={(u, v): float(cap) for u, v, cap in arcs},
        total_demand=traffic.total_demand,
        solver="path-lp",
        exact=False,
        dropped_pairs=tuple(dropped),
        dropped_demand=dropped_demand,
    )


def _validate_paths(topo: Topology, pairs: list, paths_by_pair: dict) -> None:
    for pair in pairs:
        paths = paths_by_pair.get(pair)
        if not paths:
            raise FlowError(f"no candidate paths for demand pair {pair!r}")
        u, v = pair
        for path in paths:
            if path[0] != u or path[-1] != v:
                raise FlowError(
                    f"path {path!r} does not run {u!r} -> {v!r}"
                )
            for a, b in zip(path[:-1], path[1:]):
                if not topo.has_link(a, b):
                    raise FlowError(
                        f"path {path!r} uses a missing link ({a!r}, {b!r})"
                    )
