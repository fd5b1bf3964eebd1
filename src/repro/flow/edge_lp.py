"""Exact max concurrent flow via an arc-based linear program.

This replaces the paper's CPLEX runs with scipy's HiGHS solver. The model is
the standard maximum concurrent multi-commodity flow LP:

    maximize    t
    subject to  flow conservation per commodity group and node,
                sum of flows on every arc <= its capacity,
                each pair (u, v) with demand d receives t * d.

Commodities are *aggregated by source switch*: for concurrent flow with a
shared scale factor ``t``, all demands out of one source can share a flow
variable per arc, which shrinks the LP by a factor of ~#switches relative
to per-pair commodities without changing the optimum. The ablation
benchmark ``bench_ablation_aggregation`` verifies the equivalence
empirically; tests verify it exactly on small instances.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import FlowError, SolverError
from repro.flow.reachability import resolve_unreachable, unserved_result
from repro.flow.result import ThroughputResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix

#: The one HiGHS algorithm every exact LP in the package runs by default:
#: interior point with crossover, which returns a basic optimal solution
#: like simplex does and solves the multi-commodity instances here
#: several times faster than dual simplex (see ``docs/performance.md``).
DEFAULT_METHOD = "highs-ipm"


def max_concurrent_flow(
    topo: Topology,
    traffic: TrafficMatrix,
    aggregate_by_source: bool = True,
    keep_commodity_flows: bool = False,
    unreachable: str = "error",
    method: str = DEFAULT_METHOD,
) -> ThroughputResult:
    """Solve the exact max concurrent flow problem.

    Parameters
    ----------
    topo:
        The network. Every demand endpoint must be a switch in it.
    traffic:
        Switch-level demand matrix. Must contain at least one network
        demand.
    aggregate_by_source:
        Use one commodity per source switch (default, recommended). Setting
        ``False`` builds one commodity per demand pair — exponentially
        larger input, same optimum; retained for the aggregation ablation.
    keep_commodity_flows:
        Also record per-commodity arc flows on the result (keyed by source
        switch). Required by exact path decomposition
        (:mod:`repro.flow.path_decomposition`); costs O(commodities x arcs)
        memory and one more LP. The optimal routing is not unique, and an
        arbitrary optimum may spend spare capacity on detours and
        circulations, so the flows are re-solved to the least total
        volume that still delivers the optimal throughput. That routing
        is cycle-free, and its volume is the same whatever the LP method.
    unreachable:
        Policy for demands with no path (degraded fabrics): ``"error"``
        raises, ``"drop"`` solves over the served demand set and records
        the dropped pairs on the result. See
        :mod:`repro.flow.reachability`.
    method:
        HiGHS algorithm passed to :func:`scipy.optimize.linprog`. The
        default :data:`DEFAULT_METHOD` (``"highs-ipm"``, interior point
        with crossover) returns a vertex solution and is several times
        faster than dual simplex (``"highs"``) on the paper's instances.
        Both reach the same optimum, but where the optimal routing is not
        unique they return different arc flows (IPM's tend to use more
        spare capacity); ``keep_commodity_flows`` gives a routing whose
        volume does not depend on the method.

    Returns
    -------
    ThroughputResult
        With per-arc flows summed over commodities; ``exact=True``.
    """
    traffic, dropped, dropped_demand = resolve_unreachable(
        topo, traffic, unreachable
    )
    if dropped and not traffic.demands:
        return unserved_result(
            topo, "edge-lp", dropped, dropped_demand, exact=True
        )
    traffic.validate_against(topo.switches)
    if not traffic.demands:
        raise FlowError("traffic matrix has no network demands")

    arcs = topo.arcs()
    if not arcs:
        raise FlowError("topology has no links")
    if aggregate_by_source:
        commodities = _aggregate_by_source(traffic)
    else:
        commodities = [
            (u, {v: units}) for (u, v), units in sorted(
                traffic.demands.items(), key=lambda kv: (repr(kv[0][0]), repr(kv[0][1]))
            )
        ]
    result = _solve(
        topo,
        arcs,
        commodities,
        traffic,
        solver_label="edge-lp",
        keep_commodity_flows=keep_commodity_flows,
        method=method,
    )
    result.dropped_pairs = tuple(dropped)
    result.dropped_demand = dropped_demand
    return result


def _aggregate_by_source(traffic: TrafficMatrix) -> list[tuple]:
    """Group demands into one commodity per source switch."""
    by_source: dict = {}
    for (u, v), units in traffic.demands.items():
        by_source.setdefault(u, {})[v] = units
    return sorted(by_source.items(), key=lambda kv: repr(kv[0]))


def _solve(
    topo: Topology,
    arcs: list,
    commodities: list,
    traffic: TrafficMatrix,
    solver_label: str,
    keep_commodity_flows: bool = False,
    method: str = DEFAULT_METHOD,
) -> ThroughputResult:
    nodes = topo.switches
    node_index = {node: i for i, node in enumerate(nodes)}
    num_nodes = len(nodes)
    num_arcs = len(arcs)
    num_commodities = len(commodities)
    num_vars = num_commodities * num_arcs + 1  # + throughput variable t
    t_col = num_vars - 1

    arc_tail = np.fromiter(
        (node_index[u] for u, _, _ in arcs), dtype=np.int64, count=num_arcs
    )
    arc_head = np.fromiter(
        (node_index[v] for _, v, _ in arcs), dtype=np.int64, count=num_arcs
    )
    capacities = np.fromiter(
        (cap for _, _, cap in arcs), dtype=np.float64, count=num_arcs
    )

    # Equality rows: conservation for every commodity at every node except
    # the commodity's source (the source row is implied by the others).
    # Assembled as one vectorized COO batch over all commodities at once:
    # node_rows[k, i] maps node i to its conservation row for commodity k
    # (-1 at the skipped source row).
    num_eq_rows = num_commodities * (num_nodes - 1)
    src_idx = np.fromiter(
        (node_index[source] for source, _ in commodities),
        dtype=np.int64,
        count=num_commodities,
    )
    node_ids = np.arange(num_nodes, dtype=np.int64)
    row_base = (np.arange(num_commodities, dtype=np.int64) * (num_nodes - 1))[
        :, None
    ]
    node_rows = row_base + node_ids[None, :] - (node_ids[None, :] > src_idx[:, None])
    node_rows[np.arange(num_commodities), src_idx] = -1
    arc_cols = (
        np.arange(num_commodities, dtype=np.int64)[:, None] * num_arcs
        + np.arange(num_arcs, dtype=np.int64)[None, :]
    )

    head_rows = node_rows[:, arc_head]
    head_mask = head_rows >= 0
    tail_rows = node_rows[:, arc_tail]
    tail_mask = tail_rows >= 0

    # Demand terms: inflow - outflow - t * demand(v) = 0 at each dest.
    dest_commodity = np.fromiter(
        (k for k, (_, dests) in enumerate(commodities) for _ in dests),
        dtype=np.int64,
    )
    dest_nodes = np.fromiter(
        (node_index[v] for _, dests in commodities for v in dests),
        dtype=np.int64,
        count=len(dest_commodity),
    )
    dest_units = np.fromiter(
        (units for _, dests in commodities for units in dests.values()),
        dtype=np.float64,
        count=len(dest_commodity),
    )
    dest_rows = node_rows[dest_commodity, dest_nodes]
    if np.any(dest_rows < 0):
        bad = commodities[int(dest_commodity[int(np.argmin(dest_rows))])][0]
        raise FlowError(f"commodity {bad!r} demands traffic to itself")

    a_eq = sparse.coo_matrix(
        (
            np.concatenate(
                (
                    np.ones(int(head_mask.sum())),
                    -np.ones(int(tail_mask.sum())),
                    -dest_units,
                )
            ),
            (
                np.concatenate((head_rows[head_mask], tail_rows[tail_mask], dest_rows)),
                np.concatenate(
                    (
                        arc_cols[head_mask],
                        arc_cols[tail_mask],
                        np.full(len(dest_rows), t_col, dtype=np.int64),
                    )
                ),
            ),
        ),
        shape=(num_eq_rows, num_vars),
    ).tocsr()
    b_eq = np.zeros(num_eq_rows)

    # Capacity rows: sum over commodities of flow on arc a <= capacity(a).
    ub_rows = np.tile(np.arange(num_arcs, dtype=np.int64), num_commodities)
    ub_cols = np.arange(num_commodities * num_arcs, dtype=np.int64)
    a_ub = sparse.coo_matrix(
        (np.ones(num_commodities * num_arcs), (ub_rows, ub_cols)),
        shape=(num_arcs, num_vars),
    ).tocsr()
    b_ub = capacities

    objective = np.zeros(num_vars)
    objective[t_col] = -1.0  # linprog minimizes

    outcome = linprog(
        objective,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method=method,
    )
    if not outcome.success:
        raise SolverError(
            f"HiGHS failed on {topo.name!r} / {traffic.name!r}: {outcome.message}"
        )

    solution = np.asarray(outcome.x)
    throughput = float(solution[t_col])
    if keep_commodity_flows:
        # Minimum-volume re-route at the optimum (see max_concurrent_flow).
        volume = np.ones(num_vars)
        volume[t_col] = 0.0
        bounds = np.zeros((num_vars, 2))
        bounds[:, 1] = np.inf
        bounds[t_col, 0] = throughput
        outcome = linprog(
            volume,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method=method,
        )
        if not outcome.success:
            raise SolverError(
                f"HiGHS re-route failed on {topo.name!r} / {traffic.name!r}: "
                f"{outcome.message}"
            )
        solution = np.asarray(outcome.x)
    # Per-arc totals come from one vectorized reduction; the O(K x m)
    # per-commodity dict materialization below runs only when the caller
    # asked for it (exact path decomposition does, nothing else should).
    per_arc = solution[:t_col].reshape(num_commodities, num_arcs).sum(axis=0)
    arc_pairs = [(u, v) for u, v, _ in arcs]
    arc_flows = dict(zip(arc_pairs, map(float, per_arc)))
    arc_caps = {(u, v): float(cap) for u, v, cap in arcs}
    commodity_flows = None
    if keep_commodity_flows:
        per_commodity = solution[:t_col].reshape(num_commodities, num_arcs)
        commodity_flows = {}
        for k, (source, _) in enumerate(commodities):
            row = per_commodity[k]
            nonzero = np.nonzero(row > 1e-12)[0]
            flows_k = {arc_pairs[a]: float(row[a]) for a in nonzero}
            # Per-pair commodities can repeat a source; merge their flows.
            if source in commodity_flows:
                merged = commodity_flows[source]
                for arc, value in flows_k.items():
                    merged[arc] = merged.get(arc, 0.0) + value
            else:
                commodity_flows[source] = flows_k
    return ThroughputResult(
        throughput=throughput,
        arc_flows=arc_flows,
        arc_capacities=arc_caps,
        total_demand=traffic.total_demand,
        solver=solver_label,
        exact=True,
        commodity_flows=commodity_flows,
    )
