"""A max-concurrent-flow LP that follows a demand timeline in place.

Trace replay (:mod:`repro.pipeline.replay`) solves one topology under a
sequence of demand matrices, each one sparse delta away from the last.
:class:`EdgeLPModel` assembles the arc-based LP of
:mod:`repro.flow.edge_lp` once per replay window and then folds each
:class:`~repro.traffic.timeline.DemandDelta` into it:

- There is one commodity per switch, demand or not, so any delta lands
  in an existing commodity slot. Zero-demand commodities cost columns
  but leave the optimum unchanged.
- Conservation uses the *full-row* formulation: one equality row per
  (commodity, node), including the source row (redundant; presolve drops
  it). Every arc column then has exactly two nonzeros, and the CSC
  arrays keep a fixed layout.
- A delta changes only the throughput column, which is the last CSC
  column, and the total demand. Arc columns, the capacity block, bounds
  and objective never move.

Solves use :data:`~repro.flow.edge_lp.DEFAULT_METHOD`, the same HiGHS
algorithm as a cold :func:`~repro.flow.edge_lp.max_concurrent_flow`.
:func:`model_stats` exposes build/solve/delta counters.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.exceptions import FlowError, SolverError
from repro.flow.edge_lp import DEFAULT_METHOD, _aggregate_by_source
from repro.flow.result import ThroughputResult
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix

_STATS = {"built": 0, "solves": 0, "demand_deltas": 0}


def model_stats() -> dict:
    """Counters since the last reset: built / solves / demand_deltas."""
    return dict(_STATS)


def reset_model_stats() -> None:
    """Zero the counters."""
    for key in _STATS:
        _STATS[key] = 0


class EdgeLPModel:
    """One assembled max-concurrent-flow LP, mutable under demand deltas.

    Parameters
    ----------
    topo:
        The network. It is read once; the model keeps its own arrays.
    traffic:
        Starting demand matrix. Later matrices are reached through
        :meth:`apply_demand_delta`.
    method:
        :func:`scipy.optimize.linprog` method for :meth:`solve_result`.
    """

    def __init__(
        self,
        topo: Topology,
        traffic: TrafficMatrix,
        method: str = DEFAULT_METHOD,
    ) -> None:
        traffic.validate_against(topo.switches)
        if not traffic.demands:
            raise FlowError("traffic matrix has no network demands")
        arcs = topo.arcs()
        if not arcs:
            raise FlowError("topology has no links")
        self.method = method
        self.name = f"{topo.name}/{traffic.name}"
        self.num_solves = 0
        self.num_demand_deltas = 0

        nodes = topo.switches
        self._node_index = {node: i for i, node in enumerate(nodes)}
        num_nodes = len(nodes)
        by_source = dict(_aggregate_by_source(traffic))
        commodities = [
            (node, by_source.get(node, {}))
            for node in sorted(nodes, key=repr)
        ]
        num_arcs = len(arcs)
        num_commodities = len(commodities)
        self._num_nodes = num_nodes
        self._num_arcs = num_arcs
        self._num_commodities = num_commodities
        num_vars = num_commodities * num_arcs + 1
        self._t_col = num_vars - 1

        arc_tail = np.fromiter(
            (self._node_index[u] for u, _, _ in arcs),
            dtype=np.int64,
            count=num_arcs,
        )
        arc_head = np.fromiter(
            (self._node_index[v] for _, v, _ in arcs),
            dtype=np.int64,
            count=num_arcs,
        )
        self._capacities = np.fromiter(
            (cap for _, _, cap in arcs), dtype=np.float64, count=num_arcs
        )
        self._arc_pairs = [(u, v) for u, v, _ in arcs]

        # Full-row conservation in fixed-layout CSC arrays. Arc column
        # c = k * num_arcs + j occupies slots [2c, 2c+2): head row (+1)
        # then tail row (-1). The trailing throughput column carries the
        # demand terms (-units at dest rows) and +total_demand at each
        # source row (flow out of the source equals t * its demand).
        commodity_base = (
            np.arange(num_commodities, dtype=np.int64) * num_nodes
        )
        arc_indices = np.empty((num_commodities, num_arcs, 2), dtype=np.int64)
        arc_indices[:, :, 0] = commodity_base[:, None] + arc_head[None, :]
        arc_indices[:, :, 1] = commodity_base[:, None] + arc_tail[None, :]
        arc_data = np.empty(num_commodities * num_arcs * 2, dtype=np.float64)
        arc_data[0::2] = 1.0
        arc_data[1::2] = -1.0

        for source, dests in commodities:
            if source in dests:
                raise FlowError("a commodity demands traffic to itself")
        self._commodity_sources = [source for source, _ in commodities]
        self._commodity_index = {
            source: k for k, (source, _) in enumerate(commodities)
        }
        self._commodity_dests = [dict(dests) for _, dests in commodities]

        self._arc_nnz = 2 * num_commodities * num_arcs
        self._eq_indices = arc_indices.reshape(-1)
        self._eq_data = arc_data
        self._eq_indptr = np.empty(num_vars + 1, dtype=np.int64)
        self._eq_indptr[: num_vars] = np.arange(
            0, 2 * num_commodities * num_arcs + 1, 2, dtype=np.int64
        )
        self._eq_indptr[num_vars] = self._eq_indptr[num_vars - 1]
        self._num_eq_rows = num_commodities * num_nodes
        self._b_eq = np.zeros(self._num_eq_rows)
        self._rebuild_t_column()

        # Capacity block: sum over commodities of flow on arc j <=
        # capacity(j).
        ub_rows = np.tile(
            np.arange(num_arcs, dtype=np.int64), num_commodities
        )
        ub_cols = np.arange(num_commodities * num_arcs, dtype=np.int64)
        self._a_ub = sparse.coo_matrix(
            (
                np.ones(num_commodities * num_arcs),
                (ub_rows, ub_cols),
            ),
            shape=(num_arcs, num_vars),
        ).tocsr()

        self._objective = np.zeros(num_vars)
        self._objective[self._t_col] = -1.0
        self.total_demand = float(traffic.total_demand)
        _STATS["built"] += 1

    def _rebuild_t_column(self) -> None:
        """Regenerate the throughput column's CSC tail from demand state.

        The t-column is the *last* CSC column, so its entries are the tail
        of ``_eq_data`` / ``_eq_indices`` — regenerating it touches no arc
        slot and costs O(demand pairs + commodities), tiny next to a solve.
        """
        num_nodes = self._num_nodes
        dest_commodity = np.fromiter(
            (
                k
                for k, dests in enumerate(self._commodity_dests)
                for _ in dests
            ),
            dtype=np.int64,
        )
        dest_nodes = np.fromiter(
            (
                self._node_index[v]
                for dests in self._commodity_dests
                for v in dests
            ),
            dtype=np.int64,
            count=len(dest_commodity),
        )
        dest_units = np.fromiter(
            (
                units
                for dests in self._commodity_dests
                for units in dests.values()
            ),
            dtype=np.float64,
            count=len(dest_commodity),
        )
        src_rows = np.fromiter(
            (
                k * num_nodes + self._node_index[source]
                for k, source in enumerate(self._commodity_sources)
            ),
            dtype=np.int64,
            count=self._num_commodities,
        )
        src_totals = np.zeros(self._num_commodities)
        np.add.at(src_totals, dest_commodity, dest_units)
        t_rows = np.concatenate(
            (dest_commodity * num_nodes + dest_nodes, src_rows)
        )
        t_vals = np.concatenate((-dest_units, src_totals))
        t_order = np.argsort(t_rows, kind="stable")
        arc_nnz = self._arc_nnz
        self._eq_indices = np.concatenate(
            (self._eq_indices[:arc_nnz], t_rows[t_order])
        )
        self._eq_data = np.concatenate(
            (self._eq_data[:arc_nnz], t_vals[t_order])
        )
        self._eq_indptr[self._t_col + 1] = arc_nnz + len(t_rows)

    def apply_demand_delta(self, delta) -> None:
        """Fold a :class:`~repro.traffic.timeline.DemandDelta` in place.

        Only the throughput column (the CSC tail) and ``total_demand``
        change. Reverting is ``apply_demand_delta(delta.inverse())``. The
        model is left untouched on any validation failure.
        """
        from repro.traffic.timeline import ZERO_DEMAND_TOLERANCE

        pending: dict = {}
        total_change = 0.0
        for (u, v), units in delta.changes:
            k = self._commodity_index.get(u)
            if k is None:
                raise FlowError(
                    f"delta source {u!r} is not a switch in the model"
                )
            if v not in self._node_index:
                raise FlowError(
                    f"delta destination {v!r} is not a switch in the model"
                )
            key = (k, v)
            current = pending.get(key)
            if current is None:
                current = self._commodity_dests[k].get(v, 0.0)
            new_units = current + units
            if new_units < -ZERO_DEMAND_TOLERANCE:
                raise FlowError(
                    f"delta {delta.label!r} drives demand for ({u!r}, {v!r}) "
                    f"negative ({new_units})"
                )
            pending[key] = new_units
            total_change += units
        if self.total_demand + total_change <= ZERO_DEMAND_TOLERANCE:
            raise FlowError(
                f"delta {delta.label!r} leaves no network demand to solve"
            )
        for (k, v), new_units in pending.items():
            if abs(new_units) <= ZERO_DEMAND_TOLERANCE:
                self._commodity_dests[k].pop(v, None)
            else:
                self._commodity_dests[k][v] = new_units
        self.total_demand = float(
            sum(sum(dests.values()) for dests in self._commodity_dests)
        )
        self._rebuild_t_column()
        self.num_demand_deltas += 1
        _STATS["demand_deltas"] += 1

    def solve_result(self) -> ThroughputResult:
        """Optimal concurrent throughput of the current instance."""
        a_eq = sparse.csc_matrix(
            (self._eq_data, self._eq_indices, self._eq_indptr),
            shape=(self._num_eq_rows, self._t_col + 1),
        )
        outcome = linprog(
            self._objective,
            A_ub=self._a_ub,
            b_ub=self._capacities,
            A_eq=a_eq,
            b_eq=self._b_eq,
            bounds=(0, None),
            method=self.method,
        )
        if not outcome.success:
            raise SolverError(
                f"HiGHS ({self.method}) failed on {self.name!r}: "
                f"{outcome.message}"
            )
        self.num_solves += 1
        _STATS["solves"] += 1
        solution = np.asarray(outcome.x)
        per_arc = (
            solution[: self._t_col]
            .reshape(self._num_commodities, self._num_arcs)
            .sum(axis=0)
        )
        return ThroughputResult(
            throughput=float(solution[self._t_col]),
            arc_flows=dict(zip(self._arc_pairs, map(float, per_arc))),
            arc_capacities=dict(
                zip(self._arc_pairs, map(float, self._capacities))
            ),
            total_demand=self.total_demand,
            solver="edge-lp-incremental",
            exact=True,
        )
