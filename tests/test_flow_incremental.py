"""Differential and property tests for the replay :class:`EdgeLPModel`.

Replay builds one model per window and advances it with
``apply_demand_delta``; its correctness contract is "after any sequence
of deltas, the model's optimum equals a cold solve of the current
matrix". The tests here pin that at 1e-9 over VDC traces, and pin the
CSC arrays and validation rules the in-place update relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import FlowError
from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.incremental import (
    EdgeLPModel,
    model_stats,
    reset_model_stats,
)
from repro.topology.random_regular import random_regular_topology
from repro.traffic.permutation import random_permutation_traffic

TOL = 1e-9


def _throughput(model: EdgeLPModel) -> float:
    return model.solve_result().throughput


def _instance(num_switches: int, degree: int = 4, seed: int = 0):
    topo = random_regular_topology(
        num_switches, degree, servers_per_switch=2, seed=seed
    )
    traffic = random_permutation_traffic(topo, seed=seed + 100)
    return topo, traffic


class TestDifferentialMatrix:
    def test_revert_restores_original_optimum(self):
        from repro.traffic.timeline import DemandDelta

        topo, traffic = _instance(12, seed=3)
        model = EdgeLPModel(topo, traffic)
        base = _throughput(model)
        a, b, c = topo.switches[:3]
        delta = DemandDelta.adding({(a, c): 3.0, (b, a): 1.0})
        model.apply_demand_delta(delta)
        grown = max_concurrent_flow(topo, delta.apply(traffic)).throughput
        assert abs(_throughput(model) - grown) <= TOL
        model.apply_demand_delta(delta.inverse())
        assert abs(_throughput(model) - base) <= TOL

    def test_solve_result_matches_cold_result(self):
        topo, traffic = _instance(12, seed=4)
        warm = EdgeLPModel(topo, traffic).solve_result()
        cold = max_concurrent_flow(topo, traffic)
        assert abs(warm.throughput - cold.throughput) <= TOL
        assert warm.exact
        assert set(warm.arc_capacities) == set(cold.arc_capacities)
        assert warm.total_demand == cold.total_demand


class TestDemandDeltas:
    """Warm demand-delta application == cold rebuilds, plus slot rules."""

    def _timeline_instance(self, seed: int = 11, steps: int = 12):
        from repro.traffic.vdc import vdc_timeline

        topo = random_regular_topology(
            12, 4, servers_per_switch=3, seed=seed
        )
        timeline = vdc_timeline(
            topo,
            seed=seed,
            steps=steps,
            arrival_rate=1.5,
            mean_vms=4.0,
            mean_duration=6.0,
        )
        return topo, timeline

    def test_delta_stream_matches_cold_solves(self):
        """Warm-advance a VDC trace; every step equals a cold solve."""
        topo, timeline = self._timeline_instance()
        model = EdgeLPModel(topo, timeline.base)
        for step in range(1, timeline.num_steps):
            model.apply_demand_delta(timeline.deltas[step - 1])
            cold = max_concurrent_flow(topo, timeline.matrix_at(step))
            assert abs(_throughput(model) - cold.throughput) <= TOL, f"step {step}"
            assert model.total_demand == pytest.approx(
                sum(timeline.matrix_at(step).demands.values())
            )
        assert model.num_demand_deltas == timeline.num_steps - 1

    def test_apply_then_inverse_restores_csc_arrays(self):
        from repro.traffic.timeline import DemandDelta

        topo, timeline = self._timeline_instance(seed=3)
        model = EdgeLPModel(topo, timeline.base)
        data = model._eq_data.copy()
        indices = model._eq_indices.copy()
        indptr = model._eq_indptr.copy()
        total = model.total_demand
        switches = topo.switches
        delta = DemandDelta.adding(
            {(switches[0], switches[5]): 2.0, (switches[1], switches[2]): 1.0}
        )
        model.apply_demand_delta(delta)
        assert model.total_demand == pytest.approx(total + 3.0)
        model.apply_demand_delta(delta.inverse())
        assert np.array_equal(model._eq_data, data)
        assert np.array_equal(model._eq_indices, indices)
        assert np.array_equal(model._eq_indptr, indptr)
        assert model.total_demand == pytest.approx(total)

    def test_new_source_fills_its_slot(self):
        from repro.traffic.base import TrafficMatrix
        from repro.traffic.timeline import DemandDelta

        topo = random_regular_topology(10, 4, servers_per_switch=2, seed=2)
        a, b, c = topo.switches[:3]
        traffic = TrafficMatrix(name="one", demands={(a, b): 2.0}, num_flows=2)
        delta = DemandDelta.adding({(c, a): 1.0})

        model = EdgeLPModel(topo, traffic)
        model.apply_demand_delta(delta)
        cold = max_concurrent_flow(topo, delta.apply(traffic))
        assert abs(_throughput(model) - cold.throughput) <= TOL

    def test_invalid_deltas_leave_model_untouched(self):
        from repro.traffic.base import TrafficMatrix
        from repro.traffic.timeline import DemandDelta

        topo = random_regular_topology(10, 4, servers_per_switch=2, seed=4)
        a, b = topo.switches[:2]
        traffic = TrafficMatrix(name="one", demands={(a, b): 2.0}, num_flows=2)
        model = EdgeLPModel(topo, traffic)
        base = _throughput(model)

        with pytest.raises(FlowError, match="negative"):
            model.apply_demand_delta(DemandDelta.adding({(a, b): -5.0}))
        with pytest.raises(FlowError, match="no network demand"):
            model.apply_demand_delta(DemandDelta.adding({(a, b): -2.0}))
        with pytest.raises(FlowError, match="not a switch"):
            model.apply_demand_delta(DemandDelta.adding({("nope", b): 1.0}))
        assert model.num_demand_deltas == 0
        assert abs(_throughput(model) - base) <= TOL

    def test_delta_counter_in_model_stats(self):
        from repro.traffic.timeline import DemandDelta

        reset_model_stats()
        topo, timeline = self._timeline_instance(seed=7, steps=4)
        model = EdgeLPModel(topo, timeline.base)
        switches = topo.switches
        model.apply_demand_delta(
            DemandDelta.adding({(switches[0], switches[1]): 1.0})
        )
        assert model_stats()["demand_deltas"] == 1
        reset_model_stats()


class TestConstruction:
    def test_empty_traffic_rejected(self):
        topo, _ = _instance(8, seed=6)
        from repro.traffic.base import TrafficMatrix

        with pytest.raises(FlowError, match="no network demands"):
            EdgeLPModel(topo, TrafficMatrix(name="empty", demands={}))
