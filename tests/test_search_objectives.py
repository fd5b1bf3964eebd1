"""Tests for search objectives and the flow objective adapters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ExperimentError, FlowError
from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.objective import (
    available_throughput_solvers,
    throughput_evaluator,
)
from repro.flow.path_lp import max_concurrent_flow_paths
from repro.metrics.paths import average_shortest_path_length
from repro.metrics.spectral import algebraic_connectivity
from repro.search.objectives import (
    ASPLObjective,
    BisectionObjective,
    SpectralGapObjective,
    ThroughputObjective,
    make_objective,
)
from repro.topology.mutation import (
    apply_double_edge_swap,
    sample_double_edge_swap,
)
from repro.topology.random_regular import random_regular_topology
from repro.traffic.permutation import random_permutation_traffic
from repro.util.rng import as_rng


@pytest.fixture
def rrg():
    return random_regular_topology(16, 4, servers_per_switch=1, seed=0)


class TestThroughputEvaluator:
    def test_matches_direct_edge_lp(self, rrg):
        traffic = random_permutation_traffic(rrg, seed=1)
        evaluate = throughput_evaluator("edge-lp")
        assert evaluate(rrg, traffic) == pytest.approx(
            max_concurrent_flow(rrg, traffic).throughput
        )

    def test_forwards_solver_kwargs(self, rrg):
        traffic = random_permutation_traffic(rrg, seed=1)
        evaluate = throughput_evaluator("path-lp", k=2)
        assert evaluate(rrg, traffic) == pytest.approx(
            max_concurrent_flow_paths(rrg, traffic, k=2).throughput
        )

    def test_unknown_solver_rejected(self):
        with pytest.raises(FlowError, match="unknown solver"):
            throughput_evaluator("simplex-of-doom")

    def test_solver_listing(self):
        assert "edge-lp" in available_throughput_solvers()
        assert "garg-koenemann" in available_throughput_solvers()


class TestASPLObjective:
    def test_score_is_negated_aspl(self, rrg):
        assert ASPLObjective().evaluate(rrg) == pytest.approx(
            -average_shortest_path_length(rrg)
        )

    def test_incremental_state_tracks_swaps(self, rrg):
        objective = ASPLObjective()
        state = objective.attach(rrg)
        assert state.score() == pytest.approx(objective.evaluate(rrg))
        rng = as_rng(2)
        committed = 0
        while committed < 5:
            swap = sample_double_edge_swap(rrg, rng=rng)
            result = state.evaluate(swap)
            if result is None:
                continue
            score, token = result
            state.commit(token)
            apply_double_edge_swap(rrg, swap)
            committed += 1
            assert score == pytest.approx(objective.evaluate(rrg), abs=1e-12)


class TestProxyObjectives:
    def test_spectral_gap(self, rrg):
        assert SpectralGapObjective().evaluate(rrg) == pytest.approx(
            algebraic_connectivity(rrg, weighted=True)
        )
        assert SpectralGapObjective().attach(rrg) is None

    def test_bisection_deterministic(self):
        topo = random_regular_topology(24, 4, seed=5)
        objective = BisectionObjective(attempts=20, seed=3)
        assert objective.evaluate(topo) == objective.evaluate(topo)


class TestThroughputObjective:
    def test_fixed_traffic(self, rrg):
        traffic = random_permutation_traffic(rrg, seed=1)
        objective = ThroughputObjective(traffic, solver="edge-lp")
        assert objective.name == "throughput-edge-lp"
        assert objective.evaluate(rrg) == pytest.approx(
            max_concurrent_flow(rrg, traffic).throughput
        )

    def test_traffic_factory(self, rrg):
        from repro.traffic.alltoall import all_to_all_traffic

        objective = ThroughputObjective(all_to_all_traffic, solver="edge-lp")
        expected = max_concurrent_flow(rrg, all_to_all_traffic(rrg)).throughput
        assert objective.evaluate(rrg) == pytest.approx(expected)


class TestFactory:
    def test_builds_proxies_by_name(self):
        assert isinstance(make_objective("aspl"), ASPLObjective)
        assert isinstance(make_objective("spectral"), SpectralGapObjective)
        assert isinstance(make_objective("bisection"), BisectionObjective)

    def test_passes_instances_through(self):
        objective = ASPLObjective()
        assert make_objective(objective) is objective

    def test_throughput_requires_traffic(self, rrg):
        with pytest.raises(ExperimentError, match="traffic"):
            make_objective("throughput-edge-lp")
        traffic = random_permutation_traffic(rrg, seed=1)
        objective = make_objective("throughput-edge-lp", traffic=traffic)
        assert isinstance(objective, ThroughputObjective)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ExperimentError, match="unknown objective"):
            make_objective("world-peace")


class TestIncrementalLPState:
    """No throughput objective attaches an incremental LP state: exact-LP
    anneals take the stateless apply / check / cold-solve / revert
    branch of :func:`repro.search.annealing.anneal`."""

    def _traffic(self, topo):
        return random_permutation_traffic(topo, seed=5)

    def test_traffic_factory_not_eligible(self, rrg):
        objective = ThroughputObjective(
            lambda topo: random_permutation_traffic(topo, seed=5)
        )
        assert objective.attach(rrg) is None
        assert objective.evaluate(rrg) > 0.0

    def test_non_edge_lp_solver_not_eligible(self, rrg):
        objective = ThroughputObjective(self._traffic(rrg), solver="ecmp")
        assert objective.attach(rrg) is None

    def test_extra_solver_kwargs_not_eligible(self, rrg):
        objective = ThroughputObjective(
            self._traffic(rrg), aggregate_by_source=False
        )
        assert objective.attach(rrg) is None

    def test_evaluate_matches_cold_solve_and_reverts(self, rrg):
        from repro.search.annealing import CoolingSchedule, anneal

        traffic = self._traffic(rrg)
        links = sorted((link.u, link.v) for link in rrg.links)
        result = anneal(
            rrg,
            ThroughputObjective(traffic),
            steps=4,
            seed=3,
            schedule=CoolingSchedule(
                initial_temperature=0.05, final_temperature=0.001
            ),
        )
        # Both the accept and the revert branch ran.
        assert result.accepted >= 1 and result.rejected >= 1
        assert result.initial_score == pytest.approx(
            max_concurrent_flow(rrg, traffic).throughput, abs=1e-9
        )
        assert result.best_score == pytest.approx(
            max_concurrent_flow(result.topology, traffic).throughput,
            abs=1e-9,
        )
        # The input topology is never mutated, whatever was accepted.
        assert sorted((link.u, link.v) for link in rrg.links) == links

    def test_disconnecting_swap_rejected(self, monkeypatch):
        from repro.search import annealing
        from repro.topology.base import Topology
        from repro.topology.mutation import DoubleEdgeSwap
        from repro.traffic.base import TrafficMatrix

        # Two squares joined by two bridges: swapping both bridges into
        # same-side diagonals disconnects the graph.
        topo = Topology(name="barbell")
        for node in range(8):
            topo.add_switch(node)
        for u, v in [(0, 1), (1, 2), (2, 3), (3, 0),
                     (4, 5), (5, 6), (6, 7), (7, 4)]:
            topo.add_link(u, v)
        topo.add_link(0, 4)
        topo.add_link(2, 6)
        links = sorted((link.u, link.v) for link in topo.links)
        traffic = TrafficMatrix(name="pair", demands={(1, 5): 1.0})
        monkeypatch.setattr(
            annealing,
            "sample_double_edge_swap",
            lambda work, rng=None, max_tries=32: DoubleEdgeSwap(0, 4, 6, 2),
        )
        result = annealing.anneal(
            topo,
            ThroughputObjective(traffic),
            steps=3,
            seed=0,
            schedule=annealing.CoolingSchedule(
                initial_temperature=1.0, final_temperature=0.1
            ),
        )
        assert result.invalid == 3
        assert result.accepted == result.rejected == 0
        assert result.best_score == result.initial_score > 0.0
        assert sorted(
            (link.u, link.v) for link in result.topology.links
        ) == links
        assert sorted((link.u, link.v) for link in topo.links) == links
