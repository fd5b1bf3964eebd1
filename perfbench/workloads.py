"""The four benchmark workloads: inputs, one timed call, and its checks.

Every workload is a closed loop with one client: the next timed call
starts only after the previous one returned. Calls go through the public
entry points ``repro.pipeline.engine.run_grid`` and
``repro.pipeline.replay.run_replay`` with ``workers=1`` and the
library's default solver options.

Inputs derive only from the run's ``--seed``. In the cold workloads,
timed call ``rep`` of seed ``s`` runs grid ``base_seed = 1000 * s + rep``
(replay_churn numbers its set-up timelines the same way and cycles
through them), so a run sees a fresh instance in every call and its
medians average over instances instead of repeating one. warm_rerun
re-runs one grid with ``base_seed = s``.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.estimate.bound import estimate_bound
from repro.fidelity.routes import reset_route_stats
from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.incremental import reset_model_stats
from repro.flow.solvers import SolverConfig
from repro.pipeline.engine import run_grid
from repro.pipeline.replay import ReplayPlan, run_replay
from repro.pipeline.scenario import ScenarioGrid, TopologySpec, TrafficSpec
from repro.traffic import vdc

HERE = Path(__file__).resolve().parent

#: Slack for comparisons between two different solvers' optima.
ORDER_TOL = 1e-9
#: Slack for an LP optimum against a value known independently.
LP_TOL = 1e-6

PERMUTATION = TrafficSpec.make("permutation")


def call_seed(seed: int, rep: int) -> int:
    return 1000 * seed + rep


def _rrg(**params) -> TopologySpec:
    return TopologySpec.make("rrg", **params)


def _fresh_state() -> None:
    """Drop the in-process route-set and LP-model memos: a cold call must
    not reuse what an earlier call of the same process computed."""
    reset_route_stats()
    reset_model_stats()


class Workload:
    """One workload. ``setup`` builds what every timed call needs;
    ``call`` runs one timed call; ``check`` returns the number of its
    cells that fail a correctness check."""

    name = ""
    cold = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, scratch: Path) -> object:
        return None

    def cells_per_call(self, state, rep: int) -> int:
        raise NotImplementedError

    def call(self, state, rep: int, cache_dir: str, progress) -> object:
        raise NotImplementedError

    def check(self, state, rep: int, result) -> int:
        raise NotImplementedError

    def setups_agree(self, states: list) -> bool:
        """Whether repeated set-ups produced the same inputs."""
        return True

    def final_check(self) -> "tuple[int, int]":
        """Checks outside the timed calls: ``(attempted, failed)``."""
        return 0, 0


class ExactCold(Workload):
    """The paper's comparison: RRG against fat-tree under the exact LP and
    the MPTCP simulator, every call on an empty cache."""

    name = "exact_cold"
    size = (
        "rrg N=24 degree 6, 4 servers/switch and fat-tree k=6; permutation; "
        "2 replicates; edge_lp + sim_mptcp(subflows=8); 8 cells per call"
    )
    TOPOLOGIES = (
        _rrg(num_switches=24, network_degree=6, servers_per_switch=4),
        TopologySpec.make("fat-tree", k=6),
    )
    SOLVERS = (
        SolverConfig.make("edge_lp"),
        SolverConfig.make("sim_mptcp", subflows=8),
    )
    REPLICATES = 2

    def grid(self, rep: int) -> ScenarioGrid:
        return ScenarioGrid(
            name=self.name,
            topologies=self.TOPOLOGIES,
            traffics=(PERMUTATION,),
            solvers=self.SOLVERS,
            seeds=self.REPLICATES,
            base_seed=call_seed(self.seed, rep),
        )

    def cells_per_call(self, state, rep: int) -> int:
        return len(self.grid(rep))

    def call(self, state, rep, cache_dir, progress):
        _fresh_state()
        return run_grid(
            self.grid(rep), workers=1, cache_dir=cache_dir, progress=progress
        )

    def check(self, state, rep, result) -> int:
        pairs: dict = {}
        for cell in result.cells:
            s = cell.scenario
            pairs.setdefault((s.topology, s.replicate), {})[s.solver.name] = cell
        failed = 0
        for (topology, _), by_solver in pairs.items():
            lp, sim = by_solver["edge_lp"], by_solver["sim_mptcp"]
            ok = (
                not lp.cache_hit
                and not sim.cache_hit
                and sim.throughput <= lp.throughput + ORDER_TOL
            )
            if topology.kind == "fat-tree":
                # A full-bisection fat-tree routes any permutation at 1.0.
                ok = ok and abs(lp.throughput - 1.0) <= LP_TOL
            else:
                # Theorem 1: the hop-sum bound caps the exact optimum.
                bound = estimate_bound(*lp.scenario.build()).throughput
                ok = ok and lp.throughput <= bound + ORDER_TOL
            failed += 0 if ok else len(by_solver)
        return failed


def bfs_hop_sum(topo, traffic) -> float:
    """Demand-weighted hop sum by frontier expansion on a boolean
    adjacency matrix: a second implementation, independent of the
    library's ``demand_hop_sum``, to check ``estimate_bound`` against."""
    nodes = topo.switches
    index = {node: i for i, node in enumerate(nodes)}
    n = len(nodes)
    rows, cols = [], []
    for link in topo.links:
        rows += [index[link.u], index[link.v]]
        cols += [index[link.v], index[link.u]]
    adjacency = sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.float32), (rows, cols)), shape=(n, n)
    )
    by_source: dict = {}
    for (u, v), units in traffic.demands.items():
        by_source.setdefault(index[u], []).append((index[v], units))
    sources = sorted(by_source)
    total = 0.0
    for start in range(0, len(sources), 256):
        chunk = sources[start : start + 256]
        dist = np.full((n, len(chunk)), -1, dtype=np.int32)
        frontier = np.zeros((n, len(chunk)), dtype=np.float32)
        frontier[chunk, np.arange(len(chunk))] = 1.0
        dist[chunk, np.arange(len(chunk))] = 0
        hops = 0
        while frontier.any():
            hops += 1
            reached = (adjacency @ frontier > 0) & (dist < 0)
            dist[reached] = hops
            frontier = reached.astype(np.float32)
        for col, source in enumerate(chunk):
            for dest, units in by_source[source]:
                if dist[dest, col] < 0:
                    raise ValueError(f"no path {source} -> {dest}")
                total += units * float(dist[dest, col])
    return total


class EstimateLarge(Workload):
    """The scale path: the exact hop-sum bound on large RRGs, no LP."""

    name = "estimate_large"
    size = (
        "rrg degree 8, 4 servers/switch at N=2000 and N=4000; permutation; "
        "estimate_bound (exact hop sum); 2 cells per call"
    )
    SIZES = (2000, 4000)
    #: Pinned instances re-solved by every run and compared with the
    #: values recorded in ``references.json``.
    REFERENCE_SIZES = (500, 1000)
    REFERENCE_SEED = 0

    def grid(self, base_seed: int, sizes=SIZES) -> ScenarioGrid:
        return ScenarioGrid(
            name=self.name,
            topologies=(_rrg(network_degree=8, servers_per_switch=4),),
            traffics=(PERMUTATION,),
            solvers=(SolverConfig.make("estimate_bound"),),
            sizes=sizes,
            seeds=1,
            base_seed=base_seed,
        )

    def cells_per_call(self, state, rep: int) -> int:
        return len(self.SIZES)

    def call(self, state, rep, cache_dir, progress):
        _fresh_state()
        return run_grid(
            self.grid(call_seed(self.seed, rep)),
            workers=1,
            cache_dir=cache_dir,
            progress=progress,
        )

    def check(self, state, rep, result) -> int:
        failed = 0
        for cell in result.cells:
            ok = not cell.cache_hit and cell.is_estimate
            if ok and cell.scenario.size == self.SIZES[0]:
                # The smaller instance of every call is re-derived by an
                # independent BFS (the larger costs as much as the call).
                topo, traffic = cell.scenario.build()
                expected = topo.total_capacity / bfs_hop_sum(topo, traffic)
                ok = abs(cell.throughput - expected) <= 1e-12 * expected
            failed += 0 if ok else 1
        return failed

    def final_check(self):
        recorded = json.loads((HERE / "references.json").read_text())[self.name]
        result = run_grid(
            self.grid(self.REFERENCE_SEED, self.REFERENCE_SIZES), workers=1
        )
        failed = sum(
            1
            for cell in result.cells
            if cell.throughput != recorded.get(str(cell.scenario.size))
        )
        return len(result.cells), failed


class WarmRerun(Workload):
    """A re-run of a grid whose every cell is already in the cache."""

    name = "warm_rerun"
    cold = False
    size = (
        "26 cells: rrg degree 8, 4 servers/switch at N=500/1000/2000 x 2 "
        "replicates, plus 20 rrg N=64 cells (degree 4-8, 1-2 servers/switch); "
        "estimate_bound(max_sources=256), all cache hits"
    )
    LARGE = tuple(
        _rrg(num_switches=n, network_degree=8, servers_per_switch=4)
        for n in (500, 1000, 2000)
    )
    # N=64 has at most 64 demand sources, so max_sources=256 leaves the
    # small cells on the exact hop sum.
    SMALL = tuple(
        _rrg(num_switches=64, network_degree=d, servers_per_switch=s)
        for d in (4, 5, 6, 7, 8)
        for s in (1, 2)
    )

    def grid(self) -> ScenarioGrid:
        return ScenarioGrid(
            name=self.name,
            topologies=self.LARGE + self.SMALL,
            traffics=(PERMUTATION,),
            solvers=(SolverConfig.make("estimate_bound", max_sources=256),),
            seeds=2,
            base_seed=self.seed,
        )

    def setup(self, scratch):
        """Fill a new cache with the grid: the cold run a warm re-run
        follows."""
        cache_dir = tempfile.mkdtemp(dir=scratch)
        filled = run_grid(self.grid(), workers=1, cache_dir=cache_dir)
        return {
            "cache_dir": cache_dir,
            "values": [(c.key, c.throughput) for c in filled.cells],
        }

    def setups_agree(self, states: list) -> bool:
        return all(s["values"] == states[0]["values"] for s in states)

    def cells_per_call(self, state, rep: int) -> int:
        return len(self.grid())

    def call(self, state, rep, cache_dir, progress):
        return run_grid(
            self.grid(), workers=1, cache_dir=state["cache_dir"], progress=progress
        )

    def check(self, state, rep, result) -> int:
        got = [(c.key, c.throughput) for c in result.cells]
        return sum(
            1
            for cell, seen, filled in zip(result.cells, got, state["values"])
            if not cell.cache_hit or seen != filled
        ) + abs(len(got) - len(state["values"]))


class ReplayChurn(Workload):
    """A VDC tenant-churn trace replayed with the exact LP, warm-started
    through ``repro.flow.incremental`` inside one window."""

    name = "replay_churn"
    size = (
        "vdc timeline of 60 steps (arrival 2.0, 5 VMs, duration 12) over "
        "rrg N=16 degree 4, 4 servers/switch; edge_lp; one 60-step window"
    )
    STEPS = 60
    SPEC = _rrg(num_switches=16, network_degree=4, servers_per_switch=4)
    #: Timelines generated per set-up; calls cycle through them.
    PLANS = 12

    def setup(self, scratch):
        plans = []
        for rep in range(self.PLANS):
            seed = call_seed(self.seed, rep)
            topo = self.SPEC.build(seed=seed)
            timeline = vdc.vdc_timeline(
                topo,
                seed=seed,
                steps=self.STEPS,
                arrival_rate=2.0,
                mean_vms=5.0,
                mean_duration=12.0,
            )
            plan = ReplayPlan(
                name=f"{self.name}-{rep}",
                topology=self.SPEC,
                timeline=timeline,
                solver=SolverConfig.make("edge_lp"),
                seed=seed,
                window=self.STEPS,
            )
            plan.step_fingerprints()
            plans.append(plan)
        return plans

    def cells_per_call(self, state, rep: int) -> int:
        return self.STEPS

    def call(self, state, rep, cache_dir, progress):
        _fresh_state()
        return run_replay(
            state[rep % len(state)], workers=1, cache_dir=cache_dir,
            progress=progress,
        )

    def check(self, state, rep, result) -> int:
        plan = state[rep % len(state)]
        modes = result.mode_counts()
        if len(result.cells) != self.STEPS or (
            modes["cold"] + modes["warm"] + modes["cache"] != self.STEPS
        ):
            return self.STEPS
        topo = plan.build_topology()
        failed = 0
        for step in (0, self.STEPS // 2, self.STEPS - 1):
            cold = max_concurrent_flow(topo, plan.timeline.matrix_at(step))
            if abs(result.cells[step].throughput - cold.throughput) > LP_TOL:
                failed += 1
        return failed


WORKLOADS = {
    cls.name: cls for cls in (ExactCold, EstimateLarge, WarmRerun, ReplayChurn)
}
