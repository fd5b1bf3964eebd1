"""Capacity-charging throughput estimate (Theorem 1 at scale).

``estimate_bound`` reports the paper's path-length upper bound evaluated
against the *observed* network: total directed capacity divided by the
demand-weighted shortest-path hop sum,

    t_est = C / sum_pairs(units * dist(u, v)).

For random graphs this bound is the paper's headline comparison line —
§4 shows exact throughput tracks it within a few percent — which makes it
a remarkably good estimator exactly where exact LPs stop scaling.
Distances come from a bit-parallel multi-source BFS that advances 64
demand sources per machine word and reads hops only at demand pairs
(:func:`repro.metrics.paths.demand_hop_sum`): the hop sum of an
N = 4,000 RRG takes about 0.15 s, and N = 100,000 with sampled sources
a few seconds.
"""

from __future__ import annotations

from repro.core.bounds import demand_throughput_upper_bound
from repro.estimate.common import (
    check_error_band,
    finish_estimate,
    prepare_estimate,
)
from repro.flow.result import ThroughputResult
from repro.metrics.paths import demand_hop_sum
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix

SOLVER_LABEL = "estimate-bound"


def estimate_bound(
    topo: Topology,
    traffic: TrafficMatrix,
    unreachable: str = "error",
    error_band=None,
    chunk_size: int = 512,
    max_sources: "int | None" = None,
    seed: int = 0,
) -> ThroughputResult:
    """ASPL/capacity-charging throughput estimate (an upper bound).

    Parameters mirror the exact backends; ``error_band`` attaches a
    calibrated ``(lo, hi)`` ratio band (see
    :mod:`repro.estimate.calibrate`) to the result, ``chunk_size`` sets
    the BFS source batch size (memory/speed knob only; results do not
    depend on it).

    The returned throughput never falls below the exact LP value for the
    same instance — it is a true upper bound, tight on expanders.

    ``max_sources`` turns the exact hop sum into a sampled one (BFS from
    that many demand sources, Horvitz-Thompson scaled; deterministic in
    ``seed``) — the N = 100,000 configuration benchmarked in
    ``BENCH_solvers.json``. Sampling trades the hard upper-bound
    guarantee for an unbiased estimate of the bound whose relative error
    on permutation workloads is far below the estimator's calibrated
    band.
    """
    band = check_error_band(error_band)
    served, dropped, dropped_demand, short = prepare_estimate(
        topo, traffic, unreachable, SOLVER_LABEL
    )
    if short is not None:
        short.error_band = band
        return short
    hop_sum = demand_hop_sum(
        topo,
        served,
        chunk_size=chunk_size,
        max_sources=max_sources,
        seed=seed,
    )
    throughput = demand_throughput_upper_bound(topo.total_capacity, hop_sum)
    return finish_estimate(
        throughput, served, SOLVER_LABEL, dropped, dropped_demand, band
    )
