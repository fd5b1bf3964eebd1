"""Top-level packet simulator: topology + traffic -> per-flow rates.

Builds one :class:`~repro.simulation.links.LinkQueue` per directed switch
arc plus host access links at the server line-speed, instantiates an MPTCP
flow per server pair of the traffic matrix, runs the event loop, and
reports per-flow goodput measured after a warmup period.

Rates are in the same units as link capacities, so a report's
``min_rate`` compares directly against the flow LP's per-flow throughput
(Figure 13 plots exactly this pair).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from repro.exceptions import EventLimitError, SimulationError
from repro.simulation.events import EventQueue
from repro.simulation.links import LinkQueue
from repro.simulation.mptcp import MptcpFlow
from repro.simulation.routing import host_paths_for_pair, route_table_for_traffic
from repro.topology.base import Topology
from repro.traffic.base import TrafficMatrix
from repro.util.rng import as_rng


@dataclass
class SimulationConfig:
    """Tunables for a packet-level run.

    ``duration``/``warmup`` are in simulated time units (one unit = the
    serialization time of one packet on a unit-capacity link). Goodput is
    measured over ``[warmup, duration]``.
    """

    duration: float = 400.0
    warmup: float = 150.0
    subflows: int = 8
    server_capacity: float = 1.0
    #: Packet size in capacity-units x time. Smaller packets emulate the
    #: fine-grained windows of real MTU-vs-line-rate ratios (a 1500B packet
    #: on a 10G link is a tiny fraction of the BDP); they multiply the event
    #: count, so this trades fidelity for runtime.
    packet_size: float = 1.0
    buffer_packets: int = 32
    propagation_delay: float = 0.01
    initial_cwnd: float = 2.0
    ssthresh: float = 8.0
    max_cwnd: float = 64.0
    min_rto: float = 15.0
    coupling: str = "uncoupled"
    routing_mode: str = "k-shortest"
    max_events: int = 20_000_000

    def __post_init__(self) -> None:
        if self.duration <= self.warmup:
            raise SimulationError(
                f"duration {self.duration} must exceed warmup {self.warmup}"
            )
        if self.subflows < 1:
            raise SimulationError("need at least one subflow")


@dataclass
class SimulationReport:
    """Measured outcome of a packet-level run."""

    flow_rates: dict = field(default_factory=dict)
    duration: float = 0.0
    warmup: float = 0.0
    total_delivered: int = 0
    total_dropped: int = 0
    link_utilization: dict = field(default_factory=dict)
    #: Pooled one-way packet delays sampled after warmup (time units).
    latency_samples: list = field(default_factory=list)

    @property
    def min_rate(self) -> float:
        """Worst per-flow goodput (the paper's throughput definition)."""
        if not self.flow_rates:
            raise SimulationError("report has no flows")
        return min(self.flow_rates.values())

    @property
    def mean_rate(self) -> float:
        """Average per-flow goodput."""
        if not self.flow_rates:
            raise SimulationError("report has no flows")
        return statistics.fmean(self.flow_rates.values())

    def rate_percentile(self, q: float) -> float:
        """q-th percentile of per-flow goodput (q in [0, 100])."""
        return _percentile(sorted(self.flow_rates.values()), q, "flows")

    def latency_percentile(self, q: float) -> float:
        """q-th percentile of one-way packet delay (q in [0, 100]).

        Sampled after warmup; includes queueing, so the spread between the
        median and the tail measures how full the buffers run.
        """
        return _percentile(sorted(self.latency_samples), q, "latency samples")

    @property
    def mean_latency(self) -> float:
        """Mean one-way packet delay over the measurement window."""
        if not self.latency_samples:
            raise SimulationError("report has no latency samples")
        return statistics.fmean(self.latency_samples)


def _percentile(values: list, q: float, what: str) -> float:
    if not 0 <= q <= 100:
        raise SimulationError(f"percentile must be in [0, 100], got {q}")
    if not values:
        raise SimulationError(f"report has no {what}")
    position = (len(values) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(values) - 1)
    weight = position - low
    return values[low] * (1 - weight) + values[high] * weight


class PacketLevelSimulator:
    """Assemble and run a packet-level simulation on a topology."""

    def __init__(self, topo: Topology, config: "SimulationConfig | None" = None) -> None:
        self.topo = topo
        self.config = config or SimulationConfig()
        self.events = EventQueue()
        self._links: dict[tuple, LinkQueue] = {}
        self._build_switch_links()

    def _build_switch_links(self) -> None:
        cfg = self.config
        for u, v, cap in self.topo.arcs():
            self._links[(u, v)] = LinkQueue(
                self.events,
                rate=cap,
                propagation_delay=cfg.propagation_delay,
                buffer_packets=cfg.buffer_packets,
                name=f"{u!r}->{v!r}",
            )

    def _host_link(self, endpoint: tuple, toward_host: bool) -> LinkQueue:
        """Lazily create the access link for a host endpoint."""
        key = (endpoint, "in") if toward_host else (endpoint, "out")
        if key not in self._links:
            cfg = self.config
            self._links[key] = LinkQueue(
                self.events,
                rate=cfg.server_capacity,
                propagation_delay=cfg.propagation_delay,
                buffer_packets=cfg.buffer_packets,
                name=f"host-{endpoint!r}-{'in' if toward_host else 'out'}",
            )
        return self._links[key]

    def _links_for_path(self, path: list) -> list[LinkQueue]:
        """Map a host-level node path onto LinkQueues."""
        links: list[LinkQueue] = []
        for a, b in zip(path[:-1], path[1:]):
            a_is_host = isinstance(a, tuple) and a and a[0] == "host"
            b_is_host = isinstance(b, tuple) and b and b[0] == "host"
            if a_is_host and not b_is_host:
                links.append(self._host_link(a, toward_host=False))
            elif b_is_host and not a_is_host:
                links.append(self._host_link(b, toward_host=True))
            else:
                link = self._links.get((a, b))
                if link is None:
                    raise SimulationError(f"no switch link {a!r} -> {b!r}")
                links.append(link)
        return links

    def run(self, traffic: TrafficMatrix, seed=None) -> SimulationReport:
        """Simulate ``traffic`` (which must carry server-level pairs).

        Flow start times are staggered uniformly over one time unit to
        avoid artificial synchronization.
        """
        if traffic.server_pairs is None:
            raise SimulationError(
                f"traffic {traffic.name!r} has no server-level pairs; "
                "packet simulation needs explicit endpoints"
            )
        if not traffic.server_pairs:
            raise SimulationError("traffic has no flows")
        rng = as_rng(seed)
        cfg = self.config

        # One route computation per distinct switch pair (cached across
        # runs via the pipeline's route store), not one per flow.
        route_table = route_table_for_traffic(
            self.topo,
            traffic.server_pairs,
            num_paths=cfg.subflows,
            mode=cfg.routing_mode,
        )

        flows: list[MptcpFlow] = []
        for flow_index, (src, dst) in enumerate(traffic.server_pairs):
            paths = host_paths_for_pair(
                self.topo,
                src,
                dst,
                num_paths=cfg.subflows,
                mode=cfg.routing_mode,
                seed=rng,
                route_table=route_table,
            )
            flow = MptcpFlow((flow_index, src, dst), coupling=cfg.coupling)
            for path in paths:
                flow.add_subflow(
                    self.events,
                    self._links_for_path(path),
                    initial_cwnd=cfg.initial_cwnd,
                    ssthresh=cfg.ssthresh,
                    max_cwnd=cfg.max_cwnd,
                    min_rto=cfg.min_rto,
                    packet_size=cfg.packet_size,
                )
            flows.append(flow)
            start_offset = float(rng.random())
            self.events.schedule(start_offset, flow.start)

        snapshots: dict = {}

        def take_snapshot() -> None:
            for flow in flows:
                snapshots[flow.flow_id] = flow.delivered
                flow.measure_latency = True

        self.events.schedule_at(cfg.warmup, take_snapshot)
        try:
            self.events.run_until(cfg.duration, max_events=cfg.max_events)
        except EventLimitError as exc:
            raise EventLimitError(
                f"packet simulation of {traffic.name!r} on "
                f"{self.topo.name!r} {exc}; raise "
                "SimulationConfig.max_events (or shorten duration / grow "
                "packet_size) to let the run finish"
            ) from exc

        window = cfg.duration - cfg.warmup
        flow_rates = {
            flow.flow_id: (flow.delivered - snapshots.get(flow.flow_id, 0))
            * cfg.packet_size
            / window
            for flow in flows
        }
        total_delivered = sum(flow.delivered for flow in flows)
        total_dropped = sum(link.dropped for link in self._links.values())
        link_utilization = {
            key: link.utilization(cfg.duration)
            for key, link in self._links.items()
        }
        latency_samples: list = []
        for flow in flows:
            latency_samples.extend(flow.latency_samples)
        return SimulationReport(
            flow_rates=flow_rates,
            duration=cfg.duration,
            warmup=cfg.warmup,
            total_delivered=total_delivered,
            total_dropped=total_dropped,
            link_utilization=link_utilization,
            latency_samples=latency_samples,
        )
