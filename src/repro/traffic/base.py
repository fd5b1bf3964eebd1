"""Traffic-matrix data model.

A :class:`TrafficMatrix` stores switch-level demands: ``demands[(u, v)]`` is
the number of unit server flows whose source attaches to switch ``u`` and
destination to switch ``v``. Flows between servers on the *same* switch
never touch the network (the paper's model assumes a non-blocking switch
backplane); they are counted separately in :attr:`TrafficMatrix.num_local_flows`
so throughput bounds can still account for the paper's total flow count
``f``.

Servers are addressed as ``(switch_id, local_index)`` pairs; constructors
that know individual endpoints (permutations, chunky) keep the server-level
pair list for the packet simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.exceptions import TrafficError

ServerId = tuple  # (switch_id, local_index)


def servers_of(server_map: Mapping[object, int]) -> list[ServerId]:
    """Enumerate server ids for a switch -> server-count mapping."""
    return [
        (switch, index)
        for switch, count in server_map.items()
        for index in range(int(count))
    ]


@dataclass
class TrafficMatrix:
    """Switch-level demand matrix with server-flow bookkeeping.

    Attributes
    ----------
    name:
        Workload label used in reports.
    demands:
        Mapping ``(src_switch, dst_switch) -> units``. Units are numbers of
        unit-rate server flows (possibly fractional for synthetic TMs).
    num_flows:
        Total server-level flows, including same-switch ("local") flows.
        This is the paper's ``f``.
    num_local_flows:
        Flows between co-located servers; they appear in ``num_flows`` but
        not in ``demands``.
    server_pairs:
        Optional explicit list of ``((src_switch, i), (dst_switch, j))``
        server-level flows for simulators; ``None`` for dense matrices.
    """

    name: str
    demands: dict = field(default_factory=dict)
    num_flows: int = 0
    num_local_flows: int = 0
    server_pairs: "list[tuple[ServerId, ServerId]] | None" = None
    scale_base: "str | None" = None
    scale_factor: float = 1.0

    def __post_init__(self) -> None:
        cleaned: dict = {}
        for pair, units in self.demands.items():
            u, v = pair
            if u == v:
                raise TrafficError(
                    f"demand between {u!r} and itself must be recorded as a "
                    "local flow, not a network demand"
                )
            units = float(units)
            if units > 0:
                cleaned[pair] = units
            elif units < 0:
                raise TrafficError(f"negative demand {units} for ({u!r}, {v!r})")
        self.demands = cleaned
        if self.num_flows < 0 or self.num_local_flows < 0:
            raise TrafficError("flow counts must be >= 0")

    # ------------------------------------------------------------------
    @property
    def num_network_flows(self) -> int:
        """Server flows that traverse the network (``f`` minus local)."""
        return self.num_flows - self.num_local_flows

    @property
    def total_demand(self) -> float:
        """Sum of switch-level demand units (network flows only)."""
        return float(sum(self.demands.values()))

    def pairs(self) -> list[tuple]:
        """Demand endpoints as a list of ``(u, v)`` switch pairs."""
        return list(self.demands)

    def sources(self) -> list:
        """Distinct source switches, in first-seen order."""
        seen: dict = {}
        for u, _ in self.demands:
            seen.setdefault(u, None)
        return list(seen)

    def demand(self, u, v) -> float:
        """Demand units from switch ``u`` to switch ``v`` (0 if none)."""
        return float(self.demands.get((u, v), 0.0))

    def scaled(self, factor: float) -> "TrafficMatrix":
        """Return a copy with every switch-level demand multiplied.

        Repeated application accumulates into one factor against the
        original name (``tm.scaled(2).scaled(2)`` is labelled ``"... x4"``,
        not ``"... x2 x2"``): the pre-scale name and the cumulative factor
        are carried in :attr:`scale_base` / :attr:`scale_factor`.
        """
        if factor <= 0:
            raise TrafficError(f"scale factor must be positive, got {factor}")
        base_name = self.scale_base if self.scale_base is not None else self.name
        cumulative = self.scale_factor * factor
        return TrafficMatrix(
            name=f"{base_name} x{cumulative:g}",
            demands={pair: units * factor for pair, units in self.demands.items()},
            num_flows=self.num_flows,
            num_local_flows=self.num_local_flows,
            server_pairs=self.server_pairs,
            scale_base=base_name,
            scale_factor=cumulative,
        )

    def validate_against(self, switches: Iterable) -> None:
        """Check every demand endpoint is a known switch."""
        known = set(switches)
        for u, v in self.demands:
            if u not in known:
                raise TrafficError(f"demand source {u!r} is not a switch")
            if v not in known:
                raise TrafficError(f"demand destination {v!r} is not a switch")

    def to_dict(self) -> dict:
        """JSON-safe rendering (switch ids encoded, demands repr-sorted).

        Round-trips through :meth:`from_dict`. Scale bookkeeping is not
        serialized — a scaled matrix re-loads as a plain matrix whose name
        already carries the cumulative factor.
        """
        from repro.topology.serialization import encode_node

        demands = sorted(
            (
                [encode_node(u), encode_node(v), units]
                for (u, v), units in self.demands.items()
            ),
            key=lambda entry: (str(entry[0]), str(entry[1])),
        )
        payload: dict = {
            "name": self.name,
            "demands": demands,
            "num_flows": self.num_flows,
            "num_local_flows": self.num_local_flows,
        }
        if self.server_pairs is not None:
            payload["server_pairs"] = [
                [
                    [encode_node(src[0]), int(src[1])],
                    [encode_node(dst[0]), int(dst[1])],
                ]
                for src, dst in self.server_pairs
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TrafficMatrix":
        """Invert :meth:`to_dict`."""
        from repro.topology.serialization import decode_node

        demands = {
            (decode_node(u), decode_node(v)): float(units)
            for u, v, units in payload["demands"]
        }
        server_pairs = None
        if payload.get("server_pairs") is not None:
            server_pairs = [
                ((decode_node(s), int(i)), (decode_node(d), int(j)))
                for (s, i), (d, j) in payload["server_pairs"]
            ]
        return cls(
            name=str(payload["name"]),
            demands=demands,
            num_flows=int(payload.get("num_flows", 0)),
            num_local_flows=int(payload.get("num_local_flows", 0)),
            server_pairs=server_pairs,
        )

    @classmethod
    def from_server_pairs(
        cls,
        pairs: Iterable[tuple[ServerId, ServerId]],
        name: str = "custom",
    ) -> "TrafficMatrix":
        """Aggregate explicit server-level flows into a switch-level TM."""
        kept = [(src, dst) for src, dst in pairs]
        demands: dict = {}
        num_local = 0
        for src, dst in kept:
            if src == dst:
                raise TrafficError(f"server {src!r} cannot send to itself")
            key = (src[0], dst[0])
            if key[0] == key[1]:
                num_local += 1
            else:
                demands[key] = demands.get(key, 0.0) + 1.0
        return cls(
            name=name,
            demands=demands,
            num_flows=len(kept),
            num_local_flows=num_local,
            server_pairs=kept,
        )

    def __repr__(self) -> str:
        return (
            f"TrafficMatrix(name={self.name!r}, pairs={len(self.demands)}, "
            f"flows={self.num_flows}, local={self.num_local_flows})"
        )
