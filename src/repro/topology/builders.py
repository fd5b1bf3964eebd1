"""Randomized graph construction with degree budgets.

These builders implement the construction the paper (following Jellyfish)
relies on: wire random simple graphs subject to per-node port budgets, using
local rewiring moves to escape dead ends. Two primitives cover every
generator in this library:

- :func:`random_graph_from_degrees` — a random simple graph where node ``v``
  receives (up to) ``degrees[v]`` edges,
- :func:`random_bipartite_matching` — a random set of cross edges between two
  node groups consuming exactly the requested stubs on each side.

Both are uniform-ish samplers: they follow the incremental random matching
procedure of Jellyfish (random free pairs plus edge swaps), which is the
construction the paper's experiments use, rather than an exact uniform
sampler over all graphs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import GraphConstructionError
from repro.util.rng import as_rng

# After this many consecutive failed random pair draws, fall back to an
# exhaustive scan for a connectable pair before attempting rewiring moves.
_STALL_LIMIT = 64


class _AliveIndex:
    """Positional view of the free-node dict for O(1) sampling.

    The fill loop draws ``nodes[rng.integers(len(nodes))]`` where ``nodes``
    is ``list(free)`` — the initial node order minus exhausted nodes.
    Materializing that list per placed edge is the O(N) factor that made
    N = 100,000 builds take minutes. This index keeps the initial positions
    of the live nodes in ascending order instead: the ``k``-th node of
    ``list(free)`` is ``order[live[k]]``, and ``remove`` is a bisect plus a
    C-level ``del``. Because it preserves that exact ordering the RNG
    draws — and therefore the sampled graph — are byte-identical to the
    list-based fill (the builder goldens pin this).
    """

    __slots__ = ("order", "_pos", "live")

    def __init__(self, nodes) -> None:
        self.order = list(nodes)
        self._pos = {node: i for i, node in enumerate(self.order)}
        self.live = list(range(len(self.order)))

    def remove(self, node) -> None:
        live = self.live
        del live[bisect_left(live, self._pos[node])]


class _FreeDict(dict):
    """Free-port budgets with a live positional index over the key order.

    Budgets only shrink after construction, through :meth:`spend`, which
    deletes a node's entry (and its index slot) when its budget hits 0.
    """

    def __init__(self, items) -> None:
        super().__init__(items)
        self.alive = _AliveIndex(self)

    def spend(self, node, amount: int = 1) -> None:
        left = self[node] - amount
        if left:
            self[node] = left
        else:
            del self[node]
            self.alive.remove(node)


def is_graphical(degrees: Sequence[int]) -> bool:
    """Erdős–Gallai test: can ``degrees`` be realized by a simple graph?

    Returns ``False`` for negative entries or odd degree sums.
    """
    degs = sorted((int(d) for d in degrees), reverse=True)
    if any(d < 0 for d in degs):
        return False
    n = len(degs)
    if n == 0:
        return True
    if any(d > n - 1 for d in degs):
        return False
    if sum(degs) % 2 != 0:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += degs[k - 1]
        tail = sum(min(d, k) for d in degs[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


class _EdgeSet:
    """Mutable simple-graph edge set over fixed nodes: adjacency sets."""

    def __init__(self, nodes) -> None:
        self.adjacency: dict[object, set] = {node: set() for node in nodes}
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def has(self, u, v) -> bool:
        return v in self.adjacency.get(u, ())

    def add(self, u, v) -> None:
        if u == v:
            raise GraphConstructionError(f"attempted self-loop at {u!r}")
        if self.has(u, v):
            raise GraphConstructionError(f"attempted parallel edge {u!r}-{v!r}")
        self.adjacency[u].add(v)
        self.adjacency[v].add(u)
        self.size += 1

    def remove(self, u, v) -> None:
        if not self.has(u, v):
            raise GraphConstructionError(f"no edge {u!r}-{v!r} to remove")
        self.adjacency[u].discard(v)
        self.adjacency[v].discard(u)
        self.size -= 1

    def neighbors(self, u) -> set:
        return self.adjacency.get(u, set())

    def as_pairs(self) -> list[tuple]:
        # Sorted output: set iteration order depends on PYTHONHASHSEED, and
        # a seeded construction must yield the same graph in every process
        # (content-addressed caches key on it). Each edge is ``(u, v)``
        # with ``repr(u) <= repr(v)``, and the list is stably sorted by
        # ``repr((u, v))``, spelled from one cached ``repr`` per node.
        # Distinct nodes with equal reprs keep adjacency order.
        text = {node: repr(node) for node in self.adjacency}
        pairs, keys, done = [], [], set()
        for u, neighbors in self.adjacency.items():
            tu = text[u]
            for v in neighbors:
                tv = text[v]
                if tu < tv or (tu == tv and v not in done):
                    pairs.append((u, v))
                    keys.append(f"({tu}, {tv})")
            done.add(u)
        return [pairs[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]


def random_graph_from_degrees(
    degrees: Mapping[object, int],
    rng=None,
    allow_remainder: bool = True,
    retries: int = 8,
    clamp: bool = False,
) -> list[tuple]:
    """Sample a random simple graph honoring per-node degree budgets.

    Follows the Jellyfish procedure: repeatedly join two random non-adjacent
    nodes that still have free ports; when stuck, free up placement room by
    removing a random existing edge ``(u, v)`` whose endpoints are both
    non-adjacent to a node ``x`` with two or more free ports and adding
    ``(x, u)`` and ``(x, v)`` instead.

    Parameters
    ----------
    degrees:
        Mapping node -> number of edge endpoints ("stubs") to place at that
        node. Budgets need not form a graphical sequence.
    allow_remainder:
        If ``True`` (default), stubs that cannot be placed (odd total, or a
        structurally stuck configuration) are silently left unused — exactly
        what happens to stray ports in a physical deployment. If ``False``,
        any unplaced stub raises :class:`GraphConstructionError`.
    retries:
        Number of independent attempts before giving up when
        ``allow_remainder`` is ``False``.
    clamp:
        If ``True``, budgets larger than ``n - 1`` (impossible in a simple
        graph) are silently clamped to ``n - 1`` — the surplus ports stay
        unused, as in a physical deployment. If ``False`` (default) such a
        budget raises :class:`GraphConstructionError`.

    Returns
    -------
    list of edge tuples ``(u, v)``.
    """
    rng = as_rng(rng)
    cleaned = {node: int(budget) for node, budget in degrees.items()}
    for node, budget in cleaned.items():
        if budget < 0:
            raise ValueError(f"degree budget for {node!r} must be >= 0, got {budget}")
    max_degree = len(cleaned) - 1
    for node, budget in cleaned.items():
        if budget > max_degree:
            if clamp:
                cleaned[node] = max_degree
            else:
                raise GraphConstructionError(
                    f"degree budget {budget} at {node!r} exceeds n-1 = {max_degree}"
                )

    last_error: "GraphConstructionError | None" = None
    for _ in range(max(1, retries)):
        try:
            edge_set, free = _fill_random_graph(cleaned, rng)
        except GraphConstructionError as exc:
            last_error = exc
            continue
        remainder = sum(free.values())
        if remainder and not allow_remainder:
            last_error = GraphConstructionError(
                f"{remainder} stubs could not be placed"
            )
            continue
        return edge_set.as_pairs()
    raise last_error if last_error is not None else GraphConstructionError(
        "graph construction failed"
    )


def _fill_random_graph(
    degrees: Mapping[object, int], rng: np.random.Generator
) -> tuple[_EdgeSet, dict]:
    """One attempt of the incremental random fill; returns edges + leftovers."""
    edge_set = _EdgeSet(degrees)
    free = _FreeDict(
        (node, budget) for node, budget in degrees.items() if budget > 0
    )
    adjacency = edge_set.adjacency
    order, live = free.alive.order, free.alive.live
    draw = rng.integers
    stalls = 0
    while True:
        # ``live`` mirrors list(free) — entries are deleted the moment a
        # budget hits 0, so every key is a free node. The slow paths below
        # (scan, rewire) materialize the actual list; the hot draw never
        # does.
        count = len(live)
        if count < 2:
            # All remaining stubs sit on one node (or none); only a rewiring
            # move can still make progress.
            nodes = list(free)
            if not nodes or not _rewire_for_progress(edge_set, free, rng, nodes):
                break
            continue
        # Two scalar draws consume the bit stream exactly as one size=2
        # draw does, at well under half the cost.
        u, v = order[live[draw(count)]], order[live[draw(count)]]
        if u != v and v not in adjacency[u]:
            # _consume without edge_set.add's re-checks: the hot path.
            adjacency[u].add(v)
            adjacency[v].add(u)
            edge_set.size += 1
            free.spend(u)
            free.spend(v)
            stalls = 0
            continue
        stalls += 1
        if stalls < _STALL_LIMIT:
            continue
        stalls = 0
        nodes = list(free)
        if _connect_any_free_pair(edge_set, free, rng, nodes):
            continue
        if not _rewire_for_progress(edge_set, free, rng, nodes):
            break
    return edge_set, dict(free)


def _consume(edge_set: _EdgeSet, free: _FreeDict, u, v) -> None:
    edge_set.add(u, v)
    free.spend(u)
    free.spend(v)


def _connect_any_free_pair(
    edge_set: _EdgeSet, free: _FreeDict, rng: np.random.Generator, nodes: list
) -> bool:
    """Exhaustively look for any connectable pair among free-port nodes."""
    order = list(nodes)
    rng.shuffle(order)
    for i, u in enumerate(order):
        if free.get(u, 0) <= 0:
            continue
        taken = edge_set.neighbors(u)
        for v in order[i + 1 :]:
            if free.get(v, 0) <= 0 or v in taken:
                continue
            _consume(edge_set, free, u, v)
            return True
    return False


def _rewire_for_progress(
    edge_set: _EdgeSet, free: _FreeDict, rng: np.random.Generator, nodes: list
) -> bool:
    """Apply one Jellyfish rewiring move so the greedy fill can continue.

    Case 1: some node ``x`` has >= 2 free ports. Find an edge ``(u, v)`` with
    both endpoints non-adjacent to ``x``; replace it with ``(x, u), (x, v)``.

    Case 2: exactly two distinct free-port nodes remain and they are already
    adjacent. Find an edge ``(a, b)`` disjoint from them with ``(u, a)`` and
    ``(v, b)`` absent; replace it with those two edges.
    """
    if not edge_set:
        return False
    multi = [node for node in nodes if free.get(node, 0) >= 2]
    rng.shuffle(multi)
    edge_pairs = edge_set.as_pairs()
    for x in multi:
        taboo = edge_set.neighbors(x)
        order = rng.permutation(len(edge_pairs))
        for idx in order:
            u, v = edge_pairs[int(idx)]
            if u == x or v == x or u in taboo or v in taboo:
                continue
            # (u, v) is replaced by (x, u), (x, v): only x spends stubs.
            edge_set.remove(u, v)
            edge_set.add(x, u)
            edge_set.add(x, v)
            free.spend(x, 2)
            return True
    singles = [node for node in nodes if free.get(node, 0) >= 1]
    if len(singles) >= 2:
        u, v = singles[0], singles[1]
        order = rng.permutation(len(edge_pairs))
        for idx in order:
            a, b = edge_pairs[int(idx)]
            if {a, b} & {u, v}:
                continue
            for x, y in ((a, b), (b, a)):
                if not edge_set.has(u, x) and not edge_set.has(v, y):
                    # (x, y) is replaced by (u, x), (v, y): u and v each
                    # spend one stub; x and y keep their degrees.
                    edge_set.remove(x, y)
                    edge_set.add(u, x)
                    edge_set.add(v, y)
                    free.spend(u)
                    free.spend(v)
                    return True
    return False


def random_bipartite_matching(
    stubs_a: Mapping[object, int],
    stubs_b: Mapping[object, int],
    rng=None,
    forbidden: "set[frozenset] | None" = None,
    allow_remainder: bool = False,
    retries: int = 8,
) -> list[tuple]:
    """Randomly wire stubs on side A to stubs on side B without parallels.

    Used to realize an exact number of cross-cluster links: callers choose
    how many stubs each node contributes, this function produces a random
    simple bipartite edge set consuming them.

    Parameters
    ----------
    stubs_a, stubs_b:
        Mapping node -> number of cross edges it must receive. The two sides
        must sum to the same total (that total is the number of edges).
    forbidden:
        Optional set of ``frozenset({a, b})`` pairs that must not be created
        (e.g. already-existing links).
    allow_remainder:
        As in :func:`random_graph_from_degrees`.
    """
    rng = as_rng(rng)
    total_a = sum(int(v) for v in stubs_a.values())
    total_b = sum(int(v) for v in stubs_b.values())
    if total_a != total_b:
        raise GraphConstructionError(
            f"stub totals differ: side A has {total_a}, side B has {total_b}"
        )
    overlap = set(stubs_a) & set(stubs_b)
    if overlap:
        raise GraphConstructionError(
            f"nodes appear on both sides: {sorted(map(repr, overlap))}"
        )
    forbidden = forbidden or set()

    last_error: "GraphConstructionError | None" = None
    for _ in range(max(1, retries)):
        result = _fill_bipartite(stubs_a, stubs_b, rng, forbidden)
        if result is not None:
            edge_set, free_a, free_b = result
            remainder = sum(free_a.values()) + sum(free_b.values())
            if remainder == 0 or allow_remainder:
                return edge_set.as_pairs()
            last_error = GraphConstructionError(
                f"{remainder} cross stubs could not be placed"
            )
    raise last_error if last_error is not None else GraphConstructionError(
        "bipartite matching failed"
    )


def _fill_bipartite(
    stubs_a: Mapping[object, int],
    stubs_b: Mapping[object, int],
    rng: np.random.Generator,
    forbidden: set,
):
    """One attempt at the bipartite random fill with a rewiring fallback."""
    edge_set = _EdgeSet({**stubs_a, **stubs_b})
    side_a_all = set(stubs_a)
    free_a = {node: int(v) for node, v in stubs_a.items() if v > 0}
    free_b = {node: int(v) for node, v in stubs_b.items() if v > 0}
    stalls = 0
    while free_a and free_b:
        a_nodes = list(free_a)
        b_nodes = list(free_b)
        u = a_nodes[int(rng.integers(len(a_nodes)))]
        v = b_nodes[int(rng.integers(len(b_nodes)))]
        blocked = edge_set.has(u, v) or frozenset((u, v)) in forbidden
        if not blocked:
            _consume_bipartite(edge_set, free_a, free_b, u, v)
            stalls = 0
            continue
        stalls += 1
        if stalls < _STALL_LIMIT:
            continue
        stalls = 0
        if _bipartite_scan(edge_set, free_a, free_b, rng, forbidden):
            continue
        if not _bipartite_rewire(edge_set, free_a, free_b, rng, forbidden, side_a_all):
            break
    return edge_set, free_a, free_b


def _consume_bipartite(edge_set: _EdgeSet, free_a: dict, free_b: dict, u, v) -> None:
    edge_set.add(u, v)
    free_a[u] -= 1
    if free_a[u] == 0:
        del free_a[u]
    free_b[v] -= 1
    if free_b[v] == 0:
        del free_b[v]


def _bipartite_scan(
    edge_set: _EdgeSet,
    free_a: dict,
    free_b: dict,
    rng: np.random.Generator,
    forbidden: set,
) -> bool:
    a_nodes = list(free_a)
    b_nodes = list(free_b)
    rng.shuffle(a_nodes)
    rng.shuffle(b_nodes)
    for u in a_nodes:
        taken = edge_set.neighbors(u)
        for v in b_nodes:
            if v in taken or frozenset((u, v)) in forbidden:
                continue
            _consume_bipartite(edge_set, free_a, free_b, u, v)
            return True
    return False


def _bipartite_rewire(
    edge_set: _EdgeSet,
    free_a: dict,
    free_b: dict,
    rng: np.random.Generator,
    forbidden: set,
    side_a_all: set,
) -> bool:
    """Free a placement by splitting an existing cross edge.

    With free stubs at ``u`` (side A) and ``v`` (side B) whose direct edge is
    blocked, find an existing cross edge ``(x, y)`` — ``x`` on side A — such
    that ``(u, y)`` and ``(x, v)`` are both available; replace it with those
    two edges, consuming one stub on each side.
    """
    if not free_a or not free_b or not edge_set:
        return False
    u = next(iter(free_a))
    v = next(iter(free_b))
    edge_pairs = edge_set.as_pairs()
    order = rng.permutation(len(edge_pairs))
    for idx in order:
        first, second = edge_pairs[int(idx)]
        x, y = (first, second) if first in side_a_all else (second, first)
        if x == u or y == v:
            continue
        if (
            not edge_set.has(u, y)
            and not edge_set.has(x, v)
            and frozenset((u, y)) not in forbidden
            and frozenset((x, v)) not in forbidden
        ):
            edge_set.remove(x, y)
            edge_set.add(u, y)
            edge_set.add(x, v)
            free_a[u] -= 1
            if free_a[u] == 0:
                del free_a[u]
            free_b[v] -= 1
            if free_b[v] == 0:
                del free_b[v]
            return True
    return False
