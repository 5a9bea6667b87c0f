"""Gossip network model: a directed graph with per-edge Poisson update rates.

Node 0 is the distinguished source and always holds fresh information; the
remaining nodes are numbered 1..N.  Every directed edge (u, v) carries an
independent Poisson clock of rate lambda_uv; when it rings, v adopts u's
information if it is newer.  Edges into the source are meaningless and
rejected at validation time.

Subsets of the non-source nodes are represented as bitmasks (bit i set means
node i belongs to the subset), which keeps the superset walks done by the
moment solver cheap.  Networks are capped at 62 non-source nodes so a mask
always fits comfortably in a machine word.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

MAX_NODES = 62


class NetworkConfigError(ValueError):
    """Raised when a network description fails validation."""


class Edge(NamedTuple):
    from_node: int
    to_node: int
    rate: float


@dataclass(frozen=True)
class NodeSubset:
    """An immutable set of non-source node ids, stored as a bitmask."""

    mask: int

    @classmethod
    def of(cls, ids: Iterable[int]) -> NodeSubset:
        mask = 0
        for i in ids:
            i = int(i)
            if i == 0:
                raise ValueError("the source node 0 cannot belong to a subset")
            if i < 0:
                raise ValueError(f"invalid node id {i}")
            if i > MAX_NODES:
                raise ValueError(f"node id {i} exceeds the supported maximum of {MAX_NODES}")
            mask |= 1 << i
        return cls(mask)

    def ids(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.mask.bit_length()) if self.mask >> i & 1)

    def __contains__(self, node: int) -> bool:
        return bool(self.mask >> node & 1)

    def __iter__(self):
        return iter(self.ids())

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in self.ids()) + "}"


def as_subset(subset: NodeSubset | Iterable[int]) -> NodeSubset:
    """Coerce an id iterable (or pass through a NodeSubset) to a NodeSubset."""
    if isinstance(subset, NodeSubset):
        return subset
    return NodeSubset.of(subset)


@dataclass(frozen=True)
class GossipNetwork:
    """A validated gossip network.

    ``node_count`` is the number of non-source nodes; ``edges`` is held in a
    canonical form: parallel edges merged by summing their rates (Poisson
    clock superposition) and the result sorted by (from, to).  Construction
    canonicalizes and validates, so any reachable instance is well formed.
    """

    node_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.node_count, int) or self.node_count < 1:
            raise NetworkConfigError(f"node count must be a positive integer, got {self.node_count!r}")
        if self.node_count > MAX_NODES:
            raise NetworkConfigError(
                f"node count {self.node_count} exceeds the supported maximum of {MAX_NODES}"
            )
        merged: dict[tuple[int, int], float] = {}
        for edge in self.edges:
            u, v = int(edge[0]), int(edge[1])
            try:
                rate = float(edge[2])
            except OverflowError as exc:   # an integer beyond the float range
                raise NetworkConfigError(f"edge ({u}, {v}): rate is too large for a float") from exc
            if v == 0:
                raise NetworkConfigError(f"edge ({u}, {v}): edges into the source are not allowed")
            if u == v:
                raise NetworkConfigError(f"edge ({u}, {v}): self-loops are not allowed")
            for endpoint in (u, v):
                if endpoint < 0 or endpoint > self.node_count:
                    raise NetworkConfigError(f"edge ({u}, {v}): unknown node id {endpoint}")
            if not rate > 0 or not np.isfinite(rate):
                raise NetworkConfigError(f"edge ({u}, {v}): rate must be positive and finite, got {rate}")
            total = merged[u, v] = merged.get((u, v), 0.0) + rate
            if total == np.inf:
                raise NetworkConfigError(f"edge ({u}, {v}): parallel rates sum past the float range")
        canonical = tuple(Edge(u, v, r) for (u, v), r in sorted(merged.items()))
        object.__setattr__(self, "edges", canonical)

    # ---- derived structure (computed lazily, cached on the instance) ----

    @cached_property
    def out_edges(self) -> tuple[tuple[tuple[int, int, float], ...], ...]:
        """Per node: tuple of (to_node, edge_index, rate)."""
        out: list[list[tuple[int, int, float]]] = [[] for _ in range(self.node_count + 1)]
        for idx, (u, v, rate) in enumerate(self.edges):
            out[u].append((v, idx, rate))
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def rates(self) -> np.ndarray:
        return np.array([e.rate for e in self.edges], dtype=np.float64)

    @cached_property
    def rate_cumsum(self) -> np.ndarray:
        with np.errstate(over="ignore"):   # an infinite total is the simulator's to refuse
            return np.cumsum(self.rates)

    @cached_property
    def cumulative_rates(self) -> tuple[float, ...]:
        """``rate_cumsum`` as Python floats, for one bisection per simulated event."""
        return tuple(self.rate_cumsum.tolist())

    @cached_property
    def reachable(self) -> int:
        """Mask of the nodes with a path from the source (bit 0 included).

        Rates are positive, so a node outside it is never informed and has an
        infinite passage time in every sample.
        """
        mask = 1
        queue = [0]
        for u in queue:   # breadth first: the loop reaches what it appends
            for v, _, _ in self.out_edges[u]:
                if not mask >> v & 1:
                    mask |= 1 << v
                    queue.append(v)
        return mask

    @property
    def total_rate(self) -> float:
        """Sum of all edge rates (the superposed event rate)."""
        return self.cumulative_rates[-1] if self.edges else 0.0

    def check_subset(self, subset: NodeSubset | Iterable[int]) -> NodeSubset:
        """Validate a non-empty subset against this network and return the NodeSubset."""
        s = as_subset(subset)
        if not s:
            raise ValueError("subset must be non-empty")
        if s.mask >> (self.node_count + 1):
            bad = next(i for i in s.ids() if i > self.node_count)
            raise NetworkConfigError(f"subset node id {bad} does not exist (node count {self.node_count})")
        return s


def load_network(document: str) -> GossipNetwork:
    """Parse and validate a JSON network description.

    Expected shape: ``{"nodes": N, "edges": [{"from": u, "to": v, "rate": r}]}``
    with integer node ids 0..N, where "from" = 0 marks a source edge.
    """
    try:
        raw = json.loads(document)
    except json.JSONDecodeError as exc:
        raise NetworkConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise NetworkConfigError("network document must be a JSON object")
    for key in ("nodes", "edges"):
        if key not in raw:
            raise NetworkConfigError(f"missing required key {key!r}")
    nodes = raw["nodes"]
    if not isinstance(nodes, int) or isinstance(nodes, bool):
        raise NetworkConfigError(f"'nodes' must be an integer, got {nodes!r}")
    edges_raw = raw["edges"]
    if not isinstance(edges_raw, list):
        raise NetworkConfigError("'edges' must be a list")
    edges = []
    for i, item in enumerate(edges_raw):
        if not isinstance(item, dict):
            raise NetworkConfigError(f"edge #{i}: must be an object")
        for key in ("from", "to", "rate"):
            if key not in item:
                raise NetworkConfigError(f"edge #{i}: missing key {key!r}")
        u, v, rate = item["from"], item["to"], item["rate"]
        if not isinstance(u, int) or not isinstance(v, int) or isinstance(u, bool) or isinstance(v, bool):
            raise NetworkConfigError(f"edge #{i}: node ids must be integers, got ({u!r}, {v!r})")
        if not isinstance(rate, (int, float)) or isinstance(rate, bool):
            raise NetworkConfigError(f"edge ({u}, {v}): rate must be a number, got {rate!r}")
        edges.append(Edge(u, v, rate))
    return GossipNetwork(node_count=nodes, edges=tuple(edges))

