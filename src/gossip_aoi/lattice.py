"""First-passage times on finite boxes of the integer lattice Z^d.

The box of radius ell is every integer point with l1 norm <= ell; points of
norm exactly ell form the absorbing boundary.  Every nearest-neighbour edge
inside the box carries an independent Exp(1) weight.  The expected passage
time from a growing cluster S to the boundary satisfies

    v_S = (1 + sum_e v_(S+e)) / |E(S)|

where E(S) is the set of box edges with exactly one endpoint in S and a term
is 0 whenever the edge's outside endpoint lies on the boundary: the first
boundary edge to fire costs Exp(|E(S)|) in expectation (hence the 1/|E(S)|
from the unit rates) and otherwise grows the cluster by one vertex.  That
growth is the Eden model, and the passage time is first-passage percolation.

Collapse the boundary into a source and reverse time, and this is the gossip
first-moment recursion of ``moments``: the interior vertices are the nodes,
each interior edge is a unit-rate arc each way, and each interior-boundary
edge is a unit-rate source arc, so lambda_0(S) counts the boundary edges of S.
``LatticeBox.network`` builds that network and ``box_recursion`` reads v_S
from ``MomentSolver.solve``, which runs over the clusters grown from S.

The recursion enumerates clusters of interior vertices, so it is capped at
boxes whose interior is small; ``time_constant_estimate`` counts the
interior before it builds the box.  The Monte-Carlo check in
``mc_boundary_passage`` has no such cap.  It runs the first-passage
sampler's draw on the raw box, not on ``LatticeBox.network``, so it stays
an independent check of that mapping: unit-rate weights, both directions
of an edge sharing its weight row, relaxed from the origin, and the
boundary vertices as the one group.  The weight draw covers every box
edge, but the arcs out of the boundary are pruned once per call, before
any block is relaxed (``fpp.prune_arcs``): a path reaches the boundary
before it can use one, and fl(a + w) >= a, so they never lower the boundary
minimum.  The relaxation plan (``fpp.relax_plan``), built once beside the
pruning, drops the arcs into the origin as well.  On a radius-2 box what is
left points away from the origin, so the one pass in breadth-first order is
exact and the worklist after it stays empty.  A deeper box keeps the arcs
that lead back toward the origin, and the worklist reads them only where a
tail row dropped.  Each block is drawn and relaxed one tile at a time
(``fpp.tile_samples``: 2048 samples on the d = 8, l = 2 box and on every
box with more rows), so a block's working set is one tile's weights and
distances, not the block's.  ``montecarlo.sample_moments`` reduces every
block's power sums in block order, as for the other two samplers, and with
workers > 1 runs the blocks on threads that share the box's plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Iterator

import numpy as np

from . import montecarlo
from .fpp import passage_draw, prune_arcs, relax_plan
from .moments import MomentSolver
from .montecarlo import MomentEstimate
from .network import Edge, GossipNetwork, NodeSubset, group_in_arcs

# An l1 ball has an odd number of points, so an accepted interior has at most
# 21 vertices, and the at most 2^20 clusters grown from a vertex fit
# moments.DEFAULT_MEMO_LIMIT.
RECURSION_CAP = 22

Vertex = tuple[int, ...]


@dataclass(frozen=True)
class LatticeBox:
    """The l1 ball of radius ell in Z^d with its nearest-neighbour edges."""

    d: int
    ell: int
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]   # index pairs (i, j), i < j in vertex order

    @cached_property
    def index(self) -> dict[Vertex, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def boundary(self) -> tuple[bool, ...]:
        return tuple(sum(abs(c) for c in v) == self.ell for v in self.vertices)

    @cached_property
    def interior(self) -> tuple[int, ...]:
        """Vertex indices with l1 norm < ell, in vertex order."""
        return tuple(i for i, b in enumerate(self.boundary) if not b)

    @cached_property
    def origin(self) -> int:
        return self.index[(0,) * self.d]

    @cached_property
    def in_arcs(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per vertex: (neighbour indices, edge indices), both directions of
        every undirected edge sharing one weight slot."""
        arcs = (arc for e, (i, j) in enumerate(self.edges) for arc in ((j, i, e), (i, j, e)))
        return group_in_arcs(len(self.vertices), arcs)

    @cached_property
    def network(self) -> GossipNetwork:
        """The gossip network whose subset first moments are the box values.

        Node p + 1 is the p-th interior vertex.  An interior-interior edge
        becomes one unit-rate arc each way; an interior-boundary edge becomes
        a unit-rate source arc, and parallel source arcs merge, so a vertex's
        source rate is its boundary degree.  Boundary-boundary edges drop out.
        """
        node = {v: p + 1 for p, v in enumerate(self.interior)}
        arcs = []
        for i, j in self.edges:
            if i in node and j in node:
                arcs += [Edge(node[i], node[j], 1.0), Edge(node[j], node[i], 1.0)]
            elif i in node or j in node:
                arcs.append(Edge(0, node[i] if i in node else node[j], 1.0))
        return GossipNetwork(node_count=len(self.interior), edges=tuple(arcs))


def _ball(d: int, budget: int) -> Iterator[Vertex]:
    """Integer points of Z^d with l1 norm <= budget, in lexicographic order."""
    if d == 0:
        yield ()
        return
    for c in range(-budget, budget + 1):
        for rest in _ball(d - 1, budget - abs(c)):
            yield (c,) + rest


def build_box(d: int, ell: int) -> LatticeBox:
    """Construct the radius-ell box with canonical vertex and edge order."""
    if d < 1 or ell < 1:
        raise ValueError(f"need d >= 1 and ell >= 1, got d={d}, ell={ell}")
    vertices = tuple(_ball(d, ell))
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for v in vertices:
        for axis in range(d):
            nb = v[:axis] + (v[axis] + 1,) + v[axis + 1 :]
            j = index.get(nb)
            if j is not None:
                i = index[v]
                edges.append((min(i, j), max(i, j)))
    return LatticeBox(d=d, ell=ell, vertices=vertices, edges=tuple(sorted(edges)))


def box_recursion(box: LatticeBox, cluster: Iterable[Vertex]) -> float:
    """Expected Exp(1) passage time from the cluster to the box boundary.

    The first moment of the cluster in ``box.network``; 0 when the cluster
    already touches the boundary.
    """
    pos = {v: p for p, v in enumerate(box.interior)}
    members = list(cluster)
    if not members:
        raise ValueError("cluster must be non-empty")
    mask = 0
    for v in members:
        v = tuple(int(c) for c in v)
        idx = box.index.get(v)
        if idx is None:
            raise ValueError(f"vertex {v} lies outside the box (d={box.d}, ell={box.ell})")
        if box.boundary[idx]:
            return 0.0
        mask |= 1 << (pos[idx] + 1)
    _check_cap(len(box.interior))
    return MomentSolver(box.network, 1).solve(NodeSubset(mask))[1]


def _check_cap(interior: int) -> None:
    if interior > RECURSION_CAP:
        raise ValueError(
            f"interior has {interior} vertices, above the recursion cap of "
            f"{RECURSION_CAP}; use mc_boundary_passage instead"
        )


def _interior_size(d: int, ell: int) -> int:
    """Points of Z^d with l1 norm at most ell - 1: the interior of the
    radius-ell box, counted by the number k of non-zero coordinates: the
    sum of 2^k C(d, k) C(ell - 1, k), each binomial carried to the next k by
    C(n, k + 1) = C(n, k) (n - k) / (k + 1) in exact integers."""
    total, term = 0, 1
    for k in range(min(d, ell - 1) + 1):
        total += term
        term = term * 2 * (d - k) * (ell - 1 - k) // (k + 1) ** 2
    return total


def time_constant_estimate(d: int, ell: int) -> float:
    """Exact origin-to-boundary expectation for the radius-ell box.  Divided
    by ell it tracks, but is not claimed to be, the infinite-lattice time
    constant.  A box whose interior is above the recursion cap is refused
    before it is built."""
    if d >= 1 and ell >= 1:   # build_box reports bad arguments
        _check_cap(_interior_size(d, ell))
    return box_recursion(build_box(d, ell), [(0,) * d])


def mc_boundary_passage(
    d: int, ell: int, samples: int, seed: int = 0, workers: int = 1
) -> MomentEstimate:
    """Monte-Carlo mean passage time from the origin to the box boundary."""
    box = build_box(d, ell)
    groups = (tuple(i for i, b in enumerate(box.boundary) if b),)
    plan = relax_plan(prune_arcs(box.in_arcs, groups), box.origin)
    draw = partial(passage_draw, plan, np.ones(len(box.edges)), groups)
    job = (draw, 1, samples, montecarlo.FPP_BLOCK, montecarlo.STREAM_LATTICE)
    [[(_, estimates)]] = montecarlo.sample_moments([job], seed, workers)
    return estimates[0]
