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
boxes whose interior is small; the Monte-Carlo check in
``mc_boundary_passage`` has no such cap.  It shares the first-passage
sampler's kernel: ``fpp.exp_weights`` with unit rates gives a node-major
(edges, samples) weight block, and ``fpp.relax`` sweeps it into a
(vertices, samples) distance array with whole-row operations.  The uniforms
behind the block are still drawn in (samples, edges) row-major order, since
that order decides which RNG output becomes which (sample, edge) weight.
Both directions of an edge share its weight row.  Each block returns its
passage times as one group to ``montecarlo.sample_moments``, which reduces
every block's power sums in block order, as for the other two samplers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Iterable, Iterator

import numpy as np

from . import montecarlo
from .fpp import exp_weights, relax
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
    if len(box.interior) > RECURSION_CAP:
        raise ValueError(
            f"interior has {len(box.interior)} vertices, above the recursion cap of "
            f"{RECURSION_CAP}; use mc_boundary_passage instead"
        )
    return MomentSolver(box.network, 1).solve(NodeSubset(mask))[1]


def time_constant_estimate(d: int, ell: int) -> float:
    """Exact origin-to-boundary expectation for the radius-ell box.  Divided
    by ell it tracks, but is not claimed to be, the infinite-lattice time
    constant."""
    return box_recursion(build_box(d, ell), [(0,) * d])


def _lattice_draw(box: LatticeBox, rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """One sample block: the origin-to-boundary passage times, as one group."""
    weights = exp_weights(rng, size, np.ones(len(box.edges)))
    dist = relax(box.in_arcs, weights, box.origin)
    boundary_cols = [i for i, b in enumerate(box.boundary) if b]
    return [dist[boundary_cols].min(axis=0)]


def mc_boundary_passage(
    d: int, ell: int, samples: int, seed: int = 0, workers: int = 1
) -> MomentEstimate:
    """Monte-Carlo mean passage time from the origin to the box boundary."""
    box = build_box(d, ell)
    job = (partial(_lattice_draw, box), 1, samples, montecarlo.LATTICE_BLOCK,
           montecarlo.STREAM_LATTICE)
    [[(_, estimates)]] = montecarlo.sample_moments([job], seed, workers)
    return estimates[0]
