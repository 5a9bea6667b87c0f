"""Exact age moments via recursion over growing node subsets.

For a subset S of non-source nodes, the minimum age over S in steady state
has raw moments v_S^k satisfying

    v_S^k = (k * v_S^(k-1) + sum_e lambda_e * v_(S+e)^k) / (lambda_0(S) + sum_e lambda_e)

where e runs over the edges that carry information into S from non-source
outside nodes, S+e adjoins the outside endpoint of e, and lambda_0(S) is the
total direct source rate into S.  Subsets with no incoming boundary edges
bottom out at v^k = k! / lambda_0(S)^k — the raw moments of an exponential
with rate lambda_0(S) — and at +inf when lambda_0(S) = 0, since such a
subset can never hear from the source at all.

The right-hand side reads only supersets one node larger, so the recursion
is one dynamic program over popcount layers, run from the largest subsets
down by one layer step, ``MomentSolver._layer``.  ``MomentSolver.solve``
runs it over the closure of its subset, every subset S can grow into (for a
lattice box, the Eden clusters grown from S), built forward layer by layer;
``solve_all`` runs it over all 2^N subsets, row ``mask >> 1`` for the subset
``mask``, and its ``MomentTable`` keeps that array less row 0 and column v^0:
row ``mask // 2 - 1`` of ``entries`` holds v^1..v^K of ``mask``.  There is no
memo: a closure is what a memo would hold, and a numpy layer costs far less
per state than a Python recursion step.  Each row adds its boundary edges
in canonical edge order, left to right from 0.0, so both queries agree bit
for bit with the memoized recursion that the tests keep as the reference.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .montecarlo import check_order
from .network import GossipNetwork, NodeSubset, as_subset

EXHAUSTIVE_CAP = 20          # solve_all enumerates 2^N - 1 subsets
DEFAULT_MEMO_LIMIT = 1 << 21
TABLE_CHUNK = 1 << 12        # solve_all states per layer step and table rows per report block


class MemoLimitError(RuntimeError):
    """Raised when a query needs more subsets than its ``memo_limit``."""


def _memo_limit_error(limit: int) -> MemoLimitError:
    return MemoLimitError(f"memo table exceeded {limit} subsets; raise memo_limit to continue")


@dataclass(frozen=True, eq=False)
class MomentTable:
    """Moment vectors v^1..v^K for every non-empty subset of an N-node network.

    ``entries`` is a read-only (2^N - 1, K) array whose row ``mask // 2 - 1``
    holds the subset ``mask``; v^0 = 1 is not stored.
    """

    k_max: int
    entries: np.ndarray

    def get(self, subset: NodeSubset | Iterable[int]) -> tuple[float, ...]:
        return (1.0, *self.entries[as_subset(subset).mask // 2 - 1].tolist())

    def csv_header(self) -> list[str]:
        return ["subset"] + [f"v{k}" for k in range(1, self.k_max + 1)]

    def csv_rows(self) -> Iterator[list[list[str] | list[float]]]:
        """The CSV body in row order, lazily, in blocks of at most
        ``TABLE_CHUNK`` rows for :func:`~gossip_aoi.reporting.emit`, which
        writes +inf as ``inf``.  A block is columns, not rows: the labels,
        then v^1..v^K with one list per order.  Its rows share their high
        nodes, so its labels are those of the low nodes joined with one
        label of the high nodes."""
        nodes = len(self.entries).bit_length()
        low = min(nodes, TABLE_CHUNK.bit_length() - 1)
        lows = _labels(range(1, low + 1))
        for block, high in enumerate(_labels(range(low + 1, nodes + 1))):
            start = block << low   # the state of the block's first row
            labels = [f"{rest},{high}" if rest else high for rest in lows] if high else lows[1:]
            yield self._block(labels, slice(max(start, 1) - 1, start + len(lows) - 1))
            del labels   # let the block go before the next one is made

    def json_map(self) -> Iterator[list[list[str] | list[float]]]:
        """The JSON ``table`` object as :meth:`csv_rows` gives the CSV body,
        but in key order, the order of ``json.dumps(sort_keys=True)``.

        As "," sorts below every digit, that order is a depth-first walk
        that visits each subset's larger node ids in string order:
        "1" < "1,10" < "1,10,11" < ... < "1,2" < ... < "10".  The walk goes
        node by node over the low nodes only.  A high node's subtree is the
        node and the subsets of the nodes above it, a run of the sorted
        labels of the high nodes; those are fewer than ``TABLE_CHUNK``, so
        2^N labels are never sorted.
        """
        nodes = len(self.entries).bit_length()
        split = max(nodes - (TABLE_CHUNK.bit_length() - 1), 0)   # nodes 1..split are low
        highs = _labels(range(split + 1, nodes + 1))
        order = sorted(range(1, len(highs)), key=highs.__getitem__)
        high_states = np.array(order, dtype=np.int64) << split
        high_labels = [highs[i] for i in order]

        def walk(state: int, label: str, after: int) -> Iterator[tuple[np.ndarray, list[str]]]:
            for node in sorted(range(after + 1, nodes + 1), key=str):
                if node > split:
                    start = bisect_left(high_labels, str(node))
                    run = slice(start, start + (1 << nodes - node))
                    rests = high_labels[run]
                    yield high_states[run] | state, [f"{label},{rest}" for rest in rests] if label else rests
                else:
                    inner, inner_label = state | 1 << node - 1, f"{label},{node}" if label else str(node)
                    yield np.array([inner]), [inner_label]
                    yield from walk(inner, inner_label, node)

        states: list[np.ndarray] = []
        labels: list[str] = []
        for part, part_labels in walk(0, "", 0):
            if len(labels) + len(part_labels) > TABLE_CHUNK:
                yield self._block(labels, np.concatenate(states) - 1)
                states, labels = [], []
            states.append(part)
            labels += part_labels
        yield self._block(labels, np.concatenate(states) - 1)

    def _block(self, labels: list[str], rows: slice | np.ndarray) -> list[list[str] | list[float]]:
        return [labels, *self.entries[rows].T.tolist()]


def _labels(nodes: range) -> list[str]:
    """The label "i,j,..." of every subset of ``nodes``, "" for the empty one,
    in mask order: the subsets with the highest node repeat all earlier ones
    with that node added, in order."""
    labels = [""]
    for node in nodes:
        labels += [f"{rest},{node}" if rest else str(node) for rest in labels]
    return labels


class MomentSolver:
    """Evaluator of the subset moment recursion for one network.

    :meth:`solve` runs the layer step over one subset's closure and
    :meth:`solve_all` over every subset; no memo is kept between calls.
    Subsets found to have zero total source rate (the +inf bottom cases)
    accumulate in :attr:`zero_rate_subsets` as a diagnostic by either method.
    """

    def __init__(self, net: GossipNetwork, k_max: int, memo_limit: int = DEFAULT_MEMO_LIMIT):
        self.net = net
        self.k_max = check_order(k_max)
        if not isinstance(memo_limit, int) or not 1 <= memo_limit < 1 << 31:   # int32 links
            raise ValueError(f"memo_limit must be an integer in [1, 2^31 - 1], got {memo_limit!r}")
        self.memo_limit = memo_limit
        self._zero_rate: set[int] = set()
        # Bit v - 1 of a state stands for node v, so 62 nodes fit in int64.
        # Direct source edges feed lambda_0(S), the rest are boundary
        # candidates; canonical edge order fixes the summation order.
        src = [(v - 1, rate) for u, v, rate in net.edges if u == 0]
        inner = [(u - 1, v - 1, rate) for u, v, rate in net.edges if u != 0]
        self._bits = np.arange(net.node_count, dtype=np.int64)[:, None]
        self._src_nodes = np.array([v for v, _ in src], dtype=np.intp)
        self._src_rates = np.array([r for _, r in src], dtype=float)
        self._u_nodes = np.array([u for u, _, _ in inner], dtype=np.intp)
        self._v_nodes = np.array([v for _, v, _ in inner], dtype=np.intp)
        self._u_bits = np.left_shift(1, self._u_nodes, dtype=np.int64)
        self._rates = np.array([r for _, _, r in inner], dtype=float)

    @property
    def zero_rate_subsets(self) -> tuple[NodeSubset, ...]:
        """Subsets encountered with no boundary edges and zero source rate."""
        return tuple(NodeSubset(m) for m in sorted(self._zero_rate))

    def solve(self, subset: NodeSubset | Iterable[int]) -> tuple[float, ...]:
        """Moment vector (v^0, v^1, ..., v^k_max) for one subset.

        Builds the closure forward, one layer at a time: the next layer is
        the set of S+e over the boundary pairs (S, e) of the current one, and
        the inverse index of that ``np.unique`` is every pair's row in it.
        Then runs the layer step back down to the subset.
        """
        s = self.net.check_subset(subset)
        layers = [np.array([s.mask >> 1], dtype=np.int64)]
        links = []
        states = 0
        while layers[-1].size:
            layer = layers[-1]
            states += layer.size
            if states > self.memo_limit:
                raise _memo_limit_error(self.memo_limit)
            edge, row = self._boundary(layer)
            above, inverse = np.unique(layer[row] | self._u_bits[edge], return_inverse=True)
            # Kept until the way back, so as int32: edges number under 62^2,
            # rows index a layer that passed the memo_limit check, and an
            # inverse is used only once its layer has passed it too.
            links.append((edge.astype(np.int32), row.astype(np.int32), inverse.astype(np.int32)))
            layers.append(above)
        vec = np.empty((0, self.k_max + 1))
        for layer, (edge, row, inverse) in zip(layers[-2::-1], links[::-1]):
            vec = self._layer(layer, edge, row, vec, inverse)
        return tuple(vec[0].tolist())

    def solve_all(self) -> MomentTable:
        """Moment vectors for every non-empty subset (node count capped).

        Row ``state`` of the working table holds the subset with mask
        ``state << 1``, so a superset's row is its state; working memory is
        about (k_max + 1) * 8 * 2^N bytes.
        """
        n = self.net.node_count
        if n > EXHAUSTIVE_CAP:
            raise ValueError(
                f"exhaustive solve is capped at {EXHAUSTIVE_CAP} nodes, network has {n}"
            )
        size = 1 << n
        if size - 1 > self.memo_limit:
            raise _memo_limit_error(self.memo_limit)
        states = np.arange(size, dtype=np.int64)
        popcount = np.zeros(size, dtype=np.int8)
        for bit in range(n):
            popcount += (states >> bit) & 1
        table = np.empty((size, self.k_max + 1))
        for count in range(n, 0, -1):
            layer = np.flatnonzero(popcount == count)
            for start in range(0, layer.size, TABLE_CHUNK):
                part = layer[start:start + TABLE_CHUNK]
                edge, row = self._boundary(part)
                table[part] = self._layer(part, edge, row, table, part[row] | self._u_bits[edge])
        entries = table[1:, 1:]
        entries.flags.writeable = False
        return MomentTable(k_max=self.k_max, entries=entries)

    def _boundary(self, layer: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(edge, row) index pairs of the boundary edges of a layer's states.

        Edge-major, so every row meets its edges in canonical edge order.
        """
        member = ((layer >> self._bits) & 1).astype(bool)
        return np.nonzero(member[self._v_nodes] > member[self._u_nodes])

    def _layer(self, layer: np.ndarray, edge: np.ndarray, row: np.ndarray,
               above: np.ndarray, above_rows: np.ndarray) -> np.ndarray:
        """The layer step: moment vectors of one layer's states.

        Pair i is boundary edge ``edge[i]`` of state ``layer[row[i]]``, whose
        superset's vector is ``above[above_rows[i]]``.  ``np.bincount`` adds
        each row's terms from 0.0 in pair order.  Only real pairs are summed,
        so a superset at +inf never meets a 0 weight (0 * inf would be nan).
        """
        size = layer.size
        rate = self._rates[edge]
        src_edge, src_row = np.nonzero((layer >> self._bits[self._src_nodes]) & 1)
        lam0 = np.bincount(src_row, self._src_rates[src_edge], size)
        # Rates are positive, so a zero denominator means no boundary edge
        # and no source edge: such a subset never hears from the source.
        # Elsewhere a subset without boundary edges has pushed == 0.0 and
        # denom == lam0, which is the exponential base case bit for bit.
        denom = lam0 + np.bincount(row, rate, size)
        self._zero_rate.update((layer[denom == 0.0] << 1).tolist())
        vec = np.empty((size, self.k_max + 1))
        vec[:, 0] = 1.0
        with np.errstate(divide="ignore"):
            for k in range(1, self.k_max + 1):
                pushed = np.bincount(row, rate * above[above_rows, k], size)
                vec[:, k] = (k * vec[:, k - 1] + pushed) / denom
        return vec


def solve_moments(
    net: GossipNetwork,
    subset: NodeSubset | Iterable[int],
    k_max: int,
    memo_limit: int = DEFAULT_MEMO_LIMIT,
) -> tuple[float, ...]:
    """Exact moment vector (v^0..v^k_max) of the minimum age over ``subset``."""
    return MomentSolver(net, k_max, memo_limit).solve(subset)
