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

Three steps do less work than the obvious numpy call, each without moving a
bit.  The closure's dedupe (``_unique_runs``) replaces ``np.unique`` with a
stable argsort: a layer's boundary pairs come as one run per edge, each
strictly increasing (rows ascend and bit u is absent from every state), so
timsort merges the runs instead of sorting them again, and the distinct
values and the inverse index are whatever the input makes them, however
found.  The pairs (``MomentSolver._scan``) come from one flat ``flatnonzero``
over the edge-major boundary mask, cut into edges by ``searchsorted``: the
same pairs in the same order as a 2-D ``np.nonzero``, carried as a per-edge
count instead of a per-pair edge index.  And lambda_0(S) adds r * [v in S]
over the source edges in canonical order from 0.0, as ``np.bincount`` over
the source pairs did: a term is r or +0.0, and x + 0.0 == x for x >= +0.0.

A subset with a member the source reaches has finite moments, so a
non-finite value there is a float overflow (rates far below 1, say) and
raises ``OverflowError`` naming the subset and the order; +inf keeps its one
meaning, that no information ever arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .montecarlo import check_order
from .network import GossipNetwork, NodeSubset

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

    def csv_header(self) -> list[str]:
        return ["subset"] + [f"v{k}" for k in range(1, self.k_max + 1)]

    def csv_rows(self) -> Iterator[list[list[str] | list[float]]]:
        """The table body in row order, lazily, in blocks of at most
        ``TABLE_CHUNK`` rows for :func:`~gossip_aoi.reporting.emit`, which
        writes +inf as ``inf``: the CSV rows, or the members of the JSON
        ``table`` object.  A block is columns, not rows: the labels, then
        v^1..v^K with one list per order.  Its rows share their high nodes,
        so its labels are those of the low nodes joined with one label of
        the high nodes."""
        nodes = len(self.entries).bit_length()
        low = min(nodes, TABLE_CHUNK.bit_length() - 1)
        lows = _labels(range(1, low + 1))
        for block, high in enumerate(_labels(range(low + 1, nodes + 1))):
            start = block << low   # the state of the block's first row
            labels = [f"{rest},{high}" if rest else high for rest in lows] if high else lows[1:]
            yield [labels, *self.entries[max(start, 1) - 1:start + len(lows) - 1].T.tolist()]
            del labels   # let the block go before the next one is made

    # Both formats walk csv_rows once, in row order.  The second name stays
    # because bench/tracing.py traces csv_rows and json_map apart (and
    # tests/test_package.py checks that every traced name resolves); it goes
    # with the next change to the bench.
    json_map = csv_rows


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
        self._src = [(v - 1, rate) for u, v, rate in net.edges if u == 0]
        inner = [(u - 1, v - 1, rate) for u, v, rate in net.edges if u != 0]
        self._node_bits = np.left_shift(1, np.arange(net.node_count), dtype=np.int64)[:, None]
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
        the inverse index of that dedupe (:func:`_unique_runs`) is every
        pair's row in it.  Then runs the layer step back down to the subset.
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
            counts, row, lam0 = self._scan(layer)
            above, inverse = _unique_runs(layer[row] | np.repeat(self._u_bits, counts))
            # Kept until the way back, so as int32: rows index a layer that
            # passed the memo_limit check, and an inverse is used only once
            # its layer has passed it too.
            links.append((counts, row.astype(np.int32), lam0, inverse.astype(np.int32)))
            del row, inverse
            layers.append(above)
        vec = np.empty((0, self.k_max + 1))
        for layer, (counts, row, lam0, inverse) in zip(layers[-2::-1], links[::-1]):
            vec = self._layer(layer, counts, row, lam0, vec, inverse)
        self._check_finite(layers[0], vec[:, 1:])
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
                counts, row, lam0 = self._scan(part)
                above_rows = part[row] | np.repeat(self._u_bits, counts)
                table[part] = self._layer(part, counts, row, lam0, table, above_rows)
        entries = table[1:, 1:]
        self._check_finite(states[1:], entries)
        entries.flags.writeable = False
        return MomentTable(k_max=self.k_max, entries=entries)

    def _scan(self, layer: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(counts, row, lam0): a layer's boundary pairs and source rates.

        The pairs are edge-major: ``counts[e]`` pairs of inner edge e, their
        rows ascending, so every row meets its edges in canonical edge
        order.  ``lam0`` adds each row's source edges in canonical order
        from 0.0.
        """
        size = layer.size
        member = (layer & self._node_bits) != 0
        lam0 = np.zeros(size)
        for node, rate in self._src:
            lam0 += member[node] * rate
        flat = np.flatnonzero(member[self._v_nodes] > member[self._u_nodes])
        offsets = np.arange(self._rates.size + 1) * size   # edge e's pairs start at e * size
        counts = np.diff(np.searchsorted(flat, offsets))
        return counts, flat - np.repeat(offsets[:-1], counts), lam0

    def _layer(self, layer: np.ndarray, counts: np.ndarray, row: np.ndarray, lam0: np.ndarray,
               above: np.ndarray, above_rows: np.ndarray) -> np.ndarray:
        """The layer step: moment vectors of one layer's states.

        Pair i is a boundary edge of state ``layer[row[i]]``, the pairs of
        :meth:`_scan`, whose superset's vector is ``above[above_rows[i]]``.
        ``np.bincount`` adds each row's terms from 0.0 in pair order.  Only
        real pairs are summed, so a superset at +inf never meets a 0 weight
        (0 * inf would be nan).
        """
        size = layer.size
        # Indexing with the int32 links would cast them on every use.
        row = row.astype(np.intp, copy=False)
        above_rows = above_rows.astype(np.intp, copy=False)
        rate = np.repeat(self._rates, counts)
        # Rates are positive, so a zero denominator means no boundary edge
        # and no source edge: such a subset never hears from the source.
        # Elsewhere a subset without boundary edges has pushed == 0.0 and
        # denom == lam0, which is the exponential base case bit for bit.
        denom = lam0 + np.bincount(row, rate, size)
        self._zero_rate.update((layer[denom == 0.0] << 1).tolist())
        vec = np.empty((size, self.k_max + 1))
        vec[:, 0] = 1.0
        with np.errstate(divide="ignore", over="ignore"):
            for k in range(1, self.k_max + 1):
                pushed = np.bincount(row, rate * above[:, k][above_rows], size)
                vec[:, k] = (k * vec[:, k - 1] + pushed) / denom
        return vec

    def _check_finite(self, states: np.ndarray, vectors: np.ndarray) -> None:
        """Raise ``OverflowError`` where a subset with a member the source
        reaches has a non-finite moment: such a subset's moments are finite,
        so that value ran out of float range.  ``vectors[i]`` holds v^1.. of
        ``states[i]``."""
        bad = ~np.isfinite(vectors) & ((states & self.net.reachable >> 1) != 0)[:, None]
        if bad.any():
            row, k = np.argwhere(bad)[0]
            raise OverflowError(
                f"moment v^{k + 1} of subset {NodeSubset(int(states[row]) << 1)} overflows a "
                "float, though the source reaches the subset; rescale the rates"
            )


def _unique_runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` by a stable sort, which
    merges the sorted runs of ``values`` rather than sorting them again."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    inverse = np.empty_like(order)
    inverse[order] = np.repeat(np.arange(starts.size), np.diff(starts, append=ordered.size))
    return ordered[starts], inverse


def solve_moments(
    net: GossipNetwork, subset: NodeSubset | Iterable[int], k_max: int
) -> tuple[float, ...]:
    """Exact moment vector (v^0..v^k_max) of the minimum age over ``subset``."""
    return MomentSolver(net, k_max).solve(subset)
