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

The recursion only ever visits strict supersets, so it can be evaluated in
either direction.  ``MomentSolver.solve`` answers one subset by memoized
recursion over subset bitmasks, which terminates at the full node set and
touches only the supersets it needs (any network up to 62 nodes).
``MomentSolver.dense`` fills the whole table bottom-up: a dense array over
all 2^N subsets, one popcount layer at a time from the full set down to the
singletons; ``solve_all`` wraps that array into a ``MomentTable``, and
``lattice.box_recursion`` reads its box values from it.  Both directions
perform the same floating-point operations in the same order (boundary edges
in canonical edge order, accumulated left to right from 0.0), so they agree
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .montecarlo import check_order
from .network import GossipNetwork, NodeSubset, as_subset

EXHAUSTIVE_CAP = 20          # solve_all enumerates 2^N - 1 subsets
DEFAULT_MEMO_LIMIT = 1 << 21


class MemoLimitError(RuntimeError):
    """Raised when the subset memo table outgrows its configured limit."""


def _memo_limit_error(limit: int) -> MemoLimitError:
    return MemoLimitError(f"memo table exceeded {limit} subsets; raise memo_limit to continue")


@dataclass(frozen=True)
class MomentTable:
    """Moment vectors (v^0..v^K) for every non-empty subset, keyed by bitmask."""

    k_max: int
    entries: dict[int, tuple[float, ...]]

    def get(self, subset: NodeSubset | Iterable[int]) -> tuple[float, ...]:
        return self.entries[as_subset(subset).mask]

    def csv_header(self) -> list[str]:
        return ["subset"] + [f"v{k}" for k in range(1, self.k_max + 1)]

    def csv_rows(self) -> list[list[str]]:
        return [
            [label] + [_render_value(v) for v in self.entries[mask][1:]]
            for mask, label in self._labels()
        ]

    def json_map(self) -> dict[str, list[float | str]]:
        return {
            label: [_render_value_json(v) for v in self.entries[mask][1:]]
            for mask, label in self._labels()
        }

    def _labels(self) -> list[tuple[int, str]]:
        """(mask, "i,j,...") in ascending mask order.

        A mask's label extends the label of the mask without its highest bit,
        which sorts earlier, so a full table builds each label with one join.
        """
        labels: dict[int, str] = {}
        out = []
        for mask in sorted(self.entries):
            top = mask.bit_length() - 1
            rest = mask ^ (1 << top)
            if rest:
                prefix = labels.get(rest) or ",".join(map(str, NodeSubset(rest).ids()))
                label = f"{prefix},{top}"
            else:
                label = str(top)
            labels[mask] = label
            out.append((mask, label))
        return out


def _render_value(v: float) -> str:
    return "inf" if math.isinf(v) else repr(v)


def _render_value_json(v: float) -> float | str:
    return "inf" if math.isinf(v) else v


class MomentSolver:
    """Evaluator of the subset moment recursion for one network.

    One solver instance owns a memo of per-subset moment vectors up to
    ``k_max`` for :meth:`solve`; :meth:`dense` (and :meth:`solve_all`, which
    wraps it) fills the full table with a layer-by-layer pass instead.
    Subsets found to have zero total source rate (the +inf bottom cases) are
    collected in :attr:`zero_rate_subsets` as a diagnostic by either method.
    """

    def __init__(self, net: GossipNetwork, k_max: int, memo_limit: int = DEFAULT_MEMO_LIMIT):
        self.net = net
        self.k_max = check_order(k_max)
        self.memo_limit = memo_limit
        self._memo: dict[int, tuple[float, ...]] = {}
        self._zero_rate: set[int] = set()
        # Split edges once: direct source edges feed lambda_0(S), the rest
        # are boundary candidates.  Canonical edge order fixes summation order.
        self._source_edges = [(1 << v, rate) for u, v, rate in net.edges if u == 0]
        self._inner_edges = [(1 << u, 1 << v, rate) for u, v, rate in net.edges if u != 0]

    @property
    def zero_rate_subsets(self) -> tuple[NodeSubset, ...]:
        """Subsets encountered with no boundary edges and zero source rate."""
        return tuple(NodeSubset(m) for m in sorted(self._zero_rate))

    def solve(self, subset: NodeSubset | Iterable[int]) -> tuple[float, ...]:
        """Moment vector (v^0, v^1, ..., v^k_max) for one subset."""
        s = self.net.check_subset(subset)
        if not s:
            raise ValueError("subset must be non-empty")
        return self._vector(s.mask)

    def solve_all(self) -> MomentTable:
        """Moment vectors for every non-empty subset (node count capped)."""
        n = self.net.node_count
        if n > EXHAUSTIVE_CAP:
            raise ValueError(
                f"exhaustive solve is capped at {EXHAUSTIVE_CAP} nodes, network has {n}"
            )
        table = self.dense()
        columns = [table[1:, k].tolist() for k in range(1, self.k_max + 1)]
        entries = dict(zip(range(2, len(table) << 1, 2), zip(itertools.repeat(1.0), *columns)))
        return MomentTable(k_max=self.k_max, entries=entries)

    def dense(self) -> np.ndarray:
        """Moment vectors of all 2^N subsets as one (2^N, k_max + 1) array.

        Row ``mask >> 1`` holds subset ``mask``; row 0, the empty set, is
        left unfilled.  Bottom-up over popcount layers, from the full set
        down to the singletons; every superset a layer reads lies in the
        layer above.  Working memory is about (k_max + 1) * 8 * 2^N bytes.
        """
        n = self.net.node_count
        size = 1 << n
        if size - 1 > self.memo_limit:
            raise _memo_limit_error(self.memo_limit)
        rows = np.arange(size, dtype=np.int64)
        popcount = np.zeros(size, dtype=np.int64)
        for bit in range(n):
            popcount += (rows >> bit) & 1
        lam0 = np.zeros(size)
        for v_bit, rate in self._source_edges:
            lam0[(rows & (v_bit >> 1)) != 0] += rate
        inner = [(u_bit >> 1, v_bit >> 1, rate) for u_bit, v_bit, rate in self._inner_edges]
        table = np.empty((size, self.k_max + 1))
        for count in range(n, 0, -1):
            layer = np.flatnonzero(popcount == count)
            pushed = np.zeros((layer.size, self.k_max + 1))
            brate = np.zeros(layer.size)
            for u_bit, v_bit, rate in inner:
                # Integer selection, not a 0/1 weight: 0 * inf would be nan.
                hit = np.flatnonzero(((layer & v_bit) != 0) & ((layer & u_bit) == 0))
                brate[hit] += rate
                pushed[hit, 1:] += rate * table[layer[hit] | u_bit, 1:]
            # Rates are positive, so a zero denominator means no boundary edge
            # and no source edge: such a subset never hears from the source.
            # Elsewhere a subset without boundary edges has pushed == 0.0 and
            # denom == lam0, which is the exponential base case bit for bit.
            denom = lam0[layer] + brate
            self._zero_rate.update((layer[denom == 0.0] << 1).tolist())
            vec = np.empty((layer.size, self.k_max + 1))
            vec[:, 0] = 1.0
            with np.errstate(divide="ignore"):
                for k in range(1, self.k_max + 1):
                    vec[:, k] = (k * vec[:, k - 1] + pushed[:, k]) / denom
            table[layer] = vec
        return table

    def _vector(self, mask: int) -> tuple[float, ...]:
        cached = self._memo.get(mask)
        if cached is not None:
            return cached
        if len(self._memo) >= self.memo_limit:
            raise _memo_limit_error(self.memo_limit)
        lam0 = 0.0
        for v_bit, rate in self._source_edges:
            if mask & v_bit:
                lam0 += rate
        boundary = [
            (rate, mask | u_bit)
            for u_bit, v_bit, rate in self._inner_edges
            if mask & v_bit and not mask & u_bit
        ]
        vec = [1.0] * (self.k_max + 1)
        if not boundary:
            if lam0 > 0.0:
                for k in range(1, self.k_max + 1):
                    vec[k] = vec[k - 1] * k / lam0
            else:
                self._zero_rate.add(mask)
                for k in range(1, self.k_max + 1):
                    vec[k] = math.inf
        else:
            supersets = [self._vector(sup_mask) for _, sup_mask in boundary]
            # Plain left-to-right sums, not sum(): from Python 3.12 sum() of
            # floats is compensated, and solve_all must match bit for bit.
            brate = 0.0
            for rate, _ in boundary:
                brate += rate
            denom = lam0 + brate
            for k in range(1, self.k_max + 1):
                pushed = 0.0
                for (rate, _), sup in zip(boundary, supersets):
                    pushed += rate * sup[k]
                vec[k] = (k * vec[k - 1] + pushed) / denom
        result = tuple(vec)
        if len(self._memo) >= self.memo_limit:
            raise _memo_limit_error(self.memo_limit)
        self._memo[mask] = result
        return result


def solve_moments(
    net: GossipNetwork,
    subset: NodeSubset | Iterable[int],
    k_max: int,
    memo_limit: int = DEFAULT_MEMO_LIMIT,
) -> tuple[float, ...]:
    """Exact moment vector (v^0..v^k_max) of the minimum age over ``subset``."""
    return MomentSolver(net, k_max, memo_limit).solve(subset)


def solve_all(net: GossipNetwork, k_max: int, memo_limit: int = DEFAULT_MEMO_LIMIT) -> MomentTable:
    """Exact moment vectors for every non-empty subset of a small network."""
    return MomentSolver(net, k_max, memo_limit).solve_all()


def expected_age(net: GossipNetwork, subset: NodeSubset | Iterable[int]) -> float:
    """Steady-state expected minimum age over the subset."""
    return solve_moments(net, subset, 1)[1]

