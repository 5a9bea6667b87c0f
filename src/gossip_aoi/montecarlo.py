"""Shared Monte-Carlo plumbing: one block-sample-reduce pipeline.

``sample_moments`` serves the first-passage sampler, the replication
simulator and the lattice sampler.  It runs a list of jobs, each
``(draw, k_max, total, block, stream)``.  A job's work is split into
fixed-size blocks, each owning an RNG stream derived from (master seed,
stream tag, block index).  A block calls ``draw(rng, size)``, which returns
one array per group (a subset, or the box boundary) holding the
observations the group keeps; a draw drops what it cannot observe (a
replica still uninformed at the horizon), so the kept count may fall short
of ``size``.  The block reduces each array to its power sums at once, so
only k_max-long vectors outlive it.  The blocks of all jobs go through one
``map_blocks`` call, interleaved round robin (block 0 of every job, then
block 1, ...), so ``compare``'s one replication block starts at once on one
thread while the first-passage blocks fill the other.  Each job's sums are
added per group in its own block order, so estimates are bit-identical
across runs, across worker counts and whether a job runs alone or beside
others.

With workers > 1 the blocks run on threads of one process.  That cannot
change a bit either: a block draws only from its own Generator, allocates
its own arrays, and only reads what the job shares, which is built before
any block starts and never written after (the first-passage relaxation
plan with its groups, the rates, the network and its cached rate tables).  The
threads overlap because numpy releases the GIL inside its array calls; the
first-passage tiles (``fpp.tile_samples``) are sized so that each call has
enough work to overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence, TypeVar

import numpy as np

# Stream tags keep the independent consumers of one master seed apart.  The
# time average takes two cells of STREAM_TIMEAVG: block 0 holds its event
# gaps and block 1 its edge-pick uniforms.
STREAM_FPP = 1
STREAM_REPLICATION = 2
STREAM_PILOT = 3
STREAM_LATTICE = 4
STREAM_TIMEAVG = 5

# Block sizes are constants on purpose: block boundaries define the RNG
# streams, so they must never depend on worker count or machine shape.
FPP_BLOCK = 32768
REPLICATION_BLOCK = 16384

MAX_MOMENT_ORDER = 20

T = TypeVar("T")


@dataclass(frozen=True)
class MomentEstimate:
    """A single empirical raw moment with its standard error."""

    k: int
    mean: float
    std_error: float
    sample_count: int


def block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Generator for one (seed, stream, block) cell; independent across cells."""
    return np.random.default_rng([seed, stream, block])


def check_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0 or seed >= 1 << 64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    return seed


def check_order(k_max: int) -> int:
    if not isinstance(k_max, int) or isinstance(k_max, bool) or k_max < 1:
        raise ValueError(f"moment order must be a positive integer, got {k_max!r}")
    if k_max > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order {k_max} exceeds the supported maximum of {MAX_MOMENT_ORDER}")
    return k_max


def check_workers(workers: int) -> None:
    if not isinstance(workers, int) or isinstance(workers, bool):
        raise ValueError(f"worker count must be an integer, got {workers!r}")
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")


def block_sizes(total: int, block: int) -> list[int]:
    """Split ``total`` items into fixed-size blocks (last one ragged)."""
    if total < 1:
        raise ValueError(f"sample count must be positive, got {total}")
    full, rest = divmod(total, block)
    return [block] * full + ([rest] if rest else [])


def map_blocks(fn: Callable[[int], T], n_blocks: int, workers: int = 1) -> list[T]:
    """Evaluate ``fn`` on block indices 0..n_blocks-1, results in index order.

    With workers > 1, ``fn`` runs on a pool of min(workers, n_blocks)
    threads, so it may be any callable, a closure included, but blocks must
    not write what they share.  The pool module is imported only when a
    pool starts, so a one-worker run does not pay for the import.
    """
    check_workers(workers)
    if workers == 1 or n_blocks <= 1:
        return [fn(b) for b in range(n_blocks)]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(workers, n_blocks)) as pool:
        return list(pool.map(fn, range(n_blocks)))


def power_sums(values: np.ndarray, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-k sums over ``values``: (sum of x^k, sum of x^(2k)) for k = 1..k_max.

    The x^(2k) sums feed the standard errors of the x^k means.  The powers
    x, x^2, ... are made one at a time in one buffer and summed as they are
    made, so one power of ``values`` is alive at a time.  A power or sum
    that overflows is +inf, without a warning: its mean is then refused, or
    its standard error not finite, which fails the row in ``compare``.
    """
    sums = np.empty(2 * k_max)   # sums[j] is the sum of x^(j+1)
    p = values.copy()
    with np.errstate(over="ignore"):
        for j in range(2 * k_max):
            if j:
                np.multiply(p, values, out=p)
            sums[j] = p.sum()
    return sums[:k_max], sums[1::2]


def moments_from_power_sums(
    count: int, power_sums: Sequence[float], square_sums: Sequence[float]
) -> list[MomentEstimate]:
    """Build per-k estimates from sums of x^k and x^(2k) over ``count`` samples.

    power_sums[k-1] and square_sums[k-1] hold sum(x^k) and sum(x^(2k)).
    Observations are finite but for a float overflow, so an infinite mean raises ``OverflowError``.
    """
    estimates = []
    for k, (s1, s2) in enumerate(zip(power_sums, square_sums), start=1):
        mean = float(s1) / count
        if mean == math.inf:
            raise OverflowError(f"sample moment v^{k} overflows a float; rescale the rates")
        if count > 1:
            var = max(float(s2) - count * mean * mean, 0.0) / (count - 1)
            se = math.sqrt(var / count)
        else:
            se = math.inf
        estimates.append(MomentEstimate(k=k, mean=mean, std_error=se, sample_count=int(count)))
    return estimates


Draw = Callable[[np.random.Generator, int], Sequence[np.ndarray]]


# (draw, k_max, total, block, stream): ``total`` draws on ``stream`` in
# ``block``-sized blocks, reduced to moments up to order ``k_max``.
Job = tuple[Draw, int, int, int, int]


def _sample_block(
    jobs: tuple[Job, ...], cells: tuple[tuple[int, int, int], ...], seed: int, cell: int
) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Draw one (job, block, size) cell; per group return (kept count,
    power sums, square sums)."""
    j, b, size = cells[cell]
    draw, k_max, _, _, stream = jobs[j]
    groups = draw(block_rng(seed, stream, b), size)
    return [(len(kept), *power_sums(kept, k_max)) for kept in groups]


def sample_moments(
    jobs: Sequence[Job], seed: int, workers: int = 1
) -> list[list[tuple[int, list[MomentEstimate]]]]:
    """Per job, per group: (kept count, moment estimates over the kept observations).

    Every job is checked before any block is drawn.  A group that kept
    nothing has no estimates.
    """
    jobs = tuple(jobs)
    for _, k_max, _, _, _ in jobs:
        check_order(k_max)
    check_seed(seed)
    sizes = [block_sizes(total, block) for _, _, total, block, _ in jobs]
    # Round robin: block b of every job that has one, for b = 0, 1, ...
    cells = tuple((j, b, job_sizes[b])
                  for b in range(max(map(len, sizes), default=0))
                  for j, job_sizes in enumerate(sizes) if b < len(job_sizes))
    blocks = map_blocks(partial(_sample_block, jobs, cells, seed), len(cells), workers)
    per_job: list[list] = [[] for _ in jobs]
    for (j, _, _), result in zip(cells, blocks):
        per_job[j].append(result)
    return [_reduce(k_max, job_blocks) for (_, k_max, *_), job_blocks in zip(jobs, per_job)]


def _reduce(k_max: int, blocks: list) -> list[tuple[int, list[MomentEstimate]]]:
    """Add each group's block sums in block order and turn them into estimates."""
    results = []
    for group in zip(*blocks):
        count = 0
        sums = np.zeros(k_max)
        sqsums = np.zeros(k_max)
        for kept, bs, bq in group:
            count += kept
            sums = sums + bs
            sqsums = sqsums + bq
        results.append((count, moments_from_power_sums(count, sums, sqsums) if count else []))
    return results
