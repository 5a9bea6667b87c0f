"""Seeded block streams and moment aggregation."""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import subprocess
import sys
import threading
from functools import partial

import numpy as np
import pytest

import gossip_aoi
from gossip_aoi import fpp, simulate
from gossip_aoi.montecarlo import (
    REPLICATION_BLOCK,
    block_rng,
    block_sizes,
    check_order,
    check_seed,
    map_blocks,
    moments_from_power_sums,
    power_sums,
    sample_moments,
)
from helpers import random_network, reference_power_sums


def test_block_sizes_partition_the_total():
    assert block_sizes(10, 4) == [4, 4, 2]
    assert block_sizes(8, 4) == [4, 4]
    assert block_sizes(3, 4) == [3]
    with pytest.raises(ValueError):
        block_sizes(0, 4)


def test_block_streams_are_stable_and_distinct():
    a = block_rng(1, 2, 0).random(4)
    b = block_rng(1, 2, 0).random(4)
    c = block_rng(1, 2, 1).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_check_seed_rejects_non_integers():
    assert check_seed(7) == 7
    for bad in (1.5, "x", True, -1):
        with pytest.raises(ValueError):
            check_seed(bad)


def test_check_order_bounds_the_moment_order():
    assert check_order(1) == 1
    assert check_order(20) == 20
    for bad in (0, 1.5, "3", True):
        with pytest.raises(ValueError, match="moment order must be a positive integer"):
            check_order(bad)
    with pytest.raises(ValueError, match="moment order 21 exceeds the supported maximum of 20"):
        check_order(21)


def _square(block: int) -> int:
    return block * block


def test_map_blocks_preserves_order():
    assert map_blocks(_square, 5, workers=1) == [0, 1, 4, 9, 16]
    assert map_blocks(_square, 5, workers=2) == [0, 1, 4, 9, 16]
    for bad in (True, 2.5, "2"):
        with pytest.raises(ValueError, match="worker count must be an integer"):
            map_blocks(_square, 3, bad)


def test_map_blocks_runs_closures_on_threads_in_index_order():
    finished = []
    block_1_done = threading.Event()

    def block(b: int) -> int:
        if b == 0:   # waits for block 1, which only a second thread can run meanwhile
            block_1_done.wait(timeout=30)
        finished.append(b)
        if b == 1:
            block_1_done.set()
        return b * b

    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(block)
    assert map_blocks(block, 5, workers=2) == [0, 1, 4, 9, 16]
    assert finished.index(1) < finished.index(0)
    assert multiprocessing.active_children() == []


def test_blocks_on_four_threads_keep_their_bits():
    # Four threads switched every microsecond would expose a block that
    # writes what the blocks share: the plan, the rates or the network's
    # tables.  Many short first-passage blocks make their relaxations
    # overlap; a scratch row shared by all of them fails this test.
    net = random_network(np.random.default_rng(83), 6, p=0.4, reachable=True)
    subsets = [net.check_subset(ids) for ids in ([2], [1, 5], [3, 4, 6])]
    draw, k_max, _, _, stream = fpp.passage_job(net, subsets, 3, 1)
    jobs = [(draw, k_max, 64 * 1024 + 5, 1024, stream),
            simulate.replication_job(net, subsets, 3, 2 * REPLICATION_BLOCK + 3, 4.0)]
    alone = sample_moments(jobs, seed=8, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = sample_moments(jobs, seed=8, workers=4)
    finally:
        sys.setswitchinterval(interval)
    assert repr(threaded) == repr(alone)   # repr round-trips every float bit


def test_a_one_worker_run_never_imports_the_pool():
    # The two-worker run after it, over the same two blocks, shows that the
    # check looks for the module the pool imports.
    code = ("import os, sys\n"
            "from gossip_aoi import cli\n"
            "for workers in ('1', '2'):\n"
            "    argv = ['lattice', '--d', '2', '--ell', '2', '--samples', '40000',\n"
            "            '--workers', workers, '--out', os.devnull]\n"
            "    assert cli.main(argv) == 0\n"
            "    print('concurrent.futures' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(gossip_aoi.__file__))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert run.stdout == "False\nTrue\n"


def test_power_sums_match_direct_computation():
    values = np.array([0.5, 2.0, 3.0])
    sums, sq = power_sums(values, 3)
    for k in (1, 2, 3):
        assert sums[k - 1] == pytest.approx(np.sum(values**k))
        assert sq[k - 1] == pytest.approx(np.sum(values ** (2 * k)))


@pytest.mark.parametrize("size", [0, 1, 7, 1000])
def test_power_sums_are_the_repeated_products_bit_for_bit(size):
    values = np.random.default_rng([82, size]).exponential(1.0, size)
    for k_max in (1, 3, 20):
        got = power_sums(values, k_max)
        expected = reference_power_sums(values, k_max)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_moment_estimates_match_numpy():
    rng = np.random.default_rng(81)
    values = rng.exponential(1.0, 500)
    sums, sq = power_sums(values, 2)
    estimates = moments_from_power_sums(len(values), sums, sq)
    for k, est in zip((1, 2), estimates):
        samples = values**k
        assert est.mean == pytest.approx(samples.mean())
        assert est.std_error == pytest.approx(samples.std(ddof=1) / math.sqrt(500))
        assert est.sample_count == 500
        assert isinstance(est.mean, float) and isinstance(est.sample_count, int)


def test_single_observation_has_infinite_error():
    est = moments_from_power_sums(1, np.array([2.0]), np.array([4.0]))[0]
    assert est.mean == 2.0
    assert est.std_error == math.inf


def _halves(rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """Three groups: every uniform, the ones below 1/2, and none."""
    x = rng.random(size)
    return [x, x[x < 0.5], x[:0]]


def test_sample_moments_reduces_kept_draws_in_block_order():
    [one] = sample_moments([(_halves, 2, 10, 4, 9)], seed=5, workers=1)
    assert sample_moments([(_halves, 2, 10, 4, 9)], seed=5, workers=2) == [one]
    x = np.concatenate([block_rng(5, 9, b).random(n) for b, n in enumerate([4, 4, 2])])
    for (count, estimates), kept in zip(one, [x, x[x < 0.5]]):
        assert count == len(kept) == estimates[0].sample_count
        for k, est in enumerate(estimates, start=1):
            assert est.mean == pytest.approx((kept**k).mean(), rel=1e-12)
    assert one[2] == (0, [])


def test_sample_moments_checks_order_seed_and_total():
    with pytest.raises(ValueError, match="moment order"):
        sample_moments([(_halves, 0, 10, 4, 9)], seed=5)
    with pytest.raises(ValueError, match="seed"):
        sample_moments([(_halves, 1, 10, 4, 9)], seed=-1)
    with pytest.raises(ValueError, match="sample count"):
        sample_moments([(_halves, 1, 0, 4, 9)], seed=5)


def _tail(rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """One group: the exponentials of the block."""
    return [rng.exponential(2.0, size)]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_jobs_run_together_match_each_job_run_alone(workers):
    jobs = [(_halves, 3, 10, 4, 9), (_tail, 2, 7, 2, 11)]
    together = sample_moments(jobs, seed=5, workers=workers)
    alone = [sample_moments([job], seed=5, workers=1)[0] for job in jobs]
    assert repr(together) == repr(alone)   # repr round-trips every float bit


def _recording(log: list, rng: np.random.Generator, size: int) -> list[np.ndarray]:
    """Log the block's first uniform, which names its (stream, block) cell."""
    log.append(rng.random())
    return [rng.random(size)]


def test_blocks_of_several_jobs_run_round_robin():
    log: list = []
    draw = partial(_recording, log)
    # Job 0 has three blocks on stream 9, job 1 one on stream 11, job 2 two on stream 12.
    sample_moments([(draw, 1, 10, 4, 9), (draw, 1, 3, 4, 11), (draw, 1, 5, 3, 12)],
                   seed=5, workers=1)
    cells = [(9, 0), (11, 0), (12, 0), (9, 1), (12, 1), (9, 2)]
    assert log == [block_rng(5, stream, b).random() for stream, b in cells]
