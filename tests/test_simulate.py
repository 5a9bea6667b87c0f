"""Event-driven gossip simulation: event law, ages, and both estimators."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from gossip_aoi import (
    Edge,
    GossipNetwork,
    PendingReplicasError,
    ReplicationResult,
    estimate_moments_replication,
    estimate_moments_timeavg,
    montecarlo,
    pilot_t0,
    replication_results,
    solve_moments,
)
from gossip_aoi.simulate import (
    _deliver,
    _edge_picker,
    _replication_draw,
    age_power_integral,
    check_pending,
    default_horizon,
)
from helpers import (
    SimState,
    age_of,
    detect_t0,
    line_network,
    new_state,
    random_network,
    reference_pilot_t0,
    reference_replication_draw,
    reference_step,
    reference_timeavg,
    run_until,
    star_network,
    timeavg_trace,
)


def test_source_ring_delivers_the_current_time():
    ts, informed = [0.0, 0.0], [math.nan, math.nan]
    assert _deliver(ts, informed, 0, 1, 2.5) == (0.0, 2.5)
    assert ts[1] == informed[1] == 2.5
    assert _deliver(ts, informed, 0, 1, 4.0) == (2.5, 4.0)
    assert informed[1] == 2.5   # the first source-originated delivery sticks


def test_stale_ring_leaves_the_newer_timestamp():
    ts, informed = [0.0, 1.0, 3.0], [math.nan, 0.5, 2.0]
    assert _deliver(ts, informed, 1, 2, 5.0) == (3.0, 3.0)
    assert ts == [0.0, 1.0, 3.0]
    assert informed[1:] == [0.5, 2.0]


def test_simulators_require_a_ringing_clock():
    # Node 1 is unreachable too; the clock error comes first.
    net = GossipNetwork(node_count=1, edges=())
    with pytest.raises(ValueError, match="no edges"):
        pilot_t0(net, [1])
    with pytest.raises(ValueError, match="no edges"):
        estimate_moments_timeavg(net, [1], 1, 10.0, 1.0)
    with pytest.raises(ValueError, match="no edges"):
        replication_results(net, [[1]], 1, 100, 10.0)


def test_run_until_zero_horizon_is_a_no_op():
    net = line_network(1.0, 2.0)
    state = run_until(new_state(net), net, 0.0, np.random.default_rng(44))
    assert state.now == 0.0
    assert state.timestamps == [0.0, 0.0, 0.0]


def test_run_until_rejects_a_past_horizon():
    net = line_network(1.0)
    state = run_until(new_state(net), net, 5.0, np.random.default_rng(45))
    with pytest.raises(ValueError, match="horizon"):
        run_until(state, net, 1.0, np.random.default_rng(45))


def test_sampled_ages_average_to_the_stationary_mean():
    # Checkpoint the age of a single Exp(1) leaf once per unit time.
    net = star_network(1.0)
    rng = np.random.default_rng(46)
    state = new_state(net)
    ages = []
    for checkpoint in range(10, 10_000):
        run_until(state, net, float(checkpoint), rng)
        ages.append(age_of(state, [1]))
    assert abs(np.mean(ages) - 1.0) <= 0.05


def test_fixed_seed_reproduces_the_trajectory():
    net = line_network(1.0, 2.0)
    a = run_until(new_state(net), net, 25.0, np.random.default_rng(47))
    b = run_until(new_state(net), net, 25.0, np.random.default_rng(47))
    assert a.timestamps == b.timestamps
    assert a.informed_at == b.informed_at


def test_age_of_examples():
    state = SimState(now=7.0, timestamps=[0.0, 3.0, 5.0], informed_at=[0.0, 3.0, 5.0])
    assert age_of(state, [1, 2]) == pytest.approx(2.0)
    assert age_of(state, [1]) == pytest.approx(4.0)

    net = star_network(1.0)
    assert age_of(new_state(net), [1]) == 0.0  # initial timestamps are 0 at t=0

    fresh = new_state(net)
    reference_step(fresh, net, np.random.default_rng(48))
    assert age_of(fresh, [1]) == 0.0  # sampled right at the delivery


def test_detect_t0_examples():
    net = star_network(1.0)
    state = new_state(net)
    assert detect_t0(state, [1]) is None
    event = reference_step(state, net, np.random.default_rng(49))
    assert detect_t0(state, [1]) == event.time

    line = line_network(1.0, 2.0)
    state = new_state(line)
    rng = np.random.default_rng(50)
    while detect_t0(state, [2]) is None:
        reference_step(state, line, rng)
    assert detect_t0(state, [2]) >= state.informed_at[1]

    lonely = GossipNetwork(node_count=2, edges=(Edge(0, 1, 1.0),))
    state = run_until(new_state(lonely), lonely, 100.0, np.random.default_rng(51))
    assert detect_t0(state, [2]) is None
    assert detect_t0(state, [1]) is not None


def test_pilot_t0_bounds_the_informing_time():
    net = line_network(1.0, 2.0)
    times = pilot_t0(net, [2], replicas=8, seed=52)
    assert len(times) == 8
    assert all(0 < t < math.inf for t in times)

    with pytest.raises(PendingReplicasError, match=r"subset \{2\} still uninformed after 1 events"):
        pilot_t0(net, [2], replicas=1, seed=53, event_cap=1)


def test_pilot_fails_at_once_on_an_unreachable_subset(monkeypatch):
    def refuse(*cell):
        raise AssertionError("a pilot replica was simulated")

    monkeypatch.setattr(montecarlo, "block_rng", refuse)
    net = GossipNetwork(node_count=3, edges=(Edge(0, 1, 1.0), Edge(3, 2, 1.0)))
    with pytest.raises(PendingReplicasError, match=r"subset \{1,2\} is unreachable; nodes \{2\}"):
        pilot_t0(net, [1, 2])


def _pilot_outcome(pilot, net, subset, seed, event_cap):
    try:
        return pilot(net, subset, seed=seed, event_cap=event_cap)
    except PendingReplicasError as exc:
        return f"PendingReplicasError: {exc}"


def test_pilot_is_bitwise_the_reference_pilot():
    capped = 0
    for case in range(16):
        rng = np.random.default_rng([69, case])
        n = int(rng.integers(1, 9))
        net = random_network(rng, n, p=float(rng.uniform(0.1, 0.5)), reachable=True)
        subset = [v for v in range(1, n + 1) if rng.random() < 0.5] or [n]
        # A cap of 3 events leaves some replicas uninformed: the error must match too.
        args = (net, subset, 2000 + case, (3, 1_000_000)[case % 4 != 0])
        ours = _pilot_outcome(pilot_t0, *args)
        assert ours == _pilot_outcome(reference_pilot_t0, *args), case
        capped += isinstance(ours, str)
    assert capped > 0


def test_age_power_integral_closed_form():
    assert age_power_integral(2.0, 3.0, 2) == pytest.approx(39.0, abs=1e-12)
    assert age_power_integral(0.0, 2.0, 1) == pytest.approx(2.0)
    assert age_power_integral(1.0, 0.0, 3) == 0.0


def test_timeavg_star_matches_the_stationary_mean():
    net = star_network(1.0)
    est = estimate_moments_timeavg(net, [1], 1, 100_000.0, 50.0, seed=54)[0]
    assert abs(est.mean - 1.0) <= 0.02
    assert est.std_error > 0


def test_timeavg_line_second_moment():
    net = line_network(1.0, 2.0)
    estimates = estimate_moments_timeavg(net, [2], 2, 50_000.0, 50.0, seed=55)
    assert abs(estimates[1].mean - 3.5) <= 0.05 * 3.5
    assert abs(estimates[0].mean - 1.5) <= 0.05 * 1.5


def test_timeavg_warns_when_burn_in_precedes_t0():
    net = star_network(1.0)
    with pytest.warns(RuntimeWarning, match="burn"):
        estimate_moments_timeavg(net, [1], 1, 50.0, 1e-9, seed=56)


def test_timeavg_warns_when_the_subset_is_never_informed():
    net = GossipNetwork(node_count=2, edges=(Edge(0, 1, 1.0),))
    with pytest.warns(RuntimeWarning):
        estimate_moments_timeavg(net, [2], 1, 50.0, 10.0, seed=57)


def _refuse_to_sample(monkeypatch):
    def refuse(*cell):
        raise AssertionError("sampling started before the arguments were checked")

    monkeypatch.setattr(montecarlo, "block_rng", refuse)


def test_replication_rejects_an_infinite_horizon_before_sampling(monkeypatch):
    _refuse_to_sample(monkeypatch)
    with pytest.raises(ValueError, match="^horizon must be finite, got inf$"):
        replication_results(line_network(1.0, 2.0), [[2]], 1, 100, math.inf)


def test_timeavg_rejects_an_infinite_horizon_before_sampling(monkeypatch):
    _refuse_to_sample(monkeypatch)
    with pytest.raises(ValueError, match="^horizon must be finite, got inf$"):
        estimate_moments_timeavg(line_network(1.0, 2.0), [2], 1, math.inf, 10.0)


def _timeavg_outcome(estimator, net, subset, k_max, horizon, burn_in, seed, batches):
    """(estimates or error text, trace rows, warnings) of one time-average run."""
    trace: list = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = estimator(net, subset, k_max, horizon, burn_in, seed=seed,
                               batches=batches, trace=trace.append)
        except ValueError as exc:
            result = f"ValueError: {exc}"
    return result, trace, [(w.category, str(w.message)) for w in caught]


def test_timeavg_is_bitwise_the_reference_loop():
    seen = set()
    for case in range(16):
        rng = np.random.default_rng([68, case])
        n = int(rng.integers(2, 11))
        net = random_network(rng, n, p=0.3, reachable=case % 4 != 0)
        subset = [v for v in range(1, n + 1) if rng.random() < 0.4] or [n]
        k_max = int(rng.integers(1, 6))
        batches = (2, 30)[case % 2]
        # 40 events over 30 batches: subset segments span several windows.
        events = (40.0, 3000.0)[case // 2 % 2]
        horizon = events / net.total_rate if net.edges else 1.0
        burn_in = 0.0 if case % 3 == 0 else float(rng.uniform(0.0, 0.5)) * horizon
        args = (net, subset, k_max, horizon, burn_in, 1000 + case, batches)
        ours = _timeavg_outcome(estimate_moments_timeavg, *args)
        assert ours == _timeavg_outcome(reference_timeavg, *args), case
        seen.update(message.split()[0] for _, message in ours[2])
    assert seen == {"subset", "burn-in"}   # "never informed" and "burn-in before t_0"


class FixedDrawRng:
    """Generator stand-in: every gap is the mean gap, every uniform is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def exponential(self, scale: float) -> float:
        return scale

    def random(self) -> float:
        return self.u


@pytest.mark.parametrize("u, picked", [(0.25, 1), (0.5, 2), (1.0 - 2.0**-53, 2), (1.0, 2)])
def test_uniform_picks_the_edge_above_its_threshold(u, picked, monkeypatch):
    # Lambda = 4 and the thresholds 1, 2, 4 are exact.  At u = 0.25 and 0.5,
    # u * Lambda lands on a threshold and picks the edge above it, as
    # searchsorted(side="right") does.  1 - 2^-53, the largest uniform numpy
    # draws, keeps u * Lambda below Lambda; u = 1.0 reaches Lambda, runs the
    # bisection off the end and must clamp to the last edge.
    net = GossipNetwork(node_count=3, edges=(Edge(0, 1, 1.0), Edge(1, 2, 1.0), Edge(2, 3, 2.0)))
    monkeypatch.setattr(montecarlo, "block_rng", lambda *cell: FixedDrawRng(u))
    args = (net, [3], 1, 10.0, 1.0, 0, 30)
    ours = _timeavg_outcome(estimate_moments_timeavg, *args)
    assert ours == _timeavg_outcome(reference_timeavg, *args)
    trace = ours[1]
    assert len(trace) == 39   # gaps of exactly 0.25 up to the horizon
    assert {row[1:3] for row in trace} == {net.edges[picked][:2]}


def _lognormal_network(rng: np.random.Generator, n: int, sigma: float) -> GossipNetwork:
    """A reachable random network whose rates span many orders of magnitude,
    so that many thresholds crowd into a few pick buckets."""
    net = random_network(rng, n, p=0.5, reachable=True)
    rates = rng.lognormal(0.0, sigma, len(net.edges))
    return GossipNetwork(node_count=n, edges=tuple(
        Edge(e.from_node, e.to_node, float(r)) for e, r in zip(net.edges, rates)))


def _pick_cases() -> list[np.ndarray]:
    """rate_cumsum arrays: one edge, equal rates, uniform and lognormal
    rates, rates too small to register beside the others, and a total so
    small that buckets / Lambda overflows."""
    rng = np.random.default_rng(70)
    cases = [np.cumsum([1.5]), np.cumsum([0.25] * 8), np.cumsum([1.0, 1e-17, 1e-17, 2.0]),
             np.cumsum([1e-310, 3e-310, 2e-310])]
    for edges in (2, 3, 7, 50, 200):
        cases.append(np.cumsum(rng.uniform(0.2, 5.0, edges)))
        cases.append(np.cumsum(rng.lognormal(0.0, 3.0, edges)))
    return cases


@pytest.mark.parametrize("cum", _pick_cases(), ids=lambda cum: f"{len(cum)}-edges")
def test_edge_picker_is_searchsorted_on_adversarial_keys(cum):
    # Keys on and beside every threshold and every bucket edge, 0, Lambda
    # and the largest key below it, and ordinary keys u * Lambda.
    total = float(cum[-1])
    buckets = 4 * len(cum)
    edges = np.arange(buckets + 1) * (total / buckets)
    marks = np.concatenate([cum, edges, [0.0, total]])
    keys = np.concatenate([marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf),
                           np.random.default_rng(71).random(1000) * total])
    keys = keys[(keys >= 0.0) & (keys <= total)]
    expected = np.minimum(np.searchsorted(cum, keys, side="right"), len(cum) - 1)
    assert np.array_equal(_edge_picker(cum)(keys), expected)


def _kernel_cases() -> list[tuple[GossipNetwork, tuple[tuple[int, ...], ...], float, int]]:
    """(network, subsets, horizon, block size) covering a one-edge network,
    uniform and lognormal rates, unreachable nodes and ragged block sizes."""
    rng = np.random.default_rng(72)
    nets = [star_network(1.5), line_network(1.0, 2.0)]
    nets += [random_network(rng, n, p=0.4, reachable=bool(n % 2)) for n in (2, 3, 4, 5, 6, 7, 8, 10)]
    nets += [_lognormal_network(rng, n, sigma) for n, sigma in ((3, 2.0), (5, 3.0), (6, 4.0), (8, 3.0))]
    nets.append(random_network(rng, 12, p=0.3, reachable=True))
    sizes = (257, 7, 1, 777, 2048, 7, 777, 2048, 300, 1025, 2048, 777, 1537, 1000, 2048)
    cases = []
    for i, (net, size) in enumerate(zip(nets, sizes, strict=True)):
        full = tuple(range(1, net.node_count + 1))
        subsets = (full, (net.node_count,), full[::2])
        horizon = 40.0 / net.total_rate * (1 + i % 3)    # 40 to 120 events per replica
        cases.append((net, subsets, horizon, size))
    return cases


def test_replication_kernel_is_bitwise_the_reference_kernel():
    for i, (net, subsets, horizon, size) in enumerate(_kernel_cases()):
        cell = (73, montecarlo.STREAM_REPLICATION, i)
        ours = _replication_draw(net, subsets, horizon, montecarlo.block_rng(*cell), size)
        ref = reference_replication_draw(net, subsets, horizon, montecarlo.block_rng(*cell), size)
        assert len(ours) == len(ref) == len(subsets)
        for a, b in zip(ours, ref):
            assert np.array_equal(a, b), (i, net, subsets)


def test_replication_star_and_line_moments():
    star = star_network(1.0)
    estimates = estimate_moments_replication(star, [1], 2, 100_000, 50.0, seed=58)
    assert abs(estimates[0].mean - 1.0) <= 4 * estimates[0].std_error
    assert abs(estimates[1].mean - 2.0) <= 4 * estimates[1].std_error

    line = line_network(1.0, 2.0)
    est = estimate_moments_replication(line, [2], 1, 100_000, 50.0, seed=59)[0]
    assert abs(est.mean - 1.5) <= 4 * est.std_error


def test_replication_agrees_with_the_solver_on_a_random_network():
    rng = np.random.default_rng(60)
    net = random_network(rng, 5, p=0.5, reachable=True)
    subset = (2, 4)
    horizon = 3.0 * max(pilot_t0(net, net.full_subset(), seed=61))
    exact = solve_moments(net, subset, 3)
    estimates = estimate_moments_replication(net, subset, 3, 60_000, horizon, seed=61)
    for k in (1, 2, 3):
        est = estimates[k - 1]
        assert abs(est.mean - exact[k]) <= 4 * est.std_error


def test_replication_counts_and_rejects_pending_replicas():
    net = line_network(0.5, 0.5)
    subset = net.check_subset([2])
    result = replication_results(net, [subset], 1, 2000, 2.0, seed=62)[subset]
    assert result.pending > 0
    assert result.estimates[0].sample_count == result.replicas - result.pending
    with pytest.raises(PendingReplicasError, match="pending|informed"):
        estimate_moments_replication(net, [2], 1, 2000, 2.0, seed=62)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: the replication draw keeps only the replicas whose subset is fully "
    "informed at the horizon, a selection that biases the mean low"))
def test_replication_mean_is_the_truncated_stationary_mean():
    # By time reversal, the subset's age at horizon h, started from all-zero
    # timestamps, is min(D, h) in law, where D has the stationary law.  Node 2
    # hears only from node 1, so D of {1,2} is node 1's age, Exp(1), and
    # E[min(D, h)] = 1 - e^(-h).  At h = 5.5 under 1 % of the replicas are
    # pending, so the gate passes, yet the kept replicas' mean is about 8 SE low.
    net = line_network(1.0, 2.0)
    subset = net.check_subset([1, 2])
    horizon = 5.5
    result = replication_results(net, [subset], 1, 200_000, horizon, seed=3)[subset]
    est = result.estimates[0]
    assert abs(est.mean - (1.0 - math.exp(-horizon))) <= 4 * est.std_error


def test_replication_subsets_share_one_replica_set_and_dedupe():
    net = line_network(1.0, 2.0)
    a, b = net.check_subset([2]), net.check_subset([1, 2])
    shared = replication_results(net, [a, [1, 2], [2]], 2, 20_000, 30.0, seed=65)
    assert list(shared) == [a, b]
    for s in (a, b):
        alone = estimate_moments_replication(net, s, 2, 20_000, 30.0, seed=65)
        assert list(shared[s].estimates) == alone
        assert shared[s].replicas == 20_000


def test_default_horizon_is_three_times_the_worst_pilot_t0():
    net = line_network(1.0, 2.0)
    assert default_horizon(net, [2], seed=64) == 3.0 * max(pilot_t0(net, [2], seed=64))


def test_check_pending_allows_one_percent():
    net = line_network(1.0, 2.0)
    subset = net.check_subset([2])
    check_pending(ReplicationResult(estimates=(), replicas=1000, pending=10), subset, 1.0)
    with pytest.raises(PendingReplicasError, match="11 of 1000 replicas"):
        check_pending(ReplicationResult(estimates=(), replicas=1000, pending=11), subset, 1.0)


def test_replication_deterministic_across_workers():
    net = line_network(1.0, 2.0)
    one = estimate_moments_replication(net, [2], 2, 40_000, 30.0, seed=63, workers=1)
    two = estimate_moments_replication(net, [2], 2, 40_000, 30.0, seed=63, workers=2)
    assert one == two


def test_replication_is_stationary_past_t0():
    net = line_network(1.0, 2.0)
    h = 30.0
    at_h = estimate_moments_replication(net, [2], 2, 30_000, h, seed=64)
    at_2h = estimate_moments_replication(net, [2], 2, 30_000, 2 * h, seed=65)
    for k in (0, 1):
        gap = abs(at_h[k].mean - at_2h[k].mean)
        assert gap <= 4 * math.hypot(at_h[k].std_error, at_2h[k].std_error)


def test_inter_event_gaps_are_exponential():
    net = line_network(1.0, 2.0)
    times = [0.0] + [at for at, _, _, _ in timeavg_trace(net, 100_000, seed=66)]
    gaps = np.diff(times)
    result = stats.kstest(gaps, "expon", args=(0, 1 / net.total_rate))
    assert result.pvalue >= 0.001


def test_trajectory_invariants_hold_throughout():
    # Replay the trace: each event must apply the delivery rule to the
    # timestamps the earlier events left.
    rng = np.random.default_rng(67)
    net = random_network(rng, 4, p=0.5, reachable=True)
    ts = [0.0] * (net.node_count + 1)
    now = 0.0
    for at, u, v, new in timeavg_trace(net, 2000, seed=67):
        assert now <= at
        now = at
        assert new == max(ts[v], now if u == 0 else ts[u])
        assert 0.0 <= ts[v] <= new <= now  # ages stay >= 0; ts[v] is the old timestamp
        ts[v] = new
