"""Fast self-check of the benchmark harness on tiny inputs.

    python3 -m pytest -q bench

Covers the input generator, the report checks, the loop's whole rounds, the
set-up report, span recording and the per-layer metric extraction.  It does
not time anything.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

import run

run.use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402
from gossip_aoi import cli, lattice, network  # noqa: E402

TINY = {
    "crosscheck": replace(workloads.WORKLOADS["crosscheck"], nodes=3, edges=5, networks=2,
                          samples=4096, replicas=2048, workers=1),
    "table": replace(workloads.WORKLOADS["table"], nodes=4, edges=9, picks=5),
    "trajectory": replace(workloads.WORKLOADS["trajectory"], nodes=3, edges=5, events=40_000),
    "lattice": replace(workloads.WORKLOADS["lattice"], d=2, ell=2, samples=4000),
}


def test_generator_is_seeded_reachable_and_in_range():
    doc = workloads.random_network(np.random.default_rng([5, 1]), 12, 50)
    assert doc == workloads.random_network(np.random.default_rng([5, 1]), 12, 50)
    assert doc != workloads.random_network(np.random.default_rng([6, 1]), 12, 50)
    edges = doc["edges"]
    assert len(edges) == 50
    assert len({(e["from"], e["to"]) for e in edges}) == 50
    assert all(e["to"] != 0 and e["from"] != e["to"] for e in edges)
    assert all(workloads.RATE_LOW <= e["rate"] <= workloads.RATE_HIGH for e in edges)
    seen, todo = {0}, deque([0])
    while todo:
        u = todo.popleft()
        for e in edges:
            if e["from"] == u and e["to"] not in seen:
                seen.add(e["to"])
                todo.append(e["to"])
    assert seen == set(range(13))
    network.load_network(json.dumps(doc))


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workloads_pass_their_checks(name, tmp_path):
    verified = {}
    for call in TINY[name].calls(3, tmp_path):
        for _ in range(2):   # the second call is verified by its digest
            record = run.run_call(call, None, verified)
            assert record.failure is None
            assert record.wall_s > 0 and record.cpu_s > 0
        assert call.out in verified


def _rewrite_results(path, **changes):
    doc = json.loads(path.read_text())
    doc["results"].update(changes)
    path.write_text(json.dumps(doc))


def test_checks_reject_wrong_reports(tmp_path):
    (call,) = TINY["table"].calls(3, tmp_path)
    assert run.run_call(call, None, {}).failure is None
    lines = call.out.read_text().splitlines()
    call.out.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(workloads.CheckFailed, match="rows"):
        call.verify(call.out)
    head, v3 = lines[2].rsplit(",", 1)
    call.out.write_text("\n".join(lines[:2] + [f"{head},{float(v3) * (1 + 1e-9)!r}"] + lines[3:]) + "\n")
    (every_row,) = replace(TINY["table"], picks=15).calls(3, tmp_path)
    with pytest.raises(workloads.CheckFailed, match="v3"):
        every_row.verify(call.out)

    (lattice_call,) = TINY["lattice"].calls(3, tmp_path)
    assert run.run_call(lattice_call, None, {}).failure is None
    results = json.loads(lattice_call.out.read_text())["results"]
    _rewrite_results(lattice_call.out, mc_mean=results["raw"] + 5 * results["mc_se"])
    with pytest.raises(workloads.CheckFailed, match="SE"):
        workloads.check_lattice(lattice_call.out)

    compare_call = TINY["crosscheck"].calls(3, tmp_path)[0]
    assert run.run_call(compare_call, None, {}).failure is None
    rows = json.loads(compare_call.out.read_text())["results"]["rows"]
    rows[-1]["sim_z"] = -4.5
    _rewrite_results(compare_call.out, rows=rows)
    with pytest.raises(workloads.CheckFailed, match="sim k=3"):
        workloads.check_compare(compare_call.out)


def test_errors_count_as_failed_checks(tmp_path):
    missing = workloads.Call(("solve", "--network", str(tmp_path / "none.json"),
                              "--out", str(tmp_path / "o.json")), tmp_path / "o.json",
                             workloads.check_compare)
    assert run.run_call(missing, None, {}).failure == "exit code 2"
    bad_argv = workloads.Call(("no-such-command",), tmp_path / "o.json", workloads.check_compare)
    assert "raised" in run.run_call(bad_argv, None, {}).failure
    (call,) = TINY["lattice"].calls(3, tmp_path)

    def explode(path):
        raise KeyError("broken")

    assert "check raised" in run.run_call(replace(call, verify=explode), None, {}).failure


def test_recorder_spans_a_real_call_and_restores_entry_points(tmp_path):
    originals = (cli.main, cli.load_network, network.load_network)
    recorder = tracing.Recorder()
    (call,) = TINY["table"].calls(3, tmp_path)
    record = run.run_call(call, recorder, {})
    assert record.failure is None
    assert (cli.main, cli.load_network, network.load_network) == originals
    names = [s.name for s in record.spans]
    assert names[0] == "cli.main" and record.spans[0].parent is None
    for name in ("network.load_network", "moments.MomentSolver.solve_all",
                 "moments.MomentTable.csv_rows", "moments.MomentTable.json_map",
                 "reporting.render_csv", "reporting.write_text"):
        assert name in names
    assert recorder.absent == []
    metrics = record.layers
    assert metrics["moments.table_format_calls"] == 2
    children = sum(s.duration for s in record.spans if s.parent == 0)
    assert metrics["cli.self_s"] + children == pytest.approx(metrics["cli.main_s"])
    assert record.bases["moments.ns_per_subset_edge"] == 15 * 9


def test_loop_runs_whole_rounds(tmp_path):
    calls = TINY["crosscheck"].calls(3, tmp_path)
    assert len(calls) == 2
    # A round of two calls is below MIN_CALLS, so a second round runs in full.
    assert len(run.run_loop(calls, 0.0, None)) == 4
    traced = run.run_loop(calls, 0.0, tracing.Recorder())
    assert [r.traced for r in traced] == [False, True, True, False]


def test_setup_only_reports_when_set_up_ends(capsys):
    before = time.monotonic()
    assert run.main(["--workload", "table", "--seed", "1", "--seconds", "0", "--setup-only"]) == 0
    (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith(run.SETUP_DONE)]
    assert before < float(line[len(run.SETUP_DONE):]) < time.monotonic()


def test_lattice_work_count_uses_the_box_it_built(tmp_path):
    (call,) = TINY["lattice"].calls(3, tmp_path)
    record = run.run_call(call, tracing.Recorder(), {})
    assert record.failure is None
    edges = len(lattice.build_box(2, 2).edges)
    assert record.bases["lattice.ns_per_sample_edge"] == 4000 * edges
    assert record.layers["lattice.build_box_calls"] == 2


def _span(name, parent, start, end, **counts):
    return tracing.Span(name, parent, start, end, dict(counts))


def test_layer_metrics_self_times_and_computed_ratios():
    spans = [
        _span("cli.main", None, 0.0, 10.0),
        _span("network.load_network", 0, 0.0, 0.5),
        _span("simulate.pilot_t0", 0, 0.5, 1.0),
        _span("fpp.estimate_moments", 0, 1.0, 5.0, samples=1000, edges=4, work=4000),
        _span("montecarlo.map_blocks", 3, 1.5, 4.5, blocks=3),
        _span("simulate.replication_results", 0, 5.0, 8.0, work=2e6),
        _span("montecarlo.map_blocks", 5, 5.5, 7.5, blocks=2),
        _span("lattice.time_constant_estimate", 0, 8.0, 9.0),
        _span("lattice.build_box", 7, 8.0, 8.25, edges=10),
        _span("reporting.render_json", 0, 9.0, 9.5),
    ]
    m, bases = tracing.layer_metrics(spans)
    assert m["cli.main_s"] == 10.0
    assert m["cli.self_s"] == pytest.approx(10.0 - 0.5 - 0.5 - 4.0 - 3.0 - 1.0 - 0.5)
    assert m["fpp.estimate_s"] == 4.0
    assert m["fpp.ns_per_sample_edge"] == pytest.approx(4.0e9 / 4000)
    assert bases["fpp.ns_per_sample_edge"] == 4000
    assert m["simulate.ns_per_replica_event"] == pytest.approx(3.0e9 / 2e6)
    assert m["montecarlo.map_blocks_s"] == 5.0
    assert m["montecarlo.blocks"] == 5
    assert m["montecarlo.reduce_s"] == pytest.approx(1.0 + 1.0)
    assert m["lattice.build_box_s"] == 0.25 and m["lattice.build_box_calls"] == 1
    assert m["lattice.recursion_s"] == pytest.approx(0.75)
    assert m["reporting.render_s"] == 0.5
    assert m["moments.ns_per_subset_edge"] == 0.0 and bases["moments.ns_per_subset_edge"] == 0.0
    assert set(m) == set(tracing.LAYER_METRICS)


def test_absent_entry_point_is_reported_not_fatal(monkeypatch, tmp_path):
    entries = tuple(
        (name, module, "no_such_function" if name == "lattice.build_box" else path, counter)
        for name, module, path, counter in tracing.ENTRY_POINTS
    )
    monkeypatch.setattr(tracing, "ENTRY_POINTS", entries)
    recorder = tracing.Recorder()
    (call,) = TINY["lattice"].calls(3, tmp_path)
    record = run.run_call(call, recorder, {})
    assert record.failure is None
    assert recorder.absent == ["lattice.build_box"]
    assert tracing.absent_metrics(recorder.absent) == [
        "cli.self_s", "montecarlo.reduce_s", "lattice.build_box_s", "lattice.build_box_calls",
        "lattice.recursion_s", "lattice.mc_s", "lattice.ns_per_sample_edge"]
    assert record.layers["lattice.build_box_calls"] == 0
    assert record.layers["lattice.recursion_s"] > 0


def test_result_lines_carry_every_declared_metric(capsys):
    benchmark = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    def traced(wall, failure=None):
        return run.CallRecord(wall_s=wall, cpu_s=wall, traced=True, failure=failure,
                              layers=dict.fromkeys(tracing.LAYER_METRICS, 0.0),
                              bases=dict.fromkeys(tracing.COMPUTED, 0.0))

    records = [
        run.CallRecord(wall_s=9.0, cpu_s=9.5, traced=False, failure=None, peak_rss_mb=100.0),  # cold
        traced(1.2, "exit code 1"),
        traced(1.3),
        run.CallRecord(wall_s=1.1, cpu_s=1.2, traced=False, failure=None),
    ]
    e2e = run.end_to_end(records, [0.3, 0.2, 0.4])
    layers = run.per_layer(records, [])
    assert sorted(e2e) == sorted(m["name"] for m in benchmark["end_to_end"])
    assert sorted(layers) == sorted(m["name"] for m in benchmark["per_layer"])
    for group, declared in ((e2e, benchmark["end_to_end"]), (layers, benchmark["per_layer"])):
        for m in declared:
            assert group[m["name"]]["unit"] == m["unit"]
    assert e2e["peak_rss_mb"]["value"] == 100.0
    assert layers["bench.trace_overhead_s"]["value"] == pytest.approx(1.3 - 1.1)   # the cold pair is left out
    assert "1 of 4 checks failed" in capsys.readouterr().out
    assert sorted(w["name"] for w in benchmark["workloads"]) == sorted(workloads.WORKLOADS)
