"""Command-line harness: report schemas, exit codes, and determinism."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from gossip_aoi import (Edge, GossipNetwork, NodeSubset, __version__, cli, fpp, lattice,
                        moments, montecarlo, reporting, simulate)
from gossip_aoi.moments import MomentTable
from gossip_aoi.reporting import json_ready, render_csv, render_json
from helpers import (random_network, reference_render_csv, reference_render_json, table_map,
                     table_row)

LINE_DOC = (
    '{"nodes": 2, "edges": ['
    '{"from": 0, "to": 1, "rate": 1.0}, {"from": 1, "to": 2, "rate": 2.0}]}'
)
LONELY_DOC = '{"nodes": 2, "edges": [{"from": 0, "to": 1, "rate": 1.0}]}'
EDGELESS_DOC = '{"nodes": 2, "edges": []}'
GOLDEN_DOC = (
    '{"nodes": 3, "edges": ['
    '{"from": 0, "to": 1, "rate": 1.0}, {"from": 0, "to": 3, "rate": 0.3}, '
    '{"from": 1, "to": 2, "rate": 2.0}, {"from": 2, "to": 3, "rate": 1.5}, '
    '{"from": 3, "to": 1, "rate": 0.7}]}'
)
# Reports on GOLDEN_DOC at seed 12.  Every event draws one exponential gap
# and then one uniform edge pick from its Generator, in that order; these
# bytes pin that contract, so a change to how the stream is consumed
# (chunked draws, another pick rule, another summation) fails here.  Both
# default rules run the pilot, whose scalar loop draws like the time
# average's.  The fpp and lattice reports span two sample blocks, so they
# also pin the block-order reduction of the Monte-Carlo pipeline; compare
# runs all three routes.  The solve tables and the solve of subset {2} on
# LONELY_DOC pin how an infinite moment (and a zero-rate subset) is written
# in either format.
GOLDEN_SHA256 = {
    "timeavg.json": "8900064eefc9cfba6c1767aee7dac5a13cd04255cf4c3dc521faf780ea3d810c",
    "timeavg.csv": "7ce591fde0f9f64688fc354c5c7915262d4e226c3f94516b8a79f70c919d9cd0",
    "trace.csv": "b27591fec5b0dabe12a44024127bdb121eee7d15a9526d9981efb88be2655e78",
    "replication.json": "fd7ad5acb7b73b47d717d834d31b6cc9ce4fe6b60dd5dae28eec5d9947f28172",
    "fpp.json": "4e356e65333be27f8fadaecdc01a87d1282476e49ba364c88ab54c0a1d00137c",
    "lattice.json": "f9860f154a9b4794f0b73c71fd314d959fa715eaaa4231e8429b1d8c54e4573e",
    "compare.csv": "2a2023237129fa8e3d23b37f7c92eb4ab5007abf0781149b53a9965c6c49f7d2",
    "table.json": "c847515e2b4b83937fc8a6f2369322d165d66acdf75d46df3c2a5aa445bf479e",
    "table.csv": "5967d98da46ebdb5b1370a9a31578561870f74352d55a06ae4b9ac8f78c4a324",
    "replication.csv": "a954a3106f4d74b2a0389e62caa6435b2ad8384d6d18669466f41239a8929ccd",
    "fpp.csv": "bc5b960dddbefca6d904bf6d2341b3502fb9500bce1fc012e6ba034e721f56a2",
    "lattice.csv": "25ecb8021a46151956c2b4e01fc982c2013e837c5c155defb2504718d49e11cc",
    "compare.json": "88828af0a1077d62e790bfbe8738a0bf7a5f77adbcdfb88ff4eb7b5410000102",
    "solve.json": "503dc6c9c617fc08bae083120c35de157429d3082a3aa7225cbf3dcb37102d65",
    "solve.csv": "c27a3827e6441b04e5241b083072cb5edbc6f5bfb1892095a2c6f009672eb3bc",
}


@pytest.fixture
def line_path(tmp_path):
    path = tmp_path / "line.json"
    path.write_text(LINE_DOC)
    return str(path)


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_solve_reports_exact_moments(capsys, line_path):
    code, doc = run_json(capsys, ["solve", "--network", line_path, "--subset", "2", "--k", "2"])
    assert code == 0
    assert doc["schema"] == 1
    assert doc["tool"] == "gossip-aoi"
    assert doc["command"] == "solve"
    assert doc["seed"] == 0
    assert doc["config"]["network"] == line_path
    assert doc["config"]["subset"] == [2]
    assert doc["results"]["subset"] == [2]
    moments = {row["k"]: row["value"] for row in doc["results"]["moments"]}
    assert moments[1] == pytest.approx(1.5, abs=1e-12)
    assert moments[2] == pytest.approx(3.5, abs=1e-12)


def test_solve_csv_has_one_row_per_order(capsys, line_path):
    code = cli.main(["solve", "--network", line_path, "--subset", "2", "--k", "3",
                     "--format", "csv"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.startswith("# gossip-aoi")
    rows = list(csv.reader(io.StringIO(text.split("\n", 1)[1])))
    assert rows[0] == ["k", "value"]
    assert len(rows) == 1 + 3
    assert float(rows[1][1]) == pytest.approx(1.5)


def test_solve_without_subset_tabulates_everything(capsys, line_path):
    code, doc = run_json(capsys, ["solve", "--network", line_path, "--k", "1"])
    assert code == 0
    assert doc["results"]["entries"] == 3
    assert doc["results"]["table"]["1,2"] == [1.0]


def test_solve_csv_table_skips_the_json_payload(capsys, line_path, monkeypatch):
    def refuse(self):
        raise AssertionError("json_map built for a CSV report")

    monkeypatch.setattr(MomentTable, "json_map", refuse)
    code = cli.main(["solve", "--network", line_path, "--k", "2", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out.split("\n", 1)[1])))
    assert [row[0] for row in rows] == ["subset", "1", "2", "1,2"]


def test_solve_rejects_source_in_subset(capsys, line_path):
    code = cli.main(["solve", "--network", line_path, "--subset", "0,1"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_solve_rejects_a_subset_id_above_the_node_cap(capsys, line_path):
    code = cli.main(["solve", "--network", line_path, "--subset", "100000"])
    assert code == 2
    assert capsys.readouterr().err == (
        "gossip-aoi: error: node id 100000 exceeds the supported maximum of 62\n")


def test_missing_network_file_is_a_config_error(capsys, tmp_path):
    code = cli.main(["solve", "--network", str(tmp_path / "nope.json"), "--subset", "1"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def _assert_one_write_error_line(err, path):
    assert err.startswith("gossip-aoi: error: cannot write output: ")
    assert f"No such file or directory: '{path}'" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_an_unwritable_report_is_an_error_not_a_failed_check(capsys, line_path, tmp_path):
    out = tmp_path / "missing" / "report.json"
    code = cli.main(["compare", "--network", line_path, "--subset", "2", "--samples", "2000",
                     "--replicas", "500", "--out", str(out)])
    assert code == 2
    _assert_one_write_error_line(capsys.readouterr().err, out)


def test_an_unwritable_trace_is_an_error(capsys, line_path, tmp_path):
    trace = tmp_path / "missing" / "events.csv"
    code = cli.main(["simulate", "--network", line_path, "--subset", "2", "--mode", "timeavg",
                     "--horizon", "50", "--burn-in", "5", "--trace", str(trace)])
    assert code == 2
    _assert_one_write_error_line(capsys.readouterr().err, trace)


def test_fpp_reports_estimates(capsys, line_path):
    code, doc = run_json(capsys, ["fpp", "--network", line_path, "--subset", "2",
                                  "--k", "2", "--samples", "20000", "--seed", "5"])
    assert code == 0
    rows = doc["results"]["estimates"]
    assert [row["k"] for row in rows] == [1, 2]
    assert all(row["samples"] == 20000 for row in rows)
    assert abs(rows[0]["mean"] - 1.5) <= 4 * rows[0]["std_error"]


def test_simulate_replication_reports_pending(capsys, line_path):
    code, doc = run_json(capsys, ["simulate", "--network", line_path, "--subset", "2",
                                  "--k", "1", "--replicas", "4000", "--horizon", "40",
                                  "--seed", "6"])
    assert code == 0
    assert doc["results"]["mode"] == "replication"
    assert doc["results"]["pending"] == 0
    est = doc["results"]["estimates"][0]
    assert abs(est["mean"] - 1.5) <= 4 * est["std_error"]


def test_simulate_replication_default_horizon_is_the_library_rule(capsys, line_path):
    code, doc = run_json(capsys, ["simulate", "--network", line_path, "--subset", "2",
                                  "--replicas", "2000", "--seed", "7"])
    assert code == 0
    net = cli._load(line_path)
    assert doc["config"]["horizon"] == simulate.default_horizon(net, [2], seed=7)


def test_simulate_replication_pending_error_is_the_library_text(capsys, line_path):
    code = cli.main(["simulate", "--network", line_path, "--subset", "2",
                     "--replicas", "2000", "--horizon", "0.5", "--seed", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert "replicas never fully informed subset {2} by horizon 0.5; raise the horizon" in err


def test_simulate_timeavg_requires_horizon(capsys, line_path):
    code = cli.main(["simulate", "--network", line_path, "--subset", "2",
                     "--mode", "timeavg"])
    assert code == 2
    assert "--horizon" in capsys.readouterr().err


def test_trace_is_timeavg_only(capsys, line_path, tmp_path):
    trace = str(tmp_path / "events.csv")
    code = cli.main(["simulate", "--network", line_path, "--subset", "2",
                     "--trace", trace])
    assert code == 2
    assert "timeavg" in capsys.readouterr().err

    code = cli.main(["simulate", "--network", line_path, "--subset", "2",
                     "--mode", "timeavg", "--horizon", "200", "--burn-in", "10",
                     "--trace", trace, "--out", str(tmp_path / "report.json")])
    assert code == 0
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "from", "to", "new_timestamp"]
    assert len(rows) > 10
    times = [float(r[0]) for r in rows[1:]]
    assert times == sorted(times)


@pytest.mark.parametrize("doc, option, message", [
    (LINE_DOC, ["--k", "0", "--horizon", "200"], "moment order must be a positive integer, got 0"),
    (LINE_DOC, ["--horizon", "10", "--burn-in", "10"],
     "need 0 <= burn_in < horizon, got burn_in=10.0, horizon=10.0"),
    (LINE_DOC, ["--horizon", "inf"], "horizon must be finite, got inf"),
    (EDGELESS_DOC, ["--horizon", "200", "--burn-in", "10"],
     "network has no edges; the event clock never rings"),
], ids=["order", "burn-in", "horizon-inf", "edgeless"])
def test_rejected_timeavg_call_leaves_the_trace_path_alone(capsys, tmp_path, doc, option, message):
    (tmp_path / "net.json").write_text(doc)
    trace = tmp_path / "events.csv"
    argv = ["simulate", "--network", str(tmp_path / "net.json"), "--subset", "2",
            "--mode", "timeavg", "--trace", str(trace), *option]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"gossip-aoi: error: {message}\n"
    assert not trace.exists()
    trace.write_text("kept\n")
    assert cli.main(argv) == 2
    assert trace.read_text() == "kept\n"


GOLDEN_NET = ["--network", "golden.json", "--subset", "2,3", "--k", "3", "--seed", "12"]
# The golden reports made by one call each, by name without the format.
GOLDEN_RUNS = {
    "replication": ["simulate", *GOLDEN_NET, "--replicas", "3000"],
    "fpp": ["fpp", *GOLDEN_NET, "--samples", "40000"],
    "lattice": ["lattice", "--d", "2", "--ell", "2", "--samples", "40000", "--seed", "12"],
    "compare": ["compare", *GOLDEN_NET, "--samples", "40000", "--replicas", "3000"],
    "table": ["solve", "--network", "lonely.json", "--k", "3", "--seed", "12"],
    "solve": ["solve", "--network", "lonely.json", "--k", "3", "--seed", "12", "--subset", "2"],
}


@pytest.fixture
def golden_dir(tmp_path, monkeypatch):
    (tmp_path / "golden.json").write_text(GOLDEN_DOC)
    (tmp_path / "lonely.json").write_text(LONELY_DOC)
    monkeypatch.chdir(tmp_path)   # the report echoes the network path
    return tmp_path


def test_simulate_reports_keep_their_golden_bytes(golden_dir):
    timeavg = ["simulate", *GOLDEN_NET, "--mode", "timeavg", "--horizon", "400"]
    assert cli.main(timeavg + ["--trace", "trace.csv", "--out", "timeavg.json"]) == 0
    assert cli.main(timeavg + ["--burn-in", "5", "--format", "csv", "--out", "timeavg.csv"]) == 0
    for name, argv in GOLDEN_RUNS.items():
        assert cli.main(argv + ["--out", f"{name}.json"]) == 0
        assert cli.main(argv + ["--format", "csv", "--out", f"{name}.csv"]) == 0
    digests = {name: hashlib.sha256((golden_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


@pytest.mark.parametrize("tile", [1, 7, montecarlo.FPP_BLOCK + 1])
def test_passage_reports_do_not_depend_on_the_tile_size(golden_dir, monkeypatch, tile):
    # 1 and 7 split every block into many tiles, 7 with a ragged last one;
    # the third relaxes each block as one tile.  With no TILE_BYTES, every
    # graph gets tiles of TILE samples.
    monkeypatch.setattr(fpp, "TILE", tile)
    monkeypatch.setattr(fpp, "TILE_BYTES", 0)
    for workers in ("1", "2"):
        for name in ("fpp.json", "lattice.csv", "compare.json"):
            command, fmt = name.split(".")
            argv = GOLDEN_RUNS[command] + ["--workers", workers, "--format", fmt, "--out", name]
            assert cli.main(argv) == 0
            digest = hashlib.sha256((golden_dir / name).read_bytes()).hexdigest()
            assert digest == GOLDEN_SHA256[name], (name, workers)


def test_lattice_reports_exact_and_mc_values(capsys):
    code, doc = run_json(capsys, ["lattice", "--d", "1", "--ell", "2",
                                  "--samples", "30000", "--seed", "9"])
    assert code == 0
    results = doc["results"]
    assert results["raw"] == pytest.approx(1.25, abs=1e-12)
    assert results["normalized"] == pytest.approx(0.625, abs=1e-12)
    assert results["samples"] == 30000
    assert abs(results["mc_mean"] - 1.25) <= 4 * results["mc_se"]


@pytest.mark.parametrize("option, message", [
    (["--samples", "0"], "sample count must be positive, got 0"),
    (["--samples", "-5"], "sample count must be positive, got -5"),
    (["--workers", "0"], "worker count must be positive, got 0"),
], ids=["samples-zero", "samples-negative", "workers"])
def test_lattice_rejects_its_arguments_before_the_exact_solve(capsys, monkeypatch, option, message):
    def refuse(*args, **kwargs):
        raise AssertionError("lattice ran the exact solve before checking its inputs")

    monkeypatch.setattr(lattice, "time_constant_estimate", refuse)
    code = cli.main(["lattice", "--d", "10", "--ell", "2", *option])
    assert code == 2
    assert capsys.readouterr().err == f"gossip-aoi: error: {message}\n"


def test_lattice_checks_the_recursion_cap_before_building_the_box(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("lattice built a box above the recursion cap")

    monkeypatch.setattr(lattice, "build_box", refuse)
    code = cli.main(["lattice", "--d", "3", "--ell", "50"])
    assert code == 2
    assert capsys.readouterr().err == (
        "gossip-aoi: error: interior has 161799 vertices, above the recursion cap of 22; "
        "use mc_boundary_passage instead\n")


def test_compare_line_network_passes(capsys, line_path):
    code, doc = run_json(capsys, ["compare", "--network", line_path, "--subset", "2",
                                  "--k", "2", "--seed", "7", "--samples", "60000",
                                  "--replicas", "8000"])
    assert code == 0
    assert doc["results"]["pass"] is True
    rows = doc["results"]["rows"]
    assert [row["solver"] for row in rows] == [1.5, 3.5]
    assert all(row["passed"] for row in rows)
    assert all(abs(row["fpp_z"]) <= 4 and abs(row["sim_z"]) <= 4 for row in rows)


@pytest.mark.parametrize("option, message", [
    (["--replicas", "1"], "need at least 2 replicas, got 1"),
    (["--horizon", "-1"], "horizon must be positive, got -1.0"),
    (["--horizon", "inf"], "horizon must be finite, got inf"),
    (["--samples", "1"], "need at least 2 samples, got 1"),
    (["--k", "0"], "moment order must be a positive integer, got 0"),
    (["--se-threshold", "-1"], "se threshold must be positive, got -1.0"),
    (["--se-threshold", "0"], "se threshold must be positive, got 0.0"),
    (["--se-threshold", "nan"], "se threshold must be positive, got nan"),
], ids=["replicas", "horizon", "horizon-inf", "samples", "order",
        "threshold-negative", "threshold-zero", "threshold-nan"])
def test_compare_rejects_replicas_and_horizon_before_any_work(capsys, line_path, monkeypatch,
                                                              option, message):
    def refuse(*args, **kwargs):
        raise AssertionError("compare started work before checking its inputs")

    monkeypatch.setattr(simulate, "pilot_t0", refuse)
    monkeypatch.setattr(moments, "solve_moments", refuse)
    monkeypatch.setattr(montecarlo, "sample_moments", refuse)
    code = cli.main(["compare", "--network", line_path, "--subset", "2", *option])
    assert code == 2
    assert capsys.readouterr().err == f"gossip-aoi: error: {message}\n"


def test_compare_reports_an_unreachable_subset_before_any_block(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compare drew a block for an unreachable subset")

    path = tmp_path / "lonely.json"
    path.write_text(LONELY_DOC)
    monkeypatch.setattr(montecarlo, "map_blocks", refuse)
    code = cli.main(["compare", "--network", str(path), "--subset", "2", "--horizon", "5",
                     "--samples", "1000"])
    assert code == 2
    assert capsys.readouterr().err == (
        "gossip-aoi: error: subset {2}: 1000 of 1000 samples have infinite passage time; "
        "no member is reachable from the source\n")


@pytest.mark.parametrize("option, message", [
    (["--replicas", "1"], "need at least 2 replicas, got 1"),
    (["--k", "0"], "moment order must be a positive integer, got 0"),
    (["--burn-in", "5"], "--burn-in requires --mode timeavg"),
    (["--mode", "timeavg", "--horizon", "inf"], "horizon must be finite, got inf"),
    (["--mode", "timeavg", "--horizon", "-1"], "horizon must be positive, got -1.0"),
    (["--mode", "timeavg", "--horizon", "200", "--k", "0"],
     "moment order must be a positive integer, got 0"),
    (["--mode", "timeavg", "--horizon", "50", "--replicas", "5"],
     "--replicas requires --mode replication"),
], ids=["replicas", "order", "replication-burn-in", "timeavg-horizon-inf",
        "timeavg-horizon-negative", "timeavg-order", "timeavg-replicas"])
def test_simulate_rejects_its_arguments_before_the_pilot(capsys, line_path, monkeypatch,
                                                         option, message):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate ran the pilot before checking its inputs")

    monkeypatch.setattr(simulate, "pilot_t0", refuse)
    code = cli.main(["simulate", "--network", line_path, "--subset", "2", *option])
    assert code == 2
    assert capsys.readouterr().err == f"gossip-aoi: error: {message}\n"


def test_compare_fails_when_the_bar_is_impossible(capsys, line_path):
    code, doc = run_json(capsys, ["compare", "--network", line_path, "--subset", "2",
                                  "--seed", "7", "--samples", "5000",
                                  "--replicas", "2000", "--se-threshold", "1e-9"])
    assert code == 1
    assert doc["results"]["pass"] is False


def test_infinities_render_as_inf_in_both_formats(capsys, tmp_path):
    path = tmp_path / "lonely.json"
    path.write_text(LONELY_DOC)
    code, doc = run_json(capsys, ["solve", "--network", str(path), "--subset", "2"])
    assert code == 0
    assert doc["results"]["moments"][0]["value"] == "inf"
    assert doc["results"]["zero_rate_subsets"] == ["2"]

    code = cli.main(["solve", "--network", str(path), "--subset", "2", "--format", "csv"])
    assert code == 0
    text = capsys.readouterr().out
    assert "inf" in text.splitlines()[-1]


def test_reports_are_byte_identical_across_runs_and_workers(line_path, tmp_path):
    variants = []
    for tag, workers in (("a", "1"), ("b", "3"), ("c", "1")):
        out = tmp_path / f"report-{tag}.json"
        code = cli.main(["compare", "--network", line_path, "--subset", "2",
                         "--k", "2", "--seed", "11", "--samples", "40000",
                         "--replicas", "6000", "--workers", workers,
                         "--out", str(out)])
        assert code == 0
        variants.append(out.read_bytes())
    assert variants[0] == variants[1] == variants[2]


def test_workers_env_sets_the_default(line_path, tmp_path, monkeypatch):
    explicit = tmp_path / "explicit.json"
    via_env = tmp_path / "via-env.json"
    argv = ["fpp", "--network", line_path, "--subset", "2", "--samples", "30000",
            "--seed", "3"]
    assert cli.main(argv + ["--workers", "2", "--out", str(explicit)]) == 0
    monkeypatch.setenv("GOSSIP_AOI_WORKERS", "2")
    assert cli.main(argv + ["--out", str(via_env)]) == 0
    assert explicit.read_bytes() == via_env.read_bytes()


@pytest.mark.parametrize("raw", ["0", "-3", "abc"])
def test_workers_env_must_be_a_positive_integer(capsys, line_path, monkeypatch, raw):
    monkeypatch.setenv("GOSSIP_AOI_WORKERS", raw)
    code = cli.main(["solve", "--network", line_path, "--subset", "2"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"gossip-aoi: error: $GOSSIP_AOI_WORKERS must be a positive integer, got {raw!r}\n"
    )


def test_render_json_handles_infinity_and_sorts_keys():
    text = render_json({"b": math.inf, "a": [1.0, -math.inf]})
    parsed = json.loads(text)
    assert parsed == {"a": [1.0, "-inf"], "b": "inf"}
    assert text.index('"a"') < text.index('"b"')
    assert json_ready({"x": {"y": math.inf}}) == {"x": {"y": "inf"}}


def test_render_csv_quotes_embedded_commas():
    text = render_csv(["subset", "v1"], [["1,2"], [0.5]])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows == [["subset", "v1"], ["1,2", "0.5"]]


def test_render_csv_writes_mixed_cells_verbatim():
    row = [1.0, 0.1, 1e-300, 1 / 3, math.inf, -math.inf, math.nan, True, False, 3, "x", "1,2",
           -0.0, 5e20]
    assert render_csv(["h"], [[cell] for cell in row]) == (
        "h\n1.0,0.1,1e-300,0.3333333333333333,inf,-inf,nan,True,False,3,x,\"1,2\",-0.0,5e+20\n"
    )


def test_render_csv_is_the_csv_writer_reference():
    floats = [1.0, 0.1, 1e-300, 5e-324, 1e16, 5e20, -0.0, math.nan, math.inf, -math.inf]
    texts = ["1,2", 'a"b', "l\nm", "c\rd", "", "x"]
    cells = floats + [True, False, 0, -7, 1 << 70, None] + texts
    n = len(cells)
    columns = [
        cells,                                           # mixed, cell by cell
        [floats[i % len(floats)] for i in range(n)],     # plain floats, one map(repr)
        cells[::-1],
        [texts[i % len(texts)] for i in range(n)],
        [i % 3 == 0 for i in range(n)],
    ]
    header = ["subset", "a,b", 'q"', "", "l\nm"]
    rows = list(zip(*columns))
    assert render_csv(header, columns) == reference_render_csv(header, rows)
    assert render_csv(header, [[] for _ in header]) == reference_render_csv(header, [])
    # A row whose only field is empty is written as "", not as a blank line.
    for cell in cells:
        assert render_csv(["h"], [[cell]]) == reference_render_csv(["h"], [[cell]])
    assert render_csv([""], [cells]) == reference_render_csv([""], [[cell] for cell in cells])
    assert render_csv([""], [[""]]) == '""\n""\n'


def test_render_csv_rejects_ragged_columns():
    with pytest.raises(ValueError, match="CSV columns differ in length"):
        render_csv(["a", "b"], [[1.0, 2.0], [3.0]])


def test_solve_csv_table_is_the_csv_writer_reference(capsys, tmp_path):
    base = random_network(np.random.default_rng(21), 9, reachable=True)
    # Node 10 only sends, so no source reaches it: the row of {10} is inf.
    net = GossipNetwork(node_count=10, edges=base.edges + (Edge(10, 3, 0.8), Edge(10, 7, 2.5)))
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"nodes": net.node_count, "edges": [
        {"from": e.from_node, "to": e.to_node, "rate": e.rate} for e in net.edges]}))
    code = cli.main(["solve", "--network", str(path), "--k", "3", "--format", "csv"])
    assert code == 0
    text = capsys.readouterr().out

    table = moments.MomentSolver(net, 3).solve_all()
    rows = []
    for mask in range(2, 1 << 11, 2):   # row mask // 2 - 1 holds the subset mask
        subset = NodeSubset(mask)
        rows.append([",".join(map(str, subset.ids())), *table_row(table, subset)[1:]])
    assert rows[(1 << 10) // 2 - 1] == ["10", math.inf, math.inf, math.inf]
    preamble = text.partition("\n")[0] + "\n"
    assert text == reference_render_csv(["subset", "v1", "v2", "v3"], rows, preamble)


def _write_network(path, net):
    path.write_text(json.dumps({"nodes": net.node_count, "edges": [
        {"from": e.from_node, "to": e.to_node, "rate": e.rate} for e in net.edges]}))
    return net


def _write_unreached_network(path):
    """A random 10-node network whose nodes all hear from the source, plus
    node 11, which only sends: a table with two-digit ids, inf rows and
    zero-rate subsets."""
    base = random_network(np.random.default_rng(23), 10, reachable=True)
    edges = base.edges + (Edge(11, 4, 1.3), Edge(11, 10, 0.6))
    return _write_network(path, GossipNetwork(node_count=11, edges=edges))


def _write_isolated_network(path):
    """A random 12-node network in which only node 1 hears from the source:
    every subset without node 1 has infinite moments, so every float column
    of the JSON table holds inf."""
    base = random_network(np.random.default_rng(24), 12, p=0.3)
    edges = (Edge(0, 1, 1.0),) + tuple(e for e in base.edges if e.from_node > 1)
    return _write_network(path, GossipNetwork(node_count=12, edges=edges))


@pytest.mark.parametrize("k", [1, 3])
def test_solve_json_table_is_the_whole_document_reference(capsys, tmp_path, k):
    path = tmp_path / "net.json"
    # each network with the subset the solver must list as zero-rate
    for write, unreached in ((_write_unreached_network, "11"),
                             (_write_isolated_network, "2,3,4,5,6,7,8,9,10,11,12")):
        net = write(path)
        argv = ["solve", "--network", str(path), "--k", str(k)]
        assert cli.main(argv) == 0
        text = capsys.readouterr().out
        assert cli.main(argv + ["--out", str(tmp_path / "table.json")]) == 0
        assert (tmp_path / "table.json").read_text(encoding="utf-8") == text

        solver = moments.MomentSolver(net, k)
        table = solver.solve_all()
        zero_rate = [",".join(map(str, s.ids())) for s in solver.zero_rate_subsets]
        assert unreached in zero_rate and table_row(table, [net.node_count])[1:] == (math.inf,) * k
        config = {"command": "solve", "network": str(path), "k": k, "seed": 0}
        assert text == reference_render_json({
            "schema": 1, "tool": "gossip-aoi", "version": __version__, "command": "solve",
            "seed": 0, "config": config,
            "results": {"entries": (1 << net.node_count) - 1, "table": table_map(table),
                        "zero_rate_subsets": zero_rate}})


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_reports_do_not_depend_on_the_block_size(capsys, tmp_path, monkeypatch, fmt):
    path = tmp_path / "net.json"
    _write_unreached_network(path)
    argv = ["solve", "--network", str(path), "--k", "2", "--format", fmt]
    assert cli.main(argv) == 0
    whole = capsys.readouterr().out
    # 7 rows a block: the CSV blocks join 2 low nodes to each label of the
    # 9 high ones, and the JSON walk goes node by node over the 9 low nodes.
    monkeypatch.setattr(moments, "TABLE_CHUNK", 7)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == whole


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_report_is_written_in_bounded_memory(tmp_path, fmt):
    net = random_network(np.random.default_rng(16), 16, p=0.3, reachable=True)
    table = moments.MomentSolver(net, 3).solve_all()
    results, columns = ({}, table.csv_rows()) if fmt == "csv" else ({"table": table.json_map()}, [])
    out = tmp_path / f"table.{fmt}"
    tracemalloc.start()
    try:
        reporting.emit({"command": "solve", "seed": 0}, results, table.csv_header(), columns,
                       fmt, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Only a block of rows is held at a time; a report built whole in
    # memory would take more than its own size.
    assert peak < out.stat().st_size / 4


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("nodes, option, message", [
    (moments.EXHAUSTIVE_CAP + 1, [], "exhaustive solve is capped at 20 nodes, network has 21"),
    (3, ["--memo-limit", "6"], "memo table exceeded 6 subsets; raise memo_limit to continue"),
], ids=["cap", "memo-limit"])
def test_refused_table_leaves_the_out_path_alone(capsys, tmp_path, fmt, nodes, option, message):
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"nodes": nodes, "edges": [
        {"from": 0, "to": v, "rate": 1.0} for v in range(1, nodes + 1)]}))
    out = tmp_path / "report"
    argv = ["solve", "--network", str(path), "--format", fmt, "--out", str(out), *option]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"gossip-aoi: error: {message}\n"
    assert not out.exists()
    out.write_bytes(b"kept\n")
    assert cli.main(argv) == 2
    assert out.read_bytes() == b"kept\n"


def test_report_that_fails_to_format_leaves_the_out_path_alone(tmp_path):
    out = tmp_path / "report"
    out.write_bytes(b"kept\n")
    # A report of a few rows is formatted whole before out is opened.
    with pytest.raises(ValueError, match="CSV columns differ in length"):
        reporting.emit({"command": "solve", "seed": 0}, {}, ["a", "b"], [[[1.0, 2.0], [3.0]]],
                       "csv", str(out))
    assert out.read_bytes() == b"kept\n"
