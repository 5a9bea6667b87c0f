"""Command-line harness: solve / fpp / simulate / lattice / compare.

Every command emits a versioned report (JSON by default, CSV with
--format csv) to stdout or --out.  Reports are deterministic for a fixed
seed — including across --workers settings — so the wall-clock runtime is
logged to stderr rather than embedded in the document.  --workers sets
the number of threads that run the Monte-Carlo blocks.  ``compare`` runs
the first-passage and replication blocks through one pool of them; each
route is still reduced on its own, so the bytes do not depend on it.
``main`` checks the shared options, runs the command's handler and emits its
report; the config is the parsed arguments, each default a handler resolved
included.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Iterable, Sequence

from . import __version__, fpp, lattice, moments, montecarlo, reporting, simulate
from .montecarlo import FPP_BLOCK, MomentEstimate, block_sizes, check_seed, check_workers
from .network import GossipNetwork, NetworkConfigError, load_network
from .reporting import TOOL_NAME

WORKERS_ENV = "GOSSIP_AOI_WORKERS"


def _parse_subset(text: str) -> tuple[int, ...]:
    try:
        ids = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"subset must be comma-separated integers, got {text!r}")
    if not ids:
        raise argparse.ArgumentTypeError("subset must contain at least one node id")
    return ids


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV) or "1"
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"${WORKERS_ENV} must be a positive integer, got {raw!r}")
    return int(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Age-of-information moments for gossip networks: exact recursion, "
        "first-passage sampling, event-driven simulation, and lattice boxes.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0, always recorded)")
    common.add_argument("--workers", type=int, default=None, help=f"parallel worker threads (default ${WORKERS_ENV} or 1)")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
    common.add_argument("--out", type=str, default=None, help="write the report here instead of stdout")

    networked = argparse.ArgumentParser(add_help=False)
    networked.add_argument("--network", type=str, required=True, help="path to a network JSON document")
    networked.add_argument("--k", type=int, default=1, help="highest moment order (default 1)")

    p = sub.add_parser("solve", parents=[common, networked], help="exact subset moments")
    p.add_argument("--subset", type=_parse_subset, default=None,
                   help="node ids, e.g. 1,2; omit for the full exhaustive table")
    p.add_argument("--memo-limit", type=int, default=moments.DEFAULT_MEMO_LIMIT,
                   help="abort after this many closure subsets")

    p = sub.add_parser("fpp", parents=[common, networked], help="first-passage Monte-Carlo moments")
    p.add_argument("--subset", type=_parse_subset, required=True)
    p.add_argument("--samples", type=int, default=100_000, help="independent weight samples")

    p = sub.add_parser("simulate", parents=[common, networked], help="event-driven simulation moments")
    p.add_argument("--subset", type=_parse_subset, required=True)
    p.add_argument("--mode", choices=("replication", "timeavg"), default="replication")
    p.add_argument("--replicas", type=int, default=None,
                   help="replication mode: replica count (default 10000)")
    p.add_argument("--horizon", type=float, default=None,
                   help="end time; default for replication is 3x the worst pilot t0, "
                   "required for timeavg")
    p.add_argument("--burn-in", type=float, default=None,
                   help="timeavg mode: averaging start (default 2x the worst pilot t0)")
    p.add_argument("--trace", type=str, default=None,
                   help="timeavg mode: also write an event-trace CSV to this path")

    p = sub.add_parser("lattice", parents=[common], help="lattice box passage values")
    p.add_argument("--d", type=int, required=True, help="lattice dimension")
    p.add_argument("--ell", type=int, required=True, help="box radius")
    p.add_argument("--samples", type=int, default=100_000, help="Monte-Carlo cross-check samples")

    p = sub.add_parser("compare", parents=[common, networked],
                       help="solver vs both Monte-Carlo oracles, with z-scores")
    p.add_argument("--subset", type=_parse_subset, required=True)
    p.add_argument("--samples", type=int, default=100_000, help="first-passage samples")
    p.add_argument("--replicas", type=int, default=10_000, help="simulation replicas")
    p.add_argument("--horizon", type=float, default=None,
                   help="simulation horizon (default 3x the worst pilot t0)")
    p.add_argument("--se-threshold", type=float, default=4.0,
                   help="fail when any |z| exceeds this many standard errors")

    return parser


def _load(path: str) -> GossipNetwork:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise NetworkConfigError(f"cannot read network file {path}: {exc}") from exc
    return load_network(text)


_NOT_ECHOED = frozenset({"workers", "format", "out", "trace", "memo_limit"})
_Report = tuple[dict[str, Any], Sequence[str], Iterable[Any], int]   # results, header, blocks, exit


def _config(args: argparse.Namespace) -> dict[str, Any]:
    """The report's config: every argument given or resolved, bar those in
    ``_NOT_ECHOED``, which cannot change a report's numbers."""
    return {key: value for key, value in vars(args).items()
            if value is not None and key not in _NOT_ECHOED}


def _estimates(results: dict[str, Any], estimates: Sequence[MomentEstimate]) -> _Report:
    """``results`` with one ``estimates`` record per moment order."""
    header = ["k", "mean", "std_error", "samples"]
    rows = [dict(zip(header, (e.k, e.mean, e.std_error, e.sample_count))) for e in estimates]
    results["estimates"] = rows
    return results, header, [reporting.record_columns(rows, header)], 0


def _z_score(reference: float, estimate: MomentEstimate) -> float:
    """The estimate's distance from ``reference`` in standard errors; nan,
    which fails every threshold, when the standard error is not finite."""
    if not math.isfinite(estimate.std_error):
        return math.nan
    if estimate.std_error > 0:
        return (estimate.mean - reference) / estimate.std_error
    return 0.0 if estimate.mean == reference else math.inf


# ---- command handlers -------------------------------------------------------


def _cmd_solve(args: argparse.Namespace) -> _Report:
    net = _load(args.network)
    solver = moments.MomentSolver(net, args.k, memo_limit=args.memo_limit)
    if args.subset is not None:
        vector = solver.solve(args.subset)
        header = ["k", "value"]
        rows = [{"k": k, "value": vector[k]} for k in range(1, args.k + 1)]
        results: dict[str, Any] = {"subset": list(net.check_subset(args.subset).ids()),
                                   "moments": rows}
        blocks = [reporting.record_columns(rows, header)]
    else:
        table = solver.solve_all()
        header = table.csv_header()
        # One lazy walk over the 2^N - 1 rows in blocks: emit writes it, one
        # block at a time, as the CSV body or as the JSON table.
        blocks = table.csv_rows()
        results = {"entries": len(table.entries), "table": blocks}
    if solver.zero_rate_subsets:
        results["zero_rate_subsets"] = [",".join(map(str, s.ids())) for s in solver.zero_rate_subsets]
    return results, header, blocks, 0


def _cmd_fpp(args: argparse.Namespace) -> _Report:
    net = _load(args.network)
    subset = net.check_subset(args.subset)
    estimates = fpp.estimate_moments(net, [subset], args.k, args.samples,
                                     seed=args.seed, workers=args.workers)[subset]
    return _estimates({"subset": list(subset.ids())}, estimates)


def _cmd_simulate(args: argparse.Namespace) -> _Report:
    net = _load(args.network)
    subset = net.check_subset(args.subset)
    results: dict[str, Any] = {"subset": list(subset.ids()), "mode": args.mode}
    if args.mode == "replication":
        if args.trace is not None:
            raise NetworkConfigError("--trace requires --mode timeavg (a single trajectory)")
        if args.burn_in is not None:
            raise NetworkConfigError("--burn-in requires --mode timeavg")
        if args.replicas is None:
            args.replicas = 10_000
        if args.horizon is None:
            args.horizon = simulate.default_horizon(net, subset, args.k, args.replicas,
                                                    seed=args.seed)
        result = simulate.replication_results(net, [subset], args.k, args.replicas, args.horizon,
                                              seed=args.seed, workers=args.workers)[subset]
        simulate.check_pending(result, subset, args.horizon)
        estimates = result.estimates
        results.update(replicas=result.replicas, pending=result.pending)
    else:
        if args.replicas is not None:
            raise NetworkConfigError("--replicas requires --mode replication")
        if args.horizon is None:
            raise NetworkConfigError("--mode timeavg requires --horizon")
        if args.burn_in is None:
            args.burn_in = simulate.default_burn_in(net, subset, args.k, args.horizon,
                                                    seed=args.seed)
        # Checked before the trace is opened, so a rejected call leaves no file.
        simulate.check_timeavg(net, args.k, args.horizon, args.burn_in)
        run = partial(simulate.estimate_moments_timeavg, net, subset, args.k, args.horizon,
                      args.burn_in, seed=args.seed)
        if args.trace is not None:
            with open(args.trace, "w", encoding="utf-8", newline="") as fh:
                writer = reporting.csv_writer(fh)
                writer.writerow(simulate.TRACE_HEADER)
                estimates = run(trace=writer.writerow)
        else:
            estimates = run()
        results["batches"] = simulate.TIMEAVG_BATCHES
    return _estimates(results, estimates)


def _cmd_lattice(args: argparse.Namespace) -> _Report:
    block_sizes(args.samples, FPP_BLOCK)   # reject a bad count before the exact solve
    raw = lattice.time_constant_estimate(args.d, args.ell)
    mc = lattice.mc_boundary_passage(args.d, args.ell, args.samples,
                                     seed=args.seed, workers=args.workers)
    results = {"d": args.d, "ell": args.ell, "raw": raw, "normalized": raw / args.ell,
               "mc_mean": mc.mean, "mc_se": mc.std_error, "samples": mc.sample_count}
    header = list(results)
    return results, header, [reporting.record_columns([results], header)], 0


def _cmd_compare(args: argparse.Namespace) -> _Report:
    net = _load(args.network)
    subset = net.check_subset(args.subset)
    if args.samples < 2:
        raise ValueError(f"need at least 2 samples, got {args.samples}")
    if not args.se_threshold > 0.0:
        raise ValueError(f"se threshold must be positive, got {args.se_threshold}")
    if args.horizon is None:
        args.horizon = simulate.default_horizon(net, subset, args.k, args.replicas, seed=args.seed)
    jobs = [fpp.passage_job(net, [subset], args.k, args.samples),
            simulate.replication_job(net, [subset], args.k, args.replicas, args.horizon)]
    vector = moments.solve_moments(net, subset, args.k)
    # One pool for both routes: the replication block runs beside the FPP blocks.
    [(_, fpp_estimates)], [sim_group] = montecarlo.sample_moments(jobs, args.seed, args.workers)
    sim = simulate.ReplicationResult.from_group(args.replicas, sim_group)
    simulate.check_pending(sim, subset, args.horizon)
    rows = []
    for f, s in zip(fpp_estimates, sim.estimates):
        exact = vector[f.k]
        fz, sz = _z_score(exact, f), _z_score(exact, s)
        rows.append({"k": f.k, "solver": exact,
                     "fpp_mean": f.mean, "fpp_se": f.std_error, "fpp_z": fz,
                     "sim_mean": s.mean, "sim_se": s.std_error, "sim_z": sz,
                     "passed": abs(fz) <= args.se_threshold and abs(sz) <= args.se_threshold})
    all_pass = all(row["passed"] for row in rows)
    results = {"subset": list(subset.ids()), "threshold": args.se_threshold,
               "rows": rows, "pass": all_pass}
    keys = list(rows[0])
    header = [*keys[:-1], "pass"]   # the CSV header spells the "passed" key "pass"
    return results, header, [reporting.record_columns(rows, keys)], 0 if all_pass else 1


_HANDLERS = {
    "solve": _cmd_solve,
    "fpp": _cmd_fpp,
    "simulate": _cmd_simulate,
    "lattice": _cmd_lattice,
    "compare": _cmd_compare,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        if args.workers is None:
            args.workers = _default_workers()
        check_workers(args.workers)
        check_seed(args.seed)
        for path in (args.out, getattr(args, "trace", None)):
            if path is not None:
                reporting.check_writable(path)
        results, header, blocks, code = _HANDLERS[args.command](args)
        reporting.emit(_config(args), results, header, blocks, args.format, args.out)
    except (NetworkConfigError, ValueError, RuntimeError, OverflowError) as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:   # _load reports an unreadable input, so this is an output
        print(f"{TOOL_NAME}: error: cannot write output: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    print(f"{TOOL_NAME}: {args.command} finished in {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
