"""Benchmark harness for gossip-aoi.

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 20 --trace 0

A closed loop: one client runs one ``gossip_aoi.cli.main(argv)`` call at a
time, in process, on inputs generated from ``--seed``, for ``--seconds``.
Each report is read back from its ``--out`` file and checked outside the
timed interval.  A run is made of whole rounds, each of which makes every
call of the workload once, so every input weighs the same in the medians
however fast the code is.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced calls and
reports the per-layer metrics from the traced ones, plus the tracing
overhead.  The last line of standard output is one JSON object; the lines
before it print the same figures for people.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 9
MIN_CALLS = 3   # a median of fewer calls is mostly the slower first call
SETUP_DONE = "bench: set-up done at "


def use_checkout_source() -> None:
    """Import gossip_aoi from this checkout's src/, never from elsewhere."""
    package = SRC / "gossip_aoi"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"bench: {package / 'cli.py'} not found; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import gossip_aoi

    if Path(gossip_aoi.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: gossip_aoi was imported from {gossip_aoi.__file__}, not {package}")


@dataclass
class CallRecord:
    wall_s: float
    cpu_s: float
    traced: bool
    failure: str | None
    peak_rss_mb: float = 0.0
    spans: list = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    bases: dict[str, float] = field(default_factory=dict)


def check(call, code: int | None, verified: dict[Path, bytes]) -> str | None:
    """Failure message for one call's report, or None when it is correct.

    Reports are deterministic for fixed inputs, so a report byte-identical
    to one already verified for the same call passes without re-checking.
    """
    from workloads import CheckFailed

    if code != 0:
        return f"exit code {code}"
    try:
        digest = hashlib.sha256(call.out.read_bytes()).digest()
        if verified.get(call.out) != digest:
            call.verify(call.out)
            verified[call.out] = digest
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a broken report must not stop the loop
        return f"check raised {exc!r}"
    return None


def cpu_seconds() -> float:
    """User + system CPU of this process and of every worker it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_call(call, recorder, verified: dict[Path, bytes]) -> CallRecord:
    from gossip_aoi import cli

    call.out.unlink(missing_ok=True)
    if recorder is not None:
        recorder.install()
    code, error = None, None
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        code = cli.main(list(call.argv))
    except (Exception, SystemExit) as exc:  # counted as a failed call
        error = f"cli.main raised {exc!r}"
    finally:
        wall = time.perf_counter() - t0
        cpu = cpu_seconds() - cpu0
        if recorder is not None:
            recorder.uninstall()
    rss_mb = peak_rss_mb()   # before the check, which allocates too
    failure = error or check(call, code, verified)
    record = CallRecord(wall_s=wall, cpu_s=cpu, traced=recorder is not None, failure=failure,
                        peak_rss_mb=rss_mb)
    if recorder is not None:
        record.spans = recorder.spans
        record.layers, record.bases = tracing.layer_metrics(recorder.spans)
    return record


def run_loop(calls, seconds: float, recorder) -> list[CallRecord]:
    """Run rounds of calls, one call at a time, until ``seconds`` have passed.

    A round makes every call once, in order, and the loop stops only at the
    end of a round, after at least MIN_CALLS calls.  With a recorder, every
    call of a round is a pair on the same inputs, one untraced and one
    traced, in alternating order so that neither side always runs first.
    """
    trace = recorder is not None
    per_round = len(calls) * (2 if trace else 1)
    verified: dict[Path, bytes] = {}
    records: list[CallRecord] = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = trace and (i % 2) != (i // 2) % 2
        call = calls[(i // 2 if trace else i) % len(calls)]
        records.append(run_call(call, recorder if traced else None, verified))
        i += 1
        if i % per_round == 0 and i >= MIN_CALLS and time.perf_counter() - start >= seconds:
            return records


def peak_rss_mb() -> float:
    """Peak RSS so far of this process plus that of its largest reaped worker.

    Forked workers share pages with the parent, so the sum is an upper
    bound on the peak of the process tree.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0   # ru_maxrss is in KiB on Linux


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, from spawn to the point where each
    would make its first call: starting Python, importing, generating and
    writing the inputs.  The child reads the same system-wide monotonic clock
    and prints when it got there, so its exit and clean-up are not counted.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        done = next(line for line in child.stdout.splitlines() if line.startswith(SETUP_DONE))
        times.append(float(done[len(SETUP_DONE):]) - t0)
    return times


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(records: list[CallRecord], setup: list[float]) -> dict:
    """The end-to-end metrics of a run.  Peak RSS is taken after the first
    call, as one CLI invocation would see it: the high-water mark keeps
    creeping up over repeated calls in one process, so a later reading would
    depend on how many calls the run fitted in."""
    walls = [r.wall_s for r in records]
    rss_mb = records[0].peak_rss_mb
    cpus = [r.cpu_s for r in records]
    failed = sum(r.failure is not None for r in records)
    print(f"  wall_s       {statistics.median(walls):10.4f} s      median of {len(walls)} calls "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"  cpu_s        {statistics.median(cpus):10.4f} s      median of {len(cpus)} calls, "
          "user+sys incl. pool workers")
    print(f"  setup_s      {statistics.median(setup):10.4f} s      median of {len(setup)} fresh set-ups")
    print(f"  peak_rss_mb  {rss_mb:10.1f} MB     process + largest worker, after the first call")
    print(f"  error_rate   {failed / len(records):10.4f} ratio  {failed} of {len(records)} checks failed")
    return {
        "wall_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(cpus), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(records: list[CallRecord], absent: list[str]) -> dict:
    traced = [r for r in records if r.traced]
    # Records come in pairs on the same inputs, one traced and one untraced.
    # The first pair holds the first call of the process, which runs cold.
    pairs = [records[i:i + 2] for i in range(2, len(records), 2)]
    overheads = [sum(r.wall_s if r.traced else -r.wall_s for r in pair) for pair in pairs]
    missing = tracing.absent_metrics(absent)
    out = {}
    for name, m in tracing.LAYER_METRICS.items():
        value = statistics.median(r.layers[name] for r in traced)
        out[name] = metric(value, m.unit)
        note = "absent" if name in missing else ""
        if name in tracing.COMPUTED:
            base = statistics.median(r.bases[name] for r in traced)
            note = note or f"computed: per {tracing.COMPUTED[name]} (median base {base:.6g})"
        print(f"  {name:32s} {value:14.6g} {m.unit:5s} {note}")
    overhead = statistics.median(overheads)
    print(f"  {'bench.trace_overhead_s':32s} {overhead:14.6g} s     "
          f"median over {len(pairs)} pairs of traced minus untraced wall, first pair left out")
    print(f"  {'bench.absent_entry_points':32s} {len(absent):14d} count {', '.join(absent)}")
    out["bench.trace_overhead_s"] = metric(overhead, "s")
    out["bench.absent_entry_points"] = metric(len(absent), "count")
    return out


def write_trace(path: Path, workload: str, seed: int, records: list[CallRecord], absent: list[str]) -> None:
    calls = []
    for r in records:
        entry = {"traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "failure": r.failure}
        if r.traced:
            origin = r.spans[0].start if r.spans else 0.0
            entry["spans"] = [
                {"name": s.name, "start": s.start - origin, "end": s.end - origin,
                 "parent": s.parent, "counts": s.counts}
                for s in r.spans
            ]
            entry["metrics"] = r.layers
            entry["computed_bases"] = r.bases
        calls.append(entry)
    document = {
        "workload": workload,
        "seed": seed,
        "absent_entry_points": absent,
        "absent_metrics": tracing.absent_metrics(absent),
        "computed_metrics": tracing.COMPUTED,
        "calls": calls,
    }
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gossip-aoi benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate and write the inputs, then exit (times set-up)")
    args = parser.parse_args(argv)

    use_checkout_source()
    import gossip_aoi.cli  # noqa: F401  (part of set-up: the first call needs it)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        calls = workload.calls(args.seed, workdir)
        if args.setup_only:
            print(f"{SETUP_DONE}{time.monotonic()!r}")
            return 0
        recorder = tracing.Recorder() if args.trace else None
        records = run_loop(calls, args.seconds, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r.failure for r in records if r.failure is not None]
    for failure in sorted(set(failures)):
        print(f"bench: check failed: {failure}", file=sys.stderr)
    print(f"bench {workload.name} seed={args.seed} trace={args.trace}: {len(records)} calls in a closed loop")
    if recorder is not None:
        trace_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        write_trace(trace_path, workload.name, args.seed, records, recorder.absent)
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        metrics = per_layer(records, recorder.absent)
    else:
        metrics = end_to_end(records, measure_setup(workload.name, args.seed))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
