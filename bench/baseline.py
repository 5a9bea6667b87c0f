"""Record a benchmark baseline: BENCH_<label>.json beside this script.

    python3 bench/baseline.py --label seed

For every workload in BENCHMARK.json, runs ``run.py --trace 0`` once per seed
1..10 and ``run.py --trace 1`` once on seed 1, each as its own process, one at
a time, for BENCHMARK.json's ``run_seconds``.
The file keeps every run's result line, the median and quartiles of each
end-to-end metric with its spread (interquartile range over median), the
traced run's per-layer metrics, and the machine and revision measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["seed"] = seed
    print(f"{workload} seed={seed} trace={trace}: correct={result['correct']} "
          f"attempted={result['attempted']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return result


def summarize(runs: list[dict]) -> dict:
    """Median, quartiles and spread of each metric, plus the error rate."""
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": statistics.median(values),
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    out["error_rate"] = {"unit": "ratio", "value": failed / attempted,
                         "failed": failed, "attempted": attempted}
    return out


def machine() -> dict:
    import numpy

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "git_revision": revision}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the output file, BENCH_<label>.json")
    args = parser.parse_args()

    seconds = benchmark["run_seconds"]
    document = {"label": args.label, "machine": machine(), "run_seconds": seconds,
                "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(workload, 1, seconds, 1)
        document["workloads"][workload] = {
            "end_to_end": summarize(runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "runs": runs,
            "traced_run": traced,
        }
        for name, s in document["workloads"][workload]["end_to_end"].items():
            if name == "error_rate":
                print(f"  {workload} error_rate: {s['value']:.4g} ({s['failed']} of {s['attempted']} checks failed)")
            else:
                print(f"  {workload} {name}: median {s['median']:.6g} {s['unit']}, spread {s['spread']:.3f}")
    path = BENCH_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
