"""Record a baseline: every workload untraced over several seeds, plus one
traced run each, summarised into `perfbench/baseline.json`.

    python3 perfbench/baseline.py [--seeds 1,2,...] [--seconds S] [--out F]

For each end-to-end metric the file keeps the values, the median and the
quartile spread (Q3 - Q1 over the median, by `statistics.quantiles(n=4)`).
The tracing overhead is the untraced median throughput over the traced
one, and the traced set-up time over the untraced median, minus one.  The
file's `layer_map`, which end-to-end metric each per-layer metric should
move on which workload, is written by hand and kept as it is.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run

BASELINE = run.HERE / "baseline.json"


def bench(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, check=True)
    return json.loads(p.stdout.splitlines()[-1])


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=float,
                        default=run.SPEC["run_seconds"])
    parser.add_argument("--out", default=str(BASELINE))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    out = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
        "layer_map": json.loads(BASELINE.read_text())["layer_map"],
    }
    for workload in run.WORKLOADS:
        results = [bench(workload, s, args.seconds, 0) for s in seeds]
        metrics = {name: dict(unit=unit, **summarise(
            [r["metrics"][name]["value"] for r in results]))
            for name, unit in run.END_TO_END}
        traced = bench(workload, seeds[0], args.seconds, 1)["metrics"]
        out["workloads"][workload] = {
            "sizes": run.WORKLOADS[workload],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
            "traced": {k: v["value"] for k, v in traced.items()},
            "trace_overhead": {
                "ops_per_s": metrics["ops_per_s"]["median"]
                / traced["traced.ops_per_s"]["value"] - 1,
                "setup_s": traced["traced.setup_s"]["value"]
                / metrics["setup_s"]["median"] - 1,
            },
        }
        print(workload, {k: round(v["spread"], 4) for k, v in metrics.items()},
              flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
