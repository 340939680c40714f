"""Run the benchmark over several seeds and summarize each metric.

    python3 benchmark/collect.py --runs 10 --trace 0 --out benchmark/baseline-untraced.json
    python3 benchmark/collect.py --runs 10 --trace 0 --against benchmark/baseline-untraced.json

Runs one process at a time, as the BENCHMARK.json command with
run_seconds, on seeds 1 .. runs for every workload in BENCHMARK.json. For
each workload and metric it reports the median, the quartiles and the
spread (quartile distance over median), the measure a bound is compared
with. With --against it also reports how far each median moved from the
median in an earlier summary, in the metric's worse direction, as a share
of the earlier median; a move beyond the bound is flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--against", type=Path, default=None)
    args = parser.parse_args()
    metric_specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    summary = {"trace": args.trace, "seconds": spec["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            started = time.perf_counter()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            elapsed = time.perf_counter() - started
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            runs.append({"info": json.loads(lines[-2]), "result": json.loads(lines[-1]),
                         "elapsed_s": elapsed})
        metrics = {}
        for name, first in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else 0.0,
                             "bound": metric_specs[name].get("bound"), "values": values}
            before = earlier.get(workload, {}).get("metrics", {}).get(name, {}).get("median")
            if before:
                sign = 1.0 if metric_specs[name]["better"] == "lower" else -1.0
                metrics[name]["worse_than_earlier"] = sign * (median - before) / before
        summary["workloads"][workload] = {
            "seeds": [r["info"]["provenance"]["seed"] for r in runs],
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": [r["result"]["attempted"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "provenance": runs[0]["info"]["provenance"],
            "blas_probe_us": [r["info"]["blas_probe_us"] for r in runs],
            "pass_walls": [r["info"]["pass_walls"] for r in runs],
            "elapsed_s": [r["elapsed_s"] for r in runs],
            "metrics": metrics,
        }
        for name, m in metrics.items():
            if args.trace == 0 or m["spread"]:
                flag = "" if m["bound"] is None or m["spread"] < m["bound"] / 3 else "  <-- wide"
                line = (f"{workload:15s} {name:45s} median {m['median']:.6g} {m['unit']:6s} "
                        f"spread {m['spread']:.4f}{flag}")
                if "worse_than_earlier" in m:
                    moved = m["worse_than_earlier"]
                    line += f"  worse by {moved:+.4f}"
                    if m["bound"] is not None and moved > m["bound"]:
                        line += "  <-- beyond bound"
                print(line, flush=True)
        if args.out:
            args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
