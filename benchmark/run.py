"""Run one benchmark workload and print its metrics as a JSON line.

    python3 benchmark/run.py --workload compare_n3 --seed 1 --seconds 25 --trace 0

With --trace 0 (the untraced pass) the last line holds the end-to-end
metrics; with --trace 1 (the traced pass) it holds the per-layer metrics.
The line before it records provenance and the run's digests. See
benchmark/README.md for what each metric means.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Checks attempted and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: Counter[str] = Counter()

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def record(self, checks: dict[str, bool]) -> None:
        self.attempted += len(checks)
        self.failures.update(name for name, ok in checks.items() if not ok)

    def fail(self, name: str) -> None:
        self.record({name: False})


def run_pass(workload, inputs, api, index: int,
             tally: Tally) -> tuple[list[float], str, bool]:
    """One complete solution: the latency of each op in seconds, a digest of
    the pass's physical outputs, and whether the pass ended early.

    A step that raises counts as one failed check and ends the pass; the run
    goes on with the next pass.
    """
    latencies: list[float] = []
    digest = hashlib.sha256()
    steps = workload.steps(inputs, api, index)
    result = None
    while True:
        try:
            step = steps.send(result)
        except StopIteration:
            return latencies, digest.hexdigest(), False
        started = time.perf_counter()
        try:
            result = step.thunk()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            tally.fail("raised")
            steps.close()
            return latencies, digest.hexdigest(), True
        if step.op:
            latencies.append(time.perf_counter() - started)
        value = step.value(result) if step.value else result if isinstance(result, float) else None
        if value is not None:
            digest.update(f"{value:.12g};".encode())
        tally.record(step.check(result))


def blas_probe_us() -> float:
    """Median time of a 64 x 64 complex matmul, the size that was seen to
    fall into a slow mode in some fresh processes."""
    import numpy as np
    a = np.ones((64, 64), dtype=np.complex128) * (1 + 1j)
    times = []
    for _ in range(25):
        started = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e6


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def untraced(workload, seed: int, seconds: float, import_s: float, tally: Tally) -> tuple:
    """Set up SETUP_REPEATS times, run one warm-up pass, then measured
    passes while the next one is expected to end within `seconds`. A pass
    that raises before its first op would fail the same way every time, so
    it is the last one; its latency metrics then read 0."""
    from tracing import plain_api
    api = plain_api()
    started = time.perf_counter()
    setups = []
    for _ in range(SETUP_REPEATS):
        setup_started = time.perf_counter()
        inputs = workload.setup(seed, api)
        setups.append(time.perf_counter() - setup_started)
    run_pass(workload, inputs, api, 0, tally)
    walls, cpus, rates, latencies = [], [], [], []
    first_digest = None
    while not walls or time.perf_counter() + statistics.median(walls) <= started + seconds:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        ops, digest, broken = run_pass(workload, inputs, api, len(walls), tally)
        walls.append(time.perf_counter() - wall0)
        cpus.append(time.process_time() - cpu0)
        rates.append(len(ops) / walls[-1])
        latencies.extend(ops)
        first_digest = first_digest or digest
        if broken and not ops:
            break
    return {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "run_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3 if latencies else 0.0, "ms"),
        "op_p90_ms": (p90(latencies) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": (1.0 - tally.failed / max(tally.attempted, 1), "frac"),
    }, {"pass_walls": walls, "ops": len(latencies), "inputs": inputs, "digest": first_digest}


def traced(workload, seed: int, seconds: float, tally: Tally) -> tuple:
    """After a warm-up pass, alternate untraced and traced (setup + pass)
    pairs while the next pair is expected to end within `seconds`, or until
    a pass raises before its first op.

    Counts come from each traced pair and must repeat exactly; self times
    are medians over the traced pairs.
    """
    from tracing import Tracer, hot_call_p50_us, is_timing, plain_api, summarize
    api = plain_api()
    started = time.perf_counter()
    run_pass(workload, workload.setup(seed, api), api, 0, tally)
    plain_walls, traced_walls, pair_walls, summaries, span_lists = [], [], [], [], []
    broken = False
    inputs = first_digest = None
    while not broken and (not pair_walls
                          or time.perf_counter() + statistics.median(pair_walls) <= started + seconds):
        index = len(pair_walls)
        wall0 = time.perf_counter()
        inputs = workload.setup(seed, api)
        ops, _, raised = run_pass(workload, inputs, api, index, tally)
        broken = raised and not ops
        plain_walls.append(time.perf_counter() - wall0)

        tracer = Tracer()
        traced_api = tracer.api()
        with tracer.installed():
            wall1 = time.perf_counter()
            ops, digest, raised = run_pass(workload, workload.setup(seed, traced_api),
                                           traced_api, index, tally)
            broken = broken or (raised and not ops)
            traced_walls.append(time.perf_counter() - wall1)
        pair_walls.append(time.perf_counter() - wall0)
        summaries.append(summarize(tracer.spans))
        span_lists.append(tracer.spans)
        first_digest = first_digest or digest

    metrics = dict(summaries[0])
    for name in metrics:
        if is_timing(name):
            metrics[name] = (statistics.median(s[name][0] for s in summaries), metrics[name][1])
    tally.record({"trace-counts-repeat": all(s[name] == summaries[0][name] for s in summaries
                                             for name in metrics if not is_timing(name))})
    metrics.update({name: (value, "us") for name, value in hot_call_p50_us(span_lists).items()})
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(plain_walls) - 1.0, "ratio")
    return metrics, {"pass_walls": traced_walls, "inputs": inputs, "digest": first_digest}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "bosons2d" / "__init__.py").is_file():
        print(f"error: no bosons2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import bosons2d
    from workloads import WORKLOADS
    import_s = time.perf_counter() - started
    if Path(bosons2d.__file__).resolve().parent != ROOT / "src" / "bosons2d":
        print(f"error: imported bosons2d from {bosons2d.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    info = {"workload": workload.name, "provenance": provenance(args.seed),
            "blas_probe_us": [blas_probe_us()]}
    tally = Tally()
    if args.trace:
        metrics, details = traced(workload, args.seed, args.seconds, tally)
    else:
        metrics, details = untraced(workload, args.seed, args.seconds, import_s, tally)
        info["ops"] = details["ops"]
    info["blas_probe_us"].append(blas_probe_us())
    info["pass_walls"] = details["pass_walls"]
    info["inputs_digest"] = hashlib.sha256(repr(details["inputs"]["key"]).encode()).hexdigest()
    info["results_digest"] = details["digest"]
    info["failures"] = tally.failures
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
