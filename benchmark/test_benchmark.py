"""Self-tests of the benchmark harness.

    python3 -m pytest benchmark -q

They run every workload at minimal length, so they take a few minutes.
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload: str, seed: int = 1, trace: int = 0) -> tuple[dict, dict]:
    command = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    info, result = map(json.loads, done.stdout.strip().splitlines()[-2:])
    return info, result


def units(result: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_runs_report_every_metric_and_counts_repeat(workload):
    _, untraced = bench_run(workload)
    assert units(untraced) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert untraced["metrics"]["pass_frac"]["value"] == 1.0

    counts = []
    for _ in range(2):
        _, traced = bench_run(workload, seed=3, trace=1)
        assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert traced["correct"]
        counts.append({name: metric["value"] for name, metric in traced["metrics"].items()
                       if not tracing.is_timing(name) and metric["unit"] in ("count", "ratio")
                       and name != "trace.overhead_frac"})
    assert counts[0] == counts[1]


def test_same_seed_same_digests_and_new_seed_new_inputs():
    first, _ = bench_run("pair_sweep", seed=5)
    again, _ = bench_run("pair_sweep", seed=5)
    other, _ = bench_run("pair_sweep", seed=6)
    assert (first["inputs_digest"], first["results_digest"]) == \
        (again["inputs_digest"], again["results_digest"])
    assert other["inputs_digest"] != first["inputs_digest"]
    assert other["results_digest"] != first["results_digest"]


def planted_api(layer: str = "scattering", **replaced) -> object:
    """The plain layer modules with some calls of one layer replaced."""
    api = tracing.plain_api()
    setattr(api, layer, tracing._Overlay(getattr(api, layer), replaced))
    return api


def test_planted_wrong_result_registers_in_pass_frac(monkeypatch):
    real = tracing.scattering.solve_zero_energy

    def off_by_a_millionth(potential, boundary, *args, **kwargs):
        sol = real(potential, boundary, *args, **kwargs)
        return dataclasses.replace(sol, scattering_length=sol.scattering_length * (1 + 1e-6))

    api = planted_api(solve_zero_energy=off_by_a_millionth)
    monkeypatch.setattr(tracing, "plain_api", lambda: api)
    tally = bench.Tally()
    metrics, details = bench.untraced(WORKLOADS["pair_sweep"], 1, 0.0, 0.0, tally)
    wrong = 4 * (1 + len(details["pass_walls"]))  # four solves in the warm-up and each pass
    assert tally.failures == {"bessel-oracle": wrong}
    assert metrics["pass_frac"][0] == pytest.approx(1.0 - wrong / tally.attempted)


def test_raised_op_counts_as_failed_check_and_run_continues(monkeypatch):
    def broken(sol):
        raise RuntimeError("planted")

    api = planted_api(integral_I=broken)
    monkeypatch.setattr(tracing, "plain_api", lambda: api)
    tally = bench.Tally()
    _, details = bench.untraced(WORKLOADS["pair_sweep"], 1, 0.0, 0.0, tally)
    assert tally.failures == {"raised": 1 + len(details["pass_walls"])}
    assert details["ops"] > 0


def test_raise_before_the_first_op_still_prints_a_failed_result(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    api = planted_api("gp", ground_state=broken)
    monkeypatch.setattr(tracing, "plain_api", lambda: api)
    assert bench.main(["--workload", "gp_quench", "--seed", "1", "--seconds", "30",
                       "--trace", "0"]) == 0
    info, result = map(json.loads, capsys.readouterr().out.strip().splitlines()[-2:])
    assert info["failures"] == {"raised": 2}  # the warm-up pass and one measured pass
    assert not result["correct"] and result["failed"] == 2 and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["metrics"]["op_p50_ms"]["value"] == 0.0
    assert result["metrics"]["pass_frac"]["value"] == 0.0


def test_tracing_restores_the_library():
    owners = [(owner, attr, owner.__dict__[attr]) for _, owner, attr, _ in tracing.INNER_CALLS]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(owner.__dict__[attr] is not original for owner, attr, original in owners)
    assert all(owner.__dict__[attr] is original for owner, attr, original in owners)


def test_exits_nonzero_without_the_sources(tmp_path):
    (tmp_path / "benchmark").mkdir()
    for path in (ROOT / "benchmark").glob("*.py"):
        (tmp_path / "benchmark" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "pair_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0 and done.stdout == ""
