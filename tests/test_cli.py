"""Experiment driver: config resolution, determinism, artifacts, exit codes."""
import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from bosons2d import cli, diagnostics, fewbody
from bosons2d.cli import (
    AssertionLog,
    ExperimentConfig,
    PotentialSpec,
    config_hash,
    fit_report,
    load_config,
    run,
)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def manifest_of(out_root: Path, scenario: str) -> dict:
    paths = list(out_root.glob(f"{scenario}-*/manifest.json"))
    assert len(paths) == 1
    return json.loads(paths[0].read_text())


# ----------------------------------------------------------------- package


@pytest.mark.parametrize("module", ["bosons2d", "bosons2d.diagnostics", "bosons2d.fewbody",
                                    "bosons2d.gp", "bosons2d.potentials", "bosons2d.scattering"])
def test_every_exported_name_resolves(module):
    namespace = importlib.import_module(module)
    assert [name for name in namespace.__all__ if not hasattr(namespace, name)] == []


def test_module_entry_point_runs_without_a_runtime_warning():
    """`python -m bosons2d.cli` executes the module once: the package does
    not import cli first, which would make runpy warn."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "bosons2d.cli",
                           "--help"], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout


# ----------------------------------------------------------------- config


def test_scattering_run_rejects_an_underflowing_scattering_length(tmp_path):
    config = load_config("scattering", {"potential": {"height": 1e-4}, "out_dir": str(tmp_path)})
    with pytest.raises(ValueError, match="underflows"):
        run(config)


def test_every_scenario_has_valid_defaults():
    for scenario in cli.SCENARIOS:
        config = load_config(scenario)
        assert config.scenario == scenario
        assert config.n_values


def test_override_precedence_defaults_then_file_then_flags():
    config = load_config("compare", {"beta": 0.75, "seed": 3}, {"seed": 9})
    assert config.beta == 0.75
    assert config.seed == 9
    assert config.lattice_points == 6  # scenario default survives


def test_unknown_keys_are_named():
    with pytest.raises(ValueError, match="unknown key 'betta'"):
        load_config("gp", {"betta": 1.0})
    with pytest.raises(ValueError, match="potential: unknown key 'hieght'"):
        load_config("gp", {"potential": {"hieght": 2.0}})
    with pytest.raises(ValueError, match="config: unknown key 'threads'"):
        load_config("gp", {"threads": 1})


def test_validation_errors_name_the_parameter_path():
    with pytest.raises(ValueError, match="potential.radius"):
        load_config("gp", {"potential": {"radius": -1.0}})
    with pytest.raises(ValueError, match="beta1"):
        load_config("smearing", {"beta1": 2.0})
    with pytest.raises(ValueError, match="grid_points"):
        load_config("gp", {"grid_points": 48})
    with pytest.raises(ValueError, match="n_values"):
        load_config("compare", {"n_values": [2, 3]})
    with pytest.raises(ValueError, match="n_values: 5 particles on 6x6 sites span dimension 60466176"):
        load_config("fewbody", {"n_values": [5]})
    with pytest.raises(ValueError, match="dt"):
        load_config("gp", {"dt": 1.0, "t_final": 0.1})
    with pytest.raises(ValueError, match="scenario"):
        load_config("gp", {"scenario": "compare"})


def test_config_hash_ignores_execution_fields_only():
    base = load_config("scattering")
    moved = load_config("scattering", {"out_dir": "elsewhere"})
    reseeded = load_config("scattering", {"seed": 1})
    assert config_hash(base) == config_hash(moved)
    assert config_hash(base) != config_hash(reseeded)


def test_config_hash_ignores_how_a_float_is_spelled():
    assert config_hash(load_config("gp", {"coupling": 1})) \
        == config_hash(load_config("gp", {"coupling": 1.0}))
    assert config_hash(load_config("gp", {"potential": {"height": 4}})) \
        == config_hash(load_config("gp"))
    config = load_config("compare", {"box_length": 2, "dt": 1, "t_final": 1})
    assert isinstance(config.box_length, float) and isinstance(config.dt, float)
    with pytest.raises(ValueError, match="coupling: must be a number"):
        load_config("gp", {"coupling": "1.0"})
    with pytest.raises(ValueError, match="potential.radius: must be a number"):
        load_config("gp", {"potential": {"radius": True}})


def test_integer_fields_take_integral_values_only():
    """An integral float reads as its int and keeps the hash; anything that
    would be truncated is rejected with the parameter path."""
    config = load_config("compare", {"lattice_points": 6.0, "n_values": [2.0],
                                     "seed": 0.0, "substeps": 1.0})
    assert config_hash(config)[:12] == "09e2564a14b6"
    assert config == load_config("compare")
    assert type(config.lattice_points) is int and type(config.n_values[0]) is int
    for overrides, message in (
            ({"lattice_points": 6.5}, "lattice_points: must be an integer, got 6.5"),
            ({"n_values": [2.9]}, r"n_values\[0\]: must be an integer, got 2.9"),
            ({"seed": 0.5}, "seed: must be an integer, got 0.5"),
            ({"substeps": 1.7}, "substeps: must be an integer, got 1.7"),
            ({"lattice_points": "6"}, "lattice_points: must be an integer, got '6'"),
            ({"grid_points": True}, "grid_points: must be an integer, got True"),
            ({"seed": float("nan")}, "seed: must be an integer, got nan")):
        with pytest.raises(ValueError, match=message):
            load_config("compare", overrides)


# ----------------------------------------------------------------- fitting


def test_fit_report_recovers_synthetic_log_law():
    n = np.array([16.0, 32.0, 64.0, 128.0, 256.0])
    y = 3.0 * n ** -2.0 * np.log(n)
    report = fit_report(n, y, log_power=1.0, label="synthetic")
    assert report["exponent"] == pytest.approx(-2.0, abs=1e-10)
    assert report["amplitude"] == pytest.approx(3.0, rel=1e-8)
    assert report["label"] == "synthetic"
    assert len(report["points"]) == 5
    assert max(abs(p["log_residual"]) for p in report["points"]) < 1e-10


def test_fit_report_rejects_bad_data():
    with pytest.raises(ValueError, match="synthetic: need at least 4 points"):
        fit_report([2.0, 4.0, 8.0], [1.0, 0.5, 0.25], label="synthetic")
    with pytest.raises(ValueError, match="synthetic:"):
        fit_report([2.0, 4.0, 8.0, 16.0], [1.0, -0.5, 0.25, 0.1], label="synthetic")


def test_assertion_log_gates_on_any_failure():
    log = AssertionLog()
    log.require_below("fine", 0.5, 1.0)
    assert log.passed
    log.require_within("off-target", 2.0, 1.0, 0.5)
    assert not log.passed
    assert [r["passed"] for r in log.records] == [True, False]


# ----------------------------------------------------------------- runs


def test_scattering_run_writes_hashed_artifacts(tmp_path):
    config = load_config("scattering", {"n_values": [4, 8, 16, 32],
                                        "out_dir": str(tmp_path)})
    manifest = run(config)
    assert manifest.passed
    out = tmp_path / f"scattering-{manifest.config_hash[:12]}"
    header, data = read_csv(out / "scattering.csv")
    assert header == ["N", "a", "I", "R_beta", "K_beta", "deviation"]
    assert data.shape == (4, 6)
    assert list(data[:, 0]) == [4.0, 8.0, 16.0, 32.0]
    for name, digest in manifest.artifacts.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("scenario, small", [
    pytest.param("gp", {"grid_points": 16, "t_final": 5e-3}, id="gp"),
    pytest.param("scattering", {"n_values": [4, 8]}, id="scattering"),
    pytest.param("microscopic", {}, id="microscopic"),
    pytest.param("smearing", {"n_values": [64, 128, 256, 512]}, id="smearing"),
    pytest.param("fewbody", {"lattice_points": 4, "t_final": 0.01, "dt": 2e-3,
                             "field_amplitude": 1.0}, id="fewbody"),
    pytest.param("compare", {"lattice_points": 4, "t_final": 0.01, "dt": 2e-3,
                             "field_amplitude": 1.0,
                             "potential": {"scaling": "M_beta"}}, id="compare"),
])
def test_rerun_is_byte_identical(tmp_path, scenario, small):
    first = run(load_config(scenario, {**small, "out_dir": str(tmp_path / "a")}))
    second = run(load_config(scenario, {**small, "out_dir": str(tmp_path / "b")}))
    assert first.config_hash == second.config_hash
    assert first.artifacts == second.artifacts


RUN_IDENTITY = json.loads((Path(__file__).parent / "run_identity.json").read_text())


def test_default_runs_match_the_recorded_identity(tmp_path):
    """Each default scenario reproduces its recorded config hash and artifact sha256s."""
    versions = (np.__version__, scipy.__version__)
    if versions != (RUN_IDENTITY["numpy"], RUN_IDENTITY["scipy"]):
        pytest.skip(f"identity table recorded with numpy {RUN_IDENTITY['numpy']} and scipy "
                    f"{RUN_IDENTITY['scipy']}, running {versions[0]} and {versions[1]}")
    assert set(RUN_IDENTITY["runs"]) == set(cli.SCENARIOS)
    for scenario, recorded in RUN_IDENTITY["runs"].items():
        manifest = run(load_config(scenario, {"out_dir": str(tmp_path)}))
        assert manifest.passed, scenario
        assert manifest.config_hash == recorded["config_hash"], scenario
        assert manifest.artifacts == recorded["artifacts"], scenario


@pytest.mark.skipif((np.__version__, scipy.__version__)
                    != (RUN_IDENTITY["numpy"], RUN_IDENTITY["scipy"]),
                    reason=f"identity table recorded with numpy {RUN_IDENTITY['numpy']} and "
                           f"scipy {RUN_IDENTITY['scipy']}")
@pytest.mark.parametrize("recorded", RUN_IDENTITY["extra_runs"],
                         ids=lambda r: f"{r['scenario']}-{r['config_hash'][:12]}")
def test_pinned_runs_match_the_recorded_identity(tmp_path, recorded):
    """Non-default configs (a seeded threaded gp run, fewbody V_N and M_beta,
    compare with a field for each scaling) reproduce their recorded identity."""
    config = load_config(recorded["scenario"], {**recorded["overrides"], "out_dir": str(tmp_path)})
    manifest = run(config)
    assert manifest.passed
    assert manifest.config_hash == recorded["config_hash"]
    assert manifest.artifacts == recorded["artifacts"]


def test_seed_feeds_the_initial_data(tmp_path):
    runs = [run(load_config("gp", {"grid_points": 16, "t_final": 5e-3, "seed": s,
                                   "out_dir": str(tmp_path / str(i))}))
            for i, s in enumerate((0, 1, 1))]
    assert runs[0].artifacts["gp.csv"] != runs[1].artifacts["gp.csv"]
    assert runs[1].artifacts["gp.csv"] == runs[2].artifacts["gp.csv"]


def test_threaded_sweep_matches_serial(tmp_path):
    serial = run(load_config("microscopic", {"out_dir": str(tmp_path)}))
    assert serial.passed
    fits = json.loads((tmp_path / f"microscopic-{serial.config_hash[:12]}"
                       / "fits.json").read_text())
    assert fits["R_beta"]["exponent"] == pytest.approx(-0.5, abs=0.1)
    assert {"g_l1", "g_l2"} <= set(fits)


def test_compare_emits_the_counting_columns(tmp_path):
    config = load_config("compare", {"lattice_points": 4, "t_final": 0.02,
                                     "dt": 2e-3, "out_dir": str(tmp_path)})
    manifest = run(config)
    assert manifest.passed
    out = tmp_path / f"compare-{manifest.config_hash[:12]}"
    header, data = read_csv(out / "compare.csv")
    assert header == ["t", "alpha_less", "alpha", "trace_distance",
                      "n_expect", "energy_gap"]
    assert data.shape[0] == 11
    # Product initial data: no depletion, functional starts at its floor.
    assert data[0, 3] < 1e-10
    assert abs(data[0, 4]) < 1e-12
    assert np.all(data[:, 1] > 0)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["gronwall"]["bound_holds"]
    assert summary["gronwall"]["epsilon"] == pytest.approx(0.5)
    floor = summary["initial"]["weight_floor"] + summary["initial"]["energy_gap"]
    assert summary["initial"]["alpha_less"] == pytest.approx(floor, abs=1e-12)
    names = {r["name"] for r in manifest.assertions}
    assert "gronwall-envelope-holds" in names


def test_compare_annulus_scaling_activates_the_correction(tmp_path):
    config = load_config("compare", {"lattice_points": 4, "t_final": 0.01,
                                     "dt": 2e-3,
                                     "potential": {"scaling": "M_beta"},
                                     "out_dir": str(tmp_path)})
    manifest = run(config)
    assert manifest.passed
    out = tmp_path / f"compare-{manifest.config_hash[:12]}"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["uses_correction"]
    assert summary["coupling"] == pytest.approx(4.0 * math.pi)
    _, data = read_csv(out / "compare.csv")
    assert np.all(np.isfinite(data))
    assert np.max(np.abs(data[:, 2] - data[:, 1])) > 0


def test_compare_builds_its_hamiltonian_once(tmp_path, monkeypatch):
    """alpha_full reuses the run's Hamiltonian instead of building one per sample."""
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args)
        return fewbody.build_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(cli, "build_hamiltonian", counting_build)
    monkeypatch.setattr(diagnostics, "build_hamiltonian", counting_build)
    config = load_config("compare", {"lattice_points": 4, "t_final": 0.01, "dt": 2e-3,
                                     "potential": {"scaling": "V_N"},
                                     "out_dir": str(tmp_path)})
    with pytest.warns(RuntimeWarning) as record:
        manifest = run(config)
    assert manifest.passed
    assert len(builds) == 1
    spacing = [w for w in record if "below the lattice spacing" in str(w.message)]
    assert len(spacing) == 1


def test_compare_runs_five_particles(tmp_path):
    # 9^5 = 59049 amplitudes: the particle count is capped by the dimension budget only.
    config = load_config("compare", {"n_values": [5], "lattice_points": 3, "t_final": 0.01,
                                     "dt": 2e-3, "out_dir": str(tmp_path)})
    with pytest.warns(RuntimeWarning, match="below the lattice spacing"):
        manifest = run(config)
    assert manifest.passed
    _, data = read_csv(tmp_path / f"compare-{manifest.config_hash[:12]}" / "compare.csv")
    assert data.shape == (6, 6)
    assert np.all(np.isfinite(data))


def test_fewbody_single_particle_runs_free(tmp_path):
    config = load_config("fewbody", {"n_values": [1], "lattice_points": 4,
                                     "t_final": 0.01, "dt": 2e-3,
                                     "field_amplitude": 1.0,
                                     "out_dir": str(tmp_path)})
    manifest = run(config)
    assert manifest.passed
    header, data = read_csv(tmp_path / f"fewbody-{manifest.config_hash[:12]}"
                            / "fewbody.csv")
    assert header == ["t", "norm", "energy_per_particle"]
    assert np.max(np.abs(data[:, 1] - 1.0)) < 1e-12


# ----------------------------------------------------------------- main


def test_main_returns_zero_and_prints_verdict(tmp_path, capsys):
    code = cli.main(["scattering", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "scattering: PASSED" in out
    assert "root-residual[N=4]" in out


def test_main_rejects_bad_config_with_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"potential": {"radius": -2.0}}))
    code = cli.main(["gp", "--config", str(bad), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "potential.radius" in err

    missing = cli.main(["gp", "--config", str(tmp_path / "absent.json")])
    assert missing == 2


@pytest.mark.parametrize("data, message", [
    ({"potential": "x"}, "potential: must be a JSON object, got 'x'"),
    ({"potential": None}, "potential: must be a JSON object, got None"),
    ({"n_values": 5}, "n_values: must be a list of integers, got 5"),
], ids=["potential-string", "potential-null", "n_values-int"])
def test_main_names_the_parameter_of_a_mistyped_config(tmp_path, capsys, data, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = cli.main(["gp", "--config", str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_main_reports_failed_assertions_with_exit_one(tmp_path, capsys, monkeypatch):
    def failing_runner(config, out_dir, log):
        log.require_below("doomed-check", 2.0, 1.0)
        path = out_dir / "gp.csv"
        path.write_text("t\n0\n")
        return {"gp.csv": path, "summary": {}}

    monkeypatch.setitem(cli._RUNNERS, "gp", failing_runner)
    code = cli.main(["gp", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL doomed-check" in out
    assert "gp: FAILED" in out
