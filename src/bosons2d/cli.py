"""Experiment driver: config-hashed scenario runs with manifests.

Each scenario is a thin orchestration over the library modules: the CLI
validates a config, derives every seed from the canonical config hash,
runs the sweep, writes CSV/JSON artifacts plus a run manifest, and exits
zero only if all in-run assertions pass. No numerics live here.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import numbers
import sys
import time
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np
import scipy

from . import __version__
from .diagnostics import (
    EFFECTIVE_COUPLING,
    CondensateProjector,
    counting_weight,
    diagnostics_report,
    mean_field_step,
)
from .fewbody import (
    DIMENSION_BUDGET,
    FewBodyState,
    Lattice2D,
    build_hamiltonian,
    energy_per_particle,
    jastrow_initial_state,
)
from .fewbody import propagate as fewbody_propagate
from .fitting import FitResult, power_law_fit
from .gp import ExternalField, GpParams, GpState, gp_energy
from .gp import propagate as gp_propagate
from .potentials import laplacian_residual, make_scaled, make_smeared, smeared_norm_report
from .scattering import (
    build_microscopic,
    coupling_deviation,
    g_norm_report,
    integral_I,
    scaled_scattering_identity,
    solve_zero_energy,
    square_well,
)

SCENARIOS = ("scattering", "microscopic", "smearing", "gp", "fewbody", "compare")

POTENTIAL_FAMILIES = ("square_well",)
SCALING_FAMILIES = ("W_beta", "V_N", "M_beta")


def _integer(value: Any, name: str) -> int:
    """An int, or a float with an integral value; a bool, a string or any
    other number is rejected rather than truncated."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{name}: must be an integer, got {value!r}")
    return int(value)


def _coerce_numbers(spec: Any, path: str = "") -> None:
    """Store every float field as a float and every integer field and
    n_values entry as an int, so 1 and 1.0 (or 6 and 6.0) give one config
    hash."""
    for field in dataclasses.fields(spec):
        value = getattr(spec, field.name)
        name = f"{path}{field.name}"
        if field.type in ("float", float):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name}: must be a number, got {value!r}")
            value = float(value)
        elif field.type in ("int", int):
            value = _integer(value, name)
        elif field.type == "tuple[int, ...]":
            if not isinstance(value, (list, tuple)):
                raise ValueError(f"{name}: must be a list of integers, got {value!r}")
            value = tuple(_integer(n, f"{name}[{i}]") for i, n in enumerate(value))
        else:
            continue
        object.__setattr__(spec, field.name, value)


@dataclasses.dataclass(frozen=True)
class PotentialSpec:
    """Base radial profile and the particle-number scaling applied to it."""
    family: str = "square_well"
    height: float = 4.0
    radius: float = 0.5
    scaling: str = "W_beta"

    def __post_init__(self) -> None:
        _coerce_numbers(self, "potential.")
        if self.family not in POTENTIAL_FAMILIES:
            raise ValueError(f"potential.family: unknown family {self.family!r}")
        if not (self.height > 0 and math.isfinite(self.height)):
            raise ValueError("potential.height: must be positive and finite")
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("potential.radius: must be positive and finite")
        if self.scaling not in SCALING_FAMILIES:
            raise ValueError(f"potential.scaling: unknown scaling {self.scaling!r}")

    def base(self):
        return square_well(self.height, self.radius)


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved run description; the canonical hash covers every field."""
    scenario: str
    potential: PotentialSpec = PotentialSpec()
    n_values: tuple[int, ...] = ()
    beta: float = 0.5
    beta1: float = 0.25
    xi: float = 0.25
    s: float = 1.0
    coupling: float = 1.0
    grid_points: int = 64
    lattice_points: int = 6
    box_length: float = 1.0
    boundary_radius: float = 2.0
    t_final: float = 0.05
    dt: float = 1e-3
    substeps: int = 1
    field_amplitude: float = 0.0
    out_dir: str = "runs"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario: unknown scenario {self.scenario!r}")
        if not isinstance(self.potential, PotentialSpec):
            raise ValueError(f"potential: must be a JSON object, got {self.potential!r}")
        _coerce_numbers(self)
        values = self.n_values
        if not values:
            raise ValueError("n_values: must name at least one particle number")
        if any(n < 1 for n in values):
            raise ValueError("n_values: entries must be positive integers")
        if self.scenario in ("scattering", "microscopic", "smearing"):
            if any(n < 2 for n in values):
                raise ValueError("n_values: sweep entries must be at least 2")
        if self.scenario in ("fewbody", "compare"):
            if len(values) != 1:
                raise ValueError("n_values: dynamics scenarios take exactly one entry")
        if self.scenario == "compare" and values[0] < 2:
            raise ValueError("n_values: the comparison needs at least 2 particles")
        if not (0 < self.beta and math.isfinite(self.beta)):
            raise ValueError("beta: must be positive and finite")
        if not (0 < self.beta1 < self.beta):
            raise ValueError("beta1: must lie in (0, beta)")
        if not (0 < self.xi < 0.5):
            raise ValueError("xi: must lie in (0, 1/2)")
        if not (self.s > 0 and math.isfinite(self.s)):
            raise ValueError("s: must be positive and finite")
        if not math.isfinite(self.coupling):
            raise ValueError("coupling: must be finite")
        n = self.grid_points
        if n < 4 or (n & (n - 1)) != 0:
            raise ValueError("grid_points: must be a power of two, at least 4")
        m = self.lattice_points
        if m < 2:
            raise ValueError("lattice_points: must be at least 2")
        if self.scenario in ("fewbody", "compare") and m ** (2 * values[0]) > DIMENSION_BUDGET:
            raise ValueError(
                f"n_values: {values[0]} particles on {m}x{m} sites span dimension "
                f"{m ** (2 * values[0])}, above the budget {DIMENSION_BUDGET}")
        if not (self.box_length > 0 and math.isfinite(self.box_length)):
            raise ValueError("box_length: must be positive and finite")
        if not (self.boundary_radius > self.potential.radius):
            raise ValueError("boundary_radius: must exceed potential.radius")
        if not (self.t_final > 0 and math.isfinite(self.t_final)):
            raise ValueError("t_final: must be positive and finite")
        if not (0 < self.dt <= self.t_final):
            raise ValueError("dt: must lie in (0, t_final]")
        if self.substeps < 1:
            raise ValueError("substeps: must be at least 1")
        if not math.isfinite(self.field_amplitude):
            raise ValueError("field_amplitude: must be finite")
        if self.seed < 0:
            raise ValueError("seed: must be nonnegative")


SCENARIO_DEFAULTS: dict[str, dict[str, Any]] = {
    "scattering": {"n_values": (4, 8, 16, 32), "beta": 0.5},
    "microscopic": {"n_values": (8, 16, 32, 64), "beta": 0.5},
    "smearing": {"n_values": (64, 128, 256, 512, 1024), "beta": 1.0, "beta1": 0.25},
    "gp": {"n_values": (1,), "t_final": 0.05, "dt": 1e-3, "field_amplitude": 1.0},
    "fewbody": {"n_values": (2,), "lattice_points": 6, "t_final": 0.05, "dt": 1e-3},
    "compare": {"n_values": (2,), "lattice_points": 6, "t_final": 0.2, "dt": 2e-3},
}


def load_config(scenario: str, data: dict[str, Any] | None = None,
                overrides: dict[str, Any] | None = None) -> ExperimentConfig:
    """Resolve scenario defaults, a config mapping, and CLI overrides, in that order."""
    merged: dict[str, Any] = dict(SCENARIO_DEFAULTS[scenario]) if scenario in SCENARIO_DEFAULTS else {}
    merged["scenario"] = scenario
    for source in (data or {}), (overrides or {}):
        for key, value in source.items():
            if key == "scenario":
                if value != scenario:
                    raise ValueError(f"scenario: config names {value!r} but {scenario!r} was requested")
                continue
            merged[key] = value
    field_names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in merged:
        if key not in field_names:
            raise ValueError(f"config: unknown key {key!r}")
    if isinstance(merged.get("potential"), dict):
        pot = merged["potential"]
        pot_names = {f.name for f in dataclasses.fields(PotentialSpec)}
        for key in pot:
            if key not in pot_names:
                raise ValueError(f"potential: unknown key {key!r}")
        merged["potential"] = PotentialSpec(**pot)
    return ExperimentConfig(**merged)


def canonical_dict(config: ExperimentConfig) -> dict[str, Any]:
    return dataclasses.asdict(config)


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the canonical JSON form; every derived seed comes from this.

    The output location is an execution detail that cannot alter any
    number, so it stays out of the hash: the same physics inputs give the
    same run identity wherever the run writes.
    """
    payload = canonical_dict(config)
    payload.pop("out_dir")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def derived_rng(config: ExperimentConfig) -> np.random.Generator:
    return np.random.default_rng(int(config_hash(config)[:16], 16))


def fit_report(x: Sequence[float], y: Sequence[float], log_power: float = 0.0,
               label: str = "fit") -> dict[str, Any]:
    """Power-law fit packaged for serialization, with residual plot data."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 4:
        raise ValueError(f"{label}: need at least 4 points to report a fit")
    try:
        fit = power_law_fit(x, y, log_power=log_power)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc
    return _fit_dict(fit, label, x, y)


def _fit_dict(fit: FitResult, label: str, x: np.ndarray, y: np.ndarray) -> dict[str, Any]:
    model = fit.amplitude * x ** fit.exponent * np.log(x) ** fit.log_power
    return {
        "label": label,
        "exponent": fit.exponent,
        "stderr": fit.stderr,
        "ci95": fit.ci95,
        "amplitude": fit.amplitude,
        "log_power": fit.log_power,
        "residual_rms": fit.residual_rms,
        "n_points": fit.n_points,
        "points": [
            {"x": float(xi_), "y": float(yi), "model": float(mi),
             "log_residual": float(math.log(yi) - math.log(mi))}
            for xi_, yi, mi in zip(x, y, model)
        ],
    }


class AssertionLog:
    """In-run checks; the manifest records each one and the exit code follows."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []

    def check(self, name: str, value: float, bound: float, passed: bool) -> None:
        self.records.append({"name": name, "value": float(value),
                             "bound": float(bound), "passed": bool(passed)})

    def require_below(self, name: str, value: float, bound: float) -> None:
        self.check(name, value, bound, value < bound)

    def require_within(self, name: str, value: float, target: float, width: float) -> None:
        self.check(name, value, width, abs(value - target) <= width)

    @property
    def passed(self) -> bool:
        return all(r["passed"] for r in self.records)


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Reproducibility record; wall clock is the only field a rerun may change."""
    scenario: str
    config_hash: str
    config: dict[str, Any]
    package_version: str
    numpy_version: str
    scipy_version: str
    wall_clock_seconds: float
    artifacts: dict[str, str]
    assertions: list[dict[str, Any]]
    passed: bool

    def write(self, out_dir: Path) -> Path:
        path = out_dir / "manifest.json"
        path.write_text(json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n")
        return path


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence[Any]]) -> None:
    def fmt(value: Any) -> str:
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return "%.17g" % float(value)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict[str, Any]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Scenario runners. Each returns (artifacts, summary) and records assertions.


def _run_scattering(config: ExperimentConfig, out_dir: Path, log: AssertionLog) -> dict[str, Any]:
    base = config.potential.base()
    sol = solve_zero_energy(base, config.boundary_radius)
    a = sol.scattering_length
    integral = integral_I(sol)
    closed = 4.0 * math.pi / math.log(config.boundary_radius / a)
    log.require_below("integral-identity", abs(integral - closed) / abs(closed), 1e-8)

    sol_wide = solve_zero_energy(base, 2.0 * config.boundary_radius)
    log.require_below("boundary-independence",
                      abs(sol_wide.scattering_length - a) / abs(a), 1e-6)

    rows = []
    for n in config.n_values:
        coupling = scaled_scattering_identity(base, n, config.boundary_radius)
        pair = build_microscopic(base, n, config.beta)
        log.require_below(f"root-residual[N={n}]", abs(pair.residual), 1e-10)
        log.check(f"compressed-coupling[N={n}]", coupling, 0.0, True)
        rows.append((n, a, integral, pair.R_beta, pair.K_beta, coupling_deviation(pair)))

    csv_path = out_dir / "scattering.csv"
    _write_csv(csv_path, ("N", "a", "I", "R_beta", "K_beta", "deviation"), rows)
    summary = {"scattering_length": a, "integral_I": integral,
               "closed_form": closed, "rows": len(rows)}
    return {"scattering.csv": csv_path, "summary": summary}


def _run_microscopic(config: ExperimentConfig, out_dir: Path, log: AssertionLog) -> dict[str, Any]:
    base = config.potential.base()
    pairs = [build_microscopic(base, n, config.beta) for n in config.n_values]

    rows = []
    constants = []
    for pair in pairs:
        log.require_below(f"root-residual[N={pair.N}]", abs(pair.residual), 1e-10)
        log.check(f"K-in-unit-interval[N={pair.N}]", pair.K_beta, 1.0,
                  0.0 < pair.K_beta <= 1.0 + 1e-12)
        deviation = coupling_deviation(pair)
        constants.append(abs(deviation) * pair.N / math.log(pair.N))
        rows.append((pair.N, pair.R_beta, pair.K_beta, pair.residual,
                     deviation, *pair.g_norms))
    # Stability of the coupling defect constant: |deviation| <= C log(N)/N
    # with a C that never grows along the sweep.
    stable = all(b <= a + 1e-9 for a, b in zip(constants, constants[1:]))
    log.check("coupling-constant-stability", max(constants), 30.0,
              stable and max(constants) <= 30.0)

    Ns = np.asarray([p.N for p in pairs], dtype=float)
    r_fit = fit_report(Ns, [p.R_beta for p in pairs], label="R_beta")
    log.require_within("R_beta-exponent", r_fit["exponent"], -config.beta, 0.1)

    fits: dict[str, Any] = {"R_beta": r_fit}
    if len(pairs) >= 4:
        report = g_norm_report(pairs)
        fits["g_l1"] = _fit_dict(report.l1_fit, "g_l1", Ns, report.l1_values)
        fits["g_l2"] = _fit_dict(report.l2_fit, "g_l2", Ns, report.l2_values)
        if min(config.n_values) >= 1024:
            # The depletion norms only reach their power laws well into the
            # sweep; small-N runs record the fits without asserting on them.
            log.require_within("g_l1-exponent", report.l1_fit.exponent,
                               -1.0 - 2.0 * config.beta, 0.15)
            log.require_within("g_l2-exponent", report.l2_fit.exponent,
                               -1.0 - config.beta, 0.15)

    csv_path = out_dir / "microscopic.csv"
    _write_csv(csv_path, ("N", "R_beta", "K_beta", "residual", "deviation",
                          "g_l1", "g_l2", "g_linf"), rows)
    fits_path = out_dir / "fits.json"
    _write_json(fits_path, fits)
    summary = {"rows": len(rows), "coupling_constants": constants}
    return {"microscopic.csv": csv_path, "fits.json": fits_path, "summary": summary}


def _run_smearing(config: ExperimentConfig, out_dir: Path, log: AssertionLog) -> dict[str, Any]:
    base = config.potential.base()
    report = smeared_norm_report(base, config.n_values, config.beta, config.beta1)

    rows = list(zip(config.n_values, report.h_inf, report.h_l1, report.h_l2,
                    report.grad_h_l2, report.h0_l2))
    csv_path = out_dir / "smearing.csv"
    _write_csv(csv_path, ("N", "h_inf", "h_l1", "h_l2", "grad_h_l2", "h0_l2"), rows)

    Ns = np.asarray(config.n_values, dtype=float)
    targets = {
        "h_inf": (report.h_inf_fit, report.h_inf, -1.0),
        "h_l1": (report.h_l1_fit, report.h_l1, -1.0 - 2.0 * config.beta1),
        "h_l2": (report.h_l2_fit, report.h_l2, -1.0 - config.beta1),
        "grad_h_l2": (report.grad_h_l2_fit, report.grad_h_l2, -1.0),
        "h0_l2": (report.h0_l2_fit, report.h0_l2, -1.0),
    }
    fits: dict[str, Any] = {}
    for name, (fit, values, target) in targets.items():
        fits[name] = _fit_dict(fit, name, Ns, values)
        log.require_within(f"{name}-exponent", fit.exponent, target, 0.15)

    # Laplacian consistency at the smallest N, where the charge is widest
    # relative to the grid; fixed exclusion width so the halving study
    # measures the same physical points on every grid.
    w_beta = make_scaled("W_beta", base, min(config.n_values), beta=config.beta)
    _, comparison = make_smeared(w_beta, config.beta1)
    grids = (256, 512, 1024)
    width = 2.5 * comparison.outer_support * 1.02 / grids[0]
    residuals = [laplacian_residual(comparison, n, exclusion_width=width) for n in grids]
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(len(grids) - 1)]
    for i, order in enumerate(orders):
        log.check(f"laplacian-halving-order[{grids[i]}->{grids[i + 1]}]",
                  order, 2.0, order >= math.log2(3.0))

    fits_path = out_dir / "fits.json"
    _write_json(fits_path, {**fits, "laplacian": {"n_points": list(grids),
                                                  "residuals": residuals,
                                                  "orders": orders}})
    summary = {"rows": len(rows), "laplacian_orders": orders,
               "gradient_bound_constants": list(map(float, report.gradient_bound_constants))}
    return {"smearing.csv": csv_path, "fits.json": fits_path, "summary": summary}


def _smooth_initial_field(grid: Lattice2D, rng: np.random.Generator) -> GpState:
    x, y = grid.meshes()
    scale = 2.0 * math.pi / grid.box_length
    amp = np.ones_like(x, dtype=np.complex128)
    for kx, ky in ((1, 0), (0, 1), (1, 1)):
        phase = rng.uniform(0.0, 2.0 * math.pi)
        amp = amp + 0.1 * np.cos(scale * (kx * x + ky * y) + phase)
    return GpState(grid, amp).normalized()


def _cosine_field(amplitude: float, box_length: float) -> ExternalField | None:
    if amplitude == 0.0:
        return None
    scale = 2.0 * math.pi / box_length

    def values(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
        return amplitude * np.cos(scale * x) * np.cos(scale * y)

    return ExternalField.from_function(values, func_dot=lambda x, y, t: np.zeros_like(x))


def _run_gp(config: ExperimentConfig, out_dir: Path, log: AssertionLog) -> dict[str, Any]:
    grid = Lattice2D(config.grid_points, config.box_length)
    state = _smooth_initial_field(grid, derived_rng(config))
    field = _cosine_field(config.field_amplitude, config.box_length) or ExternalField.zero()
    params = GpParams(coupling=config.coupling, dt=config.dt)

    n_steps = int(round(config.t_final / config.dt))
    stride = max(1, n_steps // 200)
    rows: list[tuple[float, float, float]] = []
    counter = {"i": 0}

    def observer(s: GpState) -> None:
        i = counter["i"]
        counter["i"] = i + 1
        if i % stride == 0 or i == n_steps:
            rows.append((s.time, s.norm(), gp_energy(s, field, params)))

    final = gp_propagate(state, field, params, n_steps, observer=observer)
    log.require_below("norm-drift", abs(final.norm() - 1.0), 1e-12)
    energy_drift = abs(rows[-1][2] - rows[0][2]) / max(1.0, abs(rows[0][2]))

    csv_path = out_dir / "gp.csv"
    _write_csv(csv_path, ("t", "norm", "energy"), rows)
    summary = {"steps": n_steps, "energy_drift": energy_drift,
               "final_norm": final.norm()}
    return {"gp.csv": csv_path, "summary": summary}


def _lattice_condensate(lattice: Lattice2D) -> np.ndarray:
    """Smooth normalized single-particle profile on the lattice."""
    x, y = lattice.meshes()
    scale = 2.0 * math.pi / lattice.box_length
    phi = 1.0 + 0.25 * np.cos(scale * x) + 0.15 * np.cos(scale * y)
    cell = lattice.spacing ** 2
    return phi / math.sqrt(float(np.sum(np.abs(phi) ** 2)) * cell)


def _scaled_interaction(config: ExperimentConfig, n: int):
    base = config.potential.base()
    family = config.potential.scaling
    if family == "W_beta":
        scaled = make_scaled("W_beta", base, n, beta=config.beta)
        return scaled, None, float(n) * scaled.norm_l1
    if family == "M_beta":
        scaled = make_scaled("M_beta", base, n, beta=config.beta)
        return scaled, scaled.pair, EFFECTIVE_COUPLING
    micro = build_microscopic(base, n, config.beta)
    scaled = make_scaled("V_N", base, n, s=config.s)
    return scaled, micro, EFFECTIVE_COUPLING


def _run_fewbody(config: ExperimentConfig, out_dir: Path, log: AssertionLog) -> dict[str, Any]:
    n = config.n_values[0]
    lattice = Lattice2D(config.lattice_points, config.box_length)
    interaction, micro, _ = _scaled_interaction(config, n) if n >= 2 else (None, None, 0.0)
    field = _cosine_field(config.field_amplitude, config.box_length)
    hamiltonian = build_hamiltonian(lattice, n, interaction, field, t=0.0)

    phi = _lattice_condensate(lattice)
    state = jastrow_initial_state(phi, micro, lattice, n)

    n_steps = int(round(config.t_final / config.dt))
    rows = [(state.time, state.norm(), energy_per_particle(state, hamiltonian))]
    for _ in range(n_steps):
        state = fewbody_propagate(state, hamiltonian, config.dt)
        rows.append((state.time, state.norm(), energy_per_particle(state, hamiltonian)))

    log.require_below("norm-drift", abs(rows[-1][1] - 1.0), 1e-10)
    log.require_below("energy-drift", abs(rows[-1][2] - rows[0][2]),
                      1e-8 * max(1.0, abs(rows[0][2])))

    csv_path = out_dir / "fewbody.csv"
    _write_csv(csv_path, ("t", "norm", "energy_per_particle"), rows)
    summary = {"steps": n_steps, "hilbert_dimension": lattice.d ** n,
               "final_energy": rows[-1][2]}
    return {"fewbody.csv": csv_path, "summary": summary}


def _run_compare(config: ExperimentConfig, out_dir: Path, log: AssertionLog) -> dict[str, Any]:
    n = config.n_values[0]
    lattice = Lattice2D(config.lattice_points, config.box_length)
    interaction, micro, coupling = _scaled_interaction(config, n)
    field = _cosine_field(config.field_amplitude, config.box_length)
    hamiltonian = build_hamiltonian(lattice, n, interaction, field, t=0.0)

    phi = _lattice_condensate(lattice).astype(np.complex128)
    state = jastrow_initial_state(phi, None, lattice, n)
    floor = counting_weight(n, config.xi).values[0]

    def sample(s: FewBodyState, phi_now: np.ndarray, t: float) -> tuple:
        report = diagnostics_report(s, CondensateProjector(lattice, phi_now), hamiltonian,
                                    coupling, micro, config.xi)
        full = report.alpha_less if report.alpha_full is None else report.alpha_full
        return (t, report.alpha_less, full, report.trace_distance, report.n_expect,
                report.energy_gap), report.m_expect

    n_steps = int(round(config.t_final / config.dt))
    sub_dt = config.dt / config.substeps
    row0, m0 = sample(state, phi, 0.0)
    rows = [row0]
    log.require_below("initial-trace-distance", row0[3], 1e-10)
    log.require_below("initial-alpha-floor",
                      abs(row0[1] - floor - row0[5]), 1e-12)
    log.require_below("initial-number-expectation", row0[4], 1e-12)

    for i in range(n_steps):
        state = fewbody_propagate(state, hamiltonian, config.dt)
        for _ in range(config.substeps):
            phi = mean_field_step(phi, lattice, coupling, hamiltonian.external_field, dt=sub_dt)
        rows.append(sample(state, phi, (i + 1) * config.dt)[0])

    log.require_below("final-norm-drift", abs(state.norm() - 1.0), 1e-10)

    # Gronwall envelope: smallest C with alpha(t) <= e^(C t) (alpha(0) + eps).
    epsilon = 1.0 / n
    alpha0 = rows[0][1]
    times = np.asarray([r[0] for r in rows])
    alphas = np.asarray([r[1] for r in rows])
    with np.errstate(divide="ignore"):
        envelope = np.log(alphas[1:] / (alpha0 + epsilon)) / times[1:]
    c_envelope = float(np.max(envelope))
    c_slope = float(np.polyfit(times, np.log(alphas), 1)[0])
    bound = np.exp(max(c_envelope, 0.0) * times) * (alpha0 + epsilon)
    log.check("gronwall-envelope-holds", float(np.max(alphas / bound)), 1.0,
              bool(np.max(alphas / bound) <= 1.0 + 1e-12))

    csv_path = out_dir / "compare.csv"
    _write_csv(csv_path, ("t", "alpha_less", "alpha", "trace_distance",
                          "n_expect", "energy_gap"), rows)
    summary_path = out_dir / "summary.json"
    payload = {
        "coupling": coupling,
        "scaling": config.potential.scaling,
        "uses_correction": micro is not None,
        "initial": {"alpha_less": alpha0, "weight_floor": floor,
                    "energy_gap": rows[0][5], "m_expect": m0},
        "gronwall": {"epsilon": epsilon, "alpha0": alpha0,
                     "C_envelope": c_envelope, "C_slope": c_slope,
                     "bound_holds": bool(np.max(alphas / bound) <= 1.0 + 1e-12)},
    }
    _write_json(summary_path, payload)
    summary = {"steps": n_steps, **payload}
    return {"compare.csv": csv_path, "summary.json": summary_path, "summary": summary}


_RUNNERS: dict[str, Callable[[ExperimentConfig, Path, AssertionLog], dict[str, Any]]] = {
    "scattering": _run_scattering,
    "microscopic": _run_microscopic,
    "smearing": _run_smearing,
    "gp": _run_gp,
    "fewbody": _run_fewbody,
    "compare": _run_compare,
}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute a scenario, write its artifacts, and return the manifest."""
    digest = config_hash(config)
    out_dir = Path(config.out_dir) / f"{config.scenario}-{digest[:12]}"
    out_dir.mkdir(parents=True, exist_ok=True)

    log = AssertionLog()
    started = time.perf_counter()
    outputs = _RUNNERS[config.scenario](config, out_dir, log)
    wall = time.perf_counter() - started

    summary = outputs.pop("summary", {})
    summary_path = out_dir / "run_summary.json"
    _write_json(summary_path, {"scenario": config.scenario, "config_hash": digest,
                               "summary": summary,
                               "assertions": log.records, "passed": log.passed})
    outputs["run_summary.json"] = summary_path

    artifacts = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
                 for name, path in sorted(outputs.items())}
    manifest = RunManifest(
        scenario=config.scenario,
        config_hash=digest,
        config=canonical_dict(config),
        package_version=__version__,
        numpy_version=np.__version__,
        scipy_version=scipy.__version__,
        wall_clock_seconds=wall,
        artifacts=artifacts,
        assertions=log.records,
        passed=log.passed,
    )
    manifest.write(out_dir)
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosons2d",
        description="Scenario runner for the 2D dilute-boson laboratory.")
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", type=Path, default=None,
                       help="JSON file of config overrides")
        p.add_argument("--out", type=str, default=None, help="output directory root")
        p.add_argument("--seed", type=int, default=None, help="base seed")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        data: dict[str, Any] = {}
        if args.config is not None:
            data = json.loads(Path(args.config).read_text())
            if not isinstance(data, dict):
                raise ValueError("config: top level must be a JSON object")
        overrides: dict[str, Any] = {}
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.seed is not None:
            overrides["seed"] = args.seed
        config = load_config(args.scenario, data, overrides)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    manifest = run(config)
    for record in manifest.assertions:
        verdict = "ok" if record["passed"] else "FAIL"
        print(f"{verdict:4s} {record['name']} (value={record['value']:.6g}, "
              f"bound={record['bound']:.6g})")
    print(f"{config.scenario}: {'PASSED' if manifest.passed else 'FAILED'} "
          f"(hash {manifest.config_hash[:12]})")
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
