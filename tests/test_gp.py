"""Tests for the 2D periodic-box Gross-Pitaevskii propagator."""
import json
import math

import numpy as np
import pytest
import scipy.fft

from bosons2d import gp
from bosons2d.gp import (
    ExternalField,
    GpParams,
    GpState,
    Grid2D,
    gp_energy,
    ground_state,
    propagate,
    read_checkpoint,
    step,
    write_checkpoint,
)


def gaussian_state(grid: Grid2D, sigma: float, center: float | None = None) -> GpState:
    xx, yy = grid.meshes()
    c = grid.box_length / 2.0 if center is None else center
    amp = np.exp(-((xx - c) ** 2 + (yy - c) ** 2) / (4.0 * sigma ** 2))
    return GpState(grid, amp.astype(complex), 0.0).normalized()


def cosine_field(grid: Grid2D, ax: float = 1.5, ay: float = 0.8) -> ExternalField:
    kx = 2.0 * math.pi / grid.box_length
    return ExternalField.from_function(
        lambda x, y, t: ax * np.cos(kx * x) + ay * np.cos(2.0 * kx * y))


# ---------------------------------------------------------------- validation

def test_grid_and_params_validation():
    with pytest.raises(ValueError):
        Grid2D(48, 8.0)
    with pytest.raises(ValueError):
        Grid2D(1, 8.0)
    with pytest.raises(ValueError):
        Grid2D(64, 0.0)
    with pytest.raises(ValueError):
        GpParams(coupling=-1.0)
    with pytest.raises(ValueError):
        GpParams(coupling=1.0, dt=0.0)
    with pytest.raises(ValueError):
        GpState(Grid2D(8, 1.0), np.zeros((4, 4), dtype=complex))


def test_field_validation():
    grid = Grid2D(8, 1.0)
    with pytest.raises(ValueError):
        ExternalField().evaluate(grid, 0.0)
    diverging = ExternalField.from_function(lambda x, y, t: np.full_like(x, np.inf))
    with pytest.raises(ValueError):
        diverging.evaluate(grid, 0.0)


# --------------------------------------------------------------- propagation

def test_constant_field_phase_rotation():
    """Spatially constant data kills the Laplacian: evolution is a pure phase."""
    grid = Grid2D(32, 4.0)
    c = 1.0 / grid.box_length
    state = GpState(grid, np.full((32, 32), c, dtype=complex))
    params = GpParams(coupling=4.0 * math.pi, dt=1e-3)
    a0 = 0.7
    field = ExternalField.from_function(lambda x, y, t: a0 * np.ones_like(x))
    out = propagate(state, field, params, 200)
    exact = c * np.exp(-1j * (a0 + params.coupling * c * c) * out.time)
    assert np.max(np.abs(out.amplitudes - exact)) < 1e-10


def test_norm_conservation_ten_thousand_steps():
    grid = Grid2D(64, 8.0)
    state = gaussian_state(grid, 0.8)
    params = GpParams(coupling=4.0 * math.pi, dt=1e-3)
    field = cosine_field(grid)
    worst = 0.0

    def watch(s: GpState) -> None:
        nonlocal worst
        worst = max(worst, abs(s.norm() - 1.0))

    out = propagate(state, field, params, 10_000, observer=watch)
    assert worst < 1e-12
    assert abs(out.norm() - 1.0) < 1e-12


def test_free_gaussian_spreading():
    """b = 0, A = 0: the analytic free solution replaces sigma^2 by sigma^2 + i t."""
    grid = Grid2D(256, 16.0)
    sigma = 0.5
    state = gaussian_state(grid, sigma)
    params = GpParams(coupling=0.0, dt=1e-3)
    out = propagate(state, ExternalField.zero(), params, 250)
    xx, yy = grid.meshes()
    c = grid.box_length / 2.0
    z = sigma ** 2 + 1j * out.time
    norm0 = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    exact = norm0 * (sigma ** 2 / z) * np.exp(-((xx - c) ** 2 + (yy - c) ** 2) / (4.0 * z))
    assert np.max(np.abs(out.amplitudes - exact)) < 1e-6


def test_time_reversal():
    grid = Grid2D(64, 8.0)
    state = gaussian_state(grid, 0.7)
    params = GpParams(coupling=2.0, dt=1e-2)
    field = ExternalField.from_function(
        lambda x, y, t: (1.0 + 0.3 * math.sin(t)) * np.cos(2.0 * math.pi * x / 8.0))
    forward = step(state, field, params)
    back = step(forward, field, params, dt=-params.dt)
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-10
    assert back.time == pytest.approx(0.0, abs=1e-15)


def test_spatial_symmetry_preserved():
    """Reflection-symmetric data and field stay symmetric to roundoff."""
    grid = Grid2D(64, 8.0)
    state = gaussian_state(grid, 0.9)
    params = GpParams(coupling=4.0 * math.pi, dt=1e-3)
    field = cosine_field(grid)

    def reflect(a: np.ndarray) -> np.ndarray:
        return np.roll(a[::-1, :], 1, axis=0)

    assert np.max(np.abs(reflect(state.amplitudes) - state.amplitudes)) < 1e-14
    out = propagate(state, field, params, 100)
    assert np.max(np.abs(reflect(out.amplitudes) - out.amplitudes)) < 1e-12


# -------------------------------------------------------------------- energy

def test_energy_of_constant_state():
    grid = Grid2D(32, 4.0)
    c = 1.0 / grid.box_length
    state = GpState(grid, np.full((32, 32), c, dtype=complex))
    params = GpParams(coupling=4.0 * math.pi)
    energy = gp_energy(state, ExternalField.zero(), params)
    assert energy == pytest.approx(2.0 * math.pi / grid.box_length ** 2, rel=1e-12)


def test_energy_drift_second_order_in_dt():
    grid = Grid2D(64, 8.0)
    state = gaussian_state(grid, 0.8)
    field = cosine_field(grid)
    horizon = 0.4
    drifts = []
    for dt in (4e-3, 2e-3, 1e-3):
        params = GpParams(coupling=4.0 * math.pi, dt=dt)
        e0 = gp_energy(state, field, params)
        s = state
        worst = 0.0
        for i in range(int(round(horizon / dt))):
            s = step(s, field, params)
            if (i + 1) % 10 == 0:
                worst = max(worst, abs(gp_energy(s, field, params) - e0))
        drifts.append(worst)
    assert 3.5 <= drifts[0] / drifts[1] <= 4.5
    assert 3.5 <= drifts[1] / drifts[2] <= 4.5


def test_energy_drift_small_at_converged_dt():
    grid = Grid2D(64, 8.0)
    state = gaussian_state(grid, 0.8)
    field = cosine_field(grid)
    params = GpParams(coupling=4.0 * math.pi, dt=4e-5)
    e0 = gp_energy(state, field, params)
    out = propagate(state, field, params, 1000)
    elapsed = out.time
    drift = abs(gp_energy(out, field, params) - e0)
    assert drift / abs(e0) / elapsed < 1e-8


def test_energy_derivative_matches_field_rate():
    """d/dt of the energy along the flow equals the mean of A-dot."""
    grid = Grid2D(64, 8.0)
    kx = 2.0 * math.pi / grid.box_length
    field = ExternalField.from_function(
        lambda x, y, t: (1.0 + 0.5 * math.sin(2.0 * t)) * np.cos(kx * x),
        func_dot=lambda x, y, t: math.cos(2.0 * t) * np.cos(kx * x))
    params = GpParams(coupling=4.0 * math.pi, dt=1e-3)
    mid = propagate(gaussian_state(grid, 0.8), field, params, 100)
    plus = step(mid, field, params)
    minus = step(mid, field, params, dt=-params.dt)
    fd = (gp_energy(plus, field, params) - gp_energy(minus, field, params)) / (2.0 * params.dt)
    a_dot = field.time_derivative(grid, mid.time)
    exact = float(np.sum(a_dot * np.abs(mid.amplitudes) ** 2)) * grid.spacing ** 2
    assert abs(fd - exact) < 1e-5


def test_centered_difference_field_rate():
    grid = Grid2D(16, 4.0)
    field = ExternalField.from_function(lambda x, y, t: math.sin(3.0 * t) * np.ones_like(x))
    rate = field.time_derivative(grid, 0.2)
    assert rate[0, 0] == pytest.approx(3.0 * math.cos(0.6), rel=1e-7)


# -------------------------------------------------------------- ground state

def test_ground_state_free_is_constant():
    grid = Grid2D(32, 4.0)
    params = GpParams(coupling=0.0, dt=0.05)
    gs = ground_state(ExternalField.zero(), params, gaussian_state(grid, 0.5))
    assert abs(gp_energy(gs, ExternalField.zero(), params)) < 1e-8
    assert np.max(np.abs(np.abs(gs.amplitudes) - 1.0 / grid.box_length)) < 1e-4


def test_ground_state_uniform_interacting():
    """With b = 4pi and no field the uniform density is the minimizer."""
    grid = Grid2D(32, 4.0)
    params = GpParams(coupling=4.0 * math.pi, dt=0.05)
    rng = np.random.default_rng(7)
    seed_amp = 1.0 / grid.box_length + 0.05 * rng.standard_normal((32, 32))
    seed = GpState(grid, seed_amp.astype(complex)).normalized()
    gs = ground_state(ExternalField.zero(), params, seed)
    target = 2.0 * math.pi / grid.box_length ** 2
    energy = gp_energy(gs, ExternalField.zero(), params)
    assert energy == pytest.approx(target, rel=1e-9)
    assert energy >= target - 1e-12


def trapped_ground_state() -> tuple[GpState, ExternalField, GpParams]:
    grid = Grid2D(64, 8.0)
    field = cosine_field(grid, ax=0.5, ay=0.5)
    params = GpParams(coupling=4.0 * math.pi, dt=0.01)
    return ground_state(field, params, gaussian_state(grid, 1.2), energy_tol=1e-13), field, params


def test_ground_state_trapped_is_stationary():
    gs, field, params = trapped_ground_state()
    grid = gs.grid
    e_seed = gp_energy(gaussian_state(grid, 1.2), field, params)
    e_gs = gp_energy(gs, field, params)
    assert e_gs < e_seed
    stepper = GpParams(coupling=params.coupling, dt=1e-3)
    advanced = step(gs, field, stepper)
    overlap = complex(np.sum(np.conj(gs.amplitudes) * advanced.amplitudes)) * grid.spacing ** 2
    aligned = advanced.amplitudes * (overlap.conjugate() / abs(overlap))
    residual = math.sqrt(float(np.sum(np.abs(aligned - gs.amplitudes) ** 2)) * grid.spacing ** 2)
    assert residual < 1e-6


def test_ground_state_leaves_a_small_eigen_residual():
    """||H psi - mu psi|| with mu = <psi, H psi> and H = -Laplacian + A + b|psi|^2.

    The descent stops at a fixed point of the split, normalized step, not of
    H itself, so the residual is the splitting's bias and not the stopping
    tolerance: on this set-up it measured 5.86e-4 at tau = 0.01, 2.88e-4 at
    0.005 and 1.43e-4 at 0.0025 (about 0.059 tau), and energy_tol = 1e-11,
    1e-13 and 1e-15 all left 5.86e-4. The bound 0.1 tau sits 1.7 times above
    the measurement; a descent that stopped short or stepped a wrong energy
    lands orders of magnitude higher.
    """
    gs, field, params = trapped_ground_state()
    grid, psi = gs.grid, gs.amplitudes
    cell = grid.spacing ** 2
    h_psi = (scipy.fft.ifft2(grid.kinetic_symbol() * scipy.fft.fft2(psi))
             + (field.evaluate(grid, 0.0) + params.coupling * np.abs(psi) ** 2) * psi)
    mu = np.vdot(psi, h_psi).real * cell
    residual = math.sqrt(float(np.sum(np.abs(h_psi - mu * psi) ** 2)) * cell)
    assert residual < 0.1 * params.dt


def complex_descent(field: ExternalField, params: GpParams, seed: GpState,
                    energy_tol: float) -> tuple[np.ndarray, list[float]]:
    """The normalized gradient flow in complex arithmetic throughout: fft2
    Strang steps and fft2 energies. Returns the state and every step size
    tried, so that the accepted and rejected steps can be compared."""
    grid = seed.grid
    cell = grid.spacing ** 2
    k2 = grid.kinetic_symbol()
    a = field.evaluate(grid, 0.0)
    b = params.coupling

    def energy(psi: np.ndarray) -> float:
        density = np.abs(psi) ** 2
        kinetic = float(np.sum(k2 * np.abs(scipy.fft.fft2(psi)) ** 2)) * cell / grid.d
        return kinetic + float(np.sum((a + 0.5 * b * density) * density)) * cell

    psi = seed.normalized().amplitudes
    tau, e_now, taus = params.dt, energy(psi), []
    while True:
        taus.append(tau)
        cand = psi * np.exp(-0.5 * tau * (a + b * np.abs(psi) ** 2))
        cand = scipy.fft.ifft2(scipy.fft.fft2(cand) * np.exp(-tau * k2))
        cand = cand * np.exp(-0.5 * tau * (a + b * np.abs(cand) ** 2))
        cand /= math.sqrt(float(np.sum(np.abs(cand) ** 2)) * cell)
        e_new = energy(cand)
        if e_new > e_now:
            tau *= 0.5
            continue
        psi, gain, e_now = cand, e_now - e_new, e_new
        if gain < energy_tol:
            return psi, taus


def test_real_seed_descends_in_real_arithmetic(monkeypatch):
    """A real seed matches the complex-arithmetic descent step for step and
    returns an imaginary part that is exactly 0; a seed e^(i theta) times the
    real one takes the complex path and returns e^(i theta) times that state.
    The set-up rejects three steps on the way down."""
    grid = Grid2D(32, 4.0)
    field = cosine_field(grid)
    params = GpParams(coupling=300.0, dt=0.2)
    seed = gaussian_state(grid, 0.1)
    oracle, oracle_taus = complex_descent(field, params, seed, 1e-10)

    taus = []
    strang = gp._strang
    monkeypatch.setattr(gp, "_strang",
                        lambda *args: taus.append(args[-1]) or strang(*args))
    gs = ground_state(field, params, seed, energy_tol=1e-10)
    assert taus == oracle_taus
    assert sum(b < a for a, b in zip(taus, taus[1:])) == 3
    assert not gs.amplitudes.imag.any()
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(gs.amplitudes - oracle)) <= 1e-12 * scale

    taus.clear()
    turn = np.exp(0.7j)
    turned = ground_state(field, params, GpState(grid, turn * seed.amplitudes), energy_tol=1e-10)
    assert len(taus) == len(oracle_taus)
    assert np.max(np.abs(turned.amplitudes - turn * gs.amplitudes)) <= 1e-10 * scale


def test_ground_state_reports_non_convergence():
    grid = Grid2D(32, 4.0)
    params = GpParams(coupling=4.0 * math.pi, dt=1e-4)
    with pytest.raises(RuntimeError, match=r"did not converge in 3 steps: 3 iterations "
                       r"\(3 accepted, 0 rejected\), energy \S+, last gain \S+, step size 1\.000e-04"):
        ground_state(cosine_field(grid), params, gaussian_state(grid, 0.5), max_steps=3)


def test_ground_state_reports_a_stalled_descent(monkeypatch):
    """An energy that rises on every candidate halves the step size down to
    the 1e-14 floor, which 0.25 * 2^-45 is the first to pass."""
    grid = Grid2D(16, 4.0)
    energies = iter(range(1000))
    monkeypatch.setattr(gp, "_mean_field_energy", lambda *args: float(next(energies)))
    with pytest.raises(RuntimeError, match=r"stalled, step size underflowed after 45 "
                       r"iterations \(0 accepted, 45 rejected\), energy 0\.0+e\+00, "
                       r"last gain nan, step size 7\.105e-15"):
        ground_state(cosine_field(grid), GpParams(coupling=1.0, dt=0.25),
                     gaussian_state(grid, 0.5))


def test_ground_state_rejects_an_overflowing_step():
    """A first step so large that the phase overflows gives a NaN energy;
    the descent rejects it and goes on at smaller steps instead of accepting
    NaN until max_steps runs out."""
    grid = Grid2D(32, 4.0)
    field = cosine_field(grid, ax=20.0)
    params = GpParams(coupling=100.0, dt=4.0)
    with np.errstate(all="ignore"):
        gs = ground_state(field, params, gaussian_state(grid, 0.2), energy_tol=1e-10,
                          max_steps=200)
    assert np.all(np.isfinite(gs.amplitudes))
    assert math.isfinite(gp_energy(gs, field, params))


# --------------------------------------------------------------- diagnostics

def test_energy_monitor_warns_on_large_dt():
    grid = Grid2D(32, 4.0)
    state = gaussian_state(grid, 0.4)
    field = cosine_field(grid)
    params = GpParams(coupling=4.0 * math.pi, dt=0.25)
    with pytest.warns(RuntimeWarning):
        propagate(state, field, params, 5, monitor_energy=True, check_every=1)


@pytest.mark.parametrize("monitor_energy", [False, True])
def test_propagate_evaluates_the_field_once_per_step(monkeypatch, monitor_energy):
    """A step's end table is the next step's start table, and an energy at
    the current time reads the table already held: n steps cost n + 1
    evaluations with or without the energy checks."""
    calls = []
    evaluate = ExternalField.evaluate
    monkeypatch.setattr(ExternalField, "evaluate",
                        lambda self, grid, t: calls.append(t) or evaluate(self, grid, t))
    grid = Grid2D(16, 4.0)
    kx = 2.0 * math.pi / grid.box_length
    field = ExternalField.from_function(lambda x, y, t: np.cos(kx * x - 3.0 * t))
    n = 12
    # A driven field changes the energy on purpose, so no drift is flagged.
    propagate(gaussian_state(grid, 0.4), field, GpParams(coupling=2.0, dt=1e-3), n,
              monitor_energy=monitor_energy, drift_tolerance=math.inf, check_every=3)
    assert len(calls) == n + 1
    assert len(set(calls)) == n + 1


def test_trajectory_recorder_stream():
    """propagate hands the observer the initial state and then each step's."""
    grid = Grid2D(32, 4.0)
    state = gaussian_state(grid, 0.4)
    params = GpParams(coupling=4.0 * math.pi, dt=1e-3)
    seen = []
    final = propagate(state, ExternalField.zero(), params, 5, observer=seen.append)
    assert len(seen) == 6
    assert seen[0] is state and seen[-1] is final
    assert [s.time for s in seen] == pytest.approx([i * params.dt for i in range(6)], abs=1e-15)


def test_checkpoint_roundtrip(tmp_path):
    grid = Grid2D(32, 4.0)
    state = propagate(gaussian_state(grid, 0.4), ExternalField.zero(),
                      GpParams(coupling=1.0, dt=1e-3), 3)
    path = str(tmp_path / "state.bin")
    write_checkpoint(state, path, GpParams(coupling=1.0, dt=1e-3))
    loaded, sidecar = read_checkpoint(path)
    assert np.array_equal(loaded.amplitudes, state.amplitudes)
    assert loaded.grid == grid
    assert loaded.time == state.time
    assert sidecar["coupling"] == 1.0
    with open(path + ".json", encoding="utf-8") as fh:
        assert json.load(fh)["dtype"] == "complex128"

    path32 = str(tmp_path / "state32.bin")
    write_checkpoint(state, path32, dtype="complex64")
    loaded32, _ = read_checkpoint(path32)
    assert np.max(np.abs(loaded32.amplitudes - state.amplitudes)) < 1e-6

    with pytest.raises(ValueError):
        write_checkpoint(state, str(tmp_path / "bad.bin"), dtype="float64")
    truncated = str(tmp_path / "short.bin")
    state.amplitudes[:16].astype("<c16").tofile(truncated)
    with open(truncated + ".json", "w", encoding="utf-8") as fh:
        json.dump({"n": 32, "box_length": 4.0, "time": 0.0, "dtype": "complex128"}, fh)
    with pytest.raises(ValueError):
        read_checkpoint(truncated)


@pytest.mark.parametrize("field, value", [("dtype", "float64"), ("dtype", None),
                                          ("order", "F"), ("format_version", 2)])
def test_checkpoint_reader_rejects_bad_sidecar(tmp_path, field, value):
    grid = Grid2D(8, 1.0)
    path = str(tmp_path / "state.bin")
    write_checkpoint(GpState(grid, np.ones((8, 8), dtype=complex)), path)
    with open(path + ".json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    sidecar[field] = value
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    with pytest.raises(ValueError, match=f"'{field}'"):
        read_checkpoint(path)


def test_checkpoint_sidecar_carries_format_version_one(tmp_path):
    """The writer stamps version 1; a sidecar written before the field
    existed (no format_version, no order) reads as version 1."""
    grid = Grid2D(8, 1.0)
    path = str(tmp_path / "state.bin")
    state = GpState(grid, np.ones((8, 8), dtype=complex))
    write_checkpoint(state, path)
    with open(path + ".json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    assert sidecar["format_version"] == 1
    del sidecar["format_version"], sidecar["order"]
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh)
    assert np.array_equal(read_checkpoint(path)[0].amplitudes, state.amplitudes)
