"""Acceptance gate: every advertised guarantee at its stated tolerance.

Each test exercises one pinned claim end to end; the conftest hook prints a
one-line verdict per criterion after the run. Tolerances here are contractual
and must not be loosened to make a failing build green.
"""
import json
import math
import time

import numpy as np
import pytest
from scipy.special import i0, i1

from bosons2d.cli import load_config, run
from bosons2d.diagnostics import (
    CondensateProjector,
    counting_weight,
    ddt_weight_identity,
    number_expectations,
    number_weight,
    operator_algebra_suite,
)
from bosons2d.fewbody import (
    FewBodyState,
    Lattice2D,
    build_hamiltonian,
    dense_matrix,
    propagate as fewbody_propagate,
)
from bosons2d.fitting import power_law_fit
from bosons2d.gp import (
    ExternalField,
    GpParams,
    GpState,
    gp_energy,
    propagate as gp_propagate,
    step as gp_step,
)
from bosons2d.potentials import laplacian_residual, make_scaled, make_smeared, smeared_norm_report
from bosons2d.scattering import (
    build_microscopic,
    coupling_deviation,
    integral_I,
    positivity_refinement_study,
    potential_from_table,
    solve_zero_energy,
    square_well,
)

BASE = square_well(4.0, 0.5)


def bessel_square_well_length(height: float, radius: float) -> float:
    """Closed form for the flat disc: a = r0 exp(-I0(x)/(x I1(x))), x = r0 sqrt(height/2)."""
    x = radius * math.sqrt(height / 2.0)
    return radius * math.exp(-i0(x) / (x * i1(x)))


def smooth_phi(lattice: Lattice2D) -> np.ndarray:
    xx, yy = lattice.meshes()
    k = 2.0 * math.pi / lattice.box_length
    phi = (1.0 + 0.4 * np.cos(k * xx) + 0.25 * np.sin(k * yy)
           + 0.1j * np.cos(k * (xx + yy)))
    nrm = math.sqrt(float(np.sum(np.abs(phi) ** 2)) * lattice.spacing ** 2)
    return phi / nrm


def lattice_normalized(lattice: Lattice2D, values: np.ndarray) -> np.ndarray:
    nrm = math.sqrt(float(np.sum(np.abs(values) ** 2)) * lattice.spacing ** 2)
    return values / nrm


def product_state(lattice: Lattice2D, phi: np.ndarray, n: int) -> FewBodyState:
    amp = phi.ravel()
    for _ in range(n - 1):
        amp = np.multiply.outer(amp, phi.ravel())
    return FewBodyState(lattice, amp).normalized()


def depleted_two_body(lattice: Lattice2D, phi: np.ndarray) -> FewBodyState:
    """Product data plus symmetric single and double transfers out of phi."""
    xx, yy = lattice.meshes()
    k = 2.0 * math.pi / lattice.box_length
    cell = lattice.spacing ** 2
    chi = np.exp(1j * k * xx) * (1.0 + 0.3 * np.cos(k * yy))
    chi = chi - phi * (np.vdot(phi.ravel(), chi.ravel()) * cell)
    chi = lattice_normalized(lattice, chi)
    single = np.multiply.outer(phi.ravel(), chi.ravel())
    amp = (np.multiply.outer(phi.ravel(), phi.ravel())
           + 0.2 * (single + single.T)
           + 0.12 * np.multiply.outer(chi.ravel(), chi.ravel()))
    return FewBodyState(lattice, amp).normalized()


def cosine_field(box_length: float, amp: float = 0.8) -> ExternalField:
    k = 2.0 * math.pi / box_length
    return ExternalField.from_function(lambda x, y, t: amp * np.cos(k * x))


def gaussian_gp_state(grid: Lattice2D, sigma: float) -> GpState:
    x, y = grid.meshes()
    c = grid.box_length / 2.0
    amp = np.exp(-((x - c) ** 2 + (y - c) ** 2) / (2.0 * sigma ** 2))
    return GpState(grid, amp.astype(complex)).normalized()


# ---------------------------------------------------------------------------


def test_criterion_01_square_well_oracle_and_boundary_independence():
    """Square-well scattering length matches the Bessel closed form, any boundary."""
    started = time.perf_counter()
    oracle = bessel_square_well_length(4.0, 0.5)
    lengths = {}
    for boundary in (2.0, 4.0):
        sol = solve_zero_energy(BASE, boundary)
        lengths[boundary] = sol.scattering_length
        assert abs(sol.scattering_length - oracle) <= 1e-8 * oracle
    assert abs(lengths[2.0] - lengths[4.0]) <= 1e-6 * oracle
    assert time.perf_counter() - started < 1.0


def test_criterion_02_coupling_integral_identity():
    """Coupling integral equals 4 pi over log(boundary/a) on every solved potential."""
    r_table = np.linspace(0.0, 1.0, 201)
    bump = potential_from_table(r_table, 2.0 * np.exp(-((r_table / 0.3) ** 2)))
    potentials = [BASE, square_well(9.0, 0.3), square_well(0.7, 1.2), bump]
    for potential in potentials:
        for boundary in (2.0, 5.0):
            sol = solve_zero_energy(potential, boundary)
            closed = 4.0 * math.pi / math.log(boundary / sol.scattering_length)
            assert abs(integral_I(sol) - closed) <= 1e-8 * abs(closed)


def test_criterion_03_microscopic_pair_sweep():
    """Softened-pair sweep: residuals, K bounds, outer-radius law, coupling defect."""
    started = time.perf_counter()
    sweep = (8, 16, 32, 64)
    for beta in (0.5, 1.0):
        pairs = [build_microscopic(BASE, N, beta) for N in sweep]
        constants = []
        for pair in pairs:
            assert abs(pair.residual) < 1e-10
            lower = 1.0 + math.log(pair.inner_radius / pair.R_beta) / (
                pair.N + math.log(pair.R_beta / pair.scattering_length))
            assert lower - 1e-12 <= pair.K_beta <= 1.0 + 1e-12
            constants.append(abs(coupling_deviation(pair)) * pair.N / math.log(pair.N))
        fit = power_law_fit(np.asarray(sweep, dtype=float),
                            np.asarray([p.R_beta for p in pairs]))
        assert fit.exponent == pytest.approx(-beta, abs=0.1)
        # |N ||M f||_1 - 4 pi| <= C log(N)/N with a C that never grows.
        assert max(constants) <= 30.0
        assert all(b <= a + 1e-9 for a, b in zip(constants, constants[1:]))
    assert time.perf_counter() - started < 30.0


def test_criterion_04_depletion_norm_scaling():
    """Depletion norms scale as N^(-1-2 beta) and N^(-1-beta) after log division."""
    from bosons2d.scattering import g_norm_report

    sweep = (4096, 8192, 16384, 32768, 65536)
    for beta in (0.5, 1.0):
        pairs = [build_microscopic(BASE, N, beta) for N in sweep]
        report = g_norm_report(pairs)
        assert report.l1_fit.exponent == pytest.approx(-1.0 - 2.0 * beta, abs=0.15)
        assert report.l2_fit.exponent == pytest.approx(-1.0 - beta, abs=0.15)


def test_criterion_05_smearing_consistency():
    """Smeared comparison: Laplacian residual halves at second order, support and norms scale."""
    w16 = make_scaled("W_beta", BASE, 16, beta=1.0)
    _, comparison = make_smeared(w16, 0.25)
    width = 2.5 * comparison.outer_support * 1.02 / 256
    residuals = [laplacian_residual(comparison, n, exclusion_width=width)
                 for n in (256, 512, 1024)]
    # Second order up to max-norm location shifts between grids.
    assert residuals[0] / residuals[1] >= 3.0
    assert residuals[1] / residuals[2] >= 3.0

    outside = np.linspace(16.0 ** -0.25, 2.0, 64)
    assert np.max(np.abs(comparison.h_evaluate(outside))) <= 1e-10

    report = smeared_norm_report(BASE, (64, 128, 256, 512, 1024), beta=1.0, beta1=0.25)
    assert report.h_inf_fit.exponent == pytest.approx(-1.0, abs=0.15)
    assert report.h_l1_fit.exponent == pytest.approx(-1.5, abs=0.15)
    assert report.h_l2_fit.exponent == pytest.approx(-1.25, abs=0.15)
    assert report.grad_h_l2_fit.exponent == pytest.approx(-1.0, abs=0.15)
    assert report.h0_l2_fit.exponent == pytest.approx(-1.0, abs=0.15)


def test_criterion_06_pair_form_positivity():
    """Discretized pair quadratic form stays nonnegative under refinement."""
    for beta in (0.5, 1.0):
        for N in (2, 4, 8):
            pair = build_microscopic(BASE, N, beta)
            eigenvalues, _ = positivity_refinement_study(pair, grid_resolution=100,
                                                         levels=3)
            assert min(eigenvalues) >= -1e-6


def test_criterion_07_mean_field_propagation():
    """Strang propagation: exact norms, second-order energy, exact constant phase."""
    grid = Lattice2D(64, 8.0)
    state = gaussian_gp_state(grid, 0.8)
    field = cosine_field(grid.box_length)
    params = GpParams(coupling=4.0 * math.pi, dt=1e-3)
    worst = 0.0

    def watch(s: GpState) -> None:
        nonlocal worst
        worst = max(worst, abs(s.norm() - 1.0))

    gp_propagate(state, field, params, 10_000, observer=watch)
    assert worst < 1e-12

    drifts = []
    for dt in (2e-3, 1e-3):
        p = GpParams(coupling=4.0 * math.pi, dt=dt)
        e0 = gp_energy(state, field, p)
        s = state
        peak = 0.0
        for i in range(int(round(0.4 / dt))):
            s = gp_step(s, field, p)
            if (i + 1) % 10 == 0:
                peak = max(peak, abs(gp_energy(s, field, p) - e0))
        drifts.append(peak)
    assert drifts[0] / drifts[1] == pytest.approx(4.0, abs=0.5)

    c = 1.0 / grid.box_length
    uniform = GpState(grid, np.full((grid.m, grid.m), c, dtype=complex))
    const_field = ExternalField.from_function(lambda x, y, t: 0.7 * np.ones_like(x))
    out = gp_propagate(uniform, const_field, params, 200)
    exact = c * np.exp(-1j * (0.7 + params.coupling * c * c) * out.time)
    assert np.max(np.abs(out.amplitudes - exact)) < 1e-10


def test_criterion_08_few_body_propagation():
    """Exact few-body dynamics: unitarity, one-body spectrum, free factorization."""
    started = time.perf_counter()
    lat8 = Lattice2D(8, 1.0)
    w8 = make_scaled("W_beta", BASE, 8, beta=0.5)
    hamiltonian = build_hamiltonian(lat8, 2, interaction=w8,
                                    field=cosine_field(lat8.box_length))
    state = product_state(lat8, smooth_phi(lat8), 2)
    worst = 0.0
    for _ in range(1000):
        state = fewbody_propagate(state, hamiltonian, 1e-3)
        worst = max(worst, abs(state.norm() - 1.0))
    assert worst < 1e-10
    assert time.perf_counter() - started < 60.0

    lat = Lattice2D(8, 2.0)
    field = cosine_field(lat.box_length, amp=1.3)
    one_body = build_hamiltonian(lat, 1, field=field)
    spectrum = np.linalg.eigvalsh(dense_matrix(one_body))
    m = lat.m
    j = np.arange(m)
    f1 = np.exp(-2j * math.pi * np.outer(j, j) / m)
    f2 = np.kron(f1, f1)
    k = lat.wavenumbers()
    symbol = (k[:, None] ** 2 + k[None, :] ** 2).ravel()
    kinetic = (f2.conj().T @ (symbol[:, None] * f2)) / m ** 2
    oracle = np.linalg.eigvalsh(kinetic + np.diag(field.evaluate(lat, 0.0).ravel()))
    assert np.max(np.abs(spectrum - oracle)) < 1e-10

    lat6 = Lattice2D(6, 2.0)
    field6 = cosine_field(lat6.box_length)
    phi = smooth_phi(lat6)
    two = build_hamiltonian(lat6, 2, field=field6)
    one = build_hamiltonian(lat6, 1, field=field6)
    psi = product_state(lat6, phi, 2)
    single = FewBodyState(lat6, phi.ravel()).normalized()
    for _ in range(20):
        psi = fewbody_propagate(psi, two, 0.02)
        single = fewbody_propagate(single, one, 0.02)
    expected = np.multiply.outer(single.amplitudes, single.amplitudes)
    assert np.max(np.abs(psi.amplitudes - expected)) < 1e-10


def test_criterion_09_operator_algebra_suite():
    """Counting-operator identities and bounds hold on 100 seeded instances."""
    started = time.perf_counter()
    instances = 0
    for n_particles, m in ((2, 3), (2, 4), (2, 5), (3, 3)):
        lattice = Lattice2D(m, 1.0)
        rng = np.random.default_rng(100 * n_particles + m)
        phi = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        projector = CondensateProjector(lattice, lattice_normalized(lattice, phi))
        for seed in range(25):
            report = operator_algebra_suite(projector, n_particles, seed=seed,
                                            tolerance=1e-10)
            assert report.passed, report.failures()
            instances += 1
    assert instances == 100
    assert time.perf_counter() - started < 120.0


def test_criterion_10_counting_rate_identity():
    """Time derivative of the counting functional matches its commutator form."""
    lattice = Lattice2D(6, 1.0)
    phi = smooth_phi(lattice)
    state = depleted_two_body(lattice, phi)
    projector = CondensateProjector(lattice, phi)
    w_beta = make_scaled("W_beta", BASE, 2, beta=0.5)
    coupling = 2.0 * w_beta.norm_l1

    residuals = []
    for dt in (4e-4, 2e-4, 1e-4):
        comparison = ddt_weight_identity(state, projector, w_beta, coupling, dt=dt)
        residuals.append(comparison.residual)
    assert residuals[-1] < 1e-5
    assert residuals[0] / residuals[1] == pytest.approx(4.0, abs=1.0)
    assert residuals[1] / residuals[2] == pytest.approx(4.0, abs=1.0)


def test_criterion_11_counting_moments_and_weight_gap():
    """Second counting moment agrees across routes; weight gap sits at N^(-xi)."""
    for n_particles in (2, 3, 4):
        m = 3 if n_particles > 2 else 5
        lattice = Lattice2D(m, 1.0)
        rng = np.random.default_rng(n_particles)
        shape = (lattice.d,) * n_particles
        amp = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        perms = {2: [(0, 1), (1, 0)],
                 3: [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)],
                 4: None}[n_particles]
        if perms is None:
            import itertools
            perms = list(itertools.permutations(range(4)))
        amp = sum(np.transpose(amp, p) for p in perms)
        state = FewBodyState(lattice, amp).normalized()
        projector = CondensateProjector(lattice, smooth_phi(lattice))
        numbers = number_expectations(state, projector)
        assert abs(numbers.n_square - numbers.n_square_from_gamma) < 1e-12

    for n_particles in (8, 64, 256):
        for xi in (0.25, 0.4):
            gap = (counting_weight(n_particles, xi).values
                   - number_weight(n_particles).values)
            assert np.max(np.abs(gap)) <= n_particles ** (-xi)


def test_criterion_12_comparison_scenario_smoke(tmp_path):
    """Counting functional of product data obeys an exponential envelope in time."""
    config = load_config("compare", {"out_dir": str(tmp_path)})
    manifest = run(config)
    assert manifest.passed
    out = tmp_path / f"compare-{manifest.config_hash[:12]}"
    summary = json.loads((out / "summary.json").read_text())
    # Matched coupling: n times the soft-potential L1 norm at n = 2.
    assert summary["coupling"] == pytest.approx(math.pi)
    gronwall = summary["gronwall"]
    assert gronwall["bound_holds"]
    assert math.isfinite(gronwall["C_envelope"])
    assert math.isfinite(gronwall["C_slope"])
    header = (out / "compare.csv").read_text().splitlines()[0]
    assert header == "t,alpha_less,alpha,trace_distance,n_expect,energy_gap"
