"""Scattering layer: closed-form oracles first, then structural invariants."""
import math

import numpy as np
import pytest
from scipy.special import i0, i1

from bosons2d.quadrature import radial_area_integral
from bosons2d.scattering import (
    RadialPotential,
    build_microscopic,
    coupling_deviation,
    g_norm_report,
    integral_I,
    positivity_refinement_study,
    potential_from_table,
    scaled_scattering_identity,
    solve_zero_energy,
    square_well,
)


def bessel_square_well_length(height: float, radius: float) -> float:
    """Frozen oracle: scattering length of a flat disc potential.

    Inside the disc the zero-energy solution is I0(kappa r) with
    kappa = sqrt(height/2); matching the exterior logarithm at the edge gives
    a = radius * exp(-I0(kappa*radius) / (kappa*radius*I1(kappa*radius))).
    """
    kappa = math.sqrt(height / 2.0)
    x = kappa * radius
    return radius * math.exp(-i0(x) / (x * i1(x)))


WELL = dict(height=4.0, radius=0.5)


def test_square_well_matches_bessel_oracle():
    oracle = bessel_square_well_length(**WELL)
    # Sanity pin so a broken oracle cannot silently bless the solver.
    assert abs(oracle - 0.5 * math.exp(-i0(math.sqrt(2) * 0.5)
                                       / (math.sqrt(2) * 0.5 * i1(math.sqrt(2) * 0.5)))) == 0.0
    assert 0.005 < oracle < 0.010
    sol = solve_zero_energy(square_well(**WELL), boundary_radius=2.0)
    assert abs(sol.scattering_length - oracle) <= 1e-8 * oracle


def test_scattering_length_boundary_independent():
    lengths = [solve_zero_energy(square_well(**WELL), boundary_radius=R).scattering_length
               for R in (2.0, 4.0)]
    assert abs(lengths[0] - lengths[1]) <= 1e-6 * abs(lengths[1])


@pytest.mark.parametrize("potential, R", [
    (square_well(4.0, 0.5), 2.0),
    (square_well(30.0, 0.3), 1.5),
    (square_well(0.07, 1.0), 3.0),
    (potential_from_table(np.linspace(0.0, 0.8, 33),
                          2.5 * np.cos(np.linspace(0.0, 0.8, 33) * np.pi / 1.6) ** 2,
                          description="cosine bump"), 2.0),
])
def test_two_route_coupling_identity(potential, R):
    """Quadrature integral against the exterior-log reconstruction."""
    sol = solve_zero_energy(potential, boundary_radius=R)
    assert sol.scattering_length > 0
    reconstructed = 4.0 * math.pi / math.log(R / sol.scattering_length)
    assert abs(sol.integral_I - reconstructed) <= 1e-8 * reconstructed
    assert abs(integral_I(sol) - sol.integral_I) <= 1e-12 * sol.integral_I


def profile_grid(radius: float, boundary_radius: float) -> np.ndarray:
    """512 radii: logarithmic from 1e-4 of the support to its edge, then linear."""
    return np.unique(np.concatenate([
        [0.0], np.geomspace(radius * 1e-4, radius, 256, endpoint=False),
        np.linspace(radius, boundary_radius, 256)]))


def test_solution_profile_shape():
    sol = solve_zero_energy(square_well(**WELL), boundary_radius=2.0)
    grid = profile_grid(WELL["radius"], 2.0)
    s = sol.evaluate(grid)
    assert np.all(s > 0.0)
    assert np.all(s <= 1.0 + 1e-12)
    assert np.all(np.diff(s) >= -1e-12)
    # Pointwise lower bound by the pure-log comparison profile.
    r = grid[grid > 0]
    lower = 1.0 + sol.integral_I / (4.0 * math.pi) * np.log(r / sol.boundary_radius)
    assert np.all(sol.evaluate(r) >= lower - 1e-10)


def test_exterior_is_pure_logarithm():
    sol = solve_zero_energy(square_well(**WELL), boundary_radius=2.0)
    r = np.linspace(0.6, 2.0, 17)
    a = sol.scattering_length
    expected = np.log(r / a) / math.log(2.0 / a)
    assert np.max(np.abs(sol.evaluate(r) - expected)) <= 1e-10


def test_zero_potential_degenerates():
    sol = solve_zero_energy(square_well(0.0, 0.5), boundary_radius=2.0)
    assert sol.scattering_length == 0.0
    assert sol.integral_I == 0.0
    assert np.max(np.abs(sol.evaluate(profile_grid(0.5, 2.0)) - 1.0)) <= 1e-13


@pytest.mark.parametrize("build, message", [
    (lambda: square_well(math.nan, 0.5), "height must be nonnegative and finite, got nan"),
    (lambda: square_well(math.inf, 0.5), "height must be nonnegative and finite, got inf"),
    (lambda: square_well(4.0, math.nan), "support_radius must be positive and finite, got nan"),
    (lambda: square_well(4.0, math.inf), "support_radius must be positive and finite, got inf"),
    (lambda: potential_from_table([0.0, math.nan, 1.0], [1.0, 1.0, 1.0]),
     "table radius nan is not finite"),
    (lambda: potential_from_table([0.0, 0.5, math.inf], [1.0, 1.0, 1.0]),
     "table radius inf is not finite"),
    (lambda: potential_from_table([0.0, 0.5, 1.0], [1.0, math.nan, 0.0]),
     "table potential value nan is not finite"),
    (lambda: RadialPotential(lambda r: np.nan * r, 0.5)(0.1),
     "potential sample nan is negative or NaN"),
    (lambda: RadialPotential(lambda r: -r, 0.5)(np.array([0.0, 0.1])),
     r"potential sample -0\.1 is negative or NaN"),
], ids=["height-nan", "height-inf", "radius-nan", "radius-inf", "table-radius-nan",
        "table-radius-inf", "table-value-nan", "profile-nan", "profile-negative"])
def test_non_finite_potentials_are_rejected_by_value(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_boundary_inside_support_rejected():
    with pytest.raises(ValueError):
        solve_zero_energy(square_well(4.0, 0.5), boundary_radius=0.4)


def test_scaled_identity_matches_direct_solve():
    """Compressed-potential coupling, log-substitution route vs brute force."""
    N = 3
    base = square_well(**WELL)
    value = scaled_scattering_identity(base, N, boundary_radius=2.0)
    compressed = square_well(WELL["height"] * math.exp(2 * N),
                             WELL["radius"] * math.exp(-N))
    direct = solve_zero_energy(compressed, boundary_radius=2.0)
    assert abs(value - direct.integral_I) <= 1e-9 * direct.integral_I
    # Compressing shrinks the scattering length by exactly e^(-N).
    a0 = solve_zero_energy(base, boundary_radius=2.0).scattering_length
    assert abs(direct.scattering_length - a0 * math.exp(-N)) <= 1e-8 * a0


def test_scaled_identity_reduces_at_zero():
    base = square_well(**WELL)
    sol = solve_zero_energy(base, boundary_radius=2.0)
    value = scaled_scattering_identity(base, 0, boundary_radius=2.0)
    assert abs(value - sol.integral_I) <= 1e-10 * sol.integral_I


def test_scaled_identity_closed_form():
    base = square_well(**WELL)
    a = bessel_square_well_length(**WELL)
    for N in (1, 5, 20):
        value = scaled_scattering_identity(base, N, boundary_radius=2.0)
        closed = 4.0 * math.pi / (N + math.log(2.0 / a))
        assert abs(value - closed) <= 1e-9 * closed


def test_scaled_identity_rejects_tight_boundary():
    with pytest.raises(ValueError):
        scaled_scattering_identity(square_well(**WELL), 0, boundary_radius=0.3)


# ln(R/a) = u/w is about 1.6e5 here, so a = R exp(-u/w) underflows a double.
FAINT_WELL = square_well(1e-4, 0.5)


@pytest.mark.parametrize("entry", [
    lambda: solve_zero_energy(FAINT_WELL, boundary_radius=2.0),
    lambda: scaled_scattering_identity(FAINT_WELL, 4, boundary_radius=2.0),
    lambda: build_microscopic(FAINT_WELL, N=16, beta=0.5),
], ids=["solve_zero_energy", "scaled_scattering_identity", "build_microscopic"])
def test_underflowing_scattering_length_fails_loudly(entry):
    with pytest.raises(ValueError, match=r"square well \(height=0\.0001, radius=0\.5\) "
                                         r"underflows.*ln\(r/a\) = u/w = 16000\d"):
        entry()


# ---------------------------------------------------------------- pair layer

PAIR_WELL = square_well(**WELL)


@pytest.fixture(scope="module")
def pair_16_1():
    return build_microscopic(PAIR_WELL, N=16, beta=1.0)


def test_pair_geometry(pair_16_1):
    p = pair_16_1
    assert p.inner_radius == pytest.approx(16.0 ** -1.0)
    assert p.height == pytest.approx(4.0 * math.pi * 16.0)
    assert p.R_beta > p.inner_radius
    # Outer radius sits near sqrt(1 + 1/pi) times the hole radius.
    assert p.R_beta / p.inner_radius == pytest.approx(math.sqrt(1.0 + 1.0 / math.pi), rel=0.05)


def test_pair_state_continuity(pair_16_1):
    p = pair_16_1
    for r_edge in (p._core_radius, p.inner_radius, p.R_beta):
        left = p.f_evaluate(r_edge * (1.0 - 1e-11))[0]
        right = p.f_evaluate(r_edge * (1.0 + 1e-11))[0]
        assert abs(left - right) <= 1e-9 * abs(right)


def test_pair_state_shape(pair_16_1):
    p = pair_16_1
    r = np.unique(np.concatenate([
        np.geomspace(p._core_radius * 1e-2, p.R_beta, 400), [0.0, 1.5 * p.R_beta]]))
    f = p.f_evaluate(r)
    assert np.all(f > 0.0)
    assert np.all(f <= 1.0 + 1e-12)
    assert np.all(np.diff(f) >= -1e-12)
    assert p.f_evaluate(p.R_beta * 1.001)[0] == 1.0


def test_pair_dominates_log_profile(pair_16_1):
    """f >= the bare compressed-potential state, with equality ratio K in the gap."""
    p = pair_16_1
    a = p.scattering_length
    denom = p.N + math.log(p.R_beta / a)
    r = np.geomspace(p._core_radius, p.R_beta, 300)
    j = (p.N + np.log(r / a)) / denom
    f = p.f_evaluate(r)
    assert np.all(f >= j - 1e-12)
    gap = (r >= p._core_radius * 1.0001) & (r <= p.inner_radius)
    ratios = f[gap] / j[gap]
    assert np.max(np.abs(ratios - 1.0 / p.K_beta)) <= 1e-10


def test_pair_root_residual(pair_16_1):
    assert abs(pair_16_1.residual) < 1e-10
    tr_r, tr_slope = pair_16_1.scan_trace
    assert tr_slope[0] > 0.0 and tr_slope[-1] < 0.0


def test_pair_K_bounds():
    for N in (8, 16, 32, 64):
        for beta in (0.5, 1.0):
            p = build_microscopic(PAIR_WELL, N=N, beta=beta)
            lower = 1.0 + math.log(p.inner_radius / p.R_beta) / (
                N + math.log(p.R_beta / p.scattering_length))
            assert p.K_beta <= 1.0 + 1e-12
            assert p.K_beta >= lower - 1e-12


def test_pair_coupling_integrals(pair_16_1):
    """Both halves of the coupling against direct quadrature."""
    p = pair_16_1
    # Annular part: 2*pi*int r M f dr, numerically. M is the constant height
    # there; sampling it directly avoids the half-open edge at the hole.
    numeric, _ = radial_area_integral(
        lambda r: p.height * p.f_evaluate(r),
        [p.inner_radius, p.R_beta], rtol=1e-12)
    analytic = (4.0 * math.pi + coupling_deviation(p)) / p.N
    assert abs(numeric - analytic) <= 1e-9 * abs(analytic)
    # Core part in unscaled coordinates: int V_N f d2x = int V(y) f(e^-N y) d2y.
    base = p.base_potential
    core_numeric, _ = radial_area_integral(
        lambda rho: base(rho) * p.f_evaluate(rho * math.exp(-p.N)),
        [0.0, base.support_radius], rtol=1e-12)
    assert abs(core_numeric - 4.0 * math.pi / p._u_at_R) <= 1e-9 * core_numeric


def test_coupling_deviation_is_log_over_N():
    for beta in (0.5, 1.0):
        constants = []
        for N in (8, 16, 32, 64):
            p = build_microscopic(PAIR_WELL, N=N, beta=beta)
            dev = coupling_deviation(p)
            constants.append(abs(dev) * N / math.log(N))
        assert all(c <= 30.0 for c in constants)
        assert all(b <= a + 1e-9 for a, b in zip(constants, constants[1:]))


def test_g_norms_against_quadrature(pair_16_1):
    p = pair_16_1
    cuts = [0.0, p._core_radius, p.inner_radius, p.R_beta]
    l1, _ = radial_area_integral(lambda r: p.g_evaluate(r), cuts, rtol=1e-11)
    l2sq, _ = radial_area_integral(lambda r: p.g_evaluate(r) ** 2, cuts, rtol=1e-11)
    assert abs(p.g_norms[0] - l1) <= 1e-8 * l1
    assert abs(p.g_norms[1] - math.sqrt(l2sq)) <= 1e-8 * p.g_norms[1]
    assert abs(p.g_norms[2] - (1.0 - p.f_evaluate(0.0)[0])) <= 1e-12
    assert p.g_norms[2] <= 1.0


def test_g_norm_scaling_exponents():
    """Depletion norms scale as N^(-1-2*beta) and N^(-1-beta) after ln N division.

    The log division biases the fitted slope by about -1/ln(N), so the sweep
    sits in the asymptotic regime where that bias fits inside the window.
    """
    sweep = (4096, 8192, 16384, 32768, 65536)
    for beta, l1_target, l2_target in ((0.5, -2.0, -1.5), (1.0, -3.0, -2.0)):
        pairs = [build_microscopic(PAIR_WELL, N=N, beta=beta) for N in sweep]
        report = g_norm_report(pairs)
        assert report.l1_fit.exponent == pytest.approx(l1_target, abs=0.15)
        assert report.l2_fit.exponent == pytest.approx(l2_target, abs=0.15)
        assert np.all(report.linf_values <= 1.0)


def test_positivity_of_pair_form():
    for N, beta in ((8, 1.0), (6, 0.5)):
        p = build_microscopic(PAIR_WELL, N=N, beta=beta)
        eigenvalues, _ = positivity_refinement_study(p, grid_resolution=200, levels=1)
        assert eigenvalues[0] >= -1e-6


def test_positivity_refinement_study():
    p = build_microscopic(PAIR_WELL, N=6, beta=1.0)
    eigs, zero_modes = positivity_refinement_study(p, grid_resolution=60, levels=3)
    assert all(v >= -1e-6 for v in eigs)
    # The interpolated pair state is a continuum zero mode; its form value is
    # positive discretization error shrinking at second order.
    assert all(m >= -1e-12 for m in zero_modes)
    assert zero_modes[-1] <= zero_modes[0] / 8.0


def test_zero_potential_pair_is_refused():
    # The paper's potentials are positive; a zero one has no scattering
    # length to soften, so the pair construction names it and stops.
    with pytest.raises(ValueError, match=r"square well \(height=0\.0, radius=0\.5\) has no "
                       r"positive terminal slope"):
        build_microscopic(square_well(0.0, 0.5), N=8, beta=1.0)


def test_positivity_study_refuses_a_core_too_deep_for_its_grid():
    # At N = 40 the core radius 0.5 e^-40 = 2.1e-18 sits below 1e-12 of the
    # inner radius 40^-1.
    p = build_microscopic(PAIR_WELL, N=40, beta=1.0)
    with pytest.raises(ValueError, match=r"core radius 2\.1\d\de-18 is too deep for the "
                                         r"radial grid \(inner radius 2\.500e-02\)"):
        positivity_refinement_study(p, grid_resolution=60, levels=1)


def test_pair_rejects_overlapping_core():
    # N = 3, beta = 10: the hole radius 3^-10 sits inside e^-3 * 0.5.
    with pytest.raises(ValueError):
        build_microscopic(square_well(4.0, 0.5), N=3, beta=10.0)


@pytest.mark.parametrize("N", [720, 750])
def test_core_value_fails_loudly_once_e_to_the_n_overflows(N):
    # e^N overflows a double beyond N = 709. At N = 720 the core radius e^-N
    # is subnormal, at 750 it underflows to 0; f inside the core, r = 0
    # included, needs e^N either way, while the gap and annulus do not.
    p = build_microscopic(square_well(4.0, 0.5), N=N, beta=0.5)
    with pytest.raises(ValueError, match=f"N = {N} > 709"):
        p.f_evaluate(np.array([p._core_radius / 2, 0.0]))
    with pytest.raises(ValueError, match=f"N = {N} > 709"):
        p.g_evaluate(0.0)
    assert np.all(np.isfinite(p.f_evaluate(np.array([1e-300, 0.5 * p.inner_radius]))))
