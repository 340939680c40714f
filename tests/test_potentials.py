"""Scaled families and the smeared comparison potential."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bosons2d.potentials import (
    laplacian_residual,
    make_scaled,
    make_smeared,
    smeared_norm_report,
)
from bosons2d.quadrature import piecewise_simpson, radial_area_integral, simpson_with_halving
from bosons2d.scattering import potential_from_table, solve_zero_energy, square_well

BASE = square_well(4.0, 0.5)
BASE_L1 = 4.0 * math.pi * 0.25  # height * pi * radius^2


def test_soft_scaling_identity_at_n1():
    w = make_scaled("W_beta", BASE, N=1, beta=0.7)
    r = np.linspace(0.0, 0.6, 13)
    assert np.array_equal(w.evaluate(r), BASE(r))
    assert w.support_radius == BASE.support_radius


def test_soft_scaling_charge_preservation():
    for N in (2, 7, 64, 1024):
        w = make_scaled("W_beta", BASE, N=N, beta=1.0)
        assert abs(w.norm_l1 * N - BASE_L1) <= 1e-13 * BASE_L1


@pytest.mark.parametrize("family, kwargs", [
    ("W_beta", dict(N=16, beta=0.8)),
    ("V_N", dict(N=3, s=1.0)),
    ("V_N", dict(N=2, s=2.0)),
    ("M_beta", dict(N=12, beta=1.0)),
])
def test_scaled_norms_match_quadrature(family, kwargs):
    sp = make_scaled(family, BASE, **kwargs)
    if family == "M_beta":
        # Sample inside the half-open annulus to avoid the open edge.
        cuts = [sp.pair.inner_radius, sp.pair.R_beta]
        l1, _ = radial_area_integral(lambda r: np.full_like(r, sp.norm_inf), cuts, rtol=1e-12)
        l2sq, _ = radial_area_integral(lambda r: np.full_like(r, sp.norm_inf ** 2), cuts, rtol=1e-12)
    else:
        cuts = [0.0, sp.support_radius]
        l1, _ = radial_area_integral(sp.evaluate, cuts, rtol=1e-12)
        l2sq, _ = radial_area_integral(lambda r: sp.evaluate(r) ** 2, cuts, rtol=1e-12)
    assert l1 == pytest.approx(sp.norm_l1, rel=1e-10)
    assert math.sqrt(l2sq) == pytest.approx(sp.norm_l2, rel=1e-10)
    samples = np.linspace(0.0, sp.support_radius * 0.999, 257)
    assert np.max(sp.evaluate(samples)) == pytest.approx(sp.norm_inf, rel=1e-12)


def test_compression_family_closed_form():
    sp = make_scaled("V_N", BASE, N=3)
    r = np.array([0.0, 0.01, 0.02, 0.5])
    expected = math.exp(6) * BASE(r * math.exp(3))
    assert np.array_equal(sp.evaluate(r), expected)
    assert sp.norm_l1 == pytest.approx(BASE_L1, rel=1e-13)


def test_generalized_compression_coupling_trend():
    """N * (coupling of the s-compressed potential) approaches 4*pi/s."""
    s = 2.0
    a = solve_zero_energy(BASE, 2.0).scattering_length
    gaps = []
    for N in (4, 8, 16):
        sp = make_scaled("V_N", BASE, N=N, s=s)
        sol = solve_zero_energy(sp, boundary_radius=2.0)
        closed = 4.0 * math.pi / (N * s + math.log(2.0 / a))
        assert sol.integral_I == pytest.approx(closed, rel=1e-8)
        gaps.append(abs(N * sol.integral_I - 4.0 * math.pi / s))
    assert gaps[2] < gaps[1] < gaps[0]


def class_constants(scaled):
    """Smallest C with L1 <= C/N, L2 <= C N^(-1+b), Linf <= C N^(-1+2b) and
    support <= C N^(-b): the dilute-potential class at exponent b = beta."""
    N, b = float(scaled.N), scaled.beta
    return {
        "l1_constant": scaled.norm_l1 * N,
        "l2_constant": scaled.norm_l2 * N ** (1.0 - b),
        "inf_constant": scaled.norm_inf * N ** (1.0 - 2.0 * b),
        "support_constant": scaled.support_radius * N ** b,
    }


def test_v_class_constants_for_soft_family():
    reports = [class_constants(make_scaled("W_beta", BASE, N=N, beta=0.6))
               for N in (4, 32, 256)]
    for key, expected in (("l1_constant", BASE_L1),
                          ("l2_constant", 4.0 * math.sqrt(math.pi) * 0.5),
                          ("inf_constant", 4.0),
                          ("support_constant", 0.5)):
        vals = [rep[key] for rep in reports]
        assert max(vals) - min(vals) <= 1e-10 * max(vals)
        assert vals[0] == pytest.approx(expected, rel=1e-9)


def test_annular_family_is_in_class():
    rep = class_constants(make_scaled("M_beta", BASE, N=16, beta=1.0))
    assert all(0.0 < c < 50.0 for c in rep.values())


def test_make_scaled_rejections():
    with pytest.raises(ValueError):
        make_scaled("U_smeared", BASE, N=4, beta=0.5)
    with pytest.raises(ValueError):
        make_scaled("W_beta", BASE, N=4)
    with pytest.raises(ValueError):
        make_scaled("novel", BASE, N=4, beta=0.5)


# ------------------------------------------------------------------ smearing

W_16 = make_scaled("W_beta", BASE, N=16, beta=1.0)
U_16, COMP_16 = make_smeared(W_16, beta1=0.25)


def test_smeared_charge_cancellation():
    assert abs(COMP_16.charge_residual) <= 1e-12 * W_16.norm_l1
    assert U_16.norm_l1 == pytest.approx(W_16.norm_l1, rel=1e-13)
    assert U_16.norm_inf == pytest.approx(W_16.norm_l1 * 16.0 ** 0.5 / math.pi, rel=1e-13)


def test_h_vanishes_outside_disc():
    r = np.linspace(COMP_16.outer_support, 4.0 * COMP_16.outer_support, 64)
    assert np.max(np.abs(COMP_16.h_evaluate(r))) <= 1e-10


def test_h_nonpositive_inside():
    """Poisson sign: charge piles up at the center, so h dips negative there."""
    r = np.linspace(0.0, COMP_16.outer_support, 512)
    h = COMP_16.h_evaluate(r)
    assert np.all(h <= 1e-15)
    assert h[0] < 0.0
    assert COMP_16.norms.h_inf == pytest.approx(-h[0], rel=1e-9)
    # Monotone rise from the central minimum to zero at the edge.
    assert np.all(np.diff(h) >= -1e-15)


def test_gradient_profile_consistency():
    r = np.linspace(COMP_16.outer_support * 1e-3, COMP_16.outer_support * 0.98, 41)
    eps = COMP_16.outer_support * 1e-7
    fd = (COMP_16.h_evaluate(r + eps) - COMP_16.h_evaluate(r - eps)) / (2.0 * eps)
    assert np.max(np.abs(fd - COMP_16.grad_evaluate(r))) <= 1e-6 * COMP_16.norms.h_inf


def test_gauss_law():
    """r h'(r) equals the enclosed charge computed by independent quadrature.

    The charge density jumps at the inner edge; Simpson endpoint samples on
    the outer piece must see the right-limit there, so that one sample is
    nudged inward by an ulp.
    """
    r_w = COMP_16.inner_support
    past_edge = np.nextafter(r_w, np.inf)
    for r0 in (0.3 * r_w, 2.0 * r_w, 0.7 * COMP_16.outer_support):
        enclosed, _ = radial_area_integral(COMP_16.rho_evaluate, [0.0, min(r0, r_w)],
                                           rtol=1e-12)
        if r0 > r_w:
            outer, _ = radial_area_integral(
                lambda r: COMP_16.rho_evaluate(np.maximum(r, past_edge)),
                [r_w, r0], rtol=1e-12)
            enclosed += outer
        assert r0 * COMP_16.grad_evaluate(np.array([r0]))[0] == pytest.approx(
            enclosed / (2.0 * math.pi), rel=1e-9, abs=1e-15)


def test_h_against_ode_route():
    """Integrate the radial Poisson equation inward as an independent check."""
    def rhs(r, y):
        return [y[1] / r, r * COMP_16.rho_evaluate(np.array([r]))[0]]

    y = np.array([0.0, 0.0])
    r_stop = COMP_16.inner_support * 1e-3
    for lo, hi in [(COMP_16.outer_support, COMP_16.inner_support),
                   (COMP_16.inner_support, r_stop)]:
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=1e-12, atol=1e-16)
        assert sol.success
        y = sol.y[:, -1]
    assert y[0] == pytest.approx(COMP_16.h_evaluate(np.array([r_stop]))[0], rel=1e-8)


def test_laplacian_residual_second_order():
    width = 2.5 * COMP_16.outer_support * 1.02 / 256
    res = [laplacian_residual(COMP_16, n, exclusion_width=width)
           for n in (256, 512, 1024)]
    scale = np.max(np.abs(COMP_16.rho_evaluate(
        np.linspace(0, COMP_16.outer_support, 257))))
    assert res[0] <= 1e-2 * scale
    assert res[0] / res[1] >= 3.0
    assert res[1] / res[2] >= 3.0


def _log_kernel_oracle(discs, r0: float) -> float:
    """(1/2pi) int ln|x0 - y| rho(y) d2y for rho a sum of flat discs.

    Polar coordinates centered at the evaluation point x0: the angular
    integral of each disc indicator is an exact arc measure, leaving a 1D
    radial integral. Below c = min |r0 - R| every arc measure is 0 or 2 pi,
    so that piece is the closed form sum height (c^2/2 ln c - c^2/4) over the
    discs containing x0; the rest is a quadrature. Shares no code with the
    cumulative-moment route.
    """
    def arc_measure(s: np.ndarray, c: float) -> np.ndarray:
        if r0 == 0.0:
            return 2.0 * math.pi * (s < c)
        t = (c * c - r0 * r0 - s * s) / (2.0 * r0 * s)
        return 2.0 * (math.pi - np.arccos(np.clip(t, -1.0, 1.0)))

    def integrand(s: np.ndarray) -> np.ndarray:
        total = np.zeros_like(s)
        for height, radius in discs:
            total += height * arc_measure(s, radius)
        return np.log(s) * s * total / (2.0 * math.pi)

    near = min(abs(r0 - radius) for _, radius in discs)
    inner = sum(height * (near * near / 2.0 * math.log(near) - near * near / 4.0)
                for height, radius in discs if r0 < radius)
    cuts = {near}
    for _, radius in discs:
        cuts.add(abs(r0 - radius))
        cuts.add(r0 + radius)
    value, _ = piecewise_simpson(integrand, sorted(cuts), rtol=1e-9)
    return inner + value


def test_h_matches_2d_log_kernel_quadrature():
    rng = np.random.default_rng(7)
    discs = [(W_16.norm_inf, W_16.support_radius), (-U_16.norm_inf, U_16.support_radius)]
    radii = rng.uniform(0.0, 1.2 * COMP_16.outer_support, size=10)
    for r0 in radii:
        oracle = _log_kernel_oracle(discs, float(r0))
        ours = COMP_16.h_evaluate(np.array([r0]))[0]
        assert abs(oracle - ours) <= 1e-6 * COMP_16.norms.h_inf


def test_simpson_cap_warns_with_context():
    """sqrt(r) converges like h^1.5, so rtol 1e-15 is out of reach of the cap."""
    with pytest.warns(RuntimeWarning, match=r"\[0\.0, 1\.0\].*rtol 1\.0e-15"):
        value, err = simpson_with_halving(np.sqrt, 0.0, 1.0, rtol=1e-15)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert 1e-15 * value < err < 1e-8


def test_smeared_norm_scalings():
    report = smeared_norm_report(BASE, (64, 128, 256, 512, 1024), beta=1.0, beta1=0.25)
    assert report.h_inf_fit.exponent == pytest.approx(-1.0, abs=0.15)
    assert report.h_l1_fit.exponent == pytest.approx(-1.5, abs=0.15)
    assert report.h_l2_fit.exponent == pytest.approx(-1.25, abs=0.15)
    assert report.grad_h_l2_fit.exponent == pytest.approx(-1.0, abs=0.15)
    assert report.h0_l2_fit.exponent == pytest.approx(-1.0, abs=0.15)
    consts = report.gradient_bound_constants
    assert np.max(consts) <= 1.5 * np.min(consts)


def test_smeared_on_table_potential():
    knots = np.linspace(0.0, 0.8, 9)
    table = potential_from_table(knots, 3.0 * (1.0 - knots / 0.8), "cone")
    w = make_scaled("W_beta", table, N=32, beta=1.0)
    _, comp = make_smeared(w, beta1=0.5)
    assert abs(comp.charge_residual) <= 1e-12 * w.norm_l1
    r = np.linspace(comp.outer_support, 2.0, 32)
    assert np.max(np.abs(comp.h_evaluate(r))) <= 1e-10
    width = 2.5 * comp.outer_support * 1.02 / 512
    res = [laplacian_residual(comp, n, exclusion_width=width) for n in (512, 1024)]
    assert res[0] / res[1] >= 3.0


def test_make_smeared_rejections():
    with pytest.raises(ValueError):
        make_smeared(make_scaled("V_N", BASE, N=2), beta1=0.2)
    with pytest.raises(ValueError):
        make_smeared(W_16, beta1=1.5)
    wide = square_well(1.0, 3.0)
    with pytest.raises(ValueError):
        make_smeared(make_scaled("W_beta", wide, N=2, beta=1.0), beta1=1.0)
