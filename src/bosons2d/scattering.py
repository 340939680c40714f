"""Zero-energy scattering in two dimensions and the softened-pair construction.

The radial zero-energy problem (1/r)(r s'(r))' = (1/2) V(r) s(r), s(R) = 1,
is solved as the first-order system u = s, w = r s', which is regular at the
origin. Everything downstream keys off two exact identities:

  * divergence identity: 2*pi*int_0^R r V s dr = 4*pi*R*s'(R), so the
    coupling integral is available from the terminal slope without quadrature;
  * exterior form: where V = 0 the solution is a pure logarithm, giving the
    scattering length a via s(r) = ln(r/a)/ln(R/a).

The softened pair replaces an exponentially peaked potential by a flat
annular one of equal zero-energy coupling. Its state is assembled from
closed forms (logarithm in the force-free gap, ordinary Bessel functions
J0/Y0 in the annulus, where the equation is oscillatory) glued to the solved
core, so no grid ever has to resolve the e^(-N) core scale. The paper's
potentials are positive; a zero potential has no scattering length to
soften, and `build_microscopic` refuses it by name.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import sys
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq
from scipy.special import j0, j1, y0, y1

from .fitting import FitResult, power_law_fit
from .quadrature import piecewise_simpson, radial_area_integral

__all__ = [
    "RadialPotential",
    "ScatteringSolution",
    "MicroscopicPair",
    "square_well",
    "potential_from_table",
    "solve_zero_energy",
    "integral_I",
    "scaled_scattering_identity",
    "build_microscopic",
    "g_norm_report",
    "coupling_deviation",
    "positivity_refinement_study",
]

_ODE_RTOL = 1e-12
_ODE_ATOL = 1e-14
# Largest N whose e^N, the core compression factor, is a finite double.
_MAX_EXP_N = int(math.log(sys.float_info.max))
# Geometric bracket scan for the outer radius of the softened pair: step
# factor, and the largest radius tried as a multiple of the inner one.
_SCAN_FACTOR = 1.02
_MAX_SCAN_RATIO = 1e3


@dataclasses.dataclass(frozen=True)
class RadialPotential:
    """Nonnegative, compactly supported, radially symmetric potential.

    profile is only trusted inside [0, support_radius]; evaluation clamps
    to zero outside so the compact-support invariant holds by construction.
    A NaN radius is neither inside nor outside, and raises by name.
    """
    profile: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    description: str = ""
    breakpoints: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.support_radius > 0 and math.isfinite(self.support_radius)):
            raise ValueError(
                f"support_radius must be positive and finite, got {self.support_radius}")

    def __call__(self, r: np.ndarray | float) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        inside = r <= self.support_radius  # False at a NaN radius, as r > support is
        n_inside = np.count_nonzero(inside)  # cheaper than a reduction on the ODE's one radius
        if n_inside == r.size:
            return self._checked(np.array(self.profile(r), dtype=float))
        if n_inside + np.count_nonzero(r > self.support_radius) < r.size:
            raise ValueError("a radius is NaN; the potential is defined at real radii only")
        out = np.zeros_like(r)
        if n_inside:
            out[inside] = self._checked(np.asarray(self.profile(r[inside]), dtype=float))
        return out

    @staticmethod
    def _checked(vals: np.ndarray) -> np.ndarray:
        if not (vals >= -1e-300).all():  # NaN fails the comparison too
            bad = vals[~(vals >= -1e-300)][0]
            raise ValueError(f"potential sample {bad} is negative or NaN; "
                             "only V >= 0 is supported")
        return vals

    def internal_breakpoints(self) -> tuple[float, ...]:
        return tuple(b for b in self.breakpoints if 0.0 < b < self.support_radius)


def square_well(height: float, radius: float) -> RadialPotential:
    """Flat repulsive disc: V = height for r <= radius, else 0."""
    if not (height >= 0 and math.isfinite(height)):
        raise ValueError(f"height must be nonnegative and finite, got {height}")
    return RadialPotential(
        profile=lambda r: np.full_like(np.asarray(r, dtype=float), float(height)),
        support_radius=float(radius),
        description=f"square well (height={height}, radius={radius})",
    )


def potential_from_table(r: np.ndarray, v: np.ndarray, description: str = "table") -> RadialPotential:
    """Potential from a two-column table, linearly interpolated, clamped outside."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    for name, column in (("radius", r), ("potential value", v)):
        if not np.isfinite(column).all():
            raise ValueError(f"table {name} {column[~np.isfinite(column)][0]} is not finite")
    if r.ndim != 1 or r.size < 2 or np.any(np.diff(r) <= 0):
        raise ValueError("table radii must be strictly increasing, length >= 2")
    if np.any(v < 0):
        raise ValueError("table potential values must be nonnegative")
    support = float(r[-1])
    return RadialPotential(
        profile=lambda x: np.interp(np.asarray(x, dtype=float), r, v, left=v[0], right=0.0),
        support_radius=support,
        description=description,
        breakpoints=tuple(float(x) for x in r[1:-1]),
    )


@dataclasses.dataclass(frozen=True)
class ScatteringSolution:
    """Regular radial zero-energy solution on [0, R], with its length scale.

    The solve runs with s(0) = 1: u_end and w_end are u = s and w = r s' at
    R; terminal_slope is s'(R) and `evaluate` is s, both for s(R) = 1. Below
    series_radius s is the series 1 + series_coeff r^2, above it the DOP853
    dense segments; cuts are the quadrature pieces (series disc, kinks,
    support edge).

    integral_I is the quadrature value of 2*pi*int r V s dr, computed on first
    read; the scattering length comes from the terminal slope, so the two
    satisfy I = 4*pi/ln(R/a) only up to solver error. That residual is the
    primary internal consistency check. scattering_length is 0 iff the
    terminal slope is not positive (a zero potential).
    """
    potential: RadialPotential
    boundary_radius: float
    u_end: float
    w_end: float
    terminal_slope: float
    scattering_length: float
    series_radius: float = dataclasses.field(repr=False)
    series_coeff: float = dataclasses.field(repr=False)
    segments: tuple = dataclasses.field(repr=False)
    cuts: tuple[float, ...] = dataclasses.field(repr=False)

    def _values(self, r: np.ndarray | float) -> np.ndarray:
        """u(r) = s(r) with s(0) = 1, for 0 <= r <= R."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r > self.boundary_radius):
            raise ValueError("evaluation outside the solved interval")
        out = np.empty_like(r)
        tiny = r < self.series_radius
        out[tiny] = 1.0 + self.series_coeff * r[tiny] ** 2
        for lo, hi, dense in self.segments:
            mask = (~tiny) & (r >= lo) & (r <= hi)
            if np.any(mask):
                out[mask] = dense(r[mask])[0]
        return out

    def _coupling(self, norm: float = 1.0) -> float:
        """2*pi*int r V s dr by quadrature, for the solution scaled to s = u / norm."""
        value, _ = radial_area_integral(
            lambda r: self.potential(r) * (self._values(r) / norm), self.cuts, rtol=1e-12)
        return value

    @functools.cached_property
    def integral_I(self) -> float:
        """Coupling integral 2*pi*int r V s dr by quadrature, for s(R) = 1."""
        return self._coupling(self.u_end)

    def evaluate(self, r: np.ndarray | float) -> np.ndarray:
        """Solution value s(r), normalized to s(R) = 1, for 0 <= r <= R."""
        return self._values(r) / self.u_end


def _integrate_radial(potential: RadialPotential, r_end: float) -> ScatteringSolution:
    """Integrate the regular solution out to r_end with s(0) = 1.

    The scattering length r_end exp(-u/w) comes from the exterior logarithm;
    it is 0 iff w <= 0, and an underflow to 0 at w > 0 raises.
    """
    v0 = float(potential(np.array([0.0]))[0])
    series_coeff = v0 / 8.0
    support = min(potential.support_radius, r_end)
    r_min = support * 1e-4
    u = 1.0 + series_coeff * r_min ** 2
    w = 2.0 * series_coeff * r_min ** 2  # w = r s' = (V0/4) r^2

    def rhs(r: float, yv: np.ndarray) -> list[float]:
        vol = float(potential(np.array([r]))[0])
        return [yv[1] / r, 0.5 * r * vol * yv[0]]

    breakpoints = potential.internal_breakpoints()
    ode_cuts = sorted({r_min, r_end, support, *(b for b in breakpoints if r_min < b < r_end)})
    segments = []
    y = np.array([u, w])
    for lo, hi in zip(ode_cuts[:-1], ode_cuts[1:]):
        if hi <= lo:
            continue
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", dense_output=True,
                        rtol=_ODE_RTOL, atol=_ODE_ATOL)
        if not sol.success:
            raise RuntimeError(f"radial integration failed on [{lo}, {hi}]: {sol.message}")
        segments.append((lo, hi, sol.sol))
        y = sol.y[:, -1]
    u_end, w_end = float(y[0]), float(y[1])

    a = 0.0
    if w_end > 0.0:
        a = r_end * math.exp(-u_end / w_end)
        if a == 0.0:
            raise ValueError(
                f"scattering length of {potential.description or 'the potential'} underflows "
                f"to 0: ln(r/a) = u/w = {u_end / w_end:.6g} at r = {r_end!r}")
    return ScatteringSolution(potential, r_end, u_end, w_end, w_end / (r_end * u_end), a,
                              r_min, series_coeff, tuple(segments),
                              (0.0, r_min, *breakpoints, support))


def solve_zero_energy(potential: RadialPotential, boundary_radius: float) -> ScatteringSolution:
    """Solve the zero-energy problem with s(boundary_radius) = 1.

    The scattering length comes from the terminal data (exterior logarithm
    matching): a = R exp(-u/w). For a zero potential the solution is
    identically 1 with I = 0 and a = 0.
    """
    R = float(boundary_radius)
    if R < potential.support_radius:
        raise ValueError("boundary radius must not cut into the potential support")
    return _integrate_radial(potential, R)


def integral_I(sol: ScatteringSolution) -> float:
    """Coupling integral 2*pi*int r V(r) s(r) dr by quadrature."""
    return sol.integral_I


def scaled_scattering_identity(potential: RadialPotential, N: int,
                               boundary_radius: float) -> float:
    """Coupling integral of the exponentially compressed problem.

    Computes int V_N j d2x for V_N(x) = e^(2N) V(e^N x) with j normalized at
    boundary_radius, working entirely in unscaled coordinates via the exact
    substitution y = e^N x. The result is checked against the closed form
    4*pi/(N + ln(R/a)); disagreement means the solver is broken, so it raises.
    """
    N = int(N)
    if N < 0:
        raise ValueError("N must be nonnegative")
    R = float(boundary_radius)
    scaled_support = potential.support_radius * math.exp(-N)
    if R < scaled_support:
        raise ValueError("boundary radius lies inside the compressed support")

    r0 = potential.support_radius
    solve = _integrate_radial(potential, r0)
    # In unscaled variables the state extends by a pure logarithm out to e^N R.
    u_boundary = solve.u_end + solve.w_end * (N + math.log(R / r0))
    value = solve._coupling() / u_boundary

    if solve.w_end > 0.0:
        closed = 4.0 * math.pi / (N + math.log(R / solve.scattering_length))
        if abs(value - closed) > 1e-8 * abs(closed):
            raise RuntimeError(
                "coupling integral disagrees with the log closed form: "
                f"{value!r} vs {closed!r}")
    return value


@dataclasses.dataclass(frozen=True)
class MicroscopicPair:
    """Softened annular potential, its zero-energy state, and derived numbers.

    The annular potential has the fixed height 4*pi*N^(-1+2*beta) on
    (inner_radius, R_beta]; R_beta is the smallest radius making the combined
    potential's scattering length vanish, equivalently the first zero of the
    state's radial derivative. K_beta is the constant relating the state to
    the bare compressed-potential state inside the annulus hole; g_norms are
    the (L1, L2, Linf) norms of 1 - f.
    """
    N: int
    beta: float
    inner_radius: float
    R_beta: float
    height: float
    K_beta: float
    g_norms: tuple[float, float, float]
    scattering_length: float
    residual: float
    scan_trace: tuple[np.ndarray, np.ndarray]
    base_potential: RadialPotential
    # Annulus/gap bookkeeping for the closed-form quadratures.
    _k: float
    _A: float
    _B: float
    _u_at_R: float
    _w0: float
    _core_radius: float
    _core_solution: ScatteringSolution = dataclasses.field(repr=False)

    def f_evaluate(self, r: np.ndarray | float) -> np.ndarray:
        """Zero-energy state of the combined potential, 1 beyond R_beta."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.ones_like(r)
        U = self._u_at_R
        a = self.scattering_length
        # r = 0 is in the core even where e^-N underflows the core radius to 0.
        core = (r < self._core_radius) | (r == 0.0)
        gap = (~core) & (r < self.inner_radius)
        ann = (r >= self.inner_radius) & (r < self.R_beta)
        if np.any(core):
            if self.N > _MAX_EXP_N:
                raise ValueError(
                    f"f inside the core needs e^N, which overflows a double for "
                    f"N = {self.N} > {_MAX_EXP_N}")
            scaled = r[core] * math.exp(self.N)
            # evaluate() is normalized at the support edge; undo that to get
            # the s(0) = 1 branch the gap logarithm continues.
            u0 = self._core_solution.evaluate(scaled) * self._core_solution.u_end
            out[core] = u0 / (self._w0 * U)
        if np.any(gap):
            out[gap] = (self.N + np.log(r[gap] / a)) / U
        if np.any(ann):
            kr = self._k * r[ann]
            out[ann] = (self._A * j0(kr) + self._B * y0(kr)) / U
        return out

    def g_evaluate(self, r: np.ndarray | float) -> np.ndarray:
        """Depletion profile g = 1 - f, supported inside R_beta."""
        return 1.0 - self.f_evaluate(r)

    def m_evaluate(self, r: np.ndarray | float) -> np.ndarray:
        """The annular potential itself."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.zeros_like(r)
        out[(r > self.inner_radius) & (r <= self.R_beta)] = self.height
        return out


def _annulus_coeffs(k: float, r1: float, value: float, slope: float) -> tuple[float, float]:
    """Match A*J0(kr) + B*Y0(kr) to (value, slope) at r1."""
    mat = np.array([[j0(k * r1), y0(k * r1)],
                    [-k * j1(k * r1), -k * y1(k * r1)]])
    A, B = np.linalg.solve(mat, np.array([value, slope]))
    return float(A), float(B)


def build_microscopic(potential: RadialPotential, N: int, beta: float) -> MicroscopicPair:
    """Construct the softened pair for particle number N and exponent beta.

    The construction is exact up to Bessel evaluation: the core is the solved
    unscaled state (compressed by the e^N substitution), the force-free gap is
    the continued logarithm N + ln(r/a), and the annulus is a J0/Y0 combination
    matched at the inner edge. The outer radius is the first zero of the radial
    derivative, located by a geometric bracket scan plus brentq. A potential
    whose solved core has no positive terminal slope (a zero potential) raises
    a ValueError that names it.
    """
    N = int(N)
    if N < 2:
        raise ValueError("need N >= 2")
    if beta <= 0:
        raise ValueError("beta must be positive")
    r1 = float(N) ** (-beta)
    core_radius = potential.support_radius * math.exp(-N)
    if core_radius >= r1:
        raise ValueError(
            f"compressed support {core_radius!r} overlaps the annulus hole {r1!r}; "
            "increase N or decrease beta")
    height = 4.0 * math.pi * float(N) ** (-1.0 + 2.0 * beta)

    core = solve_zero_energy(potential, potential.support_radius)
    # Terminal data in the s(0) = 1 normalization of the core solve.
    w0 = core.terminal_slope * potential.support_radius * core.u_end
    u0 = core.u_end
    if w0 <= 0.0:
        raise ValueError(
            f"{potential.description or 'the potential'} has no positive terminal slope "
            f"(w = {w0!r}), so it has no scattering length to soften; the pair needs a "
            "positive potential")
    a = potential.support_radius * math.exp(-u0 / w0)

    k = math.sqrt(2.0 * math.pi) * float(N) ** ((-1.0 + 2.0 * beta) / 2.0)
    L1 = N + math.log(r1 / a)
    if L1 <= 0:
        raise ValueError("gap logarithm is not positive; parameters out of range")
    A, B = _annulus_coeffs(k, r1, L1, 1.0 / r1)

    def u_prime(r: float) -> float:
        return -k * (A * j1(k * r) + B * y1(k * r))

    # Bracket the first derivative zero by geometric scan, then refine.
    scan_r = [r1 * (1.0 + 1e-12)]
    scan_up = [u_prime(scan_r[0])]
    r_hi = scan_r[0]
    while scan_up[-1] > 0.0:
        r_hi *= _SCAN_FACTOR
        if r_hi > r1 * _MAX_SCAN_RATIO:
            raise RuntimeError(
                "no sign change of the radial derivative within the scan range; "
                f"trace has {len(scan_r)} samples up to r = {scan_r[-1]!r}")
        scan_r.append(r_hi)
        scan_up.append(u_prime(r_hi))
    trace = (np.array(scan_r), np.array(scan_up))
    if len(scan_r) == 1:
        raise RuntimeError("derivative already negative at the inner edge")
    R_beta = brentq(u_prime, scan_r[-2], scan_r[-1], xtol=1e-300, rtol=8.9e-16)

    u_at_R = A * j0(k * R_beta) + B * y0(k * R_beta)
    residual = 4.0 * math.pi * R_beta * u_prime(R_beta) / u_at_R
    K_beta = u_at_R / (N + math.log(R_beta / a))

    pair = MicroscopicPair(
        N=N, beta=beta, inner_radius=r1, R_beta=float(R_beta), height=height,
        K_beta=float(K_beta), g_norms=(0.0, 0.0, 0.0),
        scattering_length=a, residual=float(residual), scan_trace=trace,
        base_potential=potential, _k=k, _A=A, _B=B, _u_at_R=float(u_at_R),
        _w0=w0, _core_radius=core_radius, _core_solution=core)

    return dataclasses.replace(pair, g_norms=_g_norms(pair))


def _gap_antideriv_l1(r: np.ndarray, c: float, U: float) -> np.ndarray:
    """Antiderivative of r*(1 - (c + ln r)/U)."""
    L = c + np.log(r)
    return r * r / 2.0 - (r * r / 2.0 * L - r * r / 4.0) / U


def _gap_antideriv_l2(r: np.ndarray, c: float, U: float) -> np.ndarray:
    """Antiderivative of r*(1 - (c + ln r)/U)^2."""
    L = c + np.log(r)
    int_rL = r * r / 2.0 * L - r * r / 4.0
    int_rL2 = r * r / 2.0 * (L * L - L + 0.5)
    return r * r / 2.0 - 2.0 * int_rL / U + int_rL2 / (U * U)


def _annulus_bessel_moments(pair: MicroscopicPair, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Antiderivatives of r*S and r*S^2 for S = A J0 + B Y0."""
    k, A, B = pair._k, pair._A, pair._B
    kr = k * r
    J0v, J1v, Y0v, Y1v = j0(kr), j1(kr), y0(kr), y1(kr)
    first = r / k * (A * J1v + B * Y1v)
    second = r * r / 2.0 * (A * A * (J0v ** 2 + J1v ** 2)
                            + 2.0 * A * B * (J0v * Y0v + J1v * Y1v)
                            + B * B * (Y0v ** 2 + Y1v ** 2))
    return first, second


def _g_norms(pair: MicroscopicPair) -> tuple[float, float, float]:
    """(L1, L2, Linf) of g = 1 - f from piecewise closed forms.

    The core contribution is quadrature in unscaled coordinates (its area is
    e^(-2N), so it only matters because we refuse to drop terms silently).
    """
    U = pair._u_at_R
    a = pair.scattering_length
    c = pair.N - math.log(a)
    rc, r1, R = pair._core_radius, pair.inner_radius, pair.R_beta
    w0 = pair._w0
    core = pair._core_solution
    scale = math.exp(-2.0 * pair.N)

    def core_l1(rho: np.ndarray) -> np.ndarray:
        return rho * (1.0 - core.evaluate(rho) * core.u_end / (w0 * U))

    def core_l2(rho: np.ndarray) -> np.ndarray:
        return rho * (1.0 - core.evaluate(rho) * core.u_end / (w0 * U)) ** 2

    if scale > 0.0:
        core1, _ = piecewise_simpson(core_l1, core.cuts, rtol=1e-12)
        core2, _ = piecewise_simpson(core_l2, core.cuts, rtol=1e-12)
        gap_lo_l1 = _gap_antideriv_l1(np.array([rc]), c, U)[0]
        gap_lo_l2 = _gap_antideriv_l2(np.array([rc]), c, U)[0]
    else:
        # Underflowed core: zero area, and the gap antiderivative has limit 0
        # at the origin (r^2 ln r -> 0).
        core1 = core2 = 0.0
        gap_lo_l1 = gap_lo_l2 = 0.0

    gap1 = _gap_antideriv_l1(np.array([r1]), c, U)[0] - gap_lo_l1
    gap2 = _gap_antideriv_l2(np.array([r1]), c, U)[0] - gap_lo_l2

    ends = np.array([r1, R])
    m1, m2 = _annulus_bessel_moments(pair, ends)
    ann1 = (R * R - r1 * r1) / 2.0 - np.diff(m1)[0] / U
    ann2 = (R * R - r1 * r1) / 2.0 - 2.0 * np.diff(m1)[0] / U + np.diff(m2)[0] / (U * U)

    l1 = 2.0 * math.pi * (scale * core1 + gap1 + ann1)
    l2 = math.sqrt(2.0 * math.pi * (scale * core2 + gap2 + ann2))
    linf = 1.0 - 1.0 / (w0 * U)
    return (float(l1), float(l2), float(linf))


@dataclasses.dataclass(frozen=True)
class GNormReport:
    """Fitted depletion-norm scalings over an N sweep at fixed beta."""
    beta: float
    N_values: np.ndarray
    l1_values: np.ndarray
    l2_values: np.ndarray
    linf_values: np.ndarray
    l1_fit: FitResult
    l2_fit: FitResult


def g_norm_report(pairs: Sequence[MicroscopicPair]) -> GNormReport:
    """Least-squares exponents of the depletion norms after ln N division."""
    if len(pairs) < 4:
        raise ValueError("need at least 4 pairs for a scaling fit")
    betas = {p.beta for p in pairs}
    if len(betas) != 1:
        raise ValueError("all pairs must share beta")
    N = np.array([p.N for p in pairs], dtype=float)
    l1 = np.array([p.g_norms[0] for p in pairs])
    l2 = np.array([p.g_norms[1] for p in pairs])
    linf = np.array([p.g_norms[2] for p in pairs])
    return GNormReport(
        beta=pairs[0].beta, N_values=N, l1_values=l1, l2_values=l2,
        linf_values=linf,
        l1_fit=power_law_fit(N, l1, log_power=1.0),
        l2_fit=power_law_fit(N, l2, log_power=1.0))


def coupling_deviation(pair: MicroscopicPair) -> float:
    """Signed deviation N * ||M f||_1 - 4*pi, from the exact Bessel moments."""
    U = pair._u_at_R
    w_R = -pair._k * pair.R_beta * (pair._A * j1(pair._k * pair.R_beta)
                                    + pair._B * y1(pair._k * pair.R_beta))
    # N*||M f||_1 = 4*pi*N*(1 - R u'(R))/u(R) via the annulus moment identity.
    return 4.0 * math.pi * (pair.N * (1.0 - w_R) - U) / U


def _positivity_nodes(pair: MicroscopicPair, grid_resolution: int) -> np.ndarray:
    rc, r1, R = pair._core_radius, pair.inner_radius, pair.R_beta
    n = max(int(grid_resolution), 16)
    nodes = np.concatenate([
        [0.0],
        np.geomspace(rc / 32.0, rc, n // 3),
        np.geomspace(rc, r1, n),
        np.linspace(r1, R, n // 2),
        np.linspace(R, 2.0 * R, n // 4),
    ])
    return np.unique(nodes)


def _positivity_form(pair: MicroscopicPair, nodes: np.ndarray) -> tuple[float, float]:
    """Smallest eigenvalue of the cut-gradient quadratic form matrix.

    Assembles 2*pi*[int_{r<=R_beta} r psi'^2 + (1/2) int r (V_N - M) psi^2]
    on P1 elements with exact stiffness and 4-point Gauss for the potential
    (exact when the potential is constant per element, which the node
    placement guarantees for well-type potentials). The form matrix is exact
    on its subspace, so it inherits the continuum sign: its smallest plain
    eigenvalue is the reported quantity. A generalized eigenvalue against the
    r-weighted mass would carry 1/(r*h) roundoff amplification near the axis
    and could not certify a 1e-6 floor; the plain eigenvalue keeps roundoff
    at eps * ||form||. Also returns the form value on the interpolated pair
    state (continuum zero mode), an O(h^2) convergence diagnostic.
    """
    from scipy.linalg import eigh

    n = nodes.size
    form = np.zeros((n, n))
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(4)
    gauss_x = 0.5 * (gauss_x + 1.0)
    gauss_w = 0.5 * gauss_w
    N = pair.N
    scale = math.exp(N)

    def combined_potential(r: np.ndarray) -> np.ndarray:
        vals = -pair.m_evaluate(r)
        core = r <= pair._core_radius
        if np.any(core):
            vals[core] += math.exp(2.0 * N) * pair.base_potential(r[core] * scale)
        return vals

    for i in range(n - 1):
        ra, rb = nodes[i], nodes[i + 1]
        h = rb - ra
        if h <= 0:
            continue
        mid = 0.5 * (ra + rb)
        if mid <= pair.R_beta:
            form[i:i + 2, i:i + 2] += mid / h * np.array([[1.0, -1.0], [-1.0, 1.0]])
        rg = ra + h * gauss_x
        vg = combined_potential(rg)
        phi1 = 1.0 - gauss_x
        phi2 = gauss_x
        w = 0.5 * gauss_w * h * rg * vg
        form[i:i + 2, i:i + 2] += np.array(
            [[np.sum(w * phi1 * phi1), np.sum(w * phi1 * phi2)],
             [np.sum(w * phi1 * phi2), np.sum(w * phi2 * phi2)]])

    lam = float(eigh(form, eigvals_only=True, subset_by_index=[0, 0])[0])
    state = pair.f_evaluate(nodes)
    zero_mode = float(state @ form @ state)
    return 2.0 * math.pi * lam, 2.0 * math.pi * zero_mode


def positivity_refinement_study(pair: MicroscopicPair, grid_resolution: int = 100,
                                levels: int = 3) -> tuple[list[float], list[float]]:
    """(eigenvalues, zero-mode form values) under nested midpoint refinement.

    Every eigenvalue must clear the roundoff floor: the pair state extended
    by 1 is a zero mode of the continuum form, and the finite element form is
    its exact restriction. The form value on the interpolated state
    converges to zero at second order. A core below 1e-12 of the inner
    radius is refused, since the radial grid cannot resolve it.
    """
    if pair._core_radius < 1e-12 * pair.inner_radius:
        raise ValueError(f"core radius {pair._core_radius:.3e} is too deep for the radial "
                         f"grid (inner radius {pair.inner_radius:.3e}); use smaller N here")
    nodes = _positivity_nodes(pair, grid_resolution)
    eigs, modes = [], []
    for _ in range(levels):
        lam, mode = _positivity_form(pair, nodes)
        eigs.append(lam)
        modes.append(mode)
        nodes = np.unique(np.concatenate([nodes, 0.5 * (nodes[:-1] + nodes[1:])]))
    return eigs, modes
