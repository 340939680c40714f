"""Scaled potential families and the log-smeared comparison potential.

Three closed-form rescalings of a base radial potential (soft scaling
W(x) -> N^(-1+2b) W(N^b x), exponential compression V(x) -> e^(2Ns) V(e^(Ns) x),
and the annular replacement potential from the scattering layer), plus the
smearing construction: a flat disc U carrying the same total charge as the
soft-scaled potential, and the radial electrostatic comparison h solving
the 2D Poisson equation (1/r)(r h')' = W - U with h = 0 outside the disc.

All norms are computed analytically from base-potential moments, never by
resampling the scaled profile, so charge cancellations hold to roundoff.
The norms of h are radial quadratures of those closed forms: the piece at
the origin in r, every outer piece in ln r.
The base moments (cumulative charge and log moment) are exact closed forms
for piecewise-linear profiles, which covers both built-in constructors;
other callables are treated as piecewise linear between their declared
breakpoints.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import quadrature
from .fitting import FitResult, power_law_fit
from .scattering import MicroscopicPair, RadialPotential, build_microscopic

__all__ = [
    "ScaledPotential",
    "SmearedComparison",
    "SmearedNorms",
    "SmearedNormReport",
    "make_scaled",
    "make_smeared",
    "smeared_norm_report",
    "laplacian_residual",
]


def _gamma_moment(x: np.ndarray) -> np.ndarray:
    """Antiderivative of r*ln(r), zero at zero."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] ** 2 / 2.0 * np.log(x[pos]) - x[pos] ** 2 / 4.0
    return out


def _lambda_moment(x: np.ndarray) -> np.ndarray:
    """Antiderivative of r^2*ln(r), zero at zero."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] ** 3 / 3.0 * np.log(x[pos]) - x[pos] ** 3 / 9.0
    return out


@dataclasses.dataclass(frozen=True)
class _RadialMoments:
    """Exact cumulative moments of a piecewise-linear radial profile.

    charge(x) = int_0^x V(r) r dr and log_moment(x) = int_0^x V(r) r ln(r) dr,
    with both saturating beyond the support. These closed forms are what keep
    the smeared potential's total charge cancellation at roundoff level.
    """
    knots: tuple[float, ...]
    values: tuple[float, ...]
    _slopes: np.ndarray = dataclasses.field(repr=False, default=None)
    _offsets: np.ndarray = dataclasses.field(repr=False, default=None)
    _cum_charge: np.ndarray = dataclasses.field(repr=False, default=None)
    _cum_log: np.ndarray = dataclasses.field(repr=False, default=None)
    _knot_gamma: np.ndarray = dataclasses.field(repr=False, default=None)
    _knot_lambda: np.ndarray = dataclasses.field(repr=False, default=None)

    @staticmethod
    def from_potential(potential: RadialPotential) -> "_RadialMoments":
        knots = np.unique(np.array(
            [0.0, *potential.internal_breakpoints(), potential.support_radius]))
        vals = potential(knots)
        # The support edge itself evaluates inside; keep it that way so a flat
        # disc stays exactly flat across its last piece.
        m = _RadialMoments(knots=tuple(knots), values=tuple(float(v) for v in vals))
        kn = knots
        dv = np.diff(vals)
        dr = np.diff(kn)
        slopes = dv / dr
        offsets = vals[:-1] - slopes * kn[:-1]
        q_pieces = (offsets * (kn[1:] ** 2 - kn[:-1] ** 2) / 2.0
                    + slopes * (kn[1:] ** 3 - kn[:-1] ** 3) / 3.0)
        gam = _gamma_moment(kn)
        lam = _lambda_moment(kn)
        l_pieces = offsets * (gam[1:] - gam[:-1]) + slopes * (lam[1:] - lam[:-1])
        object.__setattr__(m, "_knot_gamma", gam)
        object.__setattr__(m, "_knot_lambda", lam)
        object.__setattr__(m, "_slopes", slopes)
        object.__setattr__(m, "_offsets", offsets)
        object.__setattr__(m, "_cum_charge", np.concatenate([[0.0], np.cumsum(q_pieces)]))
        object.__setattr__(m, "_cum_log", np.concatenate([[0.0], np.cumsum(l_pieces)]))
        return m

    def _piece_index(self, x: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.knots, x, side="right") - 1
        return np.clip(idx, 0, len(self.knots) - 2)

    def charge(self, x: np.ndarray | float) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xc = np.clip(x, 0.0, self.knots[-1])
        i = self._piece_index(xc)
        kn = np.asarray(self.knots)
        return (self._cum_charge[i]
                + self._offsets[i] * (xc ** 2 - kn[i] ** 2) / 2.0
                + self._slopes[i] * (xc ** 3 - kn[i] ** 3) / 3.0)

    def log_moment(self, x: np.ndarray | float) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        xc = np.clip(x, 0.0, self.knots[-1])
        i = self._piece_index(xc)
        return (self._cum_log[i]
                + self._offsets[i] * (_gamma_moment(xc) - self._knot_gamma[i])
                + self._slopes[i] * (_lambda_moment(xc) - self._knot_lambda[i]))

    @property
    def total_charge(self) -> float:
        return float(self._cum_charge[-1])

    @property
    def total_log_moment(self) -> float:
        return float(self._cum_log[-1])


@functools.lru_cache(maxsize=128)
def _base_moments(potential: RadialPotential) -> _RadialMoments:
    return _RadialMoments.from_potential(potential)


@functools.lru_cache(maxsize=128)
def _base_norms(potential: RadialPotential) -> tuple[float, float, float]:
    """(L1, L2, Linf) of the base potential over the plane."""
    cuts = [0.0, *potential.internal_breakpoints(), potential.support_radius]
    l1, _ = quadrature.radial_area_integral(potential, cuts, rtol=1e-13)
    l2sq, _ = quadrature.radial_area_integral(lambda r: potential(r) ** 2, cuts, rtol=1e-13)
    samples = np.concatenate([np.asarray(cuts), np.linspace(0.0, potential.support_radius, 513)])
    linf = float(np.max(potential(samples)))
    return float(l1), math.sqrt(max(l2sq, 0.0)), linf


@dataclasses.dataclass(frozen=True)
class ScaledPotential:
    """A scaled potential family member with analytic norms.

    family is one of "W_beta" (soft scaling), "V_N" (exponential compression,
    generalized by the exponent s), "M_beta" (annular replacement), or
    "U_smeared" (flat disc built by make_smeared). evaluate applies the exact
    argument transformation; the norms are closed forms in the base norms.
    """
    family: str
    base: RadialPotential
    N: int
    beta: float | None
    evaluate: Callable[[np.ndarray], np.ndarray]
    support_radius: float
    norm_l1: float
    norm_l2: float
    norm_inf: float
    beta1: float | None = None
    s: float = 1.0
    pair: MicroscopicPair | None = None
    knots: tuple[float, ...] = ()

    def __call__(self, r: np.ndarray | float) -> np.ndarray:
        return self.evaluate(np.atleast_1d(np.asarray(r, dtype=float)))

    def internal_breakpoints(self) -> tuple[float, ...]:
        return tuple(b for b in self.knots if 0.0 < b < self.support_radius)


def make_scaled(family: str, base: RadialPotential, N: int, beta: float | None = None,
                s: float = 1.0) -> ScaledPotential:
    """Build one member of the scaled potential families.

    The evaluators transform arguments in closed form (no resampling), and
    the norms come from base norms and exact scaling identities; in
    particular N * ||W_beta||_1 equals the base L1 norm to machine precision.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be at least 1")
    l1, l2, linf = _base_norms(base)
    if family == "W_beta":
        if beta is None or beta <= 0:
            raise ValueError("the soft scaling needs beta > 0")
        scale = float(N) ** beta
        amp = float(N) ** (-1.0 + 2.0 * beta)
        return ScaledPotential(
            family=family, base=base, N=N, beta=beta,
            evaluate=lambda r: amp * base(np.asarray(r, dtype=float) * scale),
            support_radius=base.support_radius / scale,
            norm_l1=l1 / N,
            norm_l2=l2 * float(N) ** (-1.0 + beta),
            norm_inf=linf * amp,
            knots=tuple(b / scale for b in base.internal_breakpoints()))
    if family == "V_N":
        scale = math.exp(N * s)
        amp = scale * scale
        return ScaledPotential(
            family=family, base=base, N=N, beta=None, s=s,
            evaluate=lambda r: amp * base(np.asarray(r, dtype=float) * scale),
            support_radius=base.support_radius / scale,
            norm_l1=l1,
            norm_l2=l2 * scale,
            norm_inf=linf * amp,
            knots=tuple(b / scale for b in base.internal_breakpoints()))
    if family == "M_beta":
        if beta is None or beta <= 0:
            raise ValueError("the annular replacement needs beta > 0")
        pair = build_microscopic(base, N=N, beta=beta)
        area = math.pi * (pair.R_beta ** 2 - pair.inner_radius ** 2)
        return ScaledPotential(
            family=family, base=base, N=N, beta=beta, pair=pair,
            evaluate=pair.m_evaluate,
            support_radius=pair.R_beta,
            norm_l1=pair.height * area,
            norm_l2=pair.height * math.sqrt(area),
            norm_inf=pair.height,
            knots=(pair.inner_radius,))
    if family == "U_smeared":
        raise ValueError("the smeared disc is built by make_smeared")
    raise ValueError(f"unknown family {family!r}")


class SmearedNorms(NamedTuple):
    h_inf: float
    h_l1: float
    h_l2: float
    grad_h_l2: float


@dataclasses.dataclass(frozen=True)
class SmearedComparison:
    """Radial comparison potential h with (1/r)(r h')' = W_beta - U.

    h vanishes identically outside the smearing disc (total charge is zero)
    and is nonpositive inside it: the charge difference W - U is positive
    near the origin, so h rises monotonically from its negative minimum at
    r = 0 to the pinned value 0 at the disc edge. Each norm is computed on
    its first read; its integral runs in r on the piece at the origin and
    in ln r on every piece beyond it.
    """
    N: int
    beta: float
    beta1: float
    inner_support: float
    outer_support: float
    charge_residual: float
    charge_knots: tuple[float, ...] = ()
    h_evaluate: Callable[[np.ndarray], np.ndarray] = dataclasses.field(repr=False, default=None)
    grad_evaluate: Callable[[np.ndarray], np.ndarray] = dataclasses.field(repr=False, default=None)
    rho_evaluate: Callable[[np.ndarray], np.ndarray] = dataclasses.field(repr=False, default=None)

    def _cuts(self) -> list[float]:
        """Quadrature breakpoints: the origin, the charge knots and both supports."""
        return sorted(set([0.0, *self.charge_knots, self.inner_support, self.outer_support]))

    def _area_integral(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """2*pi int r f(r) dr, piece by piece between the cuts.

        The piece at the origin is integrated in r; every other piece is
        integrated in s = ln r as int r^2 f(e^s) ds: beyond the potential
        support r |h'|^2 falls like 1/r, which is flat in s, while in r the
        outer piece spans three decades at large N.
        """
        def in_log(s: np.ndarray) -> np.ndarray:
            r = np.exp(s)
            return r * r * np.asarray(f(r), dtype=float)

        cuts = self._cuts()
        inner, _ = quadrature.radial_area_integral(f, cuts[:2], rtol=1e-11)
        outer, _ = quadrature.piecewise_simpson(in_log, [math.log(c) for c in cuts[1:]],
                                                rtol=1e-11)
        return float(inner + 2.0 * np.pi * outer)

    @functools.cached_property
    def h_inf(self) -> float:
        r_dense = np.unique(np.concatenate([
            [0.0], np.geomspace(max(self.inner_support * 1e-3, 1e-300), self.outer_support, 1024),
            self._cuts()]))
        return float(np.max(np.abs(self.h_evaluate(r_dense))))

    @functools.cached_property
    def h_l1(self) -> float:
        return self._area_integral(lambda r: np.abs(self.h_evaluate(r)))

    @functools.cached_property
    def h_l2(self) -> float:
        return math.sqrt(max(self._area_integral(lambda r: self.h_evaluate(r) ** 2), 0.0))

    @functools.cached_property
    def grad_h_l2(self) -> float:
        return math.sqrt(max(self._area_integral(lambda r: self.grad_evaluate(r) ** 2), 0.0))

    @property
    def norms(self) -> SmearedNorms:
        return SmearedNorms(self.h_inf, self.h_l1, self.h_l2, self.grad_h_l2)


def make_smeared(w_beta: ScaledPotential, beta1: float) -> tuple[ScaledPotential, SmearedComparison]:
    """Flat-disc smearing of a soft-scaled potential and its comparison h.

    The disc has radius N^(-beta1) and height ||W_beta||_1 N^(2*beta1) / pi,
    so the total charge of rho = W_beta - U vanishes by construction (checked;
    a nonzero residual is a construction error). h comes from the radial
    closed form h(r) = ln(r) int_0^r rho s ds + int_r^inf ln(s) rho s ds,
    which solves the 2D Poisson equation with h = 0 outside the disc.
    """
    if w_beta.family != "W_beta":
        raise ValueError("smearing applies to the soft-scaled family only")
    N = w_beta.N
    beta = w_beta.beta
    if not 0.0 <= beta1 <= beta:
        raise ValueError("need 0 <= beta1 <= beta")
    r_u = float(N) ** (-beta1)
    r_w = w_beta.support_radius
    if r_w > r_u:
        raise ValueError(
            f"smearing disc {r_u!r} does not cover the potential support {r_w!r}; "
            "increase N or the exponent gap")

    moments = _base_moments(w_beta.base)
    n_inv = 1.0 / float(N)
    w_scale = float(N) ** beta
    beta_log = beta * math.log(N)
    total_charge = n_inv * moments.total_charge  # int_0^inf W_beta(s) s ds
    # Nominally ||W_beta||_1 N^(2 beta1) / pi; written against r_u^2 directly
    # so the disc charge cancels total_charge to the last bit.
    u_val = 2.0 * total_charge / (r_u * r_u)

    def charge_w(r: np.ndarray) -> np.ndarray:
        return n_inv * moments.charge(np.asarray(r, dtype=float) * w_scale)

    def tail_log_w(x: np.ndarray, charge_x: np.ndarray) -> np.ndarray:
        """int_r^inf ln(s) W_beta(s) s ds at x = r N^beta, given moments.charge(x)."""
        q_tail = moments.total_charge - charge_x
        l_tail = moments.total_log_moment - moments.log_moment(x)
        return n_inv * (l_tail - beta_log * q_tail)

    def charge_u(r: np.ndarray) -> np.ndarray:
        rc = np.minimum(np.asarray(r, dtype=float), r_u)
        return u_val * rc * rc / 2.0

    gamma_u = _gamma_moment(np.array([r_u]))[0]

    def tail_log_u(r: np.ndarray) -> np.ndarray:
        rc = np.minimum(np.asarray(r, dtype=float), r_u)
        return u_val * (gamma_u - _gamma_moment(rc))

    def h_evaluate(r: np.ndarray | float) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        x = r * w_scale
        charge_x = moments.charge(x)
        q = n_inv * charge_x - charge_u(r)
        t = tail_log_w(x, charge_x) - tail_log_u(r)
        out = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)) * q, 0.0) + t
        return out

    def grad_evaluate(r: np.ndarray | float) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        q = charge_w(r) - charge_u(r)
        return np.divide(q, r, out=np.zeros_like(q), where=r > 0.0)

    def rho_evaluate(r: np.ndarray | float) -> np.ndarray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        return w_beta.evaluate(r) - u_val * (r < r_u)

    charge_residual = 2.0 * math.pi * float(charge_w(np.array([r_u]))[0]
                                            - charge_u(np.array([r_u]))[0])
    if abs(charge_residual) > 1e-12 * max(2.0 * math.pi * total_charge, 1e-300):
        raise RuntimeError(
            f"smeared disc fails to cancel the total charge: residual {charge_residual!r}")

    u_pot = ScaledPotential(
        family="U_smeared", base=w_beta.base, N=N, beta=beta, beta1=beta1,
        evaluate=lambda r: u_val * (np.atleast_1d(np.asarray(r, dtype=float)) < r_u),
        support_radius=r_u,
        norm_l1=u_val * math.pi * r_u * r_u,
        norm_l2=u_val * math.sqrt(math.pi) * r_u,
        norm_inf=u_val)

    scaled_knots = np.asarray(moments.knots) / w_scale
    comparison = SmearedComparison(
        N=N, beta=beta, beta1=beta1, inner_support=r_w, outer_support=r_u,
        charge_residual=charge_residual, charge_knots=tuple(float(k) for k in scaled_knots),
        h_evaluate=h_evaluate, grad_evaluate=grad_evaluate, rho_evaluate=rho_evaluate)
    return u_pot, comparison


def laplacian_residual(comparison: SmearedComparison, n_points: int = 512,
                       exclusion_width: float | None = None) -> float:
    """Max-norm residual of the discrete radial Laplacian against the charge.

    Centered second differences of h on a uniform grid, compared to
    W_beta - U at interior points away from the charge discontinuities
    (potential edges and knots). exclusion_width is the half-width of the
    skipped band around each discontinuity; it defaults to 2.5 spacings, but
    refinement studies must pass one fixed width so successive grids are
    measured on the same physical point set (the residual near a kept point
    at distance w from a log-kernel edge scales like dr^2 / (edge + w)^4, so
    a width that shrinks with dr contaminates the halving ratio).
    """
    r_max = comparison.outer_support * 1.02
    r = np.linspace(0.0, r_max, int(n_points) + 1)
    dr = r[1] - r[0]
    width = 2.5 * dr if exclusion_width is None else float(exclusion_width)
    h = comparison.h_evaluate(r)
    lap = np.full_like(r, np.nan)
    lap[1:-1] = ((h[2:] - 2.0 * h[1:-1] + h[:-2]) / dr ** 2
                 + (h[2:] - h[:-2]) / (2.0 * dr * r[1:-1]))
    rho = comparison.rho_evaluate(r)
    keep = np.isfinite(lap)
    keep &= r > max(1.5 * dr, width)
    edges = [comparison.inner_support, comparison.outer_support, *comparison.charge_knots]
    for edge in edges:
        keep &= np.abs(r - edge) > width
    return float(np.max(np.abs(lap[keep] - rho[keep])))


@dataclasses.dataclass(frozen=True)
class SmearedNormReport:
    """Fitted scalings of the comparison-potential norms over an N sweep."""
    beta: float
    beta1: float
    N_values: np.ndarray
    h_inf: np.ndarray
    h_l1: np.ndarray
    h_l2: np.ndarray
    grad_h_l2: np.ndarray
    h0_l2: np.ndarray
    h_inf_fit: FitResult
    h_l1_fit: FitResult
    h_l2_fit: FitResult
    grad_h_l2_fit: FitResult
    h0_l2_fit: FitResult
    gradient_bound_constants: np.ndarray


def smeared_norm_report(base: RadialPotential, N_values: Sequence[int], beta: float,
                        beta1: float) -> SmearedNormReport:
    """Norm scalings of h over an N sweep, with declared log factors divided out.

    The sup norm carries an ln N factor and the gradient norm a sqrt(ln N)
    factor; the integral norms saturate their logs, so those fits run on raw
    values. Also sweeps the beta1 = 0 companion for its pure N^(-1) L2 law,
    and reports the observed constant of the pointwise gradient bound
    |h'(r)| <= C N^(-1) (r^2 + N^(-2 beta))^(-1/2).
    """
    if len(N_values) < 4:
        raise ValueError("need at least 4 values of N")
    rows = {"h_inf": [], "h_l1": [], "h_l2": [], "grad_h_l2": [], "h0_l2": []}
    grad_consts = []
    for N in N_values:
        w = make_scaled("W_beta", base, N=N, beta=beta)
        _, comp = make_smeared(w, beta1)
        rows["h_inf"].append(comp.h_inf)
        rows["h_l1"].append(comp.h_l1)
        rows["h_l2"].append(comp.h_l2)
        rows["grad_h_l2"].append(comp.grad_h_l2)
        _, comp0 = make_smeared(w, 0.0)
        rows["h0_l2"].append(comp0.h_l2)
        r = np.geomspace(comp.outer_support * 1e-6, comp.outer_support, 2048)
        ratio = np.abs(comp.grad_evaluate(r)) * N * np.sqrt(
            r * r + float(N) ** (-2.0 * beta))
        grad_consts.append(float(np.max(ratio)))
    Ns = np.asarray(N_values, dtype=float)
    return SmearedNormReport(
        beta=beta, beta1=beta1, N_values=Ns,
        h_inf=np.asarray(rows["h_inf"]),
        h_l1=np.asarray(rows["h_l1"]),
        h_l2=np.asarray(rows["h_l2"]),
        grad_h_l2=np.asarray(rows["grad_h_l2"]),
        h0_l2=np.asarray(rows["h0_l2"]),
        h_inf_fit=power_law_fit(Ns, np.asarray(rows["h_inf"]), log_power=1.0),
        h_l1_fit=power_law_fit(Ns, np.asarray(rows["h_l1"]), log_power=0.0),
        h_l2_fit=power_law_fit(Ns, np.asarray(rows["h_l2"]), log_power=0.0),
        grad_h_l2_fit=power_law_fit(Ns, np.asarray(rows["grad_h_l2"]), log_power=0.5),
        h0_l2_fit=power_law_fit(Ns, np.asarray(rows["h0_l2"]), log_power=0.0),
        gradient_bound_constants=np.asarray(grad_consts))
