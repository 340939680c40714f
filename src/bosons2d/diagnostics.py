"""Condensation-counting diagnostics for few-boson lattice states.

A normalized reference field on the lattice defines a rank-one projector
per particle. One Householder reflection per particle axis takes a state to
the product basis in which every one of those projectors is diagonal; there
the number of particles outside the reference field is the number of
nonzero indices, and its distribution is a sum of squared amplitudes.
Nonnegative weights of that count turn the distribution into counting
functionals that, together with an energy gap and an optional short-range
correlation correction, quantify how far the exact few-body dynamics strays
from its mean-field surrogate. `diagnostics_report` computes all of them
for one snapshot from one reflected copy of the state and the run's
`DiscreteHamiltonian`, and `alpha_full` reads it. The module also
provides the one-particle reduced density matrix and trace distance, an exact
time-derivative identity relating the counting functional's rate to a
commutator expectation, and a seeded verification suite for the projector
and weight operator algebra. `dense_operator` is re-exported from `fewbody`
because the benchmark's tracer wraps it by name on this module.

All operators act on the same periodic lattice as the exact propagator, so
every identity that is pure projector algebra holds to roundoff here, not
just asymptotically.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Sequence

import numpy as np
import scipy.fft

from .fewbody import (
    DiscreteHamiltonian,
    FewBodyState,
    Lattice2D,
    _on_particles,
    _pair_site_table,
    build_hamiltonian,
    dense_matrix,
    dense_operator,
    energy_per_particle,
)
from .gp import ExternalField, _finite_dt, _mean_field_energy, _strang

__all__ = [
    "CondensateProjector",
    "WeightFunction",
    "number_weight",
    "counting_weight",
    "dense_operator",
    "gamma1",
    "trace_distance",
    "NumberExpectations",
    "number_expectations",
    "weight_expectation",
    "mean_field_energy",
    "mean_field_step",
    "AlphaFullResult",
    "alpha_full",
    "DiagnosticsReport",
    "diagnostics_report",
    "RateComparison",
    "ddt_weight_identity",
    "CheckResult",
    "OperatorAlgebraReport",
    "operator_algebra_suite",
]

EFFECTIVE_COUPLING = 4.0 * math.pi
_REFLECT_BLOCK = 1 << 13  # entries per rank-1 update block: 128 KB of complex128


@dataclasses.dataclass(frozen=True)
class CondensateProjector:
    """Rank-one projector pair (p, q = 1 - p) for a lattice reference field.

    The field is renormalized exactly on construction so that p is
    idempotent to roundoff. Matrix forms act on flattened site vectors with
    the plain matmul convention; the lattice cell measure is folded into
    the matrices themselves.
    """
    lattice: Lattice2D
    phi: np.ndarray

    def __post_init__(self) -> None:
        phi = np.asarray(self.phi, dtype=np.complex128)
        if phi.shape != (self.lattice.m, self.lattice.m):
            raise ValueError("reference field must be an (m, m) lattice array")
        nrm = math.sqrt(float(np.sum(np.abs(phi) ** 2)) * self.cell)
        if not math.isfinite(nrm) or abs(nrm - 1.0) > 1e-6:
            raise ValueError("reference field must have unit lattice norm")
        object.__setattr__(self, "phi", phi / nrm)

    @property
    def cell(self) -> float:
        return self.lattice.spacing ** 2

    @property
    def p_matrix(self) -> np.ndarray:
        flat = self.phi.ravel()
        return self.cell * np.outer(flat, np.conjugate(flat))

    @property
    def q_matrix(self) -> np.ndarray:
        return np.eye(self.lattice.d) - self.p_matrix

    def apply_p(self, amplitudes: np.ndarray, particle: int) -> np.ndarray:
        """Project the given particle axis onto the reference field."""
        flat = self.phi.ravel()
        inner = np.tensordot(np.conjugate(flat), amplitudes,
                             axes=([0], [particle])) * self.cell
        return np.moveaxis(np.multiply.outer(flat, inner), 0, particle)

    def apply_q(self, amplitudes: np.ndarray, particle: int) -> np.ndarray:
        return amplitudes - self.apply_p(amplitudes, particle)


@dataclasses.dataclass(frozen=True)
class WeightFunction:
    """Weight sequence w(0..N) defining the operator sum_k w(k) P_k.

    P_k projects onto configurations with exactly k particles outside the
    reference field; shifting reindexes the weight, with counts whose
    source index falls outside 0..N receiving weight zero.
    """
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need one weight per count 0..N with N >= 1")
        if not np.all(np.isfinite(vals)):
            raise ValueError("weights must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def n_particles(self) -> int:
        return self.values.size - 1

    def shifted(self, d: int) -> "WeightFunction":
        """Weight k -> w(k + d), zero where k + d falls outside 0..N."""
        n = self.n_particles
        source = np.arange(n + 1) + int(d)
        inside = (source >= 0) & (source <= n)
        vals = np.zeros(n + 1)
        vals[inside] = self.values[source[inside]]
        return WeightFunction(vals)

    def operator_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def product(self, other: "WeightFunction") -> "WeightFunction":
        if other.n_particles != self.n_particles:
            raise ValueError("weights must share the particle count")
        return WeightFunction(self.values * other.values)


def _counting_formula(k: np.ndarray, n_particles: int, xi: float) -> np.ndarray:
    """Square-root count weight, flattened to an affine ramp below the
    crossover count N^(1-2*xi); both branches meet at value N^(-xi)."""
    k = np.asarray(k, dtype=float)
    n = float(n_particles)
    crossover = n ** (1.0 - 2.0 * xi)
    ramp = 0.5 * (n ** (-1.0 + xi) * k + n ** (-xi))
    return np.where(k >= crossover, np.sqrt(k / n), ramp)


def _check_xi(xi: float) -> float:
    xi = float(xi)
    if not (0.0 < xi < 0.5):
        raise ValueError("xi must lie strictly between 0 and 1/2")
    return xi


def number_weight(n_particles: int) -> WeightFunction:
    """w(k) = sqrt(k/N): the square root of the relative count outside."""
    k = np.arange(n_particles + 1, dtype=float)
    return WeightFunction(np.sqrt(k / n_particles))


def counting_weight(n_particles: int, xi: float = 0.25) -> WeightFunction:
    """The flattened count weight used by the counting functionals."""
    xi = _check_xi(xi)
    k = np.arange(n_particles + 1)
    return WeightFunction(_counting_formula(k, n_particles, xi))


def counting_difference(n_particles: int, gap: int, xi: float = 0.25) -> WeightFunction:
    """w(k) = m(k) - m(k + gap) with m continued by its formula beyond N."""
    xi = _check_xi(xi)
    if gap not in (1, 2):
        raise ValueError("gap must be 1 or 2")
    k = np.arange(n_particles + 1)
    vals = (_counting_formula(k, n_particles, xi)
            - _counting_formula(k + gap, n_particles, xi))
    return WeightFunction(vals)


def _reflect(tensor: np.ndarray, vector: np.ndarray, beta: float) -> np.ndarray:
    """Apply R = 1 - beta v v^H along every axis of a C-contiguous tensor,
    in place, as one rank-1 update per axis; returns the tensor.

    Each update runs over blocks of about _REFLECT_BLOCK entries, so the
    block and its rank-1 term stay in cache between the product and the
    subtraction.
    """
    d = vector.size
    row = beta * np.conjugate(vector)
    for axis in range(tensor.ndim):
        view = tensor.reshape(d ** axis, d, -1)
        width = min(view.shape[2], max(1, _REFLECT_BLOCK // d))
        rows = max(1, _REFLECT_BLOCK // (d * width))
        for i in range(0, view.shape[0], rows):
            for k in range(0, view.shape[2], width):
                block = view[i:i + rows, :, k:k + width]
                block -= vector[:, None] * np.matmul(row, block)[:, None, :]
    return tensor


@dataclasses.dataclass(frozen=True)
class _CountBasis:
    """Amplitudes in the product basis that diagonalizes every p_j.

    R = 1 - beta v v^H with v = f + (f_0 / |f_0|) e_0 (v = f + e_0 when
    f_0 = 0) is the Householder reflection that maps f = phi sqrt(cell), the
    reference field as a unit l2 vector, to a unit multiple of e_0. It is
    Hermitian and its own inverse, so R p R keeps index 0 alone. With R
    along every axis, p_j keeps index 0 of axis j, the count of particles
    outside the reference field is the number of nonzero indices (counts),
    and P_k = R^{(x)N} 1[count = k] R^{(x)N}. reflected is R^{(x)N} Psi.
    """
    reflected: np.ndarray
    counts: np.ndarray
    vector: np.ndarray
    beta: float

    def back(self, tensor: np.ndarray) -> np.ndarray:
        """R^{(x)N} applied in place to a C-contiguous count-basis tensor."""
        return _reflect(tensor, self.vector, self.beta)

    def weighted(self, values: np.ndarray) -> np.ndarray:
        """sum_k w(k) P_k Psi: the weights act on the count, then R maps back."""
        return self.back(self.reflected * np.asarray(values)[self.counts])

    def distribution(self) -> np.ndarray:
        """Plain l2 weight sum_{count = k} |R^{(x)N} Psi|^2 of each count k."""
        return np.bincount(self.counts.ravel(), np.abs(self.reflected.ravel()) ** 2,
                           minlength=self.reflected.ndim + 1)


def _count_basis(amplitudes: np.ndarray, projector: CondensateProjector) -> _CountBasis:
    """Reflect a copy of the amplitudes into the count basis of the projector."""
    f = projector.phi.ravel() * math.sqrt(projector.cell)
    vector = f.copy()
    vector[0] += f[0] / abs(f[0]) if f[0] != 0 else 1.0
    beta = 2.0 / float(np.vdot(vector, vector).real)
    outside = (np.arange(vector.size) != 0).astype(np.intp)
    counts = outside
    for _ in range(amplitudes.ndim - 1):
        counts = np.add.outer(counts, outside)
    reflected = _reflect(np.array(amplitudes, dtype=np.complex128, order="C"), vector, beta)
    return _CountBasis(reflected, counts, vector, beta)


def count_components(amplitudes: np.ndarray,
                     projector: CondensateProjector) -> tuple[np.ndarray, ...]:
    """Split amplitudes into the N + 1 fixed-count components.

    Component k keeps the amplitudes of count k in the count basis and
    reflects them back: one reflection of the amplitudes, then one per
    component, each a rank-1 update along every particle axis.
    """
    basis = _count_basis(amplitudes, projector)
    return tuple(basis.weighted(indicator) for indicator in np.eye(amplitudes.ndim + 1))


def apply_weight(amplitudes: np.ndarray, projector: CondensateProjector,
                 weight: WeightFunction) -> np.ndarray:
    """Apply the weighted sum of count projections to raw amplitudes."""
    if weight.n_particles != amplitudes.ndim:
        raise ValueError("weight length must match the particle count")
    return _count_basis(amplitudes, projector).weighted(weight.values)


def apply_pair_table(amplitudes: np.ndarray, site_pairs: np.ndarray) -> np.ndarray:
    """Multiply by a (d, d) site-pair table T(x_0, x_1) on particles 0 and 1;
    `_pair_site_table` lays an (m, m) displacement table out that way."""
    return amplitudes * _on_particles(site_pairs, (0, 1), amplitudes.ndim)


def spectral_gradient(amplitudes: np.ndarray, lattice: Lattice2D,
                      particle: int) -> np.ndarray:
    """Both gradient components of one particle axis, leading axis of 2."""
    m, n = lattice.m, amplitudes.ndim
    psi = amplitudes.reshape((m,) * (2 * n))
    k = lattice.wavenumbers()
    out = np.empty((2,) + psi.shape, dtype=np.complex128)
    for component in range(2):
        axis = 2 * particle + component
        shape = [1] * (2 * n)
        shape[axis] = m
        psi_hat = scipy.fft.fft(psi, axis=axis)
        out[component] = scipy.fft.ifft(1j * k.reshape(shape) * psi_hat, axis=axis)
    return out.reshape((2,) + amplitudes.shape)


def gamma1(state: FewBodyState) -> np.ndarray:
    """One-particle reduced density matrix of a normalized symmetric state.

    Returned as a d x d Hermitian PSD matrix with unit plain trace, in the
    same matmul convention as the projector matrices, so a pure product
    state gives exactly the projector onto its factor.
    """
    d = state.lattice.d
    cell = state.lattice.spacing ** 2
    stacked = state.amplitudes.reshape(d, -1)
    return (stacked @ stacked.conj().T) * cell ** state.n_particles


def trace_distance(gamma: np.ndarray, projector: CondensateProjector) -> float:
    """Half the absolute-eigenvalue sum of gamma minus the rank-one reference."""
    eigenvalues = np.linalg.eigvalsh(gamma - projector.p_matrix)
    return 0.5 * float(np.sum(np.abs(eigenvalues)))


@dataclasses.dataclass(frozen=True)
class NumberExpectations:
    """Distribution of the count outside the reference field and its moments.

    n_square holds the distribution-weighted second moment of sqrt(k/N);
    n_square_from_gamma recomputes it as the depleted fraction
    1 - <reference|gamma|reference>, an independent route that must agree.
    """
    distribution: np.ndarray
    n_expect: float
    n_square: float
    n_square_from_gamma: float


def _count_distribution(state: FewBodyState, projector: CondensateProjector
                        ) -> tuple[_CountBasis, np.ndarray]:
    """The state in the count basis and P(k) = <Psi, P_k Psi>, a sum of
    squares and so nonnegative."""
    if state.lattice != projector.lattice:
        raise ValueError(f"state lives on {state.lattice} but the projector "
                         f"on {projector.lattice}")
    basis = _count_basis(state.amplitudes, projector)
    return basis, basis.distribution() * projector.cell ** state.n_particles


def _relative_moments(distribution: np.ndarray) -> tuple[float, float]:
    """Distribution-weighted means of sqrt(k/N) and k/N."""
    ratio = np.arange(distribution.size) / (distribution.size - 1)
    return float(np.sum(np.sqrt(ratio) * distribution)), float(np.sum(ratio * distribution))


def number_expectations(state: FewBodyState,
                        projector: CondensateProjector) -> NumberExpectations:
    """Count distribution P(k) plus first and second relative moments."""
    _, distribution = _count_distribution(state, projector)
    n_expect, n_square = _relative_moments(distribution)
    gamma = gamma1(state)
    flat = projector.phi.ravel()
    occupied = float(np.real(np.vdot(flat, gamma @ flat))) * projector.cell
    return NumberExpectations(distribution, n_expect, n_square, 1.0 - occupied)


def weight_expectation(state: FewBodyState, projector: CondensateProjector,
                       weight: WeightFunction) -> float:
    """Expectation of the weighted count operator."""
    if weight.n_particles != state.n_particles:
        raise ValueError("weight length must match the particle count")
    _, distribution = _count_distribution(state, projector)
    return float(np.sum(weight.values * distribution))


def _field_on_lattice(phi: np.ndarray, lattice: Lattice2D,
                      field_values: np.ndarray | None) -> np.ndarray:
    """The external table for phi, zero when none is given; phi and the
    table must both be (m, m) lattice samples."""
    shape = (lattice.m, lattice.m)
    for name, table in (("phi", phi), ("field_values", field_values)):
        if table is not None and np.shape(table) != shape:
            raise ValueError(f"{name} must have the lattice shape {shape}, "
                             f"got {np.shape(table)}")
    return np.zeros(shape) if field_values is None else field_values


def mean_field_energy(phi: np.ndarray, lattice: Lattice2D, coupling: float,
                      field_values: np.ndarray | None = None) -> float:
    """Mean-field energy of a lattice field with the spectral kinetic term."""
    return _mean_field_energy(phi, lattice, coupling,
                              _field_on_lattice(phi, lattice, field_values))


def mean_field_step(phi: np.ndarray, lattice: Lattice2D, coupling: float,
                    field_values: np.ndarray | None = None, dt: float = 1e-3) -> np.ndarray:
    """One real-time step of the cubic mean-field equation on the lattice,
    by the splitting `gp.step` uses, with the table held static."""
    a_now = _field_on_lattice(phi, lattice, field_values)
    return _strang(phi, lattice, coupling, a_now, a_now, 1j * _finite_dt(dt))


def _projected_pair_terms(state: FewBodyState, projector: CondensateProjector
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p1 p2, p1 q2, q1 p2) projections of the amplitudes."""
    p0 = projector.apply_p(state.amplitudes, 0)
    pp = projector.apply_p(p0, 1)
    pq = p0 - pp
    p1 = projector.apply_p(state.amplitudes, 1)
    qp = p1 - pp
    return pp, pq, qp


def _apply_pair_weighted(basis: _CountBasis, xi: float) -> np.ndarray:
    """The correlation-weighted projection combination on the state in
    basis: the two-step count difference on p1 p2 Psi, the one-step one on
    (p1 q2 + q1 p2) Psi. Every P_k commutes with every p_j, so the weights
    act on the count; in the count basis p1 p2, p1 q2 and q1 p2 keep the
    slices [0, 0], [0, 1:] and [1:, 0] of the first two axes, and one
    reflection maps the three slices back."""
    n = basis.reflected.ndim
    w_one = counting_difference(n, 1, xi).values
    w_two = counting_difference(n, 2, xi).values
    out = np.zeros_like(basis.reflected)
    for index, values in (((0, 0), w_two), ((0, slice(1, None)), w_one),
                          ((slice(1, None), 0), w_one)):
        out[index] = values[basis.counts[index]] * basis.reflected[index]
    return basis.back(out)


@dataclasses.dataclass(frozen=True)
class AlphaFullResult:
    """Counting functional with the short-range correlation correction.

    correction_term is the signed additive contribution (the definition
    subtracts the real part of the pair-depletion overlap); when the
    lattice cannot resolve the depletion profile the correction is dropped
    and used_correction is False, leaving the plain counting functional.
    """
    value: float
    m_expect: float
    energy_gap: float
    correction_term: float
    used_correction: bool


def alpha_full(state: FewBodyState, projector: CondensateProjector,
               interaction: Callable[[np.ndarray], np.ndarray] | None,
               micro, field: ExternalField | None = None,
               xi: float = 0.25,
               hamiltonian: DiscreteHamiltonian | None = None) -> AlphaFullResult:
    """Counting functional for the exponentially scaled pair potential.

    micro supplies the depletion profile g = 1 - f of the softened pair
    construction; the effective mean-field coupling is fixed at 4*pi by
    the scattering normalization of that scaling. The result is read from
    `diagnostics_report` at that coupling, under hamiltonian or, when none
    is given, under one built from interaction and field at the state's time.
    """
    if hamiltonian is None:
        hamiltonian = build_hamiltonian(state.lattice, state.n_particles,
                                        interaction, field, t=state.time)
    report = diagnostics_report(state, projector, hamiltonian, EFFECTIVE_COUPLING, micro, xi)
    return AlphaFullResult(report.alpha_full, report.m_expect, report.energy_gap,
                           report.correction_term, report.used_correction)


@dataclasses.dataclass(frozen=True)
class DiagnosticsReport:
    """Bundle of condensation diagnostics for one state snapshot."""
    gamma1: np.ndarray
    trace_distance: float
    n_expect: float
    n_square: float
    m_expect: float
    energy_gap: float
    alpha_less: float
    alpha_full: float | None
    correction_term: float
    used_correction: bool


def diagnostics_report(state: FewBodyState, projector: CondensateProjector,
                       hamiltonian: DiscreteHamiltonian, coupling: float = 0.0,
                       micro=None, xi: float = 0.25) -> DiagnosticsReport:
    """All condensation diagnostics of one state snapshot, in one pass.

    One reflection of the state into the count basis gives the count
    distribution and, with one reflection back, the correction's
    pair-weighted vector. hamiltonian, which must live on the state's
    lattice and particle count, serves every energy gap: its energy per
    particle is taken once, and the mean-field term reads its field table,
    so both terms see one A. The energy gap and the plain counting
    functional (alpha_less) use the supplied coupling. With micro given,
    the correlation-corrected functional is evaluated at the fixed effective
    coupling of the exponential scaling; the correction is dropped when the
    lattice cannot resolve the depletion profile.
    """
    n, lattice = state.n_particles, state.lattice
    if hamiltonian.lattice != lattice or hamiltonian.n_particles != n:
        raise ValueError("state and Hamiltonian live on different spaces")
    if micro is not None and n < 2:
        raise ValueError("need at least two particles for the pair correction")
    basis, distribution = _count_distribution(state, projector)
    n_expect, n_square = _relative_moments(distribution)
    m_expect = float(np.sum(counting_weight(n, xi).values * distribution))
    many, a_now = energy_per_particle(state, hamiltonian), hamiltonian.external_field
    gap_at = lambda c: abs(many - mean_field_energy(projector.phi, lattice, c, a_now))
    gap = gap_at(coupling)
    gamma = gamma1(state)
    full, correction, used = None, 0.0, False
    if micro is not None:
        used = bool(micro.R_beta >= lattice.spacing)
        if used:
            g_table = micro.g_evaluate(lattice.minimum_image_distances().ravel()
                                       ).reshape(lattice.m, lattice.m)
            overlap = np.vdot(state.amplitudes, apply_pair_table(
                _apply_pair_weighted(basis, xi), _pair_site_table(lattice.m, g_table)))
            correction = -n * (n - 1) * float(np.real(overlap)) * projector.cell ** n
        full = m_expect + gap_at(EFFECTIVE_COUPLING) + correction
    return DiagnosticsReport(gamma, trace_distance(gamma, projector), n_expect,
                             n_square, m_expect, gap, m_expect + gap, full,
                             correction, used)


@dataclasses.dataclass(frozen=True)
class RateComparison:
    """Two routes to the rate of change of the weighted count expectation.

    finite_difference propagates both the state and the reference field by
    a centered half step each way; commutator is the analytic expectation
    of the interaction-minus-mean-field commutator with the weight
    operator. projected rewrites the commutator through the pair
    projections, and split_parts is its exact three-term decomposition
    (singly-projected, doubly-complemented with the bare pair potential,
    and doubly-complemented cross term).
    """
    finite_difference: float
    commutator: float
    projected: float
    split_parts: tuple[float, float, float]
    residual: float


def ddt_weight_identity(state: FewBodyState, projector: CondensateProjector,
                        interaction: Callable[[np.ndarray], np.ndarray] | None,
                        coupling: float, field: ExternalField | None = None,
                        dt: float = 1e-4, xi: float = 0.25) -> RateComparison:
    """Compare the finite-difference rate of the weighted count expectation
    with the exact commutator identity.

    Both generators are frozen at the state's time: the state advances
    under the lattice pair Hamiltonian, the reference field under the
    cubic mean-field flow with the same static external table, so the
    identity is exact up to the O(dt^2) differencing error.

    The state steps by one real eigendecomposition of `dense_matrix`,
    shared by the +dt and -dt steps, so the dimension d^N may not exceed
    4096 (`dense_matrix` raises above it).
    The Chebyshev series of `propagate` would take a different number of
    terms at each dt, and the benchmark's traced `algebra_verify`, which
    cycles dt through 2e-4, 1e-4 and 5e-5, requires every pass to repeat
    the counts of the first.
    """
    n = state.n_particles
    if n < 2:
        raise ValueError("the pair commutator needs at least two particles")
    defect = state.symmetry_defect()
    if defect > 1e-8:
        raise ValueError(
            f"state must be exchange symmetric, defect {defect:.3e}")
    lattice = state.lattice
    cell_n = projector.cell ** n
    hamiltonian = build_hamiltonian(lattice, n, interaction, field,
                                    t=state.time)
    weight = counting_weight(n, xi)
    # The state as (dim, 2) real and imaginary columns: both basis changes are real products.
    w, v = np.linalg.eigh(dense_matrix(hamiltonian))
    parts = np.ascontiguousarray(state.amplitudes).reshape(-1, 1)
    eigen_coeffs = (v.T @ parts.view(np.float64)).view(np.complex128)

    def expectation(shifted: float) -> float:
        coeffs = eigen_coeffs * np.exp(-1j * shifted * w)[:, None]
        moved = FewBodyState(lattice, (v @ coeffs.view(np.float64)).view(np.complex128)
                             .reshape(state.amplitudes.shape))
        phi_t = mean_field_step(projector.phi, lattice, coupling,
                                hamiltonian.external_field, dt=shifted)
        return weight_expectation(moved, CondensateProjector(lattice, phi_t),
                                  weight)

    fd_rate = (expectation(dt) - expectation(-dt)) / (2.0 * dt)

    pair_site = _pair_site_table(lattice.m, hamiltonian.interaction_table)
    density_flat = np.abs(projector.phi.ravel()) ** 2
    strength = coupling / (n - 1)

    def apply_mean_part(amplitudes: np.ndarray) -> np.ndarray:
        return amplitudes * (_on_particles(density_flat, (0,), n)
                             + _on_particles(density_flat, (1,), n))

    def apply_gap_operator(amplitudes: np.ndarray) -> np.ndarray:
        return (apply_pair_table(amplitudes, pair_site)
                - strength * apply_mean_part(amplitudes))

    amps = state.amplitudes
    basis = _count_basis(amps, projector)
    weighted = basis.weighted(weight.values)
    commutator = -n * (n - 1) * float(np.imag(
        np.vdot(amps, apply_gap_operator(weighted)))) * cell_n

    projected_vec = _apply_pair_weighted(basis, xi)
    projected = -n * (n - 1) * float(np.imag(
        np.vdot(amps, apply_gap_operator(projected_vec)))) * cell_n

    w_one_back = counting_difference(n, 1, xi).shifted(-1)
    w_two_back = counting_difference(n, 2, xi).shifted(-2)
    pp, pq, qp = _projected_pair_terms(state, projector)
    qq = amps - pp - pq - qp
    part_single = -2.0 * n * (n - 1) * float(np.imag(np.vdot(
        pq, apply_weight(apply_gap_operator(pp), projector, w_one_back)))) * cell_n
    part_bare = -n * (n - 1) * float(np.imag(np.vdot(
        qq, apply_weight(apply_pair_table(pp, pair_site),
                         projector, w_two_back)))) * cell_n
    part_cross = -2.0 * n * (n - 1) * float(np.imag(np.vdot(
        qq, apply_weight(apply_gap_operator(pq), projector, w_one_back)))) * cell_n

    return RateComparison(fd_rate, commutator, projected,
                          (part_single, part_bare, part_cross),
                          abs(fd_rate - commutator))


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One named identity or inequality check with its measured defect."""
    name: str
    defect: float
    tolerance: float
    passed: bool


@dataclasses.dataclass(frozen=True)
class OperatorAlgebraReport:
    """Outcome of the operator-algebra verification suite for one seed."""
    n_particles: int
    lattice_m: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> tuple[str, ...]:
        return tuple(check.name for check in self.checks if not check.passed)


def _dense_weight(projector: CondensateProjector,
                  values: Sequence[float]) -> np.ndarray:
    """Dense sum_k w(k) P_k on len(values) - 1 particles, from Kronecker
    products of the single-particle p and q matrices.

    P_k sums, over the k-subsets of the particles, the Kronecker product with
    q on the subset and p elsewhere; particle 0 is the most significant index,
    as in the C-order ravel of an amplitude tensor. Grouping the subsets by
    whether they hold the last particle gives W(w) = W(w[:-1]) (x) p +
    W(w[1:]) (x) q, so each level costs two Kronecker products.
    """
    if len(values) == 1:
        return np.full((1, 1), values[0], dtype=np.complex128)
    return (np.kron(_dense_weight(projector, values[:-1]), projector.p_matrix)
            + np.kron(_dense_weight(projector, values[1:]), projector.q_matrix))


def _kron_left(factors: Sequence[np.ndarray], matrix: np.ndarray) -> np.ndarray:
    """kron(factors[0], factors[1], ..., 1) @ matrix without forming the
    Kronecker product: factor j acts on the row index of particle j."""
    d = len(factors[0])
    out = matrix
    for j, factor in enumerate(factors):
        out = np.matmul(factor, out.reshape((d,) * (j + 1) + (-1,)))
    return out.reshape(matrix.shape)


def _kron_right(matrix: np.ndarray, factors: Sequence[np.ndarray]) -> np.ndarray:
    """matrix @ kron(factors[0], factors[1], ..., 1), by transposition."""
    return _kron_left([factor.T for factor in factors], matrix.T).T


def operator_algebra_suite(projector: CondensateProjector, n_particles: int,
                           seed: int = 0, tolerance: float = 1e-10,
                           xi: float = 0.25) -> OperatorAlgebraReport:
    """Verify the projector/weight operator algebra on one random instance.

    Identity checks measure the lattice 2-norm of the difference of both
    sides applied to unit random tensors; inequality checks measure the
    amount by which the left side exceeds its bound (zero when satisfied).
    Dense matrix-level checks are added when the total dimension is small:
    their matrices are Kronecker oracles, built from the single-particle
    p_matrix and q_matrix rather than from the tensor actions, and two of
    them check those matrices against the tensor actions on the probe.
    Any defect above the tolerance is reported as a named failure carrying
    the seed.
    """
    n = int(n_particles)
    if n < 2 or n > 3:
        raise ValueError("the algebra suite covers 2 or 3 particles")
    lattice = projector.lattice
    d = lattice.d
    cell = projector.cell
    cell_n = cell ** n
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    def record(name: str, defect: float, bound: float = None) -> None:
        tol = tolerance if bound is None else bound
        checks.append(CheckResult(name, float(defect), float(tol),
                                  float(defect) <= float(tol)))

    def norm(amplitudes: np.ndarray) -> float:
        return math.sqrt(float(np.sum(np.abs(amplitudes) ** 2)) * cell_n)

    def random_tensor() -> np.ndarray:
        raw = (rng.standard_normal((d,) * n)
               + 1j * rng.standard_normal((d,) * n))
        return raw / norm(raw)

    def symmetrize(amplitudes: np.ndarray,
                   subset: Sequence[int]) -> np.ndarray:
        out = np.zeros_like(amplitudes)
        base = list(range(n))
        for perm in itertools.permutations(subset):
            order = base.copy()
            for axis, target in zip(subset, perm):
                order[axis] = target
            out = out + np.transpose(amplitudes, order)
        total = norm(out)
        if total == 0.0:
            raise ValueError("symmetrization annihilated the probe")
        return out / total

    w_m = counting_weight(n, xi)
    w_n = number_weight(n)
    mhat = lambda v: apply_weight(v, projector, w_m)
    nhat = lambda v: apply_weight(v, projector, w_n)
    p = projector.apply_p
    q = projector.apply_q

    probe = random_tensor()

    # Resolution of identity over the count projections.
    parts = count_components(probe, projector)
    record("sum-of-count-projections", norm(sum(parts) - probe))

    # Weight operators commute with every per-particle projector and with
    # each count projection.
    record("weight-commutes-p", norm(mhat(p(probe, 0)) - p(mhat(probe), 0)))
    record("weight-commutes-q", norm(mhat(q(probe, n - 1)) - q(mhat(probe), n - 1)))
    k_pick = int(rng.integers(0, n + 1))
    proj_k = parts[k_pick]
    record("weight-commutes-count-projection",
           norm(mhat(proj_k) - count_components(mhat(probe), projector)[k_pick]))

    # Products of weights compose pointwise.
    record("weight-product-rule",
           norm(mhat(nhat(probe)) - apply_weight(probe, projector,
                                                 w_m.product(w_n))))

    # The squared relative-count weight equals the mean of the complement
    # projectors.
    mean_q = sum(q(probe, j) for j in range(n)) / n
    record("squared-count-is-mean-complement",
           norm(nhat(nhat(probe)) - mean_q))

    # Shift rule: moving a weight through a fixed-count block of a pair
    # multiplication operator reindexes the weight by the count change.
    pair_random = rng.standard_normal((d, d))
    f_pair = lambda v: apply_pair_table(v, pair_random)
    blocks = {
        0: lambda v: p(p(v, 0), 1),
        1: lambda v: q(p(v, 0), 1),
        2: lambda v: q(q(v, 0), 1),
    }
    block_alt = {0: blocks[0], 1: lambda v: p(q(v, 0), 1), 2: blocks[2]}
    for j_count, k_count in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (2, 2)):
        lhs = mhat(blocks[j_count](f_pair(block_alt[k_count](probe))))
        rhs = blocks[j_count](f_pair(apply_weight(
            block_alt[k_count](probe), projector, w_m.shifted(j_count - k_count))))
        record(f"shift-rule-{j_count}{k_count}", norm(lhs - rhs))

    # Gradient variant of the shift rule with single-particle blocks.
    singles = {0: lambda v: p(v, 0), 1: lambda v: q(v, 0)}
    for j_count, k_count in ((0, 1), (1, 0)):
        ket = singles[k_count](probe)
        lhs = [mhat(singles[j_count](g))
               for g in spectral_gradient(ket, lattice, 0)]
        shifted = apply_weight(ket, projector, w_m.shifted(j_count - k_count))
        rhs = [singles[j_count](g)
               for g in spectral_gradient(shifted, lattice, 0)]
        defect = math.sqrt(sum(norm(a - b) ** 2 for a, b in zip(lhs, rhs)))
        record(f"shift-rule-gradient-{j_count}{k_count}", defect)

    # Commutator of a pair multiplication with a weight reduces to the
    # pair-projected blocks with stepped weight differences.
    def commutator_lhs(v: np.ndarray) -> np.ndarray:
        return f_pair(mhat(v)) - mhat(f_pair(v))

    w_step1 = WeightFunction(w_m.values - w_m.shifted(1).values)
    w_step2 = WeightFunction(w_m.values - w_m.shifted(2).values)

    def stepped(v: np.ndarray) -> np.ndarray:
        both = apply_weight(blocks[0](v), projector, w_step2)
        pq_v = block_alt[1](v) + blocks[1](v)
        return both + apply_weight(pq_v, projector, w_step1)

    record("commutator-expansion",
           norm(f_pair(stepped(probe)) - stepped(f_pair(probe))
                - commutator_lhs(probe)))

    # Convolution identity: projecting both sides of a displacement
    # multiplication collapses it to the density-convolved profile.
    disp_values = rng.standard_normal((lattice.m, lattice.m))
    site_disp = _pair_site_table(lattice.m, disp_values)
    density = np.abs(projector.phi.ravel()) ** 2
    convolved = cell * (site_disp.T @ density)
    lhs = p(apply_pair_table(p(probe, 0), site_disp), 0)
    rhs = p(probe * _on_particles(convolved, (1,), n), 0)
    record("convolution-identity", norm(lhs - rhs))

    # Exact lattice norm bounds for pair operators against the projector.
    phi_inf = float(np.max(np.abs(projector.phi)))
    l1 = cell * float(np.sum(np.abs(disp_values)))
    record("projected-pair-norm-bound",
           max(0.0, float(np.max(np.abs(convolved))) - l1 * phi_inf ** 2), tolerance)
    l2 = math.sqrt(cell * float(np.sum(disp_values ** 2)))
    sq_convolved = cell * (np.abs(site_disp.T) ** 2 @ density)
    record("pair-times-projector-norm-bound",
           max(0.0, math.sqrt(float(np.max(sq_convolved))) - l2 * phi_inf), tolerance)
    grad_phi = spectral_gradient(projector.phi.ravel(), lattice, 0)
    grad_density = np.sum(np.abs(grad_phi) ** 2, axis=0)
    grad_inf = math.sqrt(float(np.max(grad_density)))
    grad_convolved = cell * (np.abs(site_disp.T) ** 2 @ grad_density)
    record("pair-gradient-projector-norm-bound",
           max(0.0, math.sqrt(float(np.max(grad_convolved))) - l2 * grad_inf),
           tolerance)

    # Symmetric-subset inequalities: complement projections are controlled
    # by weighted relative counts on states symmetric in a subset.
    f_weight = WeightFunction(rng.uniform(0.1, 1.0, n + 1))
    fhat = lambda v: apply_weight(v, projector, f_weight)
    subset_a = list(range(n)) if n == 2 else [0, 1]
    psi_a = symmetrize(random_tensor(), subset_a)
    lhs_a = norm(fhat(q(psi_a, 0))) ** 2
    rhs_a = (n / len(subset_a)) * norm(fhat(nhat(psi_a))) ** 2
    record("subset-symmetric-single-bound", max(0.0, lhs_a - rhs_a), tolerance)

    subset_b = list(range(n))
    psi_b = symmetrize(random_tensor(), subset_b)
    lhs_b = norm(fhat(q(q(psi_b, 0), 1))) ** 2
    rhs_b = (n ** 2 / (len(subset_b) * (len(subset_b) - 1))
             * norm(fhat(nhat(nhat(psi_b)))) ** 2)
    record("subset-symmetric-pair-bound", max(0.0, lhs_b - rhs_b), tolerance)

    # Gradient bounds: weights pass through a projected gradient at the
    # price of their operator norm.
    def gradient_norm(v: np.ndarray, particle: int) -> float:
        grads = spectral_gradient(v, lattice, particle)
        return math.sqrt(norm(grads[0]) ** 2 + norm(grads[1]) ** 2)

    probe2 = random_tensor()
    lhs_g = gradient_norm(mhat(q(probe2, 1)), 1)
    rhs_g = 2.0 * w_m.operator_norm() * gradient_norm(q(probe2, 1), 1)
    record("gradient-weight-single-bound", max(0.0, lhs_g - rhs_g), tolerance)

    psi_sym = symmetrize(random_tensor(), list(range(n)))
    lhs_g2 = gradient_norm(mhat(q(q(psi_sym, 0), 1)), 1)
    mn_norm = w_m.product(w_n).operator_norm()
    m1n_norm = w_m.shifted(1).product(w_n).operator_norm()
    constant = math.sqrt(n / (n - 1)) * (m1n_norm + mn_norm)
    rhs_g2 = constant * gradient_norm(q(psi_sym, 1), 1)
    record("gradient-weight-pair-bound", max(0.0, lhs_g2 - rhs_g2), tolerance)

    # Stepped-shift splitting: the backward two-step difference minus the
    # forward one-step difference equals the backward one-step difference,
    # exactly on the range of any complement projector.
    w_a = counting_difference(n, 1, xi)
    w_b = counting_difference(n, 2, xi)
    qv = q(probe, 0)
    record("stepped-shift-splitting",
           norm(apply_weight(qv, projector, w_b.shifted(-1))
                - apply_weight(qv, projector, w_a)
                - apply_weight(qv, projector, w_a.shifted(-1))))

    # The flattened weight stays within N^-xi of the relative-count weight.
    record("counting-vs-number-gap",
           max(0.0, float(np.max(np.abs(w_m.values - w_n.values)))
               - n ** (-xi)), tolerance)

    # Dense matrix-level spot checks when the full dimension is small. The
    # matrices are Kronecker oracles built from the single-particle p and q,
    # not from the tensor actions, and two checks tie them back to those
    # actions on the probe. Products with p (x) 1 and the pair blocks go
    # through their Kronecker factors.
    if d ** n <= 1024:
        p_one, q_one = projector.p_matrix, projector.q_matrix
        m_dense = _dense_weight(projector, w_m.values)
        # M (p (x) 1) - (p (x) 1) M
        record("dense-weight-commutes-p",
               float(np.max(np.abs(_kron_right(m_dense, [p_one])
                                   - _kron_left([p_one], m_dense)))))
        record("dense-weight-matches-tensor",
               norm((m_dense @ probe.ravel()).reshape(probe.shape) - mhat(probe)))
        record("dense-sum-of-count-projections",
               float(np.max(np.abs(_dense_weight(projector, np.ones(n + 1))
                                   - np.eye(d ** n)))))
        # Shift rule 10: M B1 F B0 = B1 F M_{+1} B0 with the blocks
        # B0 = p (x) p (x) 1 and B1 = p (x) q (x) 1, and F the diagonal
        # pair_random (x) 1, applied as a column or row scaling.
        f_diag = np.kron(pair_random.ravel(), np.ones(d ** (n - 2)))
        shifted_dense = _dense_weight(projector, w_m.shifted(1).values)
        difference = (_kron_right(m_dense, [p_one, q_one]) * f_diag
                      - _kron_left([p_one, q_one], f_diag[:, None] * shifted_dense))
        record("dense-shift-rule-10",
               float(np.max(np.abs(_kron_right(difference, [p_one, p_one])))))
        lhs_probe = m_dense @ _kron_left(
            [p_one, q_one], f_diag * _kron_left([p_one, p_one], probe.ravel()))
        record("dense-shift-rule-10-matches-tensor",
               norm(lhs_probe.reshape(probe.shape)
                    - mhat(blocks[1](f_pair(block_alt[0](probe))))))

    return OperatorAlgebraReport(n, lattice.m, int(seed), tuple(checks))
