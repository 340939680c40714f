"""Exact dynamics of a handful of bosons on a small periodic 2D lattice.

States live on the N-fold tensor power of the m x m site lattice, stored as
a complex tensor with one axis of length d = m^2 per particle. The
Hamiltonian applies the spectral Laplacian of the lattice,
`Lattice2D.kinetic_symbol()` (so lattice plane waves are exact eigenstates),
a pairwise interaction sampled at periodic minimum-image displacements, and
an external per-site field. That symbol is k_x^2 + k_y^2, so the kinetic
action is one real m x m circulant of k^2 along each of the 2N site axes.
`propagate` runs the Chebyshev series of the matrix exponential over an
exact bound of the spectrum. Up to dimension 4096 `dense_matrix` gives the
dense real symmetric matrix, assembled from Kronecker sums of the
two-dimensional kinetic circulant plus the diagonal potential, not from the
matrix-free action, so it checks that action independently.

Layout: particle j is axis j of the (d,)^N amplitude tensor, and site
(i, k) of an (m, m) table is index i m + k along it. The kinetic action
reads the same bytes as the (m,)^{2N} site-axis view, with particle j on
axes 2j (row i) and 2j + 1 (column k). `_on_particles` is the one place
that lines a site or site-pair table up with particle axes.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from typing import Callable, Sequence

import numpy as np
import scipy.fft
import scipy.special

from .gp import ExternalField, Lattice2D, _finite_dt

__all__ = [
    "Lattice2D",
    "FewBodyState",
    "DiscreteHamiltonian",
    "DIMENSION_BUDGET",
    "build_hamiltonian",
    "propagate",
    "energy_per_particle",
    "jastrow_initial_state",
    "dense_operator",
    "dense_matrix",
]

DIMENSION_BUDGET = 1 << 22
_DENSE_LIMIT = 4096
_MAX_SERIES_TERMS = 10_000
_SERIES_TOL = 1e-16
_SPECTRAL_PAD = 1e-12


def _pair_site_table(m: int, displacement_values: np.ndarray) -> np.ndarray:
    """(m^2, m^2) site-pair matrix from an (m, m) displacement table."""
    idx = np.arange(m)
    row = (idx[:, None, None, None] - idx[None, None, :, None]) % m
    col = (idx[None, :, None, None] - idx[None, None, None, :]) % m
    return displacement_values[row, col].reshape(m * m, m * m)


def _circulant(symbol: np.ndarray) -> np.ndarray:
    """Real m x m circulant whose action is ifft(symbol * fft(.)) for an
    even real symbol; it is symmetric."""
    first = scipy.fft.ifft(symbol).real
    idx = np.arange(symbol.size)
    return first[(idx[:, None] - idx[None, :]) % symbol.size]


def _on_particles(table: np.ndarray, particles: Sequence[int], n: int) -> np.ndarray:
    """Broadcastable view of a (d,) site table or a (d, d) site-pair table
    with its axes on the given particle axes of an n-particle (d,)^n tensor."""
    shaped = table.reshape(table.shape + (1,) * (n - table.ndim))
    return np.moveaxis(shaped, tuple(range(table.ndim)), tuple(particles))


@dataclasses.dataclass(frozen=True)
class FewBodyState:
    """Normalized bosonic amplitudes with one axis of length d per particle."""
    lattice: Lattice2D
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.ndim < 1:
            raise ValueError("particle count must be at least 1")
        if amp.shape != (self.lattice.d,) * amp.ndim:
            raise ValueError("amplitudes must have one axis of length m^2 per particle")
        if self.lattice.d ** amp.ndim > DIMENSION_BUDGET:
            raise ValueError(
                f"Hilbert dimension {self.lattice.d ** amp.ndim} exceeds budget {DIMENSION_BUDGET}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_particles(self) -> int:
        return self.amplitudes.ndim

    def norm(self) -> float:
        cell = self.lattice.spacing ** 2
        return math.sqrt(float(np.sum(np.abs(self.amplitudes) ** 2))
                         * cell ** self.n_particles)

    def normalized(self) -> "FewBodyState":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero state")
        return FewBodyState(self.lattice, self.amplitudes / nrm, self.time)

    def symmetry_defect(self) -> float:
        """Largest deviation from invariance under pairwise transpositions."""
        worst = 0.0
        for a in range(self.n_particles):
            for b in range(a + 1, self.n_particles):
                swapped = np.swapaxes(self.amplitudes, a, b)
                worst = max(worst, float(np.max(np.abs(swapped - self.amplitudes))))
        return worst


@dataclasses.dataclass(frozen=True)
class DiscreteHamiltonian:
    """Matrix-free -sum Delta_j + sum_{j<k} U(x_j - x_k) + sum_j A(x_j).

    The Laplacian is the lattice's, `Lattice2D.kinetic_symbol()`.
    interaction_table samples U at minimum-image coordinate displacements
    and external_field samples A at one time, both real (m, m) arrays. The
    full diagonal potential is precomputed as a dense tensor on the
    (m,)^{2N} site-axis view.
    """
    lattice: Lattice2D
    n_particles: int
    interaction_table: np.ndarray
    external_field: np.ndarray

    def __post_init__(self) -> None:
        m, n = self.lattice.m, self.n_particles
        if n < 1:
            raise ValueError("particle count must be at least 1")
        dim = self.lattice.d ** n
        if dim > DIMENSION_BUDGET:
            raise ValueError(f"Hilbert dimension {dim} exceeds budget {DIMENSION_BUDGET}")
        for name in ("interaction_table", "external_field"):
            table = getattr(self, name)
            if np.shape(table) != (m, m):
                raise ValueError(f"{name} must have the lattice shape {(m, m)}, "
                                 f"got {np.shape(table)}")
            if np.iscomplexobj(table):
                raise ValueError(f"{name} must be real, got a complex table")
            if not np.isfinite(table).all():
                raise ValueError(f"{name} must be finite, got {table[~np.isfinite(table)][0]}")
        if np.any(self.interaction_table < 0):
            raise ValueError("interaction samples must be nonnegative")
        potential_total = np.zeros((self.lattice.d,) * n)
        for p in range(n):
            potential_total = potential_total + _on_particles(self.external_field.ravel(),
                                                              (p,), n)
        pair_d = _pair_site_table(m, self.interaction_table)
        for a in range(n):
            for b in range(a + 1, n):
                potential_total = potential_total + _on_particles(pair_d, (a, b), n)
        object.__setattr__(self, "_potential_total", potential_total.reshape((m,) * (2 * n)))
        object.__setattr__(self, "_circulant", _circulant(self.lattice.wavenumbers() ** 2))

    @functools.cached_property
    def spectral_interval(self) -> tuple[float, float]:
        """[N min S + min V, N max S + max V] for the kinetic symbol S and the
        diagonal potential V, padded by a relative roundoff margin; it holds
        the spectrum."""
        symbol, potential = self.lattice.kinetic_symbol(), self._potential_total
        lo = self.n_particles * float(np.min(symbol)) + float(np.min(potential))
        hi = self.n_particles * float(np.max(symbol)) + float(np.max(potential))
        pad = _SPECTRAL_PAD * max(abs(lo), abs(hi))
        return lo - pad, hi + pad

    def apply(self, amplitudes: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
        """V psi plus one circulant product along each of the 2N site axes:
        real products on the float64 view (real and imaginary parts side by
        side in the last axis) for every axis but the last, and a complex
        product, to which numpy casts the same real circulant, for the last.

        With out given (a C-contiguous complex128 array of the amplitudes'
        size that does not overlap them) the result is written there and out
        is returned reshaped; otherwise a new array is returned.
        """
        m, n = self.lattice.m, self.n_particles
        psi = np.ascontiguousarray(amplitudes, dtype=np.complex128).reshape((m,) * (2 * n))
        out = np.multiply(self._potential_total, psi,
                          out=None if out is None else out.reshape(psi.shape))
        circulant = self._circulant
        psi_real, out_real = psi.view(np.float64), out.view(np.float64)
        for axis in range(2 * n - 1):
            target = out_real.reshape(m ** axis, m, -1)
            target += np.matmul(circulant, psi_real.reshape(m ** axis, m, -1))
        target = out.reshape(-1, m)
        target += psi.reshape(-1, m) @ circulant
        return out.reshape(amplitudes.shape)


def build_hamiltonian(lattice: Lattice2D, n_particles: int,
                      interaction: Callable[[np.ndarray], np.ndarray] | None = None,
                      field: ExternalField | None = None,
                      t: float = 0.0) -> DiscreteHamiltonian:
    """Assemble the lattice Hamiltonian at external-field time t.

    interaction is any radial potential callable (evaluated at minimum-image
    pair distances); an interaction whose support falls below the lattice
    spacing is kept but flagged, since the lattice then sees only its value
    at zero displacement.
    """
    if interaction is None:
        table = np.zeros((lattice.m, lattice.m))
    else:
        support = getattr(interaction, "support_radius", None)
        if support is not None and support < lattice.spacing:
            warnings.warn(
                f"interaction support {support:.3e} is below the lattice spacing "
                f"{lattice.spacing:.3e}; only the zero-displacement sample acts",
                RuntimeWarning, stacklevel=2)
        table = np.asarray(interaction(lattice.minimum_image_distances().ravel()),
                           dtype=float).reshape(lattice.m, lattice.m)
    a_now = (np.zeros((lattice.m, lattice.m)) if field is None
             else field.evaluate(lattice, t))
    return DiscreteHamiltonian(lattice, int(n_particles), table, a_now)


def dense_operator(apply_fn: Callable[[np.ndarray], np.ndarray],
                   lattice: Lattice2D, n_particles: int) -> np.ndarray:
    """Dense matrix of a linear operator given by its tensor action.

    No scenario calls it; it stays public because the benchmark's tracer
    binds it by name as `diagnostics.dense_operator`, and the tests use it
    as a column-by-column oracle for matrix-free actions.
    """
    dim = lattice.d ** n_particles
    shape = (lattice.d,) * n_particles
    basis = np.eye(dim, dtype=np.complex128)
    columns = [apply_fn(basis[:, i].reshape(shape)).ravel() for i in range(dim)]
    return np.column_stack(columns)


def dense_matrix(hamiltonian: DiscreteHamiltonian) -> np.ndarray:
    """Dense real symmetric float64 matrix of the operator; only for
    dimensions <= 4096.

    The one-particle kinetic matrix is the circulant of the inverse FFT of
    the |k|^2 symbol, which is real and even; the N-particle kinetic matrix
    is its Kronecker sum over the particles, and the summed field and pair
    potential lies on the diagonal. The action `apply` is not used.
    """
    lattice, n = hamiltonian.lattice, hamiltonian.n_particles
    dim = lattice.d ** n
    if dim > _DENSE_LIMIT:
        raise ValueError(f"dense form limited to dimension {_DENSE_LIMIT}, got {dim}")
    one = _pair_site_table(lattice.m, scipy.fft.ifft2(lattice.kinetic_symbol()).real)
    total = one
    for p in range(1, n):
        total = np.kron(total, np.eye(lattice.d))
        total += np.kron(np.eye(lattice.d ** p), one)
    total[np.diag_indices(dim)] += hamiltonian._potential_total.ravel()
    return total


def _series_length(reach: float) -> int:
    """Number of Chebyshev terms: the first order k > reach with
    |J_k(reach)| below roundoff. Past reach J_k(reach) falls monotonically
    in k, so a doubling search and a bisection find that order."""
    low, step = math.floor(reach), 1
    while abs(scipy.special.jv(low + step, reach)) >= _SERIES_TOL:
        low, step = low + step, 2 * step
    high = low + step
    while high - low > 1:
        mid = (low + high) // 2
        if abs(scipy.special.jv(mid, reach)) < _SERIES_TOL:
            high = mid
        else:
            low = mid
    return high


def _chebyshev_step(hamiltonian: DiscreteHamiltonian, amplitudes: np.ndarray,
                    dt: float) -> np.ndarray:
    """exp(-i dt H) v by the Chebyshev series of Tal-Ezer and Kosloff
    (J. Chem. Phys. 81, 3967, 1984).

    The spectrum lies in the Hamiltonian's `spectral_interval`. With
    centre c and half-width R, exp(-i dt H) = exp(-i dt c) sum_k
    (2 - delta_k0) (-i sign dt)^k J_k(|dt| R) T_k((H - c) / R), truncated
    where |J_k| falls below roundoff. Three vectors follow the three-term
    recurrence and a fourth holds the sum; one scratch vector takes every
    scaled term, so no term allocates an array.
    """
    lo, hi = hamiltonian.spectral_interval
    centre, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    reach = abs(dt) * half
    count = _series_length(reach)
    if count > _MAX_SERIES_TERMS:
        raise RuntimeError(
            f"Chebyshev propagation for dt {dt:.6g} over the spectral interval "
            f"[{lo:.6g}, {hi:.6g}] needs {count} terms, above the ceiling {_MAX_SERIES_TERMS}")
    orders = np.arange(count)
    coeffs = scipy.special.jv(orders, reach) * (-1j * math.copysign(1.0, dt)) ** orders
    coeffs[1:] *= 2.0
    prev = np.array(amplitudes, dtype=np.complex128, order="C")  # the rotation reuses it
    out = coeffs[0] * prev
    if count > 1:
        cur, nxt, scratch = (np.empty_like(prev) for _ in range(3))
        hamiltonian.apply(prev, out=cur)
        cur -= np.multiply(centre, prev, out=scratch)
        cur /= half
        out += np.multiply(coeffs[1], cur, out=scratch)
        for coeff in coeffs[2:]:
            hamiltonian.apply(cur, out=nxt)
            nxt -= np.multiply(centre, cur, out=scratch)
            nxt *= 2.0 / half
            nxt -= prev
            out += np.multiply(coeff, nxt, out=scratch)
            prev, cur, nxt = cur, nxt, prev
    out *= np.exp(-1j * dt * centre)
    return out


def propagate(state: FewBodyState, hamiltonian: DiscreteHamiltonian,
              dt: float) -> FewBodyState:
    """Advance by dt under the (time-frozen) Hamiltonian, by the Chebyshev
    series; it raises a RuntimeError when a step would need more than
    10 000 terms, about |dt| times the spectral half-width."""
    if state.lattice != hamiltonian.lattice or state.n_particles != hamiltonian.n_particles:
        raise ValueError("state and Hamiltonian live on different spaces")
    dt = _finite_dt(dt)
    amp = _chebyshev_step(hamiltonian, state.amplitudes, dt)
    return FewBodyState(state.lattice, amp, state.time + dt)


def energy_per_particle(state: FewBodyState, hamiltonian: DiscreteHamiltonian) -> float:
    """N^(-1) <Psi, H Psi> in the lattice measure; real to roundoff."""
    cell = state.lattice.spacing ** 2
    h_psi = hamiltonian.apply(state.amplitudes)
    value = complex(np.vdot(state.amplitudes, h_psi)) * cell ** state.n_particles
    return float(value.real) / state.n_particles


def jastrow_initial_state(phi: np.ndarray, pair, lattice: Lattice2D,
                          n_particles: int) -> FewBodyState:
    """Normalized product of pair factors times the condensate product.

    phi is an (m, m) single-particle field, normalized on the lattice; pair
    (when given) supplies the radial factor through its f_evaluate profile,
    sampled at minimum-image distances. A pair factor whose support falls
    below the lattice spacing cannot be represented and degenerates to the
    pure product state, with a warning.
    """
    if n_particles < 1:
        raise ValueError(f"n_particles must be at least 1, got {n_particles}")
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (lattice.m, lattice.m):
        raise ValueError("phi must be sampled on the lattice")
    cell = lattice.spacing ** 2
    nrm = math.sqrt(float(np.sum(np.abs(phi) ** 2)) * cell)
    if not math.isfinite(nrm) or abs(nrm - 1.0) > 1e-6:
        raise ValueError(f"phi must be normalized on the lattice, got norm {nrm}")
    site_phi = phi.ravel()
    amp = site_phi
    for _ in range(n_particles - 1):
        amp = np.multiply.outer(amp, site_phi)
    if pair is not None:
        if pair.R_beta < lattice.spacing:
            warnings.warn(
                f"pair factor support {pair.R_beta:.3e} is below the lattice spacing "
                f"{lattice.spacing:.3e}; returning the pure product state",
                RuntimeWarning, stacklevel=2)
        else:
            dist = lattice.minimum_image_distances()
            factor = np.asarray(pair.f_evaluate(np.minimum(dist, pair.R_beta).ravel()),
                                dtype=float).reshape(lattice.m, lattice.m)
            pair_d = _pair_site_table(lattice.m, factor)
            for a in range(n_particles):
                for b in range(a + 1, n_particles):
                    amp = amp * _on_particles(pair_d, (a, b), n_particles)
    state = FewBodyState(lattice, amp, 0.0)
    return state.normalized()

