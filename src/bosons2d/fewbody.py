"""Exact dynamics of a handful of bosons on a small periodic 2D lattice.

States live on the N-fold tensor power of the m x m site lattice, stored as
a complex tensor with one axis of length d = m^2 per particle. The
Hamiltonian applies a spectral single-particle Laplacian (so lattice plane
waves are exact eigenstates), a pairwise interaction sampled at periodic
minimum-image displacements, and an external per-site field. Propagation is
a Krylov approximation of the matrix exponential with full
reorthogonalization, falling back to adaptive sub-stepping; small problems
(dimension <= 4096) may instead use a cached real eigendecomposition of the
dense real symmetric matrix. That matrix is assembled from Kronecker sums of
the kinetic circulant plus the diagonal potential, not from the matrix-free
action, so it also checks that action independently.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Callable, Sequence, TextIO

import numpy as np
import scipy.fft

from .gp import ExternalField, Lattice2D, _csv_recorder, _read_tensor, _write_tensor

__all__ = [
    "Lattice2D",
    "FewBodyState",
    "DiscreteHamiltonian",
    "DIMENSION_BUDGET",
    "build_hamiltonian",
    "propagate",
    "energy_per_particle",
    "jastrow_initial_state",
    "hermiticity_defect",
    "dense_operator",
    "dense_matrix",
    "fewbody_recorder",
    "write_fewbody_checkpoint",
    "read_fewbody_checkpoint",
]

DIMENSION_BUDGET = 1 << 22
_DENSE_LIMIT = 4096
_AUTO_DENSE_LIMIT = 1024
_MAX_SUBSTEP_DEPTH = 8


def _pair_site_table(m: int, displacement_values: np.ndarray) -> np.ndarray:
    """(m^2, m^2) site-pair matrix from an (m, m) displacement table."""
    idx = np.arange(m)
    row = (idx[:, None, None, None] - idx[None, None, :, None]) % m
    col = (idx[None, :, None, None] - idx[None, None, None, :]) % m
    return displacement_values[row, col].reshape(m * m, m * m)


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

    kinetic_symbol is the per-particle spectral Laplacian multiplier |k|^2,
    interaction_table samples U at minimum-image coordinate displacements,
    and external_field is A at the build time, all real (m, m) arrays. The
    full diagonal potential and the summed kinetic multiplier are
    precomputed dense tensors of the state's shape.
    """
    lattice: Lattice2D
    n_particles: int
    kinetic_symbol: np.ndarray
    interaction_table: np.ndarray
    external_field: np.ndarray
    time: float = 0.0
    workers: int = 1

    def __post_init__(self) -> None:
        m, n = self.lattice.m, self.n_particles
        if n < 1:
            raise ValueError("particle count must be at least 1")
        dim = self.lattice.d ** n
        if dim > DIMENSION_BUDGET:
            raise ValueError(f"Hilbert dimension {dim} exceeds budget {DIMENSION_BUDGET}")
        for name in ("interaction_table", "external_field"):
            if np.iscomplexobj(getattr(self, name)):
                raise ValueError(f"{name} must be real, got a complex table")
        if np.any(self.interaction_table < 0):
            raise ValueError("interaction samples must be nonnegative")
        shape = (m,) * (2 * n)
        k2 = self.kinetic_symbol
        kinetic_total = np.zeros(shape)
        potential_total = np.zeros(shape)
        for p in range(n):
            axes_shape = [1] * (2 * n)
            axes_shape[2 * p] = m
            axes_shape[2 * p + 1] = m
            kinetic_total = kinetic_total + k2.reshape(axes_shape)
            potential_total = potential_total + self.external_field.reshape(axes_shape)
        pair_d = _pair_site_table(m, self.interaction_table)
        for a in range(n):
            for b in range(a + 1, n):
                axes_shape = [1] * (2 * n)
                for ax in (2 * a, 2 * a + 1, 2 * b, 2 * b + 1):
                    axes_shape[ax] = m
                potential_total = potential_total + pair_d.reshape(axes_shape)
        object.__setattr__(self, "_kinetic_total", kinetic_total)
        object.__setattr__(self, "_potential_total", potential_total)
        object.__setattr__(self, "_cache", {})

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        m, n = self.lattice.m, self.n_particles
        psi = amplitudes.reshape((m,) * (2 * n))
        psi_hat = scipy.fft.fftn(psi, workers=self.workers)
        kinetic = scipy.fft.ifftn(self._kinetic_total * psi_hat, workers=self.workers)
        return (kinetic + self._potential_total * psi).reshape(amplitudes.shape)


def build_hamiltonian(lattice: Lattice2D, n_particles: int,
                      interaction: Callable[[np.ndarray], np.ndarray] | None = None,
                      field: ExternalField | None = None, t: float = 0.0,
                      workers: int = 1) -> DiscreteHamiltonian:
    """Assemble the lattice Hamiltonian at external-field time t.

    interaction is any radial potential callable (evaluated at minimum-image
    pair distances); an interaction whose support falls below the lattice
    spacing is kept but flagged, since the lattice then sees only its value
    at zero displacement.
    """
    dim = lattice.d ** n_particles
    if dim > DIMENSION_BUDGET:
        raise ValueError(f"Hilbert dimension {dim} exceeds budget {DIMENSION_BUDGET}")
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
    return DiscreteHamiltonian(lattice, int(n_particles), lattice.kinetic_symbol(), table,
                               a_now, time=t, workers=workers)


def hermiticity_defect(hamiltonian: DiscreteHamiltonian, n_pairs: int = 20,
                       seed: int = 0) -> float:
    """Max |<Hx, y> - <x, Hy>| over random normalized pairs."""
    rng = np.random.default_rng(seed)
    dim = hamiltonian.lattice.d ** hamiltonian.n_particles
    worst = 0.0
    for _ in range(n_pairs):
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        shape = (hamiltonian.lattice.d,) * hamiltonian.n_particles
        hx = hamiltonian.apply(x.reshape(shape)).ravel()
        hy = hamiltonian.apply(y.reshape(shape)).ravel()
        worst = max(worst, abs(np.vdot(hx, y) - np.vdot(x, hy)))
    return worst


def dense_operator(apply_fn: Callable[[np.ndarray], np.ndarray],
                   lattice: Lattice2D, n_particles: int) -> np.ndarray:
    """Dense matrix of a linear operator given by its tensor action."""
    dim = lattice.d ** n_particles
    shape = (lattice.d,) * n_particles
    basis = np.eye(dim, dtype=np.complex128)
    columns = [apply_fn(basis[:, i].reshape(shape)).ravel() for i in range(dim)]
    return np.column_stack(columns)


def dense_matrix(hamiltonian: DiscreteHamiltonian) -> np.ndarray:
    """Dense real symmetric float64 matrix of the operator, cached on it;
    only for dimensions <= 4096.

    The one-particle kinetic matrix is the circulant of the inverse FFT of
    the |k|^2 symbol, which is real and even; the N-particle kinetic matrix
    is its Kronecker sum over the particles, and the summed field and pair
    potential lies on the diagonal. The action `apply` is not used.
    """
    lattice, n = hamiltonian.lattice, hamiltonian.n_particles
    dim = lattice.d ** n
    if dim > _DENSE_LIMIT:
        raise ValueError(f"dense form limited to dimension {_DENSE_LIMIT}, got {dim}")
    cache = hamiltonian._cache
    if "dense" not in cache:
        one = _pair_site_table(lattice.m, scipy.fft.ifft2(hamiltonian.kinetic_symbol).real)
        total = one
        for p in range(1, n):
            total = np.kron(total, np.eye(lattice.d))
            total += np.kron(np.eye(lattice.d ** p), one)
        total[np.diag_indices(dim)] += hamiltonian._potential_total.ravel()
        cache["dense"] = total
    return cache["dense"]


def _dense_step(hamiltonian: DiscreteHamiltonian, amplitudes: np.ndarray,
                dt: float) -> np.ndarray:
    """exp(-i dt H) by the cached real eigendecomposition; the complex state
    is read as (dim, 2) real and imaginary columns, so both basis changes
    are real matrix products."""
    cache = hamiltonian._cache
    if "eig" not in cache:
        cache["eig"] = np.linalg.eigh(dense_matrix(hamiltonian))
    w, v = cache["eig"]
    parts = np.ascontiguousarray(amplitudes, dtype=np.complex128).reshape(-1, 1)
    coeffs = (v.T @ parts.view(np.float64)).view(np.complex128)
    coeffs *= np.exp(-1j * dt * w)[:, None]
    return (v @ coeffs.view(np.float64)).view(np.complex128).reshape(amplitudes.shape)


def _lanczos_step(hamiltonian: DiscreteHamiltonian, amplitudes: np.ndarray, dt: float,
                  tol: float, max_dim: int, depth: int = 0) -> np.ndarray:
    """exp(-i dt H) v by Lanczos with full reorthogonalization.

    The a-posteriori estimate is the classical last-entry bound; when the
    subspace saturates without meeting tol the step recurses on two half
    steps, at most _MAX_SUBSTEP_DEPTH times before reporting failure.
    """
    flat = amplitudes.ravel()
    nrm = np.linalg.norm(flat)
    if nrm == 0.0:
        return amplitudes
    shape = amplitudes.shape
    basis = [flat / nrm]
    alphas: list[float] = []
    betas: list[float] = []
    estimate = math.inf
    for k in range(max_dim):
        w = hamiltonian.apply(basis[k].reshape(shape)).ravel()
        alphas.append(float(np.real(np.vdot(basis[k], w))))
        w = w - alphas[k] * basis[k]
        if k > 0:
            w = w - betas[k - 1] * basis[k - 1]
        for q in basis:
            w = w - np.vdot(q, w) * q
        beta = float(np.linalg.norm(w))
        tri = np.diag(alphas).astype(complex)
        off = np.asarray(betas)
        if off.size:
            tri += np.diag(off, 1) + np.diag(off, -1)
        eigval, eigvec = np.linalg.eigh(tri)
        small = eigvec @ (np.exp(-1j * dt * eigval) * eigvec[0].conj())
        if beta < 1e-13:
            estimate = 0.0
            break
        estimate = abs(dt) * beta * abs(small[-1])
        if estimate < tol and k + 1 >= 3:
            break
        betas.append(beta)
        basis.append(w / beta)
    else:
        small = None
    if small is None or estimate >= tol:
        if depth >= _MAX_SUBSTEP_DEPTH:
            raise RuntimeError(
                f"Krylov propagation failed: estimate {estimate:.3e} above {tol:.1e} "
                f"at subspace dimension {max_dim}, sub-step depth {depth}")
        half = _lanczos_step(hamiltonian, amplitudes, dt / 2.0, tol, max_dim, depth + 1)
        return _lanczos_step(hamiltonian, half, dt / 2.0, tol, max_dim, depth + 1)
    out = np.zeros_like(flat)
    for coeff, vec in zip(small[: len(basis)], basis):
        out += coeff * vec
    return (nrm * out).reshape(shape)


def propagate(state: FewBodyState, hamiltonian: DiscreteHamiltonian, dt: float,
              method: str = "auto", krylov_tol: float = 1e-12,
              max_krylov_dim: int = 40) -> FewBodyState:
    """Advance by dt under the (time-frozen) Hamiltonian.

    method "auto" picks the cached dense eigendecomposition for dimensions
    up to 1024 and Lanczos otherwise; "dense" and "krylov" force the choice.
    """
    if state.lattice != hamiltonian.lattice or state.n_particles != hamiltonian.n_particles:
        raise ValueError("state and Hamiltonian live on different spaces")
    dim = state.lattice.d ** state.n_particles
    if method == "auto":
        method = "dense" if dim <= _AUTO_DENSE_LIMIT else "krylov"
    if method == "dense":
        amp = _dense_step(hamiltonian, state.amplitudes, float(dt))
    elif method == "krylov":
        amp = _lanczos_step(hamiltonian, state.amplitudes, float(dt),
                            krylov_tol, max_krylov_dim)
    else:
        raise ValueError(f"unknown method {method!r}")
    return FewBodyState(state.lattice, amp, state.time + float(dt))


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
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (lattice.m, lattice.m):
        raise ValueError("phi must be sampled on the lattice")
    cell = lattice.spacing ** 2
    nrm = math.sqrt(float(np.sum(np.abs(phi) ** 2)) * cell)
    if abs(nrm - 1.0) > 1e-6:
        raise ValueError("phi must be normalized on the lattice")
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
                    shape = [1] * n_particles
                    shape[a] = lattice.d
                    shape[b] = lattice.d
                    amp = amp * pair_d.reshape(shape)
    state = FewBodyState(lattice, amp, 0.0)
    return state.normalized()


def fewbody_recorder(stream: TextIO, hamiltonian: DiscreteHamiltonian,
                     extra: Callable[[FewBodyState], float] | None = None,
                     ) -> Callable[[FewBodyState], None]:
    """Observer writing CSV rows (t, norm, energy per particle, extra)."""
    return _csv_recorder(stream, "t,norm,energy_per_particle,extra", lambda state: (
        state.time, state.norm(), energy_per_particle(state, hamiltonian),
        float("nan") if extra is None else float(extra(state))))


def write_fewbody_checkpoint(state: FewBodyState, path: str) -> None:
    """Raw little-endian complex128 tensor plus a JSON sidecar at path + '.json'."""
    _write_tensor(path, state.amplitudes, {
        "n_particles": state.n_particles,
        "m": state.lattice.m,
        "box_length": state.lattice.box_length,
        "time": state.time,
        "dtype": "complex128",
        "order": "C",
    })


def read_fewbody_checkpoint(path: str) -> FewBodyState:
    amp, sidecar = _read_tensor(
        path, lambda meta: (int(meta["m"]) ** 2,) * int(meta["n_particles"]))
    lattice = Lattice2D(int(sidecar["m"]), float(sidecar["box_length"]))
    return FewBodyState(lattice, amp, float(sidecar["time"]))
