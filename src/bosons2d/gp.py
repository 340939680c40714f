"""Time-dependent Gross-Pitaevskii propagation on a 2D periodic box.

The equation i d/dt psi = (-Laplacian + A_t) psi + b |psi|^2 psi is advanced
by Strang splitting: a half step of the pointwise phase exp(-i dt/2
(A + b|psi|^2)), a full spectral kinetic step exp(-i dt |k|^2), and a half
step of the phase at the advanced time. Every stage is unitary, so the
discrete L2 norm is conserved to roundoff regardless of dt; accuracy (not
stability) is the only dt constraint, and the energy (`gp_energy`) measures
it.

The field lives on `Lattice2D`, the periodic lattice of the few-body layer,
for any m >= 2 (scipy.fft takes any size; the real half spectrum handles odd
m), so a GP grid and a few-body lattice of the same (m, L) are equal and
share the mesh and kinetic caches and the field memo.

One private splitting, `_strang`, applies exp(-z H) in this order for a
complex time z: z = i dt is the real-time step of `step` and of the lattice
mean-field surrogate `diagnostics.mean_field_step`, and a real z = tau is the
normalized gradient-flow step of `ground_state`. For a real tau every factor
of the splitting is real, so a real seed descends in real arithmetic, on
rfft2 / irfft2 and a half-spectrum energy. `propagate` hands the initial
state and each stepped state to an optional observer; the `gp` scenario
samples its CSV rows that way.

Nothing a step cannot change is rebuilt per step. The kinetic factor
exp(-z |k|^2) comes from `Lattice2D.kinetic_factor(z)`, cached per (lattice,
z) and read-only, and the coordinate meshes the field is evaluated on from
`Lattice2D.meshes()`, cached per lattice and read-only. The field is a
closed form A(x, y, t), and its table A_t is read through a one-entry memo
on the `ExternalField`, keyed on the grid and the exact float time, so a
step's end table is the next step's start table and an energy at the current
time costs no evaluation; the memoized table is read-only, and the field
must be a pure function of (x, y, t). The caches return the very arrays the
uncached code would build, so every result keeps its bits. The real-time
half-step phase exp(-i dt/2 V) is written as cos + i sin of (-dt/2) V into
one complex buffer: the bits of the complex exponential without its complex
multiply and complex exp.

The kinetic symbol carries no 1/2: the Laplacian enters the equation bare,
which fixes the free dispersion at |k|^2 and the Gaussian spreading law used
by the tests.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable

import numpy as np
import scipy.fft

__all__ = [
    "Lattice2D",
    "GpState",
    "ExternalField",
    "GpParams",
    "step",
    "propagate",
    "gp_energy",
    "ground_state",
]


@dataclasses.dataclass(frozen=True)
class Lattice2D:
    """Periodic m x m lattice on [0, L)^2, for an integer m >= 2; the GP grid
    and the few-body single-particle space (dimension m^2)."""
    m: int
    box_length: float

    def __post_init__(self) -> None:
        if not (isinstance(self.m, (int, np.integer)) and self.m >= 2):
            raise ValueError(f"m must be an integer of at least 2, got {self.m!r}")
        if not (self.box_length > 0 and math.isfinite(self.box_length)):
            raise ValueError(f"box_length must be positive and finite, got {self.box_length}")

    @property
    def d(self) -> int:
        return self.m * self.m

    @property
    def spacing(self) -> float:
        return self.box_length / self.m

    def axis(self) -> np.ndarray:
        return np.arange(self.m) * self.spacing

    @functools.lru_cache(maxsize=32)
    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only coordinate tables (x, y), indexed [i, j], built once per lattice."""
        ax = self.axis()
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        xx.flags.writeable = False
        yy.flags.writeable = False
        return xx, yy

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.m, d=self.spacing)

    @functools.lru_cache(maxsize=32)
    def kinetic_symbol(self) -> np.ndarray:
        """Read-only spectral multiplier |k|^2 of -Laplacian, built once per lattice."""
        k = self.wavenumbers()
        k2 = k[:, None] ** 2 + k[None, :] ** 2
        k2.flags.writeable = False
        return k2

    @functools.lru_cache(maxsize=8, typed=True)
    def kinetic_factor(self, z: complex) -> np.ndarray:
        """Read-only kinetic propagator exp(-z |k|^2), built once per (lattice, z)."""
        factor = np.exp(-z * self.kinetic_symbol())
        factor.flags.writeable = False
        return factor

    def minimum_image_distances(self) -> np.ndarray:
        """(m, m) table of |x| at coordinate displacement (di, dj)."""
        idx = np.arange(self.m)
        signed = (idx + self.m // 2) % self.m - self.m // 2
        delta = signed * self.spacing
        return np.hypot(delta[:, None], delta[None, :])


# The benchmark workloads import the GP grid under this name.
Grid2D = Lattice2D


@dataclasses.dataclass(frozen=True)
class GpState:
    """Complex field on a grid at a time; propagation keeps the L2 norm 1."""
    grid: Lattice2D
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.grid.m, self.grid.m):
            raise ValueError("amplitudes shape must match the grid")
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        dx = self.grid.spacing
        return math.sqrt(float(np.sum(np.abs(self.amplitudes) ** 2)) * dx * dx)

    def normalized(self) -> "GpState":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero field")
        return GpState(self.grid, self.amplitudes / nrm, self.time)


@dataclasses.dataclass(frozen=True)
class ExternalField:
    """Bounded external potential A_t given by a closed form (x, y, t) -> values.

    func_dot, when given, is the analytic time derivative that
    `time_derivative` reads. The stepper reads tables through a one-entry
    memo held on the instance, so a closed form must be a pure function of
    (x, y, t).
    """
    func: Callable[[np.ndarray, np.ndarray, float], np.ndarray | float]
    func_dot: Callable[[np.ndarray, np.ndarray, float], np.ndarray | float] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_memo", [None])

    @classmethod
    def from_function(cls, func: Callable[[np.ndarray, np.ndarray, float], np.ndarray | float],
                      func_dot: Callable[[np.ndarray, np.ndarray, float], np.ndarray | float] | None = None,
                      ) -> "ExternalField":
        return cls(func=func, func_dot=func_dot)

    @classmethod
    def zero(cls) -> "ExternalField":
        return cls(func=lambda x, y, t: np.zeros_like(x))

    def evaluate(self, grid: Lattice2D, t: float) -> np.ndarray:
        xx, yy = grid.meshes()
        a = np.broadcast_to(np.asarray(self.func(xx, yy, t), dtype=float), xx.shape)
        if not np.all(np.isfinite(a)):
            raise ValueError(f"external field is not bounded at t={t}")
        return a

    def time_derivative(self, grid: Lattice2D, t: float) -> np.ndarray:
        """dA/dt on grid: func_dot when given, else a centered difference.

        It is the one reader of func_dot, which the CLI's cosine field and
        the benchmark's compare workload both pass; the energy-balance test
        of the GP stepper checks dE/dt = <dA/dt> through it.
        """
        if self.func_dot is not None:
            xx, yy = grid.meshes()
            return np.broadcast_to(np.asarray(self.func_dot(xx, yy, t), dtype=float),
                                   xx.shape)
        h = 1e-6 * max(1.0, abs(t))
        return (self.evaluate(grid, t + h) - self.evaluate(grid, t - h)) / (2.0 * h)


@dataclasses.dataclass(frozen=True)
class GpParams:
    """Coupling b >= 0 and time step."""
    coupling: float
    dt: float = 1e-3

    def __post_init__(self) -> None:
        if not (self.coupling >= 0 and math.isfinite(self.coupling)):
            raise ValueError(f"coupling must be nonnegative and finite, got {self.coupling}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


def _strang(psi: np.ndarray, lattice: Lattice2D, coupling: float, a_now: np.ndarray,
            a_next: np.ndarray, z: complex) -> np.ndarray:
    """exp(-z H) by Strang splitting: half phase under a_now, kinetic factor
    exp(-z |k|^2), half phase under a_next and the updated density.

    z is either purely imaginary (z = i dt, a real-time step) or real
    (z = tau, a gradient-flow step). For a real z and a real psi every factor
    is real and exp(-tau |k|^2) is even in k, so the step runs on rfft2 /
    irfft2 with the half-spectrum columns of the kinetic factor and returns a
    real field; any other pair takes the complex transforms.
    """
    psi = _half_phase(psi, -0.5 * z, a_now + coupling * np.abs(psi) ** 2)
    if np.isrealobj(psi):
        psi_hat = scipy.fft.rfft2(psi)
        psi_hat *= lattice.kinetic_factor(z)[:, : lattice.m // 2 + 1]
        psi = scipy.fft.irfft2(psi_hat, s=psi.shape)
    else:
        psi_hat = scipy.fft.fft2(psi)
        psi_hat *= lattice.kinetic_factor(z)
        psi = scipy.fft.ifft2(psi_hat)
    return _half_phase(psi, -0.5 * z, a_next + coupling * np.abs(psi) ** 2)


def _half_phase(psi: np.ndarray, w: complex, potential: np.ndarray) -> np.ndarray:
    """psi * exp(w * potential) for a real w or a purely imaginary w.

    For w = -i dt/2 the complex product w * potential has real part +-0 and
    imaginary part exactly w.imag * potential, and exp(+-0 + iy) is
    cos y + i sin y, so one cos and one sin pass into a single complex
    buffer give the bits of the complex exponential.
    """
    if np.isrealobj(w):
        return psi * np.exp(w * potential)
    x = w.imag * potential
    factor = np.empty(x.shape, dtype=np.complex128)
    np.cos(x, out=factor.real)
    np.sin(x, out=factor.imag)
    return np.multiply(psi, factor, out=factor)


def _field_table(field: ExternalField, grid: Lattice2D, t: float) -> np.ndarray:
    """Read-only A_t on grid, evaluated only when (grid, t) differs from the
    last table read from this field; t is compared by its bits, so -0.0 and
    0.0 are different times."""
    key = (grid, float(t).hex())
    memo = field._memo
    last = memo[0]
    if last is not None and last[0] == key:
        return last[1]
    table = field.evaluate(grid, t)
    table.flags.writeable = False
    memo[0] = (key, table)
    return table


def step(state: GpState, field: ExternalField, params: GpParams,
         dt: float | None = None) -> GpState:
    """One Strang step; dt overrides params.dt (negative reverses time)."""
    dt = params.dt if dt is None else float(dt)
    grid = state.grid
    psi = _strang(state.amplitudes, grid, params.coupling, _field_table(field, grid, state.time),
                  _field_table(field, grid, state.time + dt), 1j * dt)
    return GpState(grid, psi, state.time + dt)


def propagate(state: GpState, field: ExternalField, params: GpParams, n_steps: int,
              observer: Callable[[GpState], None] | None = None) -> GpState:
    """Advance n_steps, handing the initial state and each stepped state to
    the observer when one is given."""
    if observer is not None:
        observer(state)
    for _ in range(int(n_steps)):
        state = step(state, field, params)
        if observer is not None:
            observer(state)
    return state


def gp_energy(state: GpState, field: ExternalField, params: GpParams) -> float:
    """Kinetic term by Parseval plus potential and interaction quadratures."""
    return _mean_field_energy(state.amplitudes, state.grid, params.coupling,
                              _field_table(field, state.grid, state.time))


def _mean_field_energy(psi: np.ndarray, lattice: Lattice2D, coupling: float,
                       a_now: np.ndarray) -> float:
    """Energy of a field on a periodic lattice under the external table a_now."""
    cell = lattice.spacing ** 2
    symbol = lattice.kinetic_symbol()
    if np.isrealobj(psi):
        # rfft2 keeps columns 0 .. m // 2; every other column also stands for
        # its mirror m - j, except column 0 and, for even m, column m / 2.
        power = np.abs(scipy.fft.rfft2(psi)) ** 2
        power[:, 1:(lattice.m + 1) // 2] *= 2.0
        symbol = symbol[:, : lattice.m // 2 + 1]
    else:
        power = np.abs(scipy.fft.fft2(psi)) ** 2
    kinetic = float(np.sum(symbol * power)) * cell / lattice.d
    density = np.abs(psi) ** 2
    potential = float(np.sum((a_now + 0.5 * coupling * density) * density)) * cell
    return kinetic + potential


def ground_state(field: ExternalField, params: GpParams, seed: GpState,
                 energy_tol: float = 1e-10, max_steps: int = 100000) -> GpState:
    """Imaginary-time descent to the energy minimizer with the field at t = 0.

    Normalized gradient-flow steps, `_strang` at real z = tau; a step
    that fails to decrease the energy is rejected and retried at half the
    step size. A seed whose imaginary part is identically zero descends in
    real arithmetic (every factor of the splitting is real, so the field
    stays real) and returns a state with imaginary part exactly 0; any other
    seed descends in complex arithmetic. A step size collapsing below 1e-14,
    or max_steps iterations without convergence, raises RuntimeError with
    the descent record: iterations, accepted and rejected steps, the last
    energy and gain, and the current step size.
    """
    grid = seed.grid
    a_now = _field_table(field, grid, 0.0)
    psi = seed.normalized().amplitudes
    if not psi.imag.any():
        psi = np.ascontiguousarray(psi.real)
    tau = params.dt
    energy = _mean_field_energy(psi, grid, params.coupling, a_now)
    gain, rejected = math.nan, 0

    def record(iterations: int) -> str:
        return (f"{iterations} iterations ({iterations - rejected} accepted, {rejected} "
                f"rejected), energy {energy:.12e}, last gain {gain:.3e}, step size {tau:.3e}")

    for iteration in range(int(max_steps)):
        candidate = _strang(psi, grid, params.coupling, a_now, a_now, tau)
        candidate /= math.sqrt(float(np.sum(np.abs(candidate) ** 2)) * grid.spacing ** 2)
        e_new = _mean_field_energy(candidate, grid, params.coupling, a_now)
        if not e_new <= energy:  # a rise, or a NaN from an overflowing step
            tau *= 0.5
            rejected += 1
            if tau < 1e-14:
                raise RuntimeError("imaginary-time descent stalled, step size underflowed "
                                   f"after {record(iteration + 1)}")
            continue
        psi, gain = candidate, energy - e_new
        energy = e_new
        if gain < energy_tol:
            break
    else:
        raise RuntimeError(f"imaginary-time descent did not converge in {max_steps} steps: "
                           f"{record(int(max_steps))}")
    return GpState(grid, psi, 0.0)

