"""Time-dependent Gross-Pitaevskii propagation on a 2D periodic box.

The equation i d/dt psi = (-Laplacian + A_t) psi + b |psi|^2 psi is advanced
by Strang splitting: a half step of the pointwise phase exp(-i dt/2
(A + b|psi|^2)), a full spectral kinetic step exp(-i dt |k|^2), and a half
step of the phase at the advanced time. Every stage is unitary, so the
discrete L2 norm is conserved to roundoff regardless of dt; accuracy (not
stability) is the only dt constraint, monitored through the energy.

One private splitting, `_strang`, applies exp(-z H) in this order for a
complex time z: z = i dt is the real-time step of `step` and of the lattice
mean-field surrogate `diagnostics.mean_field_step`, and a real z = tau is the
normalized gradient-flow step of `ground_state`.

Nothing a step cannot change is rebuilt per step. The kinetic factor
exp(-z |k|^2) comes from `Lattice2D.kinetic_factor(z)`, cached per (lattice,
z) and read-only. The field table A_t is read through a one-entry memo on the
`ExternalField`, keyed on the grid and the exact float time, so a step's end
table is the next step's start table and an energy at the current time costs
no evaluation; the memoized table is read-only, and the field must be a pure
function of (x, y, t). Both caches return the very arrays the uncached code
would build, so every result keeps its bits.

The kinetic symbol carries no 1/2: the Laplacian enters the equation bare,
which fixes the free dispersion at |k|^2 and the Gaussian spreading law used
by the tests.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import warnings
from typing import Any, Callable, Sequence, TextIO

import numpy as np
import scipy.fft
from scipy.interpolate import CubicSpline

__all__ = [
    "Lattice2D",
    "Grid2D",
    "GpState",
    "ExternalField",
    "GpParams",
    "step",
    "propagate",
    "gp_energy",
    "ground_state",
    "spectral_tail_fraction",
    "trajectory_recorder",
    "write_checkpoint",
    "read_checkpoint",
]


@dataclasses.dataclass(frozen=True)
class Lattice2D:
    """Periodic m x m lattice on [0, L)^2; single-particle dimension m^2."""
    m: int
    box_length: float

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if not (self.box_length > 0):
            raise ValueError("box_length must be positive")

    @property
    def d(self) -> int:
        return self.m * self.m

    @property
    def spacing(self) -> float:
        return self.box_length / self.m

    def axis(self) -> np.ndarray:
        return np.arange(self.m) * self.spacing

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        ax = self.axis()
        return np.meshgrid(ax, ax, indexing="ij")

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


@dataclasses.dataclass(frozen=True)
class Grid2D(Lattice2D):
    """Periodic grid for GP propagation: a lattice whose point count is a power of two."""

    def __post_init__(self) -> None:
        if self.m < 2 or (self.m & (self.m - 1)) != 0:
            raise ValueError("n must be a power of two, at least 2")
        super().__post_init__()

    @property
    def n(self) -> int:
        return self.m


@dataclasses.dataclass(frozen=True)
class GpState:
    """Complex field on a grid at a time; propagation keeps the L2 norm 1."""
    grid: Grid2D
    amplitudes: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128)
        if amp.shape != (self.grid.n, self.grid.n):
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
    """Bounded external potential A_t with a time derivative accessor.

    Built either from a closed form (x, y, t) -> values or from tabulated
    time snapshots with cubic interpolation. The time derivative uses the
    analytic form when given, the spline derivative for snapshots, and a
    centered difference otherwise. The stepper reads tables through a
    one-entry memo held on the instance, so a closed form must be a pure
    function of (x, y, t).
    """
    func: Callable[[np.ndarray, np.ndarray, float], np.ndarray | float] | None = None
    func_dot: Callable[[np.ndarray, np.ndarray, float], np.ndarray | float] | None = None
    _spline: CubicSpline | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "_memo", [None])

    @classmethod
    def from_function(cls, func: Callable[[np.ndarray, np.ndarray, float], np.ndarray | float],
                      func_dot: Callable[[np.ndarray, np.ndarray, float], np.ndarray | float] | None = None,
                      ) -> "ExternalField":
        return cls(func=func, func_dot=func_dot)

    @classmethod
    def from_snapshots(cls, times: Sequence[float], fields: np.ndarray) -> "ExternalField":
        times = np.asarray(times, dtype=float)
        fields = np.asarray(fields, dtype=float)
        if times.ndim != 1 or times.size < 4 or np.any(np.diff(times) <= 0):
            raise ValueError("need at least 4 strictly increasing snapshot times for cubic interpolation")
        if fields.shape[0] != times.size or fields.ndim != 3:
            raise ValueError("fields must be a (len(times), n, n) stack")
        return cls(_spline=CubicSpline(times, fields, axis=0))

    @classmethod
    def zero(cls) -> "ExternalField":
        return cls(func=lambda x, y, t: np.zeros_like(x))

    def evaluate(self, grid: Grid2D, t: float) -> np.ndarray:
        if self._spline is not None:
            a = np.asarray(self._spline(t), dtype=float)
        elif self.func is not None:
            xx, yy = grid.meshes()
            a = np.broadcast_to(np.asarray(self.func(xx, yy, t), dtype=float), xx.shape)
        else:
            raise ValueError("field has neither a closed form nor snapshots")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"external field is not bounded at t={t}")
        return a

    def time_derivative(self, grid: Grid2D, t: float) -> np.ndarray:
        if self.func_dot is not None:
            xx, yy = grid.meshes()
            return np.broadcast_to(np.asarray(self.func_dot(xx, yy, t), dtype=float),
                                   xx.shape)
        if self._spline is not None:
            return np.asarray(self._spline(t, 1), dtype=float)
        h = 1e-6 * max(1.0, abs(t))
        return (self.evaluate(grid, t + h) - self.evaluate(grid, t - h)) / (2.0 * h)


@dataclasses.dataclass(frozen=True)
class GpParams:
    """Coupling b >= 0 and time step; workers threads the transforms."""
    coupling: float
    dt: float = 1e-3
    workers: int = 1

    def __post_init__(self) -> None:
        if self.coupling < 0:
            raise ValueError("coupling must be nonnegative")
        if not (self.dt > 0):
            raise ValueError("dt must be positive")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


def _strang(psi: np.ndarray, lattice: Lattice2D, coupling: float, a_now: np.ndarray,
            a_next: np.ndarray, z: complex, workers: int = 1) -> np.ndarray:
    """exp(-z H) by Strang splitting: half phase under a_now, kinetic factor
    exp(-z |k|^2), half phase under a_next and the updated density."""
    psi = psi * np.exp(-0.5 * z * (a_now + coupling * np.abs(psi) ** 2))
    psi_hat = scipy.fft.fft2(psi, workers=workers)
    psi_hat *= lattice.kinetic_factor(z)
    psi = scipy.fft.ifft2(psi_hat, workers=workers)
    return psi * np.exp(-0.5 * z * (a_next + coupling * np.abs(psi) ** 2))


def _field_table(field: ExternalField, grid: Grid2D, t: float) -> np.ndarray:
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
                  _field_table(field, grid, state.time + dt), 1j * dt, params.workers)
    return GpState(grid, psi, state.time + dt)


def propagate(state: GpState, field: ExternalField, params: GpParams, n_steps: int,
              observer: Callable[[GpState], None] | None = None,
              monitor_energy: bool = False, drift_tolerance: float = 1e-6,
              check_every: int = 100) -> GpState:
    """Advance n_steps, optionally streaming states to an observer.

    With monitor_energy the energy is sampled every check_every steps and a
    relative drift per unit time above drift_tolerance raises a
    RuntimeWarning: for a static field the splitting conserves energy to
    O(dt^2), so a large drift flags a too-large dt rather than instability.
    """
    if observer is not None:
        observer(state)
    e_ref = gp_energy(state, field, params) if monitor_energy else 0.0
    t_ref = state.time
    for i in range(int(n_steps)):
        state = step(state, field, params)
        if observer is not None:
            observer(state)
        if monitor_energy and (i + 1) % check_every == 0:
            elapsed = max(abs(state.time - t_ref), params.dt)
            drift = abs(gp_energy(state, field, params) - e_ref)
            if drift > drift_tolerance * max(1.0, abs(e_ref)) * elapsed:
                warnings.warn(
                    f"energy drift {drift:.3e} over {elapsed:.3e} time units; "
                    "dt may be too large", RuntimeWarning, stacklevel=2)
    return state


def gp_energy(state: GpState, field: ExternalField, params: GpParams) -> float:
    """Kinetic term by Parseval plus potential and interaction quadratures."""
    return _mean_field_energy(state.amplitudes, state.grid, params.coupling,
                              _field_table(field, state.grid, state.time), params.workers)


def _mean_field_energy(psi: np.ndarray, lattice: Lattice2D, coupling: float,
                       a_now: np.ndarray, workers: int = 1) -> float:
    """Energy of a field on a periodic lattice under the external table a_now."""
    cell = lattice.spacing ** 2
    psi_hat = scipy.fft.fft2(psi, workers=workers)
    kinetic = float(np.sum(lattice.kinetic_symbol() * np.abs(psi_hat) ** 2)) * cell / lattice.d
    density = np.abs(psi) ** 2
    potential = float(np.sum((a_now + 0.5 * coupling * density) * density)) * cell
    return kinetic + potential


def spectral_tail_fraction(state: GpState) -> float:
    """Mass fraction above 2/3 of the Nyquist wavenumber, a smoothness proxy.

    Propagation assumes the field stays spectrally resolved; a growing tail
    means the grid no longer supports the regularity the scheme needs.
    """
    grid = state.grid
    psi_hat = scipy.fft.fft2(state.amplitudes)
    k = grid.wavenumbers()
    k_cut = (2.0 / 3.0) * math.pi / grid.spacing
    tail = (np.abs(k[:, None]) > k_cut) | (np.abs(k[None, :]) > k_cut)
    total = float(np.sum(np.abs(psi_hat) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(psi_hat[tail]) ** 2)) / total


def ground_state(field: ExternalField, params: GpParams, seed: GpState,
                 energy_tol: float = 1e-10, max_steps: int = 100000) -> GpState:
    """Imaginary-time descent to the energy minimizer with the field at t = 0.

    Normalized gradient-flow steps, `_strang` at real z = tau; a step
    that fails to decrease the energy is rejected and retried at half the
    step size, and a step size collapsing below 1e-14 raises RuntimeError
    with the descent record.
    """
    grid = seed.grid
    a_now = _field_table(field, grid, 0.0)
    psi = seed.normalized().amplitudes
    tau = params.dt
    energy = _mean_field_energy(psi, grid, params.coupling, a_now, params.workers)
    for iteration in range(int(max_steps)):
        candidate = _strang(psi, grid, params.coupling, a_now, a_now, tau, params.workers)
        candidate /= math.sqrt(float(np.sum(np.abs(candidate) ** 2)) * grid.spacing ** 2)
        e_new = _mean_field_energy(candidate, grid, params.coupling, a_now, params.workers)
        if e_new > energy:
            tau *= 0.5
            if tau < 1e-14:
                raise RuntimeError(
                    f"imaginary-time descent stalled after {iteration} accepted steps: "
                    f"energy {energy:.12e}, step size underflowed")
            continue
        psi, gain = candidate, energy - e_new
        energy = e_new
        if gain < energy_tol:
            break
    else:
        raise RuntimeError(f"imaginary-time descent did not converge in {max_steps} steps")
    return GpState(grid, psi, 0.0)


def _csv_recorder(stream: TextIO, header: str,
                  row: Callable[[Any], tuple[float, ...]]) -> Callable[[Any], None]:
    """Observer writing the header line now and one %.17g CSV row per state."""
    stream.write(header + "\n")

    def record(state: Any) -> None:
        stream.write(",".join("%.17g" % value for value in row(state)) + "\n")

    return record


def trajectory_recorder(stream: TextIO, field: ExternalField,
                        params: GpParams) -> Callable[[GpState], None]:
    """Observer writing CSV rows (t, norm, energy, peak density) to a stream."""
    return _csv_recorder(stream, "t,norm,energy,peak_density", lambda state: (
        state.time, state.norm(), gp_energy(state, field, params),
        float(np.max(np.abs(state.amplitudes) ** 2))))


_CHECKPOINT_CODES = {"complex64": "<c8", "complex128": "<c16"}


def _write_tensor(path: str, amplitudes: np.ndarray, sidecar: dict) -> None:
    """Raw little-endian C-order samples at path, the sidecar at path + '.json'."""
    amplitudes.astype(_CHECKPOINT_CODES[sidecar["dtype"]]).tofile(path)
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump({**sidecar, "format_version": 1}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_tensor(path: str, shape_of: Callable[[dict], tuple[int, ...]]
                 ) -> tuple[np.ndarray, dict]:
    """Inverse of _write_tensor; shape_of maps the sidecar to the tensor shape."""
    with open(path + ".json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    dtype = sidecar.get("dtype")
    if dtype not in _CHECKPOINT_CODES:
        raise ValueError(f"checkpoint sidecar field 'dtype' must be complex64 or "
                         f"complex128, got {dtype!r}")
    order = sidecar.get("order", "C")
    if order != "C":
        raise ValueError(f"checkpoint sidecar field 'order' must be 'C', got {order!r}")
    version = sidecar.get("format_version", 1)
    if type(version) is not int or version != 1:
        raise ValueError(f"checkpoint sidecar field 'format_version' must be 1, got {version!r}")
    shape = shape_of(sidecar)
    raw = np.fromfile(path, dtype=_CHECKPOINT_CODES[dtype])
    if raw.size != math.prod(shape):
        raise ValueError(f"checkpoint holds {raw.size} samples, expected {math.prod(shape)}")
    return raw.astype(np.complex128).reshape(shape), sidecar


def write_checkpoint(state: GpState, path: str, params: GpParams | None = None,
                     dtype: str = "complex128") -> None:
    """Raw little-endian complex array plus a JSON sidecar at path + '.json'."""
    if dtype not in _CHECKPOINT_CODES:
        raise ValueError("checkpoint dtype must be complex64 or complex128")
    sidecar = {
        "n": state.grid.n,
        "box_length": state.grid.box_length,
        "time": state.time,
        "dtype": dtype,
        "order": "C",
    }
    if params is not None:
        sidecar["coupling"] = params.coupling
        sidecar["dt"] = params.dt
    _write_tensor(path, state.amplitudes, sidecar)


def read_checkpoint(path: str) -> tuple[GpState, dict]:
    amp, sidecar = _read_tensor(path, lambda meta: (int(meta["n"]),) * 2)
    grid = Grid2D(int(sidecar["n"]), float(sidecar["box_length"]))
    return GpState(grid, amp, float(sidecar["time"])), sidecar
