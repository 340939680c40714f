"""Property tests of the shared periodic lattice, the count algebra and the
radial scattering solve against independent closed-form and dense oracles."""
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import i0, i1

from bosons2d.diagnostics import (
    CondensateProjector,
    WeightFunction,
    apply_weight,
    count_components,
    mean_field_energy,
)
from bosons2d.fewbody import Lattice2D
from bosons2d.scattering import scaled_scattering_identity, solve_zero_energy, square_well


def dense_minus_laplacian(m: int, box_length: float) -> np.ndarray:
    """-Laplacian on the m x m periodic lattice as a dense (m^2, m^2) matrix.

    Built from an explicit DFT matrix over the integer frequencies
    f = j for j <= m/2 and j - m above, independently of numpy's fftfreq;
    for even m the Nyquist row takes f = +m/2, whose square is the same.
    """
    j = np.arange(m)
    freqs = np.where(j <= m // 2, j, j - m)
    dft = np.exp(-2j * math.pi * np.outer(j, j) / m)
    symbol = (2.0 * math.pi * freqs / box_length) ** 2
    one_axis = (dft.conj().T * symbol) @ dft / m
    eye = np.eye(m)
    return np.kron(one_axis, eye) + np.kron(eye, one_axis)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 9),
       box_length=st.floats(0.25, 8.0),
       coupling=st.floats(0.0, 20.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mean_field_energy_matches_dense_oracle(m, box_length, coupling, seed):
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    cell = lattice.spacing ** 2
    phi = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    phi /= math.sqrt(float(np.sum(np.abs(phi) ** 2)) * cell)
    field = rng.uniform(-5.0, 5.0, size=(m, m))

    flat = phi.ravel()
    kinetic = np.real(np.vdot(flat, dense_minus_laplacian(m, box_length) @ flat)) * cell
    local = np.sum((field.ravel() + 0.5 * coupling * np.abs(flat) ** 2)
                   * np.abs(flat) ** 2) * cell
    scale = abs(kinetic) + np.sum((np.abs(field.ravel()) + 0.5 * coupling
                                   * np.abs(flat) ** 2) * np.abs(flat) ** 2) * cell
    assert mean_field_energy(phi, lattice, coupling, field) \
        == pytest.approx(kinetic + local, rel=1e-12, abs=1e-12 * scale)

    symbol = lattice.kinetic_symbol()
    assert not symbol.flags.writeable
    with pytest.raises(ValueError):
        symbol[0, 0] = 1.0


def kronecker_count_projections(p: np.ndarray, q: np.ndarray, n: int) -> list[np.ndarray]:
    """Dense P_0..P_n on n particles.

    P_k sums, over the k-subsets of the particles, the Kronecker product with
    q on the subset and p elsewhere; particle 0 is the most significant index,
    as in the C-order ravel of an amplitude tensor.
    """
    return [sum(functools.reduce(np.kron, [q if j in subset else p for j in range(n)])
                for subset in itertools.combinations(range(n), k))
            for k in range(n + 1)]


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 3), m=st.integers(2, 3),
       box_length=st.floats(0.25, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_count_algebra_matches_kronecker_oracle(n, m, box_length, seed):
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    phi = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    phi /= math.sqrt(float(np.sum(np.abs(phi) ** 2)) * lattice.spacing ** 2)
    projector = CondensateProjector(lattice, phi)
    d = lattice.d
    projections = kronecker_count_projections(projector.p_matrix, projector.q_matrix, n)
    amplitudes = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
    flat = amplitudes.ravel()
    scale = np.linalg.norm(flat)

    for part, dense in zip(count_components(amplitudes, projector), projections):
        assert np.linalg.norm(part.ravel() - dense @ flat) <= 1e-12 * scale

    weight = WeightFunction(rng.uniform(-1.0, 1.0, n + 1))
    weighted = sum(w * dense for w, dense in zip(weight.values, projections))
    assert (np.linalg.norm(apply_weight(amplitudes, projector, weight).ravel()
                           - weighted @ flat) <= 1e-12 * scale)

    assert np.max(np.abs(sum(projections) - np.eye(d ** n))) <= 1e-12

    p_first = np.kron(projector.p_matrix, np.eye(d ** (n - 1)))
    assert (np.linalg.norm(weighted @ p_first - p_first @ weighted)
            <= 1e-12 * np.linalg.norm(weighted))


@settings(max_examples=30, deadline=None)
@given(r0=st.floats(0.1, 1.0), x=st.floats(0.3, 5.0),
       boundary_ratio=st.floats(1.05, 8.0), N=st.integers(0, 20))
def test_square_well_solve_matches_bessel_oracle(r0, x, boundary_ratio, N):
    """Inside a well of height h the regular solution is I0(x r / r0) with
    x = r0 sqrt(h/2); matching the exterior logarithm at r0 gives
    a = r0 exp(-I0(x) / (x I1(x))). Below x ~ 0.15 this form itself loses
    accuracy (its error grows like 2/x^2), hence the lower bound on x."""
    well = square_well(2.0 * (x / r0) ** 2, r0)
    R = r0 * boundary_ratio
    a = r0 * math.exp(-i0(x) / (x * i1(x)))
    sol = solve_zero_energy(well, R)
    assert sol.scattering_length == pytest.approx(a, rel=1e-8, abs=0.0)
    assert sol.integral_I == pytest.approx(4.0 * math.pi / math.log(R / a), rel=1e-8, abs=0.0)
    assert scaled_scattering_identity(well, N, R) \
        == pytest.approx(4.0 * math.pi / (N + math.log(R / a)), rel=1e-8, abs=0.0)
    s = sol.evaluate(np.linspace(0.0, R, 401))
    assert np.all(np.diff(s) >= 0.0)
    assert abs(s[-1] - 1.0) <= 1e-12
