"""Property tests of the shared periodic lattice, the one Strang stepper, the
few-body Hamiltonian's action, the count algebra, the radial scattering solve
and config canonicalization, against independent closed-form and dense
oracles."""
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import i0, i1

from bosons2d.cli import SCENARIOS, canonical_dict, config_hash, load_config
from bosons2d.diagnostics import (
    CondensateProjector,
    WeightFunction,
    apply_weight,
    count_components,
    mean_field_energy,
    mean_field_step,
)
from bosons2d.fewbody import DiscreteHamiltonian, Lattice2D, dense_matrix
from bosons2d.gp import ExternalField, GpParams, GpState, Grid2D, step
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


def random_field(rng: np.random.Generator, lattice: Lattice2D) -> np.ndarray:
    m = lattice.m
    phi = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return phi / math.sqrt(float(np.sum(np.abs(phi) ** 2)) * lattice.spacing ** 2)


def both_steppers(phi: np.ndarray, m: int, box_length: float, coupling: float,
                  table: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One step of gp.step under a static field and one of mean_field_step."""
    static = ExternalField.from_function(lambda x, y, t: table)
    grid_step = step(GpState(Grid2D(m, box_length), phi), static,
                     GpParams(coupling, dt=abs(dt)), dt=dt).amplitudes
    return grid_step, mean_field_step(phi, Lattice2D(m, box_length), coupling, table, dt=dt)


stepper_cases = dict(
    m=st.sampled_from([2, 4, 8]),
    box_length=st.floats(0.5, 8.0),
    dt=st.floats(1e-4, 5e-2).flatmap(lambda v: st.sampled_from([v, -v])),
    seed=st.integers(0, 2 ** 32 - 1))


@settings(max_examples=40, deadline=None)
@given(**stepper_cases)
def test_linear_step_matches_dense_exponential(m, box_length, dt, seed):
    """With b = 0 one step is diag(e^(-i dt A/2)) expm(-i dt K) diag(e^(-i dt A/2))."""
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    phi = random_field(rng, lattice)
    table = rng.uniform(-5.0, 5.0, size=(m, m))
    half = np.exp(-0.5j * dt * table.ravel())
    oracle = half * (expm(-1j * dt * dense_minus_laplacian(m, box_length)) @ (half * phi.ravel()))
    scale = np.max(np.abs(phi))
    for stepped in both_steppers(phi, m, box_length, 0.0, table, dt):
        assert np.max(np.abs(stepped.ravel() - oracle)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(coupling=st.floats(0.1, 50.0), **stepper_cases)
def test_nonlinear_step_is_reversible_unitary_and_shared(m, box_length, dt, seed, coupling):
    """step(-dt) o step(dt) is the identity, the norm is kept, and gp.step and
    mean_field_step give the same bits for the same static table."""
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    phi = random_field(rng, lattice)
    table = rng.uniform(-5.0, 5.0, size=(m, m))
    grid_step, lattice_step = both_steppers(phi, m, box_length, coupling, table, dt)
    assert np.array_equal(grid_step, lattice_step)
    back = mean_field_step(lattice_step, lattice, coupling, table, dt=-dt)
    scale = np.max(np.abs(phi))
    assert np.max(np.abs(back - phi)) <= 1e-12 * scale
    cell = lattice.spacing ** 2
    assert float(np.sum(np.abs(lattice_step) ** 2)) * cell == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS),
       seed=st.integers(0, 10 ** 6),
       coupling=st.floats(0.0, 100.0),
       xi=st.floats(0.01, 0.49),
       box_length=st.floats(0.25, 8.0),
       threads=st.integers(1, 4),
       height=st.floats(0.5, 10.0))
def test_canonical_config_round_trips(scenario, seed, coupling, xi, box_length, threads,
                                      height):
    config = load_config(scenario, {"seed": seed, "coupling": coupling, "xi": xi,
                                    "box_length": box_length, "threads": threads,
                                    "potential": {"height": height}})
    again = load_config(scenario, canonical_dict(config))
    assert again == config
    assert config_hash(again) == config_hash(config)


@settings(max_examples=30, deadline=None)
@given(n_and_m=st.sampled_from([(n, m) for m in range(2, 7) for n in range(1, 4)
                                if (m * m) ** n <= 4096]),
       box_length=st.floats(0.25, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hamiltonian_action_matches_its_dense_matrix(n_and_m, box_length, seed):
    """apply(v) against dense_matrix(H) @ v: the dense matrix is assembled
    from Kronecker sums of the kinetic circulant without calling apply."""
    n, m = n_and_m
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    hamiltonian = DiscreteHamiltonian(lattice, n, lattice.kinetic_symbol(),
                                      rng.uniform(0.0, 10.0, size=(m, m)),
                                      rng.uniform(-5.0, 5.0, size=(m, m)))
    dense = dense_matrix(hamiltonian)
    assert dense.dtype == np.float64
    assert np.array_equal(dense, dense.T)

    shape = (lattice.d,) * n
    amplitudes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    flat = amplitudes.ravel()
    oracle = dense @ flat.real + 1j * (dense @ flat.imag)
    # The largest absolute row sum bounds the spectral norm of H.
    scale = np.max(np.sum(np.abs(dense), axis=1)) * np.linalg.norm(flat)
    assert np.linalg.norm(hamiltonian.apply(amplitudes).ravel() - oracle) <= 1e-12 * scale


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
@given(n_and_m=st.sampled_from([(n, m) for m in (2, 3) for n in range(2, 6)
                                if (m * m) ** n <= 1024]),
       box_length=st.floats(0.25, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_count_algebra_matches_kronecker_oracle(n_and_m, box_length, seed):
    n, m = n_and_m
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    projector = CondensateProjector(lattice, random_field(rng, lattice))
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
