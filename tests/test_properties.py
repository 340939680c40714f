"""Property tests of the shared periodic lattice, the one Strang stepper and
its caches, the few-body Hamiltonian's action, the count algebra, the radial
scattering solve, the nested-node Simpson halving, checkpoints and config
canonicalization, against independent closed-form and dense oracles."""
import functools
import itertools
import json
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.special import i0, i1

from bosons2d import diagnostics
from bosons2d.cli import SCENARIOS, canonical_dict, config_hash, load_config
from bosons2d.diagnostics import (
    EFFECTIVE_COUPLING,
    CondensateProjector,
    WeightFunction,
    apply_pair_table,
    apply_weight,
    count_components,
    counting_difference,
    counting_weight,
    diagnostics_report,
    gamma1,
    mean_field_energy,
    mean_field_step,
    trace_distance,
)
from bosons2d.fewbody import (
    DiscreteHamiltonian,
    FewBodyState,
    Lattice2D,
    _pair_site_table,
    build_hamiltonian,
    dense_matrix,
    energy_per_particle,
    propagate,
)
from bosons2d.gp import (
    ExternalField,
    GpParams,
    GpState,
    _field_table,
    step,
)
from bosons2d.quadrature import (
    _ATOL,
    _MAX_DOUBLINGS,
    _N0,
    composite_simpson,
    simpson_with_halving,
)
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
       real=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mean_field_energy_matches_dense_oracle(m, box_length, coupling, real, seed):
    """A real phi takes the energy's rfft2 branch, whose half spectrum counts
    a mirrored column twice: odd m has no unpaired Nyquist column."""
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    cell = lattice.spacing ** 2
    phi = rng.normal(size=(m, m)) + (0.0 if real else 1j * rng.normal(size=(m, m)))
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

    for table in (lattice.kinetic_symbol(), *lattice.meshes()):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


def random_field(rng: np.random.Generator, lattice: Lattice2D) -> np.ndarray:
    m = lattice.m
    phi = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return phi / math.sqrt(float(np.sum(np.abs(phi) ** 2)) * lattice.spacing ** 2)


def both_steppers(phi: np.ndarray, m: int, box_length: float, coupling: float,
                  table: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One step of gp.step under a static field and one of mean_field_step."""
    static = ExternalField.from_function(lambda x, y, t: table)
    grid_step = step(GpState(Lattice2D(m, box_length), phi), static,
                     GpParams(coupling, dt=abs(dt)), dt=dt).amplitudes
    return grid_step, mean_field_step(phi, Lattice2D(m, box_length), coupling, table, dt=dt)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 9),
       box_length=st.floats(0.25, 8.0),
       coupling=st.floats(0.0, 20.0),
       dt=st.floats(1e-4, 5e-2).flatmap(lambda v: st.sampled_from([v, -v])),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mean_field_step_of_a_real_field_is_the_complex_step(m, box_length, coupling, dt,
                                                             seed):
    """A real phi with z = i dt takes the complex transforms: the bits of the
    same field stored as complex."""
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    phi = rng.normal(size=(m, m))
    table = rng.uniform(-5.0, 5.0, size=(m, m))
    stepped = mean_field_step(phi, lattice, coupling, table, dt=dt)
    assert stepped.dtype == np.complex128
    assert np.array_equal(stepped.view(np.uint64),
                          mean_field_step(phi.astype(np.complex128), lattice, coupling, table,
                                          dt=dt).view(np.uint64))


stepper_cases = dict(
    m=st.integers(2, 9),
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
@given(n=st.integers(2, 64),
       box_length=st.floats(0.5, 8.0),
       coupling=st.floats(0.1, 50.0),
       dt=st.floats(1e-4, 5e-2),
       start=st.floats(-10.0, 10.0),
       driven=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_grid_step_is_reversed_by_the_negative_step(n, box_length, coupling, dt, start,
                                                    driven, seed):
    """gp.step(-dt) after gp.step(dt) gives back the start state, for a static
    field and for a time-dependent one, with b > 0."""
    rng = np.random.default_rng(seed)
    a, omega = rng.uniform(-5.0, 5.0, size=2)
    if driven:
        field = ExternalField.from_function(lambda x, y, t: a * np.cos(x + omega * t) * np.sin(y))
    else:
        field = ExternalField.from_function(lambda x, y, t: a * np.cos(x) * np.sin(y))
    grid = Lattice2D(n, box_length)
    state = GpState(grid, random_field(rng, grid), start)
    params = GpParams(coupling, dt=dt)
    back = step(step(state, field, params, dt=dt), field, params, dt=-dt)
    norm = math.sqrt(float(np.sum(np.abs(state.amplitudes) ** 2)))
    assert np.linalg.norm(back.amplitudes - state.amplitudes) <= 1e-12 * norm


def fresh_strang_step(psi: np.ndarray, grid: Lattice2D, coupling: float, field: ExternalField,
                      t: float, dt: float) -> np.ndarray:
    """One Strang step that caches nothing: the field is evaluated at both
    half steps and exp(-i dt |k|^2) is rebuilt from the wavenumbers."""
    k = grid.wavenumbers()
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    z = 1j * dt
    psi = psi * np.exp(-0.5 * z * (field.evaluate(grid, t) + coupling * np.abs(psi) ** 2))
    psi_hat = scipy.fft.fft2(psi)
    psi_hat *= np.exp(-z * k2)
    psi = scipy.fft.ifft2(psi_hat)
    return psi * np.exp(-0.5 * z * (field.evaluate(grid, t + dt)
                                    + coupling * np.abs(psi) ** 2))


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(2, 32), min_size=2, max_size=2),
       box_lengths=st.lists(st.floats(0.5, 8.0), min_size=2, max_size=2),
       coupling=st.floats(0.0, 50.0),
       dt=st.floats(1e-4, 5e-2),
       signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=1, max_size=8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_cached_step_matches_a_fresh_strang_step(sizes, box_lengths, coupling, dt, signs,
                                                 seed):
    """gp.step with its kinetic-factor cache and field-table memo gives the
    bits of a step that rebuilds both, for one time-dependent field shared by
    two grids stepped in alternation from the same time with mixed +dt and
    -dt."""
    rng = np.random.default_rng(seed)
    a, b, omega = rng.uniform(-5.0, 5.0, size=3)
    field = ExternalField.from_function(
        lambda x, y, t: a * np.cos(x + omega * t) + b * np.sin(y - t) * np.cos(x))
    params = GpParams(coupling, dt=dt)
    start = rng.uniform(-1.0, 1.0)
    states = [GpState(grid, random_field(rng, grid), start)
              for grid in (Lattice2D(n, box) for n, box in zip(sizes, box_lengths))]
    for sign in signs:
        for index, state in enumerate(states):
            expected = fresh_strang_step(state.amplitudes, state.grid, coupling, field,
                                         state.time, sign * dt)
            states[index] = step(state, field, params, dt=sign * dt)
            assert np.array_equal(states[index].amplitudes, expected)
            assert states[index].time == state.time + sign * dt

    grid, time = states[-1].grid, states[-1].time
    table = _field_table(field, grid, time)
    assert np.array_equal(table, field.evaluate(grid, time))
    factor = grid.kinetic_factor(1j * dt)
    for cached in (table, factor):
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0, 0] = 0.0


@settings(max_examples=40, deadline=None)
@given(scenario=st.sampled_from(SCENARIOS),
       seed=st.integers(0, 10 ** 6),
       coupling=st.floats(0.0, 100.0),
       xi=st.floats(0.01, 0.49),
       box_length=st.floats(0.25, 8.0),
       height=st.floats(0.5, 10.0))
def test_canonical_config_round_trips(scenario, seed, coupling, xi, box_length, height):
    config = load_config(scenario, {"seed": seed, "coupling": coupling, "xi": xi,
                                    "box_length": box_length,
                                    "potential": {"height": height}})
    again = load_config(scenario, canonical_dict(config))
    assert again == config
    assert config_hash(again) == config_hash(config)


sweep_values = st.lists(st.integers(2, 4096), min_size=1, max_size=5)
scenario_values = {"scattering": sweep_values, "microscopic": sweep_values,
                   "smearing": sweep_values, "gp": st.just([1]),
                   "fewbody": st.just([2]), "compare": st.just([2])}


@st.composite
def scenario_overrides(draw):
    """A scenario and overrides across its fields; float fields may be drawn
    as ints and sequences as lists, as a JSON config file would give them."""
    scenario = draw(st.sampled_from(SCENARIOS))
    number = st.one_of(st.integers(1, 8), st.floats(0.1, 8.0))
    beta = draw(st.floats(0.1, 2.0))
    t_final = draw(st.one_of(st.just(1), st.floats(0.01, 1.0)))
    groups = {
        "n_values": {"n_values": draw(scenario_values[scenario])},
        "beta": {"beta": beta, "beta1": draw(st.floats(0.01, 0.99)) * beta},
        "coupling": {"coupling": draw(number)},
        "grid_points": {"grid_points": draw(st.sampled_from([4, 8, 16, 32, 64]))},
        "lattice_points": {"lattice_points": draw(st.integers(2, 6))},
        "box_length": {"box_length": draw(number)},
        "time": {"t_final": t_final, "dt": draw(st.floats(0.001, 1.0)) * t_final},
        "field_amplitude": {"field_amplitude": draw(number)},
        "seed": {"seed": draw(st.integers(0, 10 ** 6))},
        "potential": {"potential": {
            "scaling": draw(st.sampled_from(["W_beta", "V_N", "M_beta"])),
            "height": draw(number), "radius": draw(st.floats(0.1, 0.9))}},
    }
    overrides = {}
    for group in sorted(draw(st.sets(st.sampled_from(sorted(groups))))):
        overrides.update(groups[group])
    return scenario, overrides


@settings(max_examples=60, deadline=None)
@given(case=scenario_overrides())
def test_config_canonicalization_is_idempotent(case):
    """Loading the canonical form, straight or through JSON, gives the same
    config, the same canonical form and the same hash."""
    scenario, overrides = case
    config = load_config(scenario, overrides)
    canonical = canonical_dict(config)
    for data in (canonical, json.loads(json.dumps(canonical))):
        again = load_config(scenario, data)
        assert again == config
        assert canonical_dict(again) == canonical
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
    hamiltonian = DiscreteHamiltonian(lattice, n, rng.uniform(0.0, 10.0, size=(m, m)),
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


@settings(max_examples=20, deadline=None)
@given(n_and_m=st.sampled_from([(n, m) for m in range(2, 7) for n in range(1, 4)
                                if (m * m) ** n <= 1296]),
       box_length=st.floats(0.25, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n_and_m=(3, 4), box_length=0.25, seed=0)
def test_spectrum_lies_inside_the_spectral_interval(n_and_m, box_length, seed):
    """Every eigenvalue of the dense matrix lies in the interval the
    Chebyshev series maps onto [-1, 1]; outside it the series diverges.
    Drawn dimensions stop at 1296, and one fixed example sits at 4096, the
    dense limit, whose eigendecomposition dominates the test's time."""
    n, m = n_and_m
    rng = np.random.default_rng(seed)
    hamiltonian = DiscreteHamiltonian(Lattice2D(m, box_length), n,
                                      rng.uniform(0.0, 10.0, size=(m, m)),
                                      rng.uniform(-5.0, 5.0, size=(m, m)))
    eigenvalues = np.linalg.eigvalsh(dense_matrix(hamiltonian))
    lo, hi = hamiltonian.spectral_interval
    assert lo <= eigenvalues[0] and eigenvalues[-1] <= hi


@settings(max_examples=30, deadline=None)
@given(n_and_m=st.sampled_from([(n, m) for m in range(2, 7) for n in range(1, 5)
                                if (m * m) ** n <= 4096]),
       box_length=st.floats(0.25, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_assembled_potential_matches_a_configuration_loop(n_and_m, box_length, seed):
    """The diagonal potential that `apply` and `dense_matrix` read is V,
    where V at sites (i_p, j_p) is
    sum_p A[i_p, j_p] + sum_{a<b} U[(i_a - i_b) % m, (j_a - j_b) % m].
    U is not symmetric, so a swapped pair axis shows; V comes from a plain
    loop over configurations."""
    n, m = n_and_m
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    pair = rng.uniform(0.0, 10.0, size=(m, m))
    field = rng.uniform(-5.0, 5.0, size=(m, m))
    hamiltonian = DiscreteHamiltonian(lattice, n, pair, field)

    shape = (lattice.d,) * n
    potential = np.empty(shape)
    for config in itertools.product(range(lattice.d), repeat=n):
        sites = [divmod(s, m) for s in config]
        value = sum(field[i, j] for i, j in sites)
        for (ia, ja), (ib, jb) in itertools.combinations(sites, 2):
            value += pair[(ia - ib) % m, (ja - jb) % m]
        potential[config] = value
    assert np.array_equal(hamiltonian._potential_total.reshape(shape), potential)


def fft_apply(hamiltonian: DiscreteHamiltonian, amplitudes: np.ndarray) -> np.ndarray:
    """H psi with the kinetic term as one full FFT over the (m,)^{2N} site-axis
    view, multiplied by the summed |k|^2 symbol of the particles: an oracle
    for the circulant products of `apply`."""
    m, n = hamiltonian.lattice.m, hamiltonian.n_particles
    symbol = hamiltonian.lattice.kinetic_symbol()
    kinetic_total = sum(symbol.reshape((1,) * (2 * p) + (m, m) + (1,) * (2 * (n - p - 1)))
                        for p in range(n))
    psi = amplitudes.reshape((m,) * (2 * n))
    kinetic = scipy.fft.ifftn(kinetic_total * scipy.fft.fftn(psi))
    return (kinetic + hamiltonian._potential_total * psi).reshape(amplitudes.shape)


def infinity_norm(hamiltonian: DiscreteHamiltonian) -> float:
    """Largest absolute row sum of H. Every row of the kinetic Kronecker sum
    holds N copies of the one-particle circulant row, whose entries are the
    inverse 2-D FFT of the symbol, with all N diagonal entries on the diagonal."""
    n = hamiltonian.n_particles
    row = scipy.fft.ifft2(hamiltonian.lattice.kinetic_symbol()).real
    off_diagonal = n * (np.sum(np.abs(row)) - abs(row[0, 0]))
    return off_diagonal + float(np.max(np.abs(n * row[0, 0] + hamiltonian._potential_total)))


@settings(max_examples=40, deadline=None)
@given(n_and_m=st.sampled_from([(n, m) for m in range(2, 9) for n in range(1, 4)
                                if (m * m) ** n <= 65536]),
       box_length=st.floats(0.25, 8.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_hamiltonian_action_matches_the_fft_oracle(n_and_m, box_length, seed):
    """apply against a full FFT of the summed symbol, and plane waves as
    exact eigenvectors."""
    n, m = n_and_m
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    symbol = lattice.kinetic_symbol()
    hamiltonian = DiscreteHamiltonian(lattice, n, rng.uniform(0.0, 10.0, size=(m, m)),
                                      rng.uniform(-5.0, 5.0, size=(m, m)))
    shape = (lattice.d,) * n
    amplitudes = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    scale = infinity_norm(hamiltonian) * np.linalg.norm(amplitudes.ravel())
    assert np.linalg.norm((hamiltonian.apply(amplitudes)
                           - fft_apply(hamiltonian, amplitudes)).ravel()) <= 1e-12 * scale

    free = DiscreteHamiltonian(lattice, n, np.zeros((m, m)), np.zeros((m, m)))
    waves = rng.integers(0, m, size=(n, 2))
    xx, yy = lattice.meshes()
    k = 2.0 * math.pi / box_length
    wave = 1.0
    for kx, ky in waves:
        wave = np.multiply.outer(wave, np.exp(1j * k * (kx * xx + ky * yy)).ravel())
    eigenvalue = sum(symbol[kx, ky] for kx, ky in waves)
    assert np.linalg.norm((free.apply(wave) - eigenvalue * wave).ravel()) \
        <= 1e-12 * infinity_norm(free) * np.linalg.norm(wave.ravel())


@settings(max_examples=25, deadline=None)
@given(n_and_m=st.sampled_from([(n, m) for m in range(2, 9) for n in range(1, 4)
                                if (m * m) ** n <= 1296]),
       box_length=st.floats(1.0, 8.0),
       dt=st.floats(1e-4, 0.5).flatmap(lambda v: st.sampled_from([v, -v])),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fewbody_propagation_conserves_and_reverses(n_and_m, box_length, dt, seed):
    """The Chebyshev step and the dense oracle expm(-i dt H) each keep the
    norm and the energy over five steps, the step -dt undoes the step dt,
    and the two agree.

    Both carry a roundoff of about eps |dt| |H| in the phases, so box
    lengths start at 1, where |dt| |H| stays below about 1000 (at 0.25 and
    dt 0.5 it reaches 10^4, and the series and a dense eigendecomposition
    differ by 1.2e-12). Dimensions stop at 1296, where one dense exponential
    still takes a second or two."""
    n, m = n_and_m
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    hamiltonian = DiscreteHamiltonian(lattice, n, rng.uniform(0.0, 10.0, size=(m, m)),
                                      rng.uniform(-5.0, 5.0, size=(m, m)))
    shape = (lattice.d,) * n
    start = FewBodyState(lattice, rng.normal(size=shape)
                         + 1j * rng.normal(size=shape)).normalized()
    energy = energy_per_particle(start, hamiltonian)
    distance = lambda a, b: FewBodyState(lattice, a.amplitudes - b.amplitudes).norm()
    forward = expm(-1j * dt * dense_matrix(hamiltonian))
    # H is real, so exp(+i dt H) is the complex conjugate of exp(-i dt H).
    oracle = {dt: forward, -dt: forward.conj()}
    steppers = (
        lambda s, h: propagate(s, hamiltonian, h),
        lambda s, h: FewBodyState(lattice, (oracle[h] @ s.amplitudes.ravel()).reshape(shape),
                                  s.time + h),
    )
    for stepper in steppers:
        state = start
        for _ in range(5):
            state = stepper(state, dt)
            assert abs(state.norm() - 1.0) <= 1e-12
            assert abs(energy_per_particle(state, hamiltonian) - energy) \
                <= 1e-10 * max(1.0, abs(energy))
        there = stepper(start, dt)
        assert distance(stepper(there, -dt), start) <= 1e-12
    assert distance(steppers[0](start, dt), steppers[1](start, dt)) <= 1e-12


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


def reference_with_zero_head(rng: np.random.Generator, lattice: Lattice2D,
                             zero_head: bool) -> np.ndarray:
    phi = random_field(rng, lattice)
    if zero_head:
        phi[0, 0] = 0.0
        phi /= math.sqrt(float(np.sum(np.abs(phi) ** 2)) * lattice.spacing ** 2)
    return phi


@settings(max_examples=60, deadline=None)
@given(n_and_m=st.sampled_from([(n, m) for n in (2, 3) for m in (3, 4)]),
       box_length=st.floats(0.5, 4.0),
       kind=st.sampled_from(["product", "one-outside", "symmetric", "any"]),
       zero_head=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_count_probabilities_are_nonnegative_and_sum_to_the_norm(
        n_and_m, box_length, kind, zero_head, seed):
    """P(k) is a sum of squares in the count basis: never negative, also
    where it vanishes exactly (a product of the reference field has P(k) = 0
    for k >= 1, one factor outside it P(k) = 0 for k >= 2), and summing to
    the squared norm. The Householder reflection is its own inverse and maps
    the reference field to a unit multiple of e_0, also when phi_0 = 0."""
    n, m = n_and_m
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    projector = CondensateProjector(lattice, reference_with_zero_head(rng, lattice, zero_head))
    flat, d = projector.phi.ravel(), lattice.d
    if kind == "symmetric":
        state = symmetric_state(rng, lattice, n)
    elif kind == "any":
        raw = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
        state = FewBodyState(lattice, raw).normalized()
    else:
        last = flat if kind == "product" else rng.normal(size=d) + 1j * rng.normal(size=d)
        state = FewBodyState(lattice, functools.reduce(np.multiply.outer,
                                                       [flat] * (n - 1) + [last])).normalized()
    distribution = diagnostics.number_expectations(state, projector).distribution
    assert np.all(distribution >= 0.0), distribution
    assert abs(float(np.sum(distribution)) - state.norm() ** 2) <= 1e-14

    basis = diagnostics._count_basis(state.amplitudes, projector)
    image = diagnostics._reflect(flat * math.sqrt(projector.cell), basis.vector, basis.beta)
    assert abs(abs(image[0]) - 1.0) <= 1e-14
    assert np.max(np.abs(image[1:])) <= 1e-14
    probe = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
    twice = diagnostics._reflect(diagnostics._reflect(probe.copy(), basis.vector, basis.beta),
                                 basis.vector, basis.beta)
    assert np.max(np.abs(twice - probe)) <= 1e-14 * np.max(np.abs(probe))


def kronecker_weight_action(projector: CondensateProjector, values: np.ndarray,
                            amplitudes: np.ndarray) -> np.ndarray:
    """sum_k w(k) P_k on the C-order ravel of amplitudes, from Kronecker
    products of p_matrix and q_matrix: the dense `_dense_weight` matrix up to
    dimension 1024, else the same products applied factor by factor (the
    dense matrix at (N, m) = (3, 4) would take 268 MB)."""
    n, flat = amplitudes.ndim, amplitudes.ravel()
    if projector.lattice.d ** n <= 1024:
        return diagnostics._dense_weight(projector, values) @ flat
    p, q = projector.p_matrix, projector.q_matrix
    return sum(values[k] * diagnostics._kron_left([q if j in subset else p for j in range(n)],
                                                  flat[:, None])[:, 0]
               for k in range(n + 1) for subset in itertools.combinations(range(n), k))


@pytest.mark.parametrize("n, m", [(2, 3), (2, 4), (3, 3), (3, 4)])
@pytest.mark.parametrize("zero_head", [False, True])
def test_count_route_matches_the_kronecker_oracle_on_strided_inputs(n, m, zero_head):
    """count_components and apply_weight equal the Kronecker oracle to 1e-12
    on contiguous amplitudes and on strided views of them."""
    rng = np.random.default_rng(100 * n + m)
    lattice = Lattice2D(m, 1.3)
    projector = CondensateProjector(lattice, reference_with_zero_head(rng, lattice, zero_head))
    d = lattice.d
    raw = rng.normal(size=(d,) * n) + 1j * rng.normal(size=(d,) * n)
    original = raw.copy()
    weight = WeightFunction(rng.uniform(-1.0, 1.0, n + 1))
    for amplitudes in (raw, np.moveaxis(raw, 0, -1), raw.T, raw[::-1]):
        scale = np.linalg.norm(amplitudes)
        for k, part in enumerate(count_components(amplitudes, projector)):
            oracle = kronecker_weight_action(projector, np.eye(n + 1)[k], amplitudes)
            assert part.shape == amplitudes.shape
            assert np.linalg.norm(part.ravel() - oracle) <= 1e-12 * scale
        oracle = kronecker_weight_action(projector, weight.values, amplitudes)
        assert (np.linalg.norm(apply_weight(amplitudes, projector, weight).ravel() - oracle)
                <= 1e-12 * scale)
    assert np.array_equal(raw, original)


def per_function_report(state: FewBodyState, projector: CondensateProjector, interaction,
                        coupling: float, field, micro, xi: float) -> dict:
    """The snapshot as separate calls compose it: the count distribution
    from its own count_components pass, a Hamiltonian built for each energy
    gap, and the correction vector as apply_weight on p1 p2 Psi and on
    (p1 q2 + q1 p2) Psi, each with a fresh count_components pass."""
    n, lattice, amps = state.n_particles, state.lattice, state.amplitudes
    cell_n = projector.cell ** n
    distribution = np.array([float(np.real(np.vdot(amps, part))) * cell_n
                             for part in count_components(amps, projector)])
    k = np.arange(n + 1) / n

    def gap(c: float) -> float:
        hamiltonian = build_hamiltonian(lattice, n, interaction, field, t=state.time)
        a_now = None if field is None else hamiltonian.external_field
        return abs(energy_per_particle(state, hamiltonian)
                   - mean_field_energy(projector.phi, lattice, c, a_now))

    m_expect = float(np.sum(counting_weight(n, xi).values * distribution))
    gamma = gamma1(state)
    out = {"gamma1": gamma, "trace_distance": trace_distance(gamma, projector),
           "n_expect": float(np.sum(np.sqrt(k) * distribution)),
           "n_square": float(np.sum(k * distribution)), "m_expect": m_expect,
           "energy_gap": gap(coupling), "alpha_less": m_expect + gap(coupling),
           "alpha_full": None, "correction_term": 0.0, "used_correction": False}
    if micro is None:
        return out
    correction, used = 0.0, micro.R_beta >= lattice.spacing
    if used:
        p0 = projector.apply_p(amps, 0)
        pp = projector.apply_p(p0, 1)
        pq, qp = p0 - pp, projector.apply_p(amps, 1) - pp
        weighted = (apply_weight(pp, projector, counting_difference(n, 2, xi))
                    + apply_weight(pq + qp, projector, counting_difference(n, 1, xi)))
        g_table = micro.g_evaluate(lattice.minimum_image_distances().ravel()
                                   ).reshape(lattice.m, lattice.m)
        overlap = np.vdot(amps, apply_pair_table(weighted, _pair_site_table(lattice.m, g_table)))
        correction = -n * (n - 1) * float(np.real(overlap)) * cell_n
    return {**out, "alpha_full": m_expect + gap(EFFECTIVE_COUPLING) + correction,
            "correction_term": correction, "used_correction": used}


def symmetric_state(rng: np.random.Generator, lattice: Lattice2D, n: int) -> FewBodyState:
    raw = rng.normal(size=(lattice.d,) * n) + 1j * rng.normal(size=(lattice.d,) * n)
    return FewBodyState(lattice, sum(np.transpose(raw, order)
                                     for order in itertools.permutations(range(n)))
                        ).normalized()


@settings(max_examples=40, deadline=None)
@given(n_and_m=st.sampled_from([(n, m) for m in range(2, 6) for n in range(2, 5)
                                if (m * m) ** n <= 4096]),
       box_length=st.floats(0.5, 4.0),
       coupling=st.floats(0.0, 30.0),
       core=st.floats(0.0, 1.0),
       with_field=st.booleans(),
       with_micro=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_snapshot_report_matches_the_per_function_composition(
        n_and_m, box_length, coupling, core, with_field, with_micro, seed):
    """Every field of diagnostics_report, with and without a resolvable
    depletion core, matches the per-function oracle to 1e-13 on random
    exchange-symmetric states."""
    n, m = n_and_m
    rng = np.random.default_rng(seed)
    lattice = Lattice2D(m, box_length)
    projector = CondensateProjector(lattice, random_field(rng, lattice))
    state = symmetric_state(rng, lattice, n)
    height, width, amplitude = rng.uniform(0.5, 5.0), rng.uniform(0.1, 0.5), rng.uniform(-2, 2)
    interaction = lambda r: height * np.exp(-(r / (width * box_length)) ** 2)
    field = (ExternalField.from_function(
        lambda x, y, t: amplitude * np.cos(2 * math.pi * x / box_length))
        if with_field else None)
    micro = (SimpleNamespace(R_beta=core * box_length,
                             g_evaluate=lambda r: np.exp(-np.asarray(r) / (width * box_length)))
             if with_micro else None)
    xi = 0.25
    hamiltonian = build_hamiltonian(lattice, n, interaction, field, t=state.time)
    report = diagnostics_report(state, projector, hamiltonian, coupling, micro, xi)
    expected = per_function_report(state, projector, interaction, coupling, field, micro, xi)
    assert np.max(np.abs(report.gamma1 - expected.pop("gamma1"))) <= 1e-13
    for name, value in expected.items():
        got = getattr(report, name)
        if value is None or isinstance(value, bool):
            assert got == value, name
        else:
            assert got == pytest.approx(value, rel=1e-13, abs=1e-13), name


def test_snapshot_report_runs_one_count_pass_and_one_energy(monkeypatch):
    """One report reflects the state into the count basis once, runs
    energy_per_particle once, builds no Hamiltonian (it is given one) and
    samples the depletion profile once, with the correction in use."""
    calls = {"_count_basis": 0, "energy_per_particle": 0, "build_hamiltonian": 0,
             "g_evaluate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("_count_basis", "energy_per_particle", "build_hamiltonian"):
        monkeypatch.setattr(diagnostics, name, counted(name, getattr(diagnostics, name)))
    lattice = Lattice2D(4, 1.0)
    rng = np.random.default_rng(3)
    projector = CondensateProjector(lattice, random_field(rng, lattice))
    state = symmetric_state(rng, lattice, 3)
    micro = SimpleNamespace(R_beta=0.5,
                            g_evaluate=counted("g_evaluate", lambda r: np.exp(-np.asarray(r))))
    interaction = lambda r: 2.0 * np.exp(-(r / 0.3) ** 2)
    hamiltonian = build_hamiltonian(lattice, 3, interaction)
    report = diagnostics_report(state, projector, hamiltonian, 1.0, micro)
    assert report.used_correction
    assert calls == {"_count_basis": 1, "energy_per_particle": 1, "build_hamiltonian": 0,
                     "g_evaluate": 1}


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


def fresh_pass_halving(f, a: float, b: float, rtol: float) -> tuple[float, float, int, bool]:
    """Simpson halving that samples every node again at each doubling: one
    composite_simpson per level. Returns (value, error, final n, capped)."""
    n = _N0
    prev = composite_simpson(f, a, b, n)
    err = math.inf
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        cur = composite_simpson(f, a, b, n)
        err = abs(cur - prev)
        prev = cur
        if err <= rtol * max(abs(cur), _ATOL) + _ATOL:
            return prev, err, n, False
    return prev, err, n, True


@settings(max_examples=60, deadline=None)
@given(a=st.floats(-1e3, 1e3),
       width=st.floats(1e-9, 1e3),
       integrand=st.sampled_from(["sqrt", "log1p", "cubic", "gauss", "kink"]),
       kink_at=st.floats(0.0, 1.0),
       rtol=st.sampled_from([1e-5, 1e-8, 1e-11]))
def test_nested_simpson_halving_matches_fresh_passes(a, width, integrand, kink_at, rtol):
    """The nested halving returns the exact (value, error) of fresh composite
    passes, samples each of the n + 1 final nodes once, and warns at the cap
    with the same text."""
    b = a + width
    kink = a + kink_at * width
    f = {"sqrt": lambda r: np.sqrt(np.abs(r)),
         "log1p": lambda r: np.log1p(np.abs(r)),
         "cubic": lambda r: ((0.5 * r - 1.5) * r + 2.0) * r - 0.25,
         "gauss": lambda r: np.exp(-r * r),
         "kink": lambda r: np.abs(r - kink)}[integrand]
    samples = []

    def recording(r: np.ndarray) -> np.ndarray:
        samples.append(r.copy())
        return f(r)

    value, err, n, capped = fresh_pass_halving(f, a, b, rtol)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert simpson_with_halving(recording, a, b, rtol=rtol) == (value, err)
    expected = ([f"Simpson halving on [{a!r}, {b!r}] stopped after {_MAX_DOUBLINGS} doublings "
                 f"with error estimate {err:.3e} against rtol {rtol:.1e} (value {value:.6e})"]
                if capped else [])
    assert [str(w.message) for w in caught] == expected
    nodes = np.concatenate(samples)
    assert nodes.size == n + 1
    assert np.array_equal(np.sort(nodes), np.sort(np.linspace(a, b, n + 1)))


def test_nested_simpson_halving_warns_at_the_cap_with_the_old_text():
    """sqrt(r) on [0, 1] at rtol 1e-15 reaches the cap; the message and the
    returned pair are those of the fresh-pass loop."""
    value, err, n, capped = fresh_pass_halving(np.sqrt, 0.0, 1.0, 1e-15)
    assert capped and n == _N0 * 2 ** _MAX_DOUBLINGS
    with pytest.warns(RuntimeWarning) as caught:
        assert simpson_with_halving(np.sqrt, 0.0, 1.0, rtol=1e-15) == (value, err)
    assert [str(w.message) for w in caught] == [
        f"Simpson halving on [0.0, 1.0] stopped after 14 doublings with error estimate "
        f"{err:.3e} against rtol 1.0e-15 (value {value:.6e})"]
    assert simpson_with_halving(np.sqrt, 1.0, 1.0) == (0.0, 0.0)
    assert simpson_with_halving(np.sqrt, 1.0, 0.5) == (0.0, 0.0)


def test_simpson_cap_warning_is_an_error_under_the_suite_filters():
    """pyproject's `error::RuntimeWarning` filter turns a halving that hits
    the cap into a failure of any test that does not expect it."""
    with pytest.raises(RuntimeWarning, match=r"Simpson halving on \[0\.0, 1\.0\] stopped"):
        simpson_with_halving(np.sqrt, 0.0, 1.0, rtol=1e-15)
