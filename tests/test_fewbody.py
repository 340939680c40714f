"""Tests for exact few-boson lattice dynamics."""
import math

import numpy as np
import pytest
import scipy.linalg

from bosons2d.fewbody import (
    DIMENSION_BUDGET,
    DiscreteHamiltonian,
    FewBodyState,
    Lattice2D,
    build_hamiltonian,
    dense_matrix,
    energy_per_particle,
    jastrow_initial_state,
    propagate,
)
from bosons2d.gp import ExternalField
from bosons2d.potentials import make_scaled
from bosons2d.scattering import build_microscopic, square_well

BASE = square_well(4.0, 0.5)


def cosine_field(lattice: Lattice2D, amp: float = 0.8) -> ExternalField:
    k = 2.0 * math.pi / lattice.box_length
    return ExternalField.from_function(lambda x, y, t: amp * np.cos(k * x))


def smooth_phi(lattice: Lattice2D, seed: int = 3) -> np.ndarray:
    """Normalized single-particle field with a few low modes."""
    xx, yy = lattice.meshes()
    k = 2.0 * math.pi / lattice.box_length
    phi = (1.0 + 0.4 * np.cos(k * xx) + 0.25 * np.sin(k * yy)
           + 0.1j * np.cos(k * (xx + yy)))
    nrm = math.sqrt(float(np.sum(np.abs(phi) ** 2)) * lattice.spacing ** 2)
    return phi / nrm


def product_state(lattice: Lattice2D, phi: np.ndarray, n: int) -> FewBodyState:
    amp = phi.ravel()
    for _ in range(n - 1):
        amp = np.multiply.outer(amp, phi.ravel())
    return FewBodyState(lattice, amp).normalized()


# ---------------------------------------------------------------- validation

def test_lattice_and_state_validation():
    with pytest.raises(ValueError):
        Lattice2D(1, 1.0)
    with pytest.raises(ValueError):
        Lattice2D(4, 0.0)
    lat = Lattice2D(4, 1.0)
    with pytest.raises(ValueError):
        FewBodyState(lat, np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError, match="exceeds budget"):
        # a zero-copy view: the budget check runs before any data is touched
        FewBodyState(lat, np.broadcast_to(np.zeros(1, dtype=complex), (16,) * 6))
    with pytest.raises(ValueError):
        FewBodyState(lat, np.zeros((16,), dtype=complex)).normalized()


def test_dimension_budget_error():
    with pytest.raises(ValueError, match="16777216"):
        build_hamiltonian(Lattice2D(8, 1.0), 4)
    assert 8 ** 8 > DIMENSION_BUDGET


def test_interaction_below_spacing_warns():
    lat = Lattice2D(8, 1.0)
    compressed = make_scaled("V_N", BASE, N=4)
    with pytest.warns(RuntimeWarning):
        build_hamiltonian(lat, 1, interaction=compressed)


# --------------------------------------------------------------- Hamiltonian

def test_hermiticity_on_random_pairs():
    lat = Lattice2D(5, 1.0)
    w = make_scaled("W_beta", BASE, N=4, beta=0.5)
    ham = build_hamiltonian(lat, 2, interaction=w, field=cosine_field(lat))
    rng = np.random.default_rng(1)
    shape = (lat.d, lat.d)
    for _ in range(100):
        x, y = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "xy")
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        assert abs(np.vdot(ham.apply(x), y) - np.vdot(x, ham.apply(y))) < 1e-12


def test_interaction_table_nonnegative():
    lat = Lattice2D(4, 1.0)
    k = lat.wavenumbers()
    kin = k[:, None] ** 2 + k[None, :] ** 2
    with pytest.raises(ValueError):
        DiscreteHamiltonian(lat, 1, kin, -np.ones((4, 4)), np.zeros((4, 4)))


@pytest.mark.parametrize("field_name", ["interaction_table", "external_field"])
def test_complex_tables_are_rejected_by_name(field_name):
    """A real dense matrix would drop an imaginary part silently."""
    lat = Lattice2D(4, 1.0)
    tables = {"interaction_table": np.zeros((4, 4)), "external_field": np.zeros((4, 4))}
    tables[field_name] = tables[field_name] + 0.5j
    with pytest.raises(ValueError, match=field_name):
        DiscreteHamiltonian(lat, 1, lat.kinetic_symbol(), **tables)


@pytest.mark.parametrize("field_name", ["kinetic_symbol", "interaction_table",
                                        "external_field"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_tables_are_rejected_by_name(field_name, value):
    """A NaN pair table would otherwise propagate to a NaN state without a sound."""
    lat = Lattice2D(4, 1.0)
    tables = {"kinetic_symbol": np.array(lat.kinetic_symbol()),
              "interaction_table": np.zeros((4, 4)), "external_field": np.zeros((4, 4))}
    tables[field_name][1, 2] = value
    with pytest.raises(ValueError, match=f"{field_name} must be finite, got {value}"):
        DiscreteHamiltonian(lat, 2, **tables)


def test_single_particle_spectrum_matches_dense():
    """Matrix-free operator vs an explicit DFT-matrix assembly."""
    lat = Lattice2D(8, 2.0)
    field = cosine_field(lat, amp=1.3)
    ham = build_hamiltonian(lat, 1, field=field)
    spectrum = np.linalg.eigvalsh(dense_matrix(ham))

    m = lat.m
    j = np.arange(m)
    f1 = np.exp(-2j * math.pi * np.outer(j, j) / m)
    f2 = np.kron(f1, f1)
    k = lat.wavenumbers()
    symbol = (k[:, None] ** 2 + k[None, :] ** 2).ravel()
    kinetic = (f2.conj().T @ (symbol[:, None] * f2)) / m ** 2
    oracle = kinetic + np.diag(field.evaluate(lat, 0.0).ravel())
    expected = np.linalg.eigvalsh(oracle)
    assert np.max(np.abs(spectrum - expected)) < 1e-10


def test_dense_matrix_size_limit():
    lat = Lattice2D(8, 1.0)
    ham = build_hamiltonian(lat, 3)
    with pytest.raises(ValueError):
        dense_matrix(ham)


# --------------------------------------------------------------- propagation

def test_plane_wave_product_phase():
    """Free eigenstate picks up exactly exp(-i E t)."""
    lat = Lattice2D(6, 2.0)
    k1 = 2.0 * math.pi / lat.box_length
    xx, yy = lat.meshes()
    phi = np.exp(1j * (k1 * xx + 2.0 * k1 * yy)) / lat.box_length
    state = product_state(lat, phi, 2)
    ham = build_hamiltonian(lat, 2)
    energy = 2.0 * (k1 ** 2 + (2.0 * k1) ** 2)
    out = state
    for _ in range(40):
        out = propagate(out, ham, 0.05)
    cell = lat.spacing ** 2
    overlap = complex(np.vdot(state.amplitudes, out.amplitudes)) * cell ** 2
    overlap *= np.exp(1j * energy * out.time)
    assert abs(overlap - 1.0) < 1e-9


def test_noninteracting_two_body_factorizes():
    """U = 0: the product of one-body evolutions is exact."""
    lat = Lattice2D(6, 2.0)
    field = cosine_field(lat)
    phi = smooth_phi(lat)
    two = build_hamiltonian(lat, 2, field=field)
    one = build_hamiltonian(lat, 1, field=field)
    psi = product_state(lat, phi, 2)
    single = FewBodyState(lat, phi.ravel()).normalized()
    for _ in range(20):
        psi = propagate(psi, two, 0.02)
        single = propagate(single, one, 0.02)
    expected = np.multiply.outer(single.amplitudes, single.amplitudes)
    assert np.max(np.abs(psi.amplitudes - expected)) < 1e-10


def test_unitarity_thousand_steps():
    lat = Lattice2D(8, 1.0)
    w = make_scaled("W_beta", BASE, N=8, beta=0.5)
    ham = build_hamiltonian(lat, 2, interaction=w, field=cosine_field(lat))
    state = product_state(lat, smooth_phi(lat), 2)
    worst_norm = 0.0
    worst_sym = 0.0
    for _ in range(1000):
        state = propagate(state, ham, 1e-3)
        worst_norm = max(worst_norm, abs(state.norm() - 1.0))
    worst_sym = state.symmetry_defect()
    assert worst_norm < 1e-10
    assert worst_sym < 1e-12


def test_energy_constant_static_field():
    lat = Lattice2D(5, 1.0)
    w = make_scaled("W_beta", BASE, N=4, beta=0.5)
    ham = build_hamiltonian(lat, 2, interaction=w, field=cosine_field(lat))
    state = product_state(lat, smooth_phi(lat), 2)
    e0 = energy_per_particle(state, ham)
    worst = 0.0
    for _ in range(200):
        state = propagate(state, ham, 0.01)
        worst = max(worst, abs(energy_per_particle(state, ham) - e0))
    assert worst < 1e-9


def dense_propagator(ham: DiscreteHamiltonian, dt: float):
    """exp(-i dt H) of the dense matrix by scipy's expm, as a map on
    amplitude tensors: the oracle for the Chebyshev series."""
    u = scipy.linalg.expm(-1j * dt * dense_matrix(ham))
    return lambda amplitudes: (u @ amplitudes.ravel()).reshape(amplitudes.shape)


def test_krylov_matches_dense():
    """The Chebyshev series, a polynomial in H and so a Krylov method,
    against the dense matrix exponential."""
    lat = Lattice2D(4, 1.0)
    w = make_scaled("W_beta", BASE, N=4, beta=0.5)
    ham = build_hamiltonian(lat, 2, interaction=w, field=cosine_field(lat))
    state = product_state(lat, smooth_phi(lat), 2)
    exact = dense_propagator(ham, 0.05)
    a = state.amplitudes
    b = state
    for _ in range(10):
        a = exact(a)
        b = propagate(b, ham, 0.05)
    assert np.max(np.abs(a - b.amplitudes)) < 1e-9


def test_large_dt_matches_dense():
    lat = Lattice2D(4, 2.0)
    ham = build_hamiltonian(lat, 1, field=cosine_field(lat))
    phi = smooth_phi(lat)
    state = FewBodyState(lat, phi.ravel()).normalized()
    direct = dense_propagator(ham, 0.5)(state.amplitudes)
    series = propagate(state, ham, 0.5)
    assert np.max(np.abs(direct - series.amplitudes)) < 1e-9


def test_krylov_failure_report():
    lat = Lattice2D(4, 1.0)
    ham = build_hamiltonian(lat, 1, field=cosine_field(lat))
    state = FewBodyState(lat, smooth_phi(lat).ravel()).normalized()
    with pytest.raises(RuntimeError, match=r"dt 1e\+06 over the spectral interval .* terms, "
                                           r"above the ceiling 10000"):
        propagate(state, ham, 1e6)


@pytest.mark.parametrize("m, wavenumber", [(4, 0), (6, 1)])
def test_series_centre_absorbs_a_large_constant_field(monkeypatch, m, wavenumber):
    """The uniform state and a plane wave are exact eigenvectors under
    A = 1e6. The series centre takes the shift, so the step is exact and
    needs as many terms as under A = 0."""
    lat = Lattice2D(m, 1.0)
    xx, _ = lat.meshes()
    k = 2.0 * math.pi / lat.box_length * wavenumber
    state = FewBodyState(lat, np.exp(1j * k * xx).ravel()).normalized()
    applies = []
    apply = DiscreteHamiltonian.apply
    monkeypatch.setattr(DiscreteHamiltonian, "apply",
                        lambda self, v, *, out=None: applies.append(1) or apply(self, v, out=out))
    dt = 1e-3
    counts = []
    for amplitude in (1e6, 0.0):
        applies.clear()
        ham = build_hamiltonian(lat, 1, field=ExternalField.from_function(
            lambda x, y, t, a=amplitude: np.full_like(x, a)))
        stepped = propagate(state, ham, dt)
        exact = np.exp(-1j * dt * (amplitude + k * k)) * state.amplitudes
        assert np.max(np.abs(stepped.amplitudes - exact)) < 1e-12
        counts.append(len(applies))
    assert counts[0] == counts[1] > 0


def test_propagate_space_mismatch():
    lat = Lattice2D(4, 1.0)
    other = Lattice2D(5, 1.0)
    state = FewBodyState(lat, smooth_phi(lat).ravel()).normalized()
    with pytest.raises(ValueError):
        propagate(state, build_hamiltonian(other, 1), 0.1)


# -------------------------------------------------------------------- energy

def test_energy_zero_momentum_product():
    lat = Lattice2D(5, 2.0)
    phi = np.full((5, 5), 1.0 / lat.box_length, dtype=complex)
    state = product_state(lat, phi, 3)
    ham = build_hamiltonian(lat, 3)
    assert abs(energy_per_particle(state, ham)) < 1e-13
    h_psi = ham.apply(state.amplitudes)
    value = complex(np.vdot(state.amplitudes, h_psi)) * lat.spacing ** 6
    assert abs(value.imag) < 1e-12


def test_product_energy_matches_two_body_oracle():
    """E/N of a product equals the one-body energy plus (N-1)/2 pair quadrature."""
    lat = Lattice2D(5, 1.0)
    n = 3
    w = make_scaled("W_beta", BASE, N=4, beta=0.5)
    field = cosine_field(lat)
    phi = smooth_phi(lat)
    state = product_state(lat, phi, n)
    ham = build_hamiltonian(lat, n, interaction=w, field=field)

    cell = lat.spacing ** 2
    phi_hat = np.fft.fft2(phi)
    k = lat.wavenumbers()
    k2 = k[:, None] ** 2 + k[None, :] ** 2
    kinetic = float(np.sum(k2 * np.abs(phi_hat) ** 2)) * cell / lat.m ** 2
    external = float(np.sum(field.evaluate(lat, 0.0) * np.abs(phi) ** 2)) * cell
    density = np.abs(phi.ravel()) ** 2
    w_table = np.asarray(w(lat.minimum_image_distances().ravel())).reshape(lat.m, lat.m)
    from bosons2d.fewbody import _pair_site_table
    pair_site = _pair_site_table(lat.m, w_table)
    pair_quad = float(density @ pair_site @ density) * cell ** 2
    expected = kinetic + external + 0.5 * (n - 1) * pair_quad
    assert energy_per_particle(state, ham) == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------------- Jastrow

def test_jastrow_without_pair_is_product():
    lat = Lattice2D(5, 1.0)
    phi = smooth_phi(lat)
    state = jastrow_initial_state(phi, None, lat, 3)
    expected = product_state(lat, phi, 3)
    assert np.max(np.abs(state.amplitudes - expected.amplitudes)) < 1e-14
    assert state.symmetry_defect() < 1e-12


def test_jastrow_with_pair_factor():
    lat = Lattice2D(8, 1.0)
    pair = build_microscopic(BASE, N=4, beta=0.5)
    assert pair.R_beta >= lat.spacing
    phi = smooth_phi(lat)
    state = jastrow_initial_state(phi, pair, lat, 2)
    assert abs(state.norm() - 1.0) < 1e-12
    assert state.symmetry_defect() < 1e-12
    product = product_state(lat, phi, 2)
    cell = lat.spacing ** 2
    overlap = abs(complex(np.vdot(product.amplitudes, state.amplitudes)) * cell ** 2)
    assert 0.5 < overlap < 1.0 - 1e-12


def test_jastrow_degenerates_below_spacing():
    lat = Lattice2D(4, 1.0)
    pair = build_microscopic(BASE, N=64, beta=1.0)
    assert pair.R_beta < lat.spacing
    phi = smooth_phi(lat)
    with pytest.warns(RuntimeWarning):
        state = jastrow_initial_state(phi, pair, lat, 2)
    expected = product_state(lat, phi, 2)
    assert np.max(np.abs(state.amplitudes - expected.amplitudes)) < 1e-14


def test_jastrow_validation():
    lat = Lattice2D(4, 1.0)
    with pytest.raises(ValueError):
        jastrow_initial_state(np.ones((3, 3), dtype=complex), None, lat, 2)
    with pytest.raises(ValueError):
        jastrow_initial_state(2.0 * np.ones((4, 4), dtype=complex), None, lat, 2)
    with pytest.raises(ValueError, match="phi must be normalized on the lattice, got norm nan"):
        jastrow_initial_state(np.full((4, 4), np.nan, dtype=complex), None, lat, 2)


@pytest.mark.parametrize("n", [0, -3])
def test_jastrow_rejects_a_particle_count_below_one(n):
    lat = Lattice2D(4, 1.0)
    phi = np.full((4, 4), 1.0 / lat.box_length, dtype=complex)
    with pytest.raises(ValueError, match=f"n_particles must be at least 1, got {n}"):
        jastrow_initial_state(phi, None, lat, n)
