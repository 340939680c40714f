"""Condensation-counting diagnostics: algebra, moments, rates."""
import itertools
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from bosons2d import diagnostics
from bosons2d.diagnostics import (
    CheckResult,
    CondensateProjector,
    OperatorAlgebraReport,
    WeightFunction,
    alpha_full,
    apply_pair_table,
    apply_weight,
    counting_difference,
    counting_weight,
    ddt_weight_identity,
    dense_operator,
    diagnostics_report,
    gamma1,
    mean_field_energy,
    mean_field_step,
    number_expectations,
    number_weight,
    operator_algebra_suite,
    spectral_gradient,
    trace_distance,
    weight_expectation,
)
from bosons2d.fewbody import (
    DiscreteHamiltonian,
    FewBodyState,
    Lattice2D,
    _pair_site_table,
    build_hamiltonian,
    energy_per_particle,
    jastrow_initial_state,
    propagate,
)
from bosons2d.gp import ExternalField, GpParams, GpState, step as gp_step
from bosons2d.potentials import make_scaled
from bosons2d.scattering import build_microscopic, square_well


def lattice_field(lattice: Lattice2D, *, which: str = "smooth") -> np.ndarray:
    """Normalized reference fields used across the tests."""
    X, Y = lattice.meshes()
    L = lattice.box_length
    if which == "smooth":
        phi = (1.0 + 0.3 * np.cos(2 * math.pi * X / L)
               + 0.2j * np.sin(2 * math.pi * Y / L))
    elif which == "constant":
        phi = np.ones_like(X, dtype=complex)
    elif which == "plane":
        phi = np.exp(2j * math.pi * X / L)
    else:
        raise ValueError(which)
    cell = lattice.spacing ** 2
    return phi / math.sqrt(float(np.sum(np.abs(phi) ** 2)) * cell)


def random_symmetric_state(lattice: Lattice2D, n: int, seed: int) -> FewBodyState:
    rng = np.random.default_rng(seed)
    amp = (rng.standard_normal((lattice.d,) * n)
           + 1j * rng.standard_normal((lattice.d,) * n))
    sym = np.zeros_like(amp)
    for perm in itertools.permutations(range(n)):
        sym = sym + np.transpose(amp, perm)
    return FewBodyState(lattice, sym).normalized()


def product_state(lattice: Lattice2D, phi: np.ndarray, n: int) -> FewBodyState:
    amp = phi.ravel()
    for _ in range(n - 1):
        amp = np.multiply.outer(amp, phi.ravel())
    return FewBodyState(lattice, amp).normalized()


def depleted_state(lattice: Lattice2D, phi: np.ndarray, eps: float,
                   seed: int = 5) -> FewBodyState:
    """Two-particle product state with symmetric single and double depletion."""
    rng = np.random.default_rng(seed)
    chi = (rng.standard_normal((lattice.m, lattice.m))
           + 1j * rng.standard_normal((lattice.m, lattice.m)))
    chi /= math.sqrt(float(np.sum(np.abs(chi) ** 2)) * lattice.spacing ** 2)
    prod = np.multiply.outer(phi.ravel(), phi.ravel())
    single = np.multiply.outer(phi.ravel(), chi.ravel())
    single = single + single.T
    double = np.multiply.outer(chi.ravel(), chi.ravel())
    return FewBodyState(lattice, prod + eps * single
                        + 0.6 * eps * double).normalized()


# ---------------------------------------------------------------- projector


def test_projector_idempotent_hermitian_and_matrix_consistent():
    lat = Lattice2D(3, 1.0)
    proj = CondensateProjector(lat, lattice_field(lat))
    p = proj.p_matrix
    assert np.max(np.abs(p @ p - p)) < 1e-14
    assert np.max(np.abs(p - p.conj().T)) < 1e-14
    assert np.max(np.abs(p + proj.q_matrix - np.eye(lat.d))) < 1e-14
    rng = np.random.default_rng(0)
    v = rng.standard_normal((lat.d, lat.d)) + 1j * rng.standard_normal((lat.d, lat.d))
    assert np.max(np.abs(proj.apply_p(v, 0) - np.tensordot(p, v, axes=([1], [0])))) < 1e-13
    assert np.max(np.abs(proj.apply_p(v, 1) - v @ p.T)) < 1e-13
    pv = proj.apply_p(v, 1)
    assert np.max(np.abs(proj.apply_p(pv, 1) - pv)) < 1e-13
    assert np.max(np.abs(proj.apply_q(pv, 1))) < 1e-13


def test_projector_validates_field():
    lat = Lattice2D(3, 1.0)
    with pytest.raises(ValueError):
        CondensateProjector(lat, np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError):
        CondensateProjector(lat, 3.0 * lattice_field(lat))
    # a small norm defect is renormalized away exactly
    proj = CondensateProjector(lat, (1.0 + 5e-7) * lattice_field(lat))
    cell = lat.spacing ** 2
    assert abs(float(np.sum(np.abs(proj.phi) ** 2)) * cell - 1.0) < 1e-15


# ------------------------------------------------------------------ weights


def test_counting_weight_shape_and_endpoints():
    n = 16
    w = counting_weight(n, xi=0.25)
    assert w.values[0] == pytest.approx(0.5 * n ** -0.25, rel=1e-14)
    assert w.values[-1] == 1.0
    assert np.all(np.diff(w.values) > 0)
    # branch continuity: crossover count 16^(1 - 2/4) = 4 is a lattice point
    ramp = 0.5 * (n ** -0.75 * 4 + n ** -0.25)
    assert ramp == pytest.approx(math.sqrt(4 / n), rel=1e-14)
    with pytest.raises(ValueError):
        counting_weight(n, xi=0.0)
    with pytest.raises(ValueError):
        counting_weight(n, xi=0.5)


def test_counting_number_gap_is_half_power():
    # max_k |m(k) - sqrt(k/N)| equals N^-xi / 2 exactly (attained at k = 0)
    for n, xi in ((2, 0.25), (8, 0.25), (16, 0.3), (64, 0.1)):
        gap = np.abs(counting_weight(n, xi).values - number_weight(n).values)
        assert float(np.max(gap)) == pytest.approx(0.5 * n ** -xi, rel=1e-12)
        assert float(np.max(gap)) <= n ** -xi


def test_weight_shift_zero_fills():
    w = WeightFunction(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(w.shifted(1).values, [2.0, 3.0, 0.0])
    assert np.allclose(w.shifted(-1).values, [0.0, 1.0, 2.0])
    assert np.allclose(w.shifted(2).values, [3.0, 0.0, 0.0])
    assert w.shifted(0).values == pytest.approx(w.values)
    assert w.operator_norm() == 3.0
    prod = w.product(WeightFunction(np.array([2.0, 0.5, 1.0])))
    assert np.allclose(prod.values, [2.0, 1.0, 3.0])


def test_counting_difference_uses_formula_beyond_range():
    n, xi = 4, 0.25
    w = counting_difference(n, 1, xi)
    # at k = N the difference reaches past N via the square-root formula
    expected_last = 1.0 - math.sqrt((n + 1) / n)
    assert w.values[-1] == pytest.approx(expected_last, rel=1e-14)
    assert np.all(w.values <= 0)
    with pytest.raises(ValueError):
        counting_difference(n, 3, xi)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightFunction(np.array([1.0]))
    with pytest.raises(ValueError):
        WeightFunction(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        WeightFunction(np.ones((2, 2)))


# ------------------------------------------- distributions and moments


def test_product_state_sits_at_count_zero():
    lat = Lattice2D(3, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = product_state(lat, phi, 3)
    numbers = number_expectations(state, proj)
    assert numbers.distribution[0] == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(numbers.distribution[1:])) < 1e-13
    assert abs(numbers.n_expect) < 1e-13
    assert abs(numbers.n_square) < 1e-13
    assert weight_expectation(state, proj, number_weight(3)) == pytest.approx(0.0, abs=1e-13)
    gamma = gamma1(state)
    assert np.max(np.abs(gamma - proj.p_matrix)) < 1e-13
    assert trace_distance(gamma, proj) < 1e-12


def test_orthogonal_product_state_sits_at_count_n():
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat, which="constant")
    chi = lattice_field(lat, which="plane")
    proj = CondensateProjector(lat, phi)
    state = product_state(lat, chi, 2)
    numbers = number_expectations(state, proj)
    assert numbers.distribution[-1] == pytest.approx(1.0, abs=1e-13)
    assert numbers.n_expect == pytest.approx(1.0, abs=1e-13)
    assert trace_distance(gamma1(state), proj) == pytest.approx(1.0, abs=1e-12)


def test_distribution_is_a_probability():
    lat = Lattice2D(3, 1.0)
    proj = CondensateProjector(lat, lattice_field(lat))
    for n, seed in ((2, 1), (3, 2)):
        state = random_symmetric_state(lat, n, seed)
        numbers = number_expectations(state, proj)
        assert float(np.sum(numbers.distribution)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(numbers.distribution > -1e-13)


def test_symmetrized_two_mode_state_oracle():
    # Psi = (phi x chi + chi x phi)/sqrt(2) with <phi, chi> = 0: exactly one
    # particle outside, gamma = (|phi><phi| + |chi><chi|)/2, distance 1/2.
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat, which="constant")
    chi = lattice_field(lat, which="plane")
    cell = lat.spacing ** 2
    assert abs(np.sum(np.conj(phi) * chi)) * cell < 1e-14
    amp = (np.multiply.outer(phi.ravel(), chi.ravel())
           + np.multiply.outer(chi.ravel(), phi.ravel()))
    state = FewBodyState(lat, amp).normalized()
    proj = CondensateProjector(lat, phi)
    numbers = number_expectations(state, proj)
    assert numbers.distribution[1] == pytest.approx(1.0, abs=1e-13)
    assert numbers.n_expect == pytest.approx(math.sqrt(0.5), rel=1e-12)
    assert numbers.n_square == pytest.approx(0.5, rel=1e-12)
    gamma = gamma1(state)
    oracle = 0.5 * cell * (np.outer(phi.ravel(), np.conj(phi.ravel()))
                           + np.outer(chi.ravel(), np.conj(chi.ravel())))
    assert np.max(np.abs(gamma - oracle)) < 1e-13
    assert trace_distance(gamma, proj) == pytest.approx(0.5, abs=1e-12)


def test_gamma_is_unit_trace_psd_and_convention_consistent():
    lat = Lattice2D(3, 1.0)
    state = random_symmetric_state(lat, 3, 9)
    gamma = gamma1(state)
    assert np.trace(gamma).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-13
    eigs = np.linalg.eigvalsh(gamma)
    assert eigs.min() > -1e-12
    # <chi|gamma|chi> equals the N-body expectation of the rank-one
    # projector acting on one particle, for any probe field
    chi = lattice_field(lat)
    probe = CondensateProjector(lat, chi)
    cell = lat.spacing ** 2
    via_gamma = float(np.real(np.vdot(chi.ravel(), gamma @ chi.ravel()))) * cell
    projected = probe.apply_p(state.amplitudes, 0)
    via_state = float(np.real(np.vdot(state.amplitudes, projected))) * cell ** 3
    assert via_gamma == pytest.approx(via_state, abs=1e-12)
    # largest eigenvalue dominates every diagonal matrix element
    assert eigs.max() >= via_gamma - 1e-12


def test_second_moment_two_routes_agree():
    # criterion: distribution route equals 1 - <phi|gamma|phi> to 1e-12
    lat = Lattice2D(3, 1.0)
    proj = CondensateProjector(lat, lattice_field(lat))
    for n, seed in ((2, 3), (3, 4)):
        numbers = number_expectations(random_symmetric_state(lat, n, seed), proj)
        assert abs(numbers.n_square - numbers.n_square_from_gamma) < 1e-12
    lat2 = Lattice2D(2, 1.0)
    proj2 = CondensateProjector(lat2, lattice_field(lat2))
    numbers = number_expectations(random_symmetric_state(lat2, 4, 5), proj2)
    assert abs(numbers.n_square - numbers.n_square_from_gamma) < 1e-12


def test_weight_expectation_matches_dense_operator():
    lat = Lattice2D(2, 1.0)
    proj = CondensateProjector(lat, lattice_field(lat))
    state = random_symmetric_state(lat, 2, 11)
    w = counting_weight(2, xi=0.25)
    dense = dense_operator(lambda v: apply_weight(v, proj, w), lat, 2)
    cell = proj.cell ** 2
    oracle = float(np.real(np.vdot(state.amplitudes.ravel(),
                                   dense @ state.amplitudes.ravel()))) * cell
    assert weight_expectation(state, proj, w) == pytest.approx(oracle, abs=1e-13)
    # operator norm of (counting - number) weight equals the array gap
    diff = WeightFunction(w.values - number_weight(2).values)
    dense_diff = dense_operator(lambda v: apply_weight(v, proj, diff), lat, 2)
    spectral = float(np.max(np.abs(np.linalg.eigvalsh(dense_diff))))
    assert spectral == pytest.approx(diff.operator_norm(), abs=1e-12)
    assert spectral <= 2 ** -0.25 + 1e-12


# ------------------------------------------------------------- helpers


def test_spectral_gradient_on_plane_wave():
    lat = Lattice2D(4, 2.0)
    X, Y = lat.meshes()
    kx = 2.0 * math.pi / lat.box_length
    wave = np.exp(1j * kx * (X - Y)).ravel()
    grad = spectral_gradient(wave, lat, 0)
    assert np.max(np.abs(grad[0] - 1j * kx * wave)) < 1e-12
    assert np.max(np.abs(grad[1] + 1j * kx * wave)) < 1e-12


def test_apply_pair_table_matches_brute_force():
    lat = Lattice2D(2, 1.0)
    rng = np.random.default_rng(2)
    table = rng.standard_normal((lat.m, lat.m))
    amp = rng.standard_normal((lat.d,) * 3) + 1j * rng.standard_normal((lat.d,) * 3)
    site = _pair_site_table(lat.m, table)
    out = apply_pair_table(amp, site)
    brute = np.empty_like(amp)
    for a in range(lat.d):
        for b in range(lat.d):
            for c in range(lat.d):
                brute[a, b, c] = amp[a, b, c] * site[a, b]
    assert np.max(np.abs(out - brute)) < 1e-14


def test_pair_table_application_matches_hamiltonian_potential():
    # the rate identity relies on using exactly the Hamiltonian's table
    lat = Lattice2D(4, 1.0)
    base = square_well(4.0, 0.5)
    W = make_scaled("W_beta", base, N=2, beta=0.5)
    state = random_symmetric_state(lat, 2, 21)
    h_full = build_hamiltonian(lat, 2, W)
    h_free = build_hamiltonian(lat, 2, None)
    via_h = h_full.apply(state.amplitudes) - h_free.apply(state.amplitudes)
    table = np.asarray(W(lat.minimum_image_distances().ravel())).reshape(lat.m, lat.m)
    via_table = apply_pair_table(state.amplitudes, _pair_site_table(lat.m, table))
    assert np.max(np.abs(via_h - via_table)) < 1e-11


# ------------------------------------------------------ mean-field surrogate


def test_mean_field_energy_matches_gp_module():
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    field = ExternalField.from_function(lambda x, y, t: np.cos(2 * math.pi * x))
    params = GpParams(coupling=2.5)
    from bosons2d.gp import gp_energy
    oracle = gp_energy(GpState(lat, phi), field, params)
    mine = mean_field_energy(phi, lat, 2.5, field.evaluate(lat, 0.0))
    assert mine == pytest.approx(oracle, rel=1e-12)


def test_mean_field_step_matches_gp_step():
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    frozen = ExternalField.from_function(lambda x, y, t: np.cos(2 * math.pi * y))
    params = GpParams(coupling=1.7, dt=1e-3)
    oracle = gp_step(GpState(lat, phi), frozen, params)
    # one splitting behind both entry points: the same bits for a static table
    mine = mean_field_step(phi, lat, 1.7, frozen.evaluate(lat, 0.0), dt=1e-3)
    assert np.array_equal(mine, oracle.amplitudes)
    # norm preserved to roundoff
    cell = lat.spacing ** 2
    assert float(np.sum(np.abs(mine) ** 2)) * cell == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("stepper", ["gp.step", "mean_field_step", "fewbody.propagate"])
def test_non_finite_time_steps_are_rejected_by_name(stepper, value):
    """A NaN step would otherwise return an all-NaN field without a sound."""
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    calls = {
        "gp.step": lambda: gp_step(GpState(lat, phi), ExternalField.zero(),
                                   GpParams(coupling=1.0), dt=value),
        "mean_field_step": lambda: mean_field_step(phi, lat, 1.0, dt=value),
        "fewbody.propagate": lambda: propagate(random_symmetric_state(lat, 2, 5),
                                               build_hamiltonian(lat, 2), value),
    }
    with pytest.raises(ValueError, match=f"dt must be finite, got {value}"):
        calls[stepper]()


@pytest.mark.parametrize("call", [mean_field_energy, mean_field_step])
def test_mean_field_tables_off_the_lattice_are_rejected_by_name(call):
    """A (1, m) field would broadcast against the (m, m) symbol: the energy
    returned a number and the step an unnamed broadcast error."""
    lat = Lattice2D(4, 1.0)
    with pytest.raises(ValueError, match=r"phi must have the lattice shape \(4, 4\)"):
        call(np.ones((1, 4)), lat, 1.0)
    with pytest.raises(ValueError, match=r"field_values must have the lattice shape"):
        call(lattice_field(lat), lat, 1.0, np.zeros((4, 1)))


def test_energy_gap_vanishes_for_free_product():
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = product_state(lat, phi, 2)
    field = ExternalField.from_function(lambda x, y, t: np.sin(2 * math.pi * x))
    report = diagnostics_report(state, proj, build_hamiltonian(lat, 2, None, field))
    assert report.energy_gap < 1e-12
    # the counting functional bottoms out at the flattened floor m(0)
    floor = counting_weight(2, xi=0.25).values[0]
    assert report.alpha_less == pytest.approx(floor, abs=1e-12)


def test_energy_gap_product_state_interaction_oracle():
    # for a 2-particle product state the interaction energy per particle is
    # half the double lattice sum of W against both densities
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = product_state(lat, phi, 2)
    base = square_well(4.0, 0.5)
    W = make_scaled("W_beta", base, N=2, beta=0.5)
    cell = lat.spacing ** 2
    table = np.asarray(W(lat.minimum_image_distances().ravel())).reshape(lat.m, lat.m)
    site = _pair_site_table(lat.m, table)
    dens = np.abs(phi.ravel()) ** 2
    pair_energy = 0.5 * float(dens @ site @ dens) * cell ** 2
    free = mean_field_energy(phi, lat, 0.0)
    many = energy_per_particle(state, build_hamiltonian(lat, 2, W))
    assert many == pytest.approx(free + pair_energy, rel=1e-11)
    # choosing the coupling that reproduces the pair term closes the gap
    matched = 2.0 * pair_energy / (cell * float(np.sum(np.abs(phi) ** 4)))
    assert diagnostics_report(state, proj, build_hamiltonian(lat, 2, W),
                              matched).energy_gap < 1e-11


def test_energy_gap_reads_the_field_from_a_given_hamiltonian(monkeypatch):
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = depleted_state(lat, phi, 0.1)
    V = make_scaled("V_N", square_well(4.0, 0.5), N=2)
    field = ExternalField.from_function(lambda x, y, t: np.cos(2 * math.pi * x))
    micro = SimpleNamespace(R_beta=1e-6, g_evaluate=lambda r: np.zeros_like(r))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        hamiltonian = build_hamiltonian(lat, 2, V, field, t=state.time)
        calls = []
        evaluate = ExternalField.evaluate
        monkeypatch.setattr(ExternalField, "evaluate",
                            lambda self, grid, t: calls.append(t) or evaluate(self, grid, t))
        alpha_full(state, proj, V, micro, field, hamiltonian=hamiltonian)
    assert calls == []


def test_energy_gap_terms_share_the_hamiltonian_field_table():
    """H is frozen at t = 0 and the state sits at t = 0.3: both terms read
    H's table, not the field at the state's time."""
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = FewBodyState(lat, depleted_state(lat, phi, 0.1).amplitudes, 0.3)
    W = make_scaled("W_beta", square_well(4.0, 0.5), N=2, beta=0.5)
    field = ExternalField.from_function(lambda x, y, t: np.cos(2 * math.pi * (x + t)))
    hamiltonian = build_hamiltonian(lat, 2, W, field, t=0.0)
    gap = diagnostics_report(state, proj, hamiltonian, 4.0 * math.pi).energy_gap
    expected = abs(energy_per_particle(state, hamiltonian)
                   - mean_field_energy(proj.phi, lat, 4.0 * math.pi, hamiltonian.external_field))
    assert gap == expected
    moved = mean_field_energy(proj.phi, lat, 4.0 * math.pi, field.evaluate(lat, 0.3))
    assert abs(energy_per_particle(state, hamiltonian) - moved) != gap


# ------------------------------------------------------------- functionals


def test_alpha_full_without_resolvable_core_is_alpha_less():
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = depleted_state(lat, phi, 0.1)
    base = square_well(4.0, 0.5)
    V = make_scaled("V_N", base, N=2)
    micro = SimpleNamespace(R_beta=1e-6, g_evaluate=lambda r: np.zeros_like(r))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = alpha_full(state, proj, V, micro)
        plain = diagnostics_report(state, proj, build_hamiltonian(lat, 2, V),
                                   4.0 * math.pi).alpha_less
    assert not result.used_correction
    assert result.correction_term == 0.0
    assert result.value == pytest.approx(plain, rel=1e-12)


def test_alpha_full_zero_depletion_profile_adds_nothing():
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = depleted_state(lat, phi, 0.1)
    micro = SimpleNamespace(R_beta=1.0, g_evaluate=lambda r: np.zeros_like(r))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = alpha_full(state, proj, None, micro)
    assert result.used_correction
    assert result.correction_term == 0.0
    assert result.value == pytest.approx(result.m_expect + result.energy_gap, rel=1e-12)


def test_alpha_full_correction_respects_exact_lattice_bound():
    lat = Lattice2D(6, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = depleted_state(lat, phi, 0.15)
    base = square_well(4.0, 0.5)
    V = make_scaled("V_N", base, N=2)
    micro = build_microscopic(base, N=2, beta=0.5)
    assert micro.R_beta >= lat.spacing
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = alpha_full(state, proj, V, micro)
    assert result.used_correction
    g_vals = micro.g_evaluate(lat.minimum_image_distances().ravel())
    g_norm = math.sqrt(lat.spacing ** 2 * float(np.sum(g_vals ** 2)))
    phi_inf = float(np.max(np.abs(proj.phi)))
    w_a = counting_difference(2, 1)
    w_b = counting_difference(2, 2)
    bound = 2.0 * g_norm * phi_inf * (w_b.operator_norm() + 2.0 * w_a.operator_norm())
    assert abs(result.correction_term) <= bound + 1e-12
    assert result.value == pytest.approx(
        result.m_expect + result.energy_gap + result.correction_term, rel=1e-12)


def test_pair_depletion_overlap_respects_projector_bound():
    # |2(N-1) Re<Psi, g(x1-x2) p1 Psi>| <= 2(N-1) ||g|| ||phi||_inf on the
    # lattice, the a priori control used to seed the counting estimates
    lat = Lattice2D(6, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    base = square_well(4.0, 0.5)
    micro = build_microscopic(base, N=2, beta=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        state = jastrow_initial_state(proj.phi, micro, lat, 2)
    g_table = micro.g_evaluate(lat.minimum_image_distances().ravel()
                               ).reshape(lat.m, lat.m)
    projected = proj.apply_p(state.amplitudes, 0)
    overlap = np.vdot(state.amplitudes,
                      apply_pair_table(projected, _pair_site_table(lat.m, g_table)))
    cell = lat.spacing ** 2
    lhs = abs(2.0 * float(np.real(overlap)) * cell ** 2)
    g_norm = math.sqrt(cell * float(np.sum(g_table ** 2)))
    assert lhs <= 2.0 * g_norm * float(np.max(np.abs(proj.phi))) + 1e-12


def test_diagnostics_report_bundle():
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = depleted_state(lat, phi, 0.1)
    hamiltonian = build_hamiltonian(lat, 2)
    report = diagnostics_report(state, proj, hamiltonian)
    assert report.alpha_full is None
    assert report.alpha_less == pytest.approx(report.m_expect + report.energy_gap,
                                              rel=1e-12)
    assert report.trace_distance == trace_distance(report.gamma1, proj)
    assert report.gamma1.shape == (lat.d, lat.d)
    micro = SimpleNamespace(R_beta=1.0, g_evaluate=lambda r: np.exp(-np.asarray(r)))
    report2 = diagnostics_report(state, proj, hamiltonian, micro=micro)
    assert report2.used_correction
    assert report2.alpha_full is not None


def test_projector_on_another_lattice_is_rejected_by_name():
    """Same m, other box: mixing the two spacings silently would make the
    count distribution sum to 16 and put a weight bounded by 1 at 15.4."""
    state = random_symmetric_state(Lattice2D(4, 1.0), 2, seed=5)
    wide = Lattice2D(4, 2.0)
    proj = CondensateProjector(wide, lattice_field(wide))
    message = r"Lattice2D\(m=4, box_length=1\.0\).*Lattice2D\(m=4, box_length=2\.0\)"
    for diagnose in (lambda: number_expectations(state, proj),
                     lambda: weight_expectation(state, proj, counting_weight(2)),
                     lambda: diagnostics_report(state, proj, build_hamiltonian(state.lattice, 2))):
        with pytest.raises(ValueError, match=message):
            diagnose()


# ----------------------------------------------------- depletion implications


def test_trace_distance_bounded_by_depletion():
    # gamma-to-reference distance <= u + sqrt(u) with u the depleted fraction
    lat = Lattice2D(3, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    for seed, n in ((1, 2), (2, 3), (3, 2)):
        state = random_symmetric_state(lat, n, seed)
        numbers = number_expectations(state, proj)
        distance = trace_distance(gamma1(state), proj)
        u = max(numbers.n_square, 0.0)
        assert distance <= u + math.sqrt(u) + 1e-10


def test_depletion_family_drives_all_diagnostics_together():
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    distances, squares, m_values = [], [], []
    weight = counting_weight(2, xi=0.25)
    for eps in (0.3, 0.1, 0.03, 0.01):
        state = depleted_state(lat, phi, eps)
        numbers = number_expectations(state, proj)
        distances.append(trace_distance(gamma1(state), proj))
        squares.append(numbers.n_square)
        m_values.append(weight_expectation(state, proj, weight))
        # the weighted count dominates the flattened floor times the
        # probability of any particle outside
        outside = 1.0 - numbers.distribution[0]
        assert m_values[-1] >= weight.values[1] * outside - 1e-12
        # second moment never exceeds the first (weights below sqrt scale)
        assert numbers.n_square <= numbers.n_expect + 1e-12
    assert distances == sorted(distances, reverse=True)
    assert squares == sorted(squares, reverse=True)
    assert m_values == sorted(m_values, reverse=True)
    # the distance falls linearly in the depletion amplitude, the second
    # moment quadratically
    assert distances[-1] < 0.05
    assert squares[-1] < 1e-3


# ------------------------------------------------------------ rate identity


def test_rate_identity_routes_agree_exactly():
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = depleted_state(lat, phi, 0.2)
    base = square_well(4.0, 0.5)
    W = make_scaled("W_beta", base, N=2, beta=0.5)
    coupling = 2.0 * W.norm_l1
    comparison = ddt_weight_identity(state, proj, W, coupling, dt=1e-4)
    assert abs(comparison.commutator - comparison.projected) < 1e-12
    assert abs(comparison.projected - sum(comparison.split_parts)) < 1e-12
    assert comparison.residual < 1e-5
    # all three split parts are exercised by the doubly-depleted component
    assert all(part != 0.0 for part in comparison.split_parts)


def test_rate_identity_finite_difference_is_second_order():
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = depleted_state(lat, phi, 0.2)
    base = square_well(4.0, 0.5)
    W = make_scaled("W_beta", base, N=2, beta=0.5)
    residuals = [ddt_weight_identity(state, proj, W, 3.0, dt=dt).residual
                 for dt in (4e-4, 2e-4, 1e-4)]
    ratios = [residuals[i] / residuals[i + 1] for i in range(2)]
    assert all(3.3 < r < 4.7 for r in ratios)


def test_rate_identity_stationary_configuration_vanishes():
    lat = Lattice2D(3, 1.0)
    phi = lattice_field(lat, which="constant")
    proj = CondensateProjector(lat, phi)
    state = product_state(lat, phi, 2)
    comparison = ddt_weight_identity(state, proj, None, 0.0, dt=1e-4)
    assert abs(comparison.commutator) < 1e-13
    assert abs(comparison.finite_difference) < 1e-9
    assert abs(sum(comparison.split_parts)) < 1e-13


def test_rate_identity_routes_agree_at_three_particles():
    """At N = 3 on 4 x 4 the dimension d^N is 4096, the dense limit, and
    the exchange-symmetric block the state steps in has C(18, 3) = 816
    states. The three commutator routes agree, and the residual is small
    and falls at second order in dt."""
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    rng = np.random.default_rng(11)
    chi = rng.standard_normal(lat.d) + 1j * rng.standard_normal(lat.d)
    one = phi.ravel() + 0.2 * chi / np.linalg.norm(chi) / lat.spacing
    product = np.multiply.outer(np.multiply.outer(one, one), one)
    state = FewBodyState(lat, product + 0.05 * random_symmetric_state(lat, 3, 12).amplitudes
                         ).normalized()
    W = make_scaled("W_beta", square_well(4.0, 0.5), N=3, beta=0.5)
    field = ExternalField.from_function(lambda x, y, t: np.cos(2 * math.pi * x))
    comparisons = [ddt_weight_identity(state, proj, W, 3.0 * W.norm_l1, field=field, dt=dt)
                   for dt in (4e-4, 2e-4, 1e-4)]
    finest = comparisons[-1]
    assert abs(finest.commutator - finest.projected) < 1e-12
    assert abs(finest.projected - sum(finest.split_parts)) < 1e-12
    assert finest.residual < 1e-5
    assert all(part != 0.0 for part in finest.split_parts)
    ratios = [a.residual / b.residual for a, b in zip(comparisons, comparisons[1:])]
    assert all(3.3 < r < 4.7 for r in ratios)


def test_rate_identity_drops_the_non_symmetric_residue():
    """The state steps in the exchange-symmetric block, so an antisymmetric
    part below the 1e-8 symmetry check leaves the finite-difference rate
    of the symmetrized state unchanged; a larger one is refused."""
    lat = Lattice2D(4, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    symmetric = depleted_state(lat, phi, 0.2)
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((lat.d, lat.d)) + 1j * rng.standard_normal((lat.d, lat.d))
    odd = FewBodyState(lat, raw - raw.T).normalized().amplitudes
    W = make_scaled("W_beta", square_well(4.0, 0.5), N=2, beta=0.5)
    rate = lambda amplitudes: ddt_weight_identity(
        FewBodyState(lat, amplitudes), proj, W, 2.0 * W.norm_l1, dt=1e-4).finite_difference
    perturbed = symmetric.amplitudes + 1e-10 * odd
    expected = rate(0.5 * (perturbed + perturbed.T))
    assert abs(rate(perturbed) - expected) <= 1e-12 * abs(expected)
    with pytest.raises(ValueError, match="exchange symmetric"):
        rate(symmetric.amplitudes + 1e-6 * odd)


def test_rate_identity_steps_without_the_matrix_free_action(monkeypatch):
    """At N = 2 on 6 x 6 (dimension 1296) the identity steps by one real
    eigendecomposition of the exchange-symmetric block, of dimension
    C(37, 2) = 666, read from `dense_matrix`, so it makes no `apply` call
    at all. The residue outside the block, at most 1e-8 by the symmetry
    check, is dropped, which is exact because H and every count projection
    commute with particle exchanges. The Chebyshev series is not used: its
    term count varies with dt, and the work here must not."""
    lat = Lattice2D(6, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = depleted_state(lat, phi, 0.1)
    W = make_scaled("W_beta", square_well(4.0, 0.5), N=2, beta=0.5)
    applies = []
    apply = DiscreteHamiltonian.apply
    monkeypatch.setattr(DiscreteHamiltonian, "apply",
                        lambda self, v, *, out=None: applies.append(1) or apply(self, v, out=out))
    comparison = ddt_weight_identity(state, proj, W, 2.0 * W.norm_l1, dt=1e-4)
    assert applies == []
    assert comparison.residual < 1e-5


def test_rate_identity_refuses_a_dimension_above_the_dense_limit():
    lat = Lattice2D(5, 1.0)
    phi = lattice_field(lat, which="constant")
    state = product_state(lat, phi, 3)
    with pytest.raises(ValueError, match="dense form limited to dimension 4096, got 15625"):
        ddt_weight_identity(state, CondensateProjector(lat, phi), None, 0.0)


def test_rate_identity_requires_symmetry_and_pairs():
    lat = Lattice2D(3, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((lat.d, lat.d)) + 1j * rng.standard_normal((lat.d, lat.d))
    lopsided = FewBodyState(lat, raw).normalized()
    with pytest.raises(ValueError):
        ddt_weight_identity(lopsided, proj, None, 0.0)
    single = FewBodyState(lat, phi.ravel()).normalized()
    with pytest.raises(ValueError):
        ddt_weight_identity(single, proj, None, 0.0)


def test_rate_identity_with_external_field_static_freeze():
    lat = Lattice2D(3, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = depleted_state(lat, phi, 0.15)
    field = ExternalField.from_function(lambda x, y, t: np.cos(2 * math.pi * x))
    comparison = ddt_weight_identity(state, proj, None, 1.5, field=field, dt=1e-4)
    assert abs(comparison.commutator - comparison.projected) < 1e-12
    assert comparison.residual < 1e-5


def test_rate_identity_samples_each_lattice_table_once(monkeypatch):
    """The pair table and the static field are read from the Hamiltonian
    that sampled them, not sampled again."""
    field_times = []
    evaluate = ExternalField.evaluate
    monkeypatch.setattr(ExternalField, "evaluate",
                        lambda self, grid, t: field_times.append(t) or evaluate(self, grid, t))
    lat = Lattice2D(3, 1.0)
    phi = lattice_field(lat)
    proj = CondensateProjector(lat, phi)
    state = depleted_state(lat, phi, 0.15)
    W = make_scaled("W_beta", square_well(4.0, 0.5), N=2, beta=0.5)
    samplings = []

    def interaction(r: np.ndarray) -> np.ndarray:
        samplings.append(r.size)
        return W(r)

    field = ExternalField.from_function(lambda x, y, t: np.cos(2 * math.pi * x))
    comparison = ddt_weight_identity(state, proj, interaction, 1.5, field=field, dt=1e-4)
    assert field_times == [state.time]
    assert samplings == [lat.d]
    assert abs(comparison.commutator - comparison.projected) < 1e-12


# ----------------------------------------------------------- algebra suite


def test_algebra_suite_passes_two_and_three_particles():
    lat = Lattice2D(3, 1.0)
    proj = CondensateProjector(lat, lattice_field(lat))
    for n, seed in ((2, 0), (3, 1)):
        report = operator_algebra_suite(proj, n, seed=seed)
        assert report.passed, report.failures()
        assert report.n_particles == n
        assert len(report.checks) >= 20
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))
    with pytest.raises(ValueError):
        operator_algebra_suite(proj, 1)
    with pytest.raises(ValueError):
        operator_algebra_suite(proj, 4)


def test_algebra_suite_dense_checks_toggle_with_dimension():
    small = CondensateProjector(Lattice2D(2, 1.0), lattice_field(Lattice2D(2, 1.0)))
    report = operator_algebra_suite(small, 3, seed=2)
    assert any(c.name.startswith("dense-") for c in report.checks)
    big = CondensateProjector(Lattice2D(4, 1.0), lattice_field(Lattice2D(4, 1.0)))
    report_big = operator_algebra_suite(big, 3, seed=2)
    assert not any(c.name.startswith("dense-") for c in report_big.checks)
    assert report_big.passed, report_big.failures()


def test_algebra_suite_dense_oracle_catches_a_broken_tensor_action(monkeypatch):
    lat = Lattice2D(3, 1.0)
    proj = CondensateProjector(lat, lattice_field(lat))
    assert operator_algebra_suite(proj, 2, seed=0).passed
    exact = diagnostics._CountBasis.weighted
    monkeypatch.setattr(diagnostics._CountBasis, "weighted",
                        lambda self, values: (1.0 + 1e-6) * exact(self, values))
    report = operator_algebra_suite(proj, 2, seed=0)
    assert "dense-weight-matches-tensor" in report.failures()


def test_algebra_suite_seed_sweep():
    lat = Lattice2D(3, 1.0)
    proj = CondensateProjector(lat, lattice_field(lat))
    for seed in range(8):
        report = operator_algebra_suite(proj, 2, seed=seed)
        assert report.passed, (seed, report.failures())


def test_algebra_report_names_its_failures():
    report = OperatorAlgebraReport(2, 3, 17, (
        CheckResult("identity-check", 1e-16, 1e-10, True),
        CheckResult("broken-check", 3e-4, 1e-10, False),
    ))
    assert not report.passed
    assert report.failures() == ("broken-check",)
