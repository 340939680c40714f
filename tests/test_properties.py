"""Property tests of the shared periodic lattice against independent oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosons2d.diagnostics import mean_field_energy
from bosons2d.fewbody import Lattice2D


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
