"""The four benchmark workloads: seeded inputs, op sequences and checks.

A workload's `setup(seed, api)` builds every input from the seed alone; the
library only ever sees those inputs. `steps(inputs, api, index)` is a generator
of `Step`s making pass number `index`, that is one complete solution at the
workload's stated size; every pass costs the same. The harness runs each step's thunk, sends its result back,
and applies the step's checks, which use only tolerances the repository's
acceptance criteria already treat as contractual. Seeds vary the physics
(heights, couplings, phases, shapes) but never a size or stiffness that
sets the amount of work, so runs on different seeds stay comparable.
"""
from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Iterator, Sequence

import numpy as np
from scipy.special import i0, i1

from bosons2d.diagnostics import EFFECTIVE_COUPLING, CondensateProjector, counting_weight
from bosons2d.fewbody import FewBodyState, Lattice2D, jastrow_initial_state
from bosons2d.gp import ExternalField, GpParams, GpState, Grid2D
from bosons2d.scattering import square_well


@dataclasses.dataclass
class Step:
    """One call sequence; `op` steps are the unit the latency metrics count.

    `value` picks the physical output folded into the run's results digest;
    a float result is folded in as it is.
    """
    thunk: Callable[[], Any]
    check: Callable[[Any], dict[str, bool]] = lambda result: {}
    op: bool = True
    value: Callable[[Any], float] | None = None


def _normalized(values: np.ndarray, cell: float) -> np.ndarray:
    return values / math.sqrt(float(np.sum(np.abs(values) ** 2)) * cell)


def bessel_scattering_length(height: float, radius: float) -> float:
    """Closed form for the square well, a = r0 exp(-I0(x)/(x I1(x))), x = r0 sqrt(h/2)."""
    x = radius * math.sqrt(height / 2.0)
    return radius * math.exp(-i0(x) / (x * i1(x)))


class GpQuench:
    """Imaginary-time ground state in a harmonic trap on a 128^2 grid, then
    real-time Strang steps under a rotating stirring field."""
    name = "gp_quench"
    grid_points = 128
    box_length = 16.0
    steps_per_pass = 400
    energy_every = 10

    def setup(self, seed: int, api: Any) -> dict[str, Any]:
        rng = np.random.default_rng(seed)
        omega = rng.uniform(0.9, 1.1)
        stir = rng.uniform(0.05, 0.1) * omega ** 2
        spin = rng.uniform(0.5, 1.0)
        phase = rng.uniform(0.0, math.pi)
        centre = self.box_length / 2.0

        def trap(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
            xs, ys = x - centre, y - centre
            angle = 2.0 * (spin * t + phase)
            return (0.5 * omega ** 2 * (xs * xs + ys * ys)
                    + stir * ((xs * xs - ys * ys) * np.cos(angle) + 2.0 * xs * ys * np.sin(angle)))

        grid = Grid2D(self.grid_points, self.box_length)
        x, y = grid.meshes()
        shift = rng.uniform(-0.5, 0.5, size=2)
        guess = np.exp(-((x - centre - shift[0]) ** 2 + (y - centre - shift[1]) ** 2) / 4.0)
        coupling = rng.uniform(40.0, 60.0)
        return {"field": ExternalField.from_function(trap),
                "guess": GpState(grid, guess.astype(np.complex128)).normalized(),
                "descent": GpParams(coupling=coupling, dt=5e-3),
                "params": GpParams(coupling=coupling, dt=1e-3),
                "key": (omega, stir, spin, phase, *shift, coupling)}

    def steps(self, inputs: dict[str, Any], api: Any, index: int) -> Iterator[Step]:
        field, params = inputs["field"], inputs["params"]
        state = yield Step(lambda: api.gp.ground_state(field, inputs["descent"], inputs["guess"],
                                                       energy_tol=1e-9),
                           op=False, value=lambda s: float(np.max(np.abs(s.amplitudes))))
        state = dataclasses.replace(state, time=0.0)
        # Criterion 07: Strang steps conserve the norm to 1e-12.
        norm_kept = lambda s: {"gp-norm-drift": abs(s.norm() - 1.0) < 1e-12}
        for i in range(self.steps_per_pass):
            state = yield Step(lambda s=state: api.gp.step(s, field, params), norm_kept)
            if (i + 1) % self.energy_every == 0:
                yield Step(lambda s=state: api.gp.gp_energy(s, field, params),
                           lambda e: {"gp-energy-finite": math.isfinite(e)}, op=False)


class CompareN3:
    """The per-step call sequence of the `compare` scenario at N = 3 on a
    6 x 6 lattice (dimension 46 656, always Krylov), with the annular M_beta
    pair so that alpha_full applies its correction."""
    name = "compare_n3"
    n_particles = 3
    lattice_points = 6
    dt = 2e-3
    steps_per_pass = 20
    xi = 0.25

    def setup(self, seed: int, api: Any) -> dict[str, Any]:
        rng = np.random.default_rng(seed)
        lattice = Lattice2D(self.lattice_points, 1.0)
        height = rng.uniform(3.5, 4.5)
        interaction = api.potentials.make_scaled(
            "M_beta", square_well(height, 0.5), self.n_particles, beta=0.5)
        amplitude = rng.uniform(0.8, 1.2)
        k = 2.0 * math.pi / lattice.box_length
        field = ExternalField.from_function(
            lambda x, y, t: amplitude * np.cos(k * x) * np.cos(k * y),
            func_dot=lambda x, y, t: np.zeros_like(x))
        hamiltonian = api.fewbody.build_hamiltonian(
            lattice, self.n_particles, interaction, field, t=0.0)
        xx, yy = lattice.meshes()
        c1, c2 = rng.uniform(0.15, 0.3, size=2)
        phi = _normalized(1.0 + c1 * np.cos(k * xx) + c2 * np.cos(k * yy),
                          lattice.spacing ** 2).astype(np.complex128)
        return {"lattice": lattice, "interaction": interaction, "field": field,
                "field_table": field.evaluate(lattice, 0.0), "hamiltonian": hamiltonian,
                "phi": phi, "state": jastrow_initial_state(phi, None, lattice, self.n_particles),
                "weight": counting_weight(self.n_particles, self.xi),
                "key": (height, amplitude, c1, c2)}

    def steps(self, inputs: dict[str, Any], api: Any, index: int) -> Iterator[Step]:
        lattice, hamiltonian = inputs["lattice"], inputs["hamiltonian"]
        interaction, table = inputs["interaction"], inputs["field_table"]

        def sample(state: FewBodyState, phi: np.ndarray) -> dict[str, Any]:
            projector = CondensateProjector(lattice, phi)
            m_expect = api.diagnostics.weight_expectation(state, projector, inputs["weight"])
            gap = abs(api.fewbody.energy_per_particle(state, hamiltonian)
                      - api.diagnostics.mean_field_energy(phi, lattice, EFFECTIVE_COUPLING, table))
            full = api.diagnostics.alpha_full(state, projector, interaction, interaction.pair,
                                              inputs["field"], self.xi)
            numbers = api.diagnostics.number_expectations(state, projector)
            distance = api.diagnostics.trace_distance(api.diagnostics.gamma1(state), projector)
            return {"state": state, "phi": phi, "alpha_less": m_expect + gap, "alpha": full,
                    "numbers": numbers, "distance": distance}

        def advance(state: FewBodyState, phi: np.ndarray) -> dict[str, Any]:
            state = api.fewbody.propagate(state, hamiltonian, self.dt)
            phi = api.diagnostics.mean_field_step(phi, lattice, EFFECTIVE_COUPLING, table, dt=self.dt)
            return sample(state, phi)

        def check(row: dict[str, Any]) -> dict[str, bool]:
            numbers = row["numbers"]
            return {  # criteria 08 and 11
                "fewbody-norm-drift": abs(row["state"].norm() - 1.0) < 1e-10,
                "n-square-routes": abs(numbers.n_square - numbers.n_square_from_gamma) < 1e-12,
                "alpha-corrected": row["alpha"].used_correction,
            }

        alpha = lambda row: row["alpha"].value
        row = yield Step(lambda: sample(inputs["state"], inputs["phi"]), check, False, alpha)
        for _ in range(self.steps_per_pass):
            row = yield Step(lambda r=row: advance(r["state"], r["phi"]), check, value=alpha)


class PairSweep:
    """Radial zero-energy solves, the softened-pair sweep, and the smeared
    comparison potentials: the ODE, root-finding and quadrature path."""
    name = "pair_sweep"
    radius = 0.5  # fixed: the quadrature depth follows the well radius
    beta = 0.5
    micro_sweep = tuple(range(8, 65, 2))
    boundaries = (2.0, 4.0)
    identity_sweep = (4, 8, 16, 32)
    smeared_sweep = (64, 128, 256, 512, 1024, 2048, 4096, 8192)
    laplacian_grids = (256, 512, 1024)

    def setup(self, seed: int, api: Any) -> dict[str, Any]:
        rng = np.random.default_rng(seed)
        heights = rng.uniform(3.0, 5.0, size=2)
        return {"wells": [(square_well(h, self.radius), h) for h in heights],
                "key": tuple(heights)}

    def steps(self, inputs: dict[str, Any], api: Any, index: int) -> Iterator[Step]:
        # An op is one constructed object (pair, solution, report, potential);
        # the number-valued integrals and residuals are checked but are not ops.
        base = inputs["wells"][0][0]
        sc, pt = api.scattering, api.potentials

        def pair_ok(pair: Any) -> dict[str, bool]:  # criterion 03
            return {"pair-residual": abs(pair.residual) < 1e-10,
                    "pair-K-range": 0.0 < pair.K_beta <= 1.0 + 1e-12}

        pairs = []
        for n in self.micro_sweep:
            pairs.append((yield Step(lambda n=n: sc.build_microscopic(base, n, self.beta), pair_ok,
                                     value=lambda pair: pair.R_beta)))
        yield Step(lambda: sc.g_norm_report(pairs), value=lambda report: report.l1_fit.exponent)

        for well, height in inputs["wells"]:
            oracle = bessel_scattering_length(height, self.radius)
            for boundary in self.boundaries:
                sol = yield Step(lambda w=well, b=boundary: sc.solve_zero_energy(w, b),
                                 lambda s, a=oracle: {  # criterion 01
                                     "bessel-oracle": abs(s.scattering_length - a) <= 1e-8 * a},
                                 value=lambda s: s.scattering_length)
                closed = 4.0 * math.pi / math.log(boundary / oracle)
                yield Step(lambda s=sol: sc.integral_I(s),
                           lambda value, c=closed: {  # criterion 02
                               "integral-identity": abs(value - c) <= 1e-8 * abs(c)}, op=False)
            for n in self.identity_sweep:
                closed = 4.0 * math.pi / (n + math.log(self.boundaries[0] / oracle))
                yield Step(lambda w=well, n=n: sc.scaled_scattering_identity(w, n, self.boundaries[0]),
                           lambda value, c=closed: {
                               "scaled-identity": abs(value - c) <= 1e-8 * abs(c)}, op=False)

        yield Step(lambda: pt.smeared_norm_report(base, self.smeared_sweep, 1.0, 0.25),
                   value=lambda report: report.h_l2_fit.exponent)
        w_beta = yield Step(lambda: pt.make_scaled("W_beta", base, 16, beta=1.0),
                            value=lambda w: w.norm_l1)
        _, comparison = yield Step(lambda: pt.make_smeared(w_beta, 0.25),
                                   value=lambda made: made[1].norms.h_l2)
        width = 2.5 * comparison.outer_support * 1.02 / self.laplacian_grids[0]
        for n in self.laplacian_grids:
            yield Step(lambda n=n: pt.laplacian_residual(comparison, n, exclusion_width=width),
                       lambda value: {"laplacian-finite": math.isfinite(value)}, op=False)


class AlgebraVerify:
    """Operator-algebra suite seeds on the four criterion-09 configurations and
    the counting-rate identity at N = 2 on 6 x 6, at one of three time steps."""
    name = "algebra_verify"
    configs = ((2, 3), (2, 4), (2, 5), (3, 3))
    rate_steps = (2e-4, 1e-4, 5e-5)

    def setup(self, seed: int, api: Any) -> dict[str, Any]:
        rng = np.random.default_rng(seed)
        projectors = []
        for _, m in self.configs:
            lattice = Lattice2D(m, 1.0)
            phi = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            projectors.append(CondensateProjector(lattice, _normalized(phi, lattice.spacing ** 2)))
        suite_seeds = [int(s) for s in rng.integers(0, 2 ** 30, size=len(self.configs))]

        lattice = Lattice2D(6, 1.0)
        cell = lattice.spacing ** 2
        xx, yy = lattice.meshes()
        k = 2.0 * math.pi
        c = rng.uniform(0.2, 0.4, size=3)
        phi = _normalized(1.0 + c[0] * np.cos(k * xx) + c[1] * np.sin(k * yy)
                          + 0.1j * np.cos(k * (xx + yy)), cell)
        chi = np.exp(1j * k * xx) * (1.0 + c[2] * np.cos(k * yy))
        chi = _normalized(chi - phi * (np.vdot(phi.ravel(), chi.ravel()) * cell), cell)
        single = np.multiply.outer(phi.ravel(), chi.ravel())
        depletion = rng.uniform(0.1, 0.2)
        amp = (np.multiply.outer(phi.ravel(), phi.ravel()) + depletion * (single + single.T)
               + 0.6 * depletion * np.multiply.outer(chi.ravel(), chi.ravel()))
        w_beta = api.potentials.make_scaled(
            "W_beta", square_well(rng.uniform(3.0, 5.0), 0.5), 2, beta=0.5)
        return {"projectors": projectors, "suite_seeds": suite_seeds,
                "state": FewBodyState(lattice, amp).normalized(),
                "projector": CondensateProjector(lattice, phi),
                "w_beta": w_beta, "key": (*suite_seeds, *c, depletion, w_beta.norm_l1)}

    def steps(self, inputs: dict[str, Any], api: Any, index: int) -> Iterator[Step]:
        # Pass k checks a fresh suite instance per configuration and the
        # identity at the k-th time step, cyclically; the cost does not
        # depend on either.
        for (n, _), projector, seed in zip(self.configs, inputs["projectors"], inputs["suite_seeds"]):
            yield Step(lambda p=projector, n=n, s=seed + index:
                       api.diagnostics.operator_algebra_suite(p, n, seed=s, tolerance=1e-10),
                       lambda report: {"suite-passed": report.passed})  # criterion 09
        w_beta = inputs["w_beta"]
        dt = self.rate_steps[index % len(self.rate_steps)]
        yield Step(lambda: api.diagnostics.ddt_weight_identity(
            inputs["state"], inputs["projector"], w_beta, 2.0 * w_beta.norm_l1, dt=dt),
            lambda rate: {"rate-identity": rate.residual < 1e-5},  # criterion 10
            value=lambda rate: rate.finite_difference)


WORKLOADS = {w.name: w for w in (GpQuench(), CompareN3(), PairSweep(), AlgebraVerify())}
