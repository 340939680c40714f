"""Desk-scale numerical laboratory for two-dimensional dilute Bose gases.

Five coupled layers: microscopic zero-energy scattering and the softened-pair
construction (scattering), scaled potential families and log-smeared
comparisons (potentials), mean-field propagation (gp), exact few-boson
dynamics (fewbody), and condensation-counting diagnostics tying them
together (diagnostics). Every field and every few-body state lives on one
periodic lattice type, `Lattice2D`. Each propagator has one engine:
`gp_propagate` the Strang splitting, `fewbody_propagate` the Chebyshev
series. The cli module exposes each layer as a reproducible
experiment. The exported names are the ones the scenarios, the acceptance
criteria and the benchmark use. The CLI names
resolve on first use, so importing the package does not import `cli` and
`python -m bosons2d.cli` runs that module once.
"""

__version__ = "0.1.0"

from .scattering import (
    MicroscopicPair,
    RadialPotential,
    ScatteringSolution,
    build_microscopic,
    coupling_deviation,
    g_norm_report,
    integral_I,
    potential_from_table,
    scaled_scattering_identity,
    solve_zero_energy,
    square_well,
)
from .fitting import FitResult, power_law_fit
from .potentials import (
    ScaledPotential,
    SmearedComparison,
    laplacian_residual,
    make_scaled,
    make_smeared,
    smeared_norm_report,
)
from .gp import (
    ExternalField,
    GpParams,
    GpState,
    gp_energy,
    ground_state,
    propagate as gp_propagate,
)
from .fewbody import (
    DiscreteHamiltonian,
    FewBodyState,
    Lattice2D,
    build_hamiltonian,
    energy_per_particle,
    jastrow_initial_state,
    propagate as fewbody_propagate,
)
from .diagnostics import (
    AlphaFullResult,
    CondensateProjector,
    DiagnosticsReport,
    NumberExpectations,
    OperatorAlgebraReport,
    RateComparison,
    WeightFunction,
    alpha_full,
    counting_difference,
    counting_weight,
    ddt_weight_identity,
    diagnostics_report,
    gamma1,
    number_expectations,
    number_weight,
    operator_algebra_suite,
    trace_distance,
    weight_expectation,
)

_CLI_NAMES = frozenset({"ExperimentConfig", "PotentialSpec", "RunManifest", "fit_report",
                        "load_config", "run"})


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "ExperimentConfig",
    "PotentialSpec",
    "RunManifest",
    "fit_report",
    "load_config",
    "run",
    "MicroscopicPair",
    "RadialPotential",
    "ScatteringSolution",
    "build_microscopic",
    "coupling_deviation",
    "g_norm_report",
    "integral_I",
    "potential_from_table",
    "scaled_scattering_identity",
    "solve_zero_energy",
    "square_well",
    "FitResult",
    "power_law_fit",
    "ScaledPotential",
    "SmearedComparison",
    "laplacian_residual",
    "make_scaled",
    "make_smeared",
    "smeared_norm_report",
    "ExternalField",
    "GpParams",
    "GpState",
    "gp_energy",
    "ground_state",
    "gp_propagate",
    "DiscreteHamiltonian",
    "FewBodyState",
    "Lattice2D",
    "build_hamiltonian",
    "energy_per_particle",
    "jastrow_initial_state",
    "fewbody_propagate",
    "AlphaFullResult",
    "CondensateProjector",
    "DiagnosticsReport",
    "NumberExpectations",
    "OperatorAlgebraReport",
    "RateComparison",
    "WeightFunction",
    "alpha_full",
    "counting_difference",
    "counting_weight",
    "ddt_weight_identity",
    "diagnostics_report",
    "gamma1",
    "number_expectations",
    "number_weight",
    "operator_algebra_suite",
    "trace_distance",
    "weight_expectation",
]
