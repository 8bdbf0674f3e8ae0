"""Geometric sensitivity analysis for spin-network state transfer.

Static-bias controllers steer a single excitation through a chain or
ring of uniformly coupled spins. This package synthesizes such
controllers, computes the differential sensitivity of the transfer
error to structured Hamiltonian uncertainty, and factors that
sensitivity into geometric terms (operator norms and frame angles) that
explain when high fidelity and low sensitivity coexist.
"""

from .analytics import CorrelationSummary, analyze, kendall, pearson
from .bloch import (BlochSystem, HermitianBasis, adjoint_rep,
                    build_bloch_system, fidelity, gell_mann_basis, site_state,
                    state_to_bloch)
from .errors import InvariantViolation
from .geometry import (GeometryRecord, angles, identity_residual, io_operator,
                       project, pst_check)
from .network import (NetworkSpec, SESHamiltonian, UncertaintyStructure,
                      build_hamiltonian, enumerate_structures, perturb,
                      scaling_factor)
from .sensitivity import (HilbertTransfer, SensitivityOperator, SpectralData,
                          adjoint_sensitivity_operator,
                          differential_sensitivity, fd_oracle, hadamard_core,
                          hilbert_transfer, propagator_matrix,
                          quadrature_oracle, sensitivity_operator,
                          spectral_decompose)
from .synthesis import (Controller, SynthesisConfig, controllers_from_json,
                        controllers_to_json, fidelity_objective, local_optimize,
                        synthesize_ensemble, transfer_fidelity)
from .verification import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "BlochSystem",
    "CheckResult",
    "Controller",
    "CorrelationSummary",
    "GeometryRecord",
    "HermitianBasis",
    "HilbertTransfer",
    "InvariantViolation",
    "NetworkSpec",
    "SESHamiltonian",
    "SensitivityOperator",
    "SpectralData",
    "SynthesisConfig",
    "UncertaintyStructure",
    "adjoint_rep",
    "adjoint_sensitivity_operator",
    "analyze",
    "angles",
    "build_bloch_system",
    "build_hamiltonian",
    "controllers_from_json",
    "controllers_to_json",
    "differential_sensitivity",
    "enumerate_structures",
    "fd_oracle",
    "fidelity",
    "fidelity_objective",
    "gell_mann_basis",
    "hadamard_core",
    "hilbert_transfer",
    "identity_residual",
    "io_operator",
    "kendall",
    "local_optimize",
    "pearson",
    "perturb",
    "project",
    "propagator_matrix",
    "pst_check",
    "quadrature_oracle",
    "run_checks",
    "scaling_factor",
    "sensitivity_operator",
    "site_state",
    "spectral_decompose",
    "state_to_bloch",
    "synthesize_ensemble",
    "transfer_fidelity",
    "__version__",
]
