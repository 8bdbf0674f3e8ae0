"""Geometric sensitivity analysis for spin-network state transfer.

Static-bias controllers steer a single excitation through a chain or
ring of uniformly coupled spins. This package synthesizes such
controllers, computes the differential sensitivity of the transfer
error to structured Hamiltonian uncertainty, and factors that
sensitivity into geometric terms (operator norms and frame angles) that
explain when high fidelity and low sensitivity coexist.

Public names resolve lazily (PEP 562): ``import spinsens`` loads no
submodule, and ``spinsens.<name>`` imports the one module that defines
the name on first use. Only the oracles in ``verification``,
``sensitivity.quadrature_oracle`` and ``sensitivity.fd_oracle``, and the
optimizer in ``synthesis`` load scipy, so analysis alone needs numpy only. Resolved names are not
cached here: each lookup reads the home module's current attribute, so
a patch of that attribute, and its restore, show through the package.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "analytics": ("CorrelationSummary", "analyze", "kendall", "pearson"),
    "bloch": ("adjoint_rep", "gell_mann_basis", "site_state", "state_to_bloch"),
    "errors": ("InvariantViolation",),
    "geometry": ("GeometryRecord", "angles", "identity_residual",
                 "project", "pst_check"),
    "network": ("NetworkSpec", "UncertaintyStructure",
                "build_hamiltonian", "enumerate_structures", "perturb",
                "scaling_factor"),
    "sensitivity": ("HilbertTransfer", "adjoint_sensitivity_operator", "fd_oracle",
                    "hadamard_core", "hilbert_transfer",
                    "propagator_matrix", "quadrature_oracle",
                    "sensitivity_operator", "spectral_decompose"),
    "synthesis": ("Controller", "SynthesisConfig", "controllers_from_json",
                  "controllers_to_json", "fidelity_objective",
                  "local_optimize", "synthesize_ensemble",
                  "transfer_fidelity"),
    "verification": ("CheckResult", "run_checks"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = frozenset(_HOMES) | {"cli"}

__all__ = sorted(_HOME_OF) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        home = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
