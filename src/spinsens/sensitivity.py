"""Differential sensitivity of the transfer error to structured uncertainty.

Everything here works on the real N^2-dimensional adjoint picture: the
generator A is skew-symmetric, so iA is Hermitian and A = M diag(i lam) M*
with real frequencies lam. The derivative of exp(A t) along a skew
direction has a closed form in that eigenbasis: conjugate the direction
into the eigenbasis, multiply entrywise by the divided differences of the
phase factors exp(i lam t), and conjugate back. One formula gives those
divided differences at every frequency gap, degenerate or not (see
``hadamard_core``). The same eigensystem yields the propagator, which
keeps the analytically exact orthogonality between the propagator and the
sensitivity operator intact at eigensolver precision.

Two slower, independent evaluations of the same derivative are provided
as oracles: fixed-order Gauss-Legendre quadrature of the integral
representation (Pade-based matrix exponentials, no shared eigensystem)
and a central finite difference of the error under full re-propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.linalg import expm

from .errors import InvariantViolation
from .network import _readonly

if TYPE_CHECKING:
    from .bloch import BlochSystem
    from .network import UncertaintyStructure
    from .synthesis import Controller

# Allowed imaginary residue when a reconstructed operator must be real.
IMAG_TOL = 1e-9


def _require_skew(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    defect = np.linalg.norm(a + a.T)
    if defect > 1e-9 * max(1.0, np.linalg.norm(a)):
        raise ValueError(f"{what} must be skew-symmetric (defect {defect:.3e})")
    return a


@dataclass(frozen=True)
class SpectralData:
    """Eigensystem of a skew-symmetric generator: A = M diag(i lam) M*.

    ``lam`` is real and ascending and ``M`` is unitary, with columns as
    the eigensolver returns them: no phase or order within a degenerate
    eigenspace is imposed. None is needed. The propagator and the
    sensitivity operator are functions of A alone: a phase on column k
    cancels between M and M*, and within a degenerate eigenspace the
    divided-difference weights are constant, so any unitary mix of its
    columns cancels too. The eigensolver is deterministic for a given
    input, so reruns and thread counts still give the same bytes.
    """

    M: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        _readonly(self.M)
        _readonly(self.lam)


def spectral_decompose(a: np.ndarray) -> SpectralData:
    """Eigendecomposition of a skew-symmetric matrix via the Hermitian iA."""
    a = _require_skew(a, "generator")
    mu, vec = np.linalg.eigh(1j * a)
    lam = -mu[::-1] + 0.0
    m = np.ascontiguousarray(vec[:, ::-1])

    gram_defect = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
    if gram_defect > 1e-10:
        raise InvariantViolation(f"eigenvector matrix not unitary (defect {gram_defect:.3e})")
    recon = np.linalg.norm((m * (1j * lam)) @ m.conj().T - a)
    if recon > 1e-9 * max(1.0, np.linalg.norm(a)):
        raise InvariantViolation(f"spectral reconstruction failed (residual {recon:.3e})")
    return SpectralData(M=m, lam=lam)


def propagator_matrix(spectral: SpectralData, t_f: float) -> np.ndarray:
    """Real orthogonal exp(A t_f) assembled from the shared eigensystem."""
    phases = np.exp(1j * spectral.lam * t_f)
    phi_c = (spectral.M * phases) @ spectral.M.conj().T
    residue = np.abs(phi_c.imag).max()
    if residue > IMAG_TOL:
        raise InvariantViolation(f"propagator has imaginary residue {residue:.3e}")
    return phi_c.real.copy()


def hadamard_core(z: np.ndarray, lam: np.ndarray, t_f: float) -> np.ndarray:
    """Entrywise divided-difference weighting of an eigenbasis direction.

    Entry (k, l) of the result is z_kl times the divided difference of
    exp(i lam t_f) at (lam_k, lam_l), taken in the cancellation-free form

        exp(i lam_k t_f / 2) exp(i lam_l t_f / 2) sin(x) / x,
        x = (lam_k - lam_l) t_f / 2,

    with sin(x) / x = 1 at x = 0. It equals the difference quotient
    (exp(i lam_k t_f) - exp(i lam_l t_f)) / (i t_f (lam_k - lam_l)) and
    its limit exp(i lam_k t_f) at a degenerate pair, and keeps full
    relative accuracy at every gap in between (Higham, Functions of
    Matrices, SIAM 2008, ch. 10). At t_f = 0 every weight is one.
    """
    z = np.asarray(z, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    half = np.exp(0.5j * t_f * lam)
    x = 0.5 * t_f * (lam[:, None] - lam[None, :])
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    return z * np.outer(half, half) * sinc


@dataclass(frozen=True)
class SensitivityOperator:
    """Input-output agnostic sensitivity operator for one uncertainty direction.

    ``K`` is the real operator and ``norm_K`` its Frobenius norm, computed
    from the eigenbasis form (direction times divided differences); unitary
    invariance makes it equal the norm of ``K`` itself.
    """

    K: np.ndarray
    norm_K: float

    def __post_init__(self):
        _readonly(self.K)


def sensitivity_operator(spectral: SpectralData, s_bloch: np.ndarray,
                         t_f: float) -> SensitivityOperator:
    """Assemble the sensitivity operator for one adjoint-space direction."""
    s_bloch = _require_skew(s_bloch, "uncertainty direction")
    z = spectral.M.conj().T @ s_bloch @ spectral.M
    q = hadamard_core(z, spectral.lam, t_f)
    k_c = (spectral.M @ q) @ spectral.M.conj().T
    residue = np.linalg.norm(k_c.imag)
    if residue > IMAG_TOL:
        raise InvariantViolation(
            f"sensitivity operator has imaginary residue {residue:.3e}; "
            "this signals a convention error upstream")
    norm_k = float(np.sqrt((np.abs(q) ** 2).sum()))
    return SensitivityOperator(K=k_c.real.copy(), norm_K=norm_k)


def differential_sensitivity(system: "BlochSystem", op: SensitivityOperator,
                             f_n: float) -> float:
    """Derivative of the transfer error along a scaled uncertainty direction."""
    if f_n < 0:
        raise ValueError(f"scaling factor must be nonnegative, got {f_n}")
    return float(-system.t_f * f_n * (system.rf @ op.K @ system.r0))


def quadrature_oracle(a: np.ndarray, s_bloch: np.ndarray, t_f: float,
                      r0: np.ndarray, rf: np.ndarray, f_n: float,
                      nodes: int = 64) -> float:
    """Independent sensitivity evaluation by Gauss-Legendre quadrature.

    Integrates rf^T exp(t_f A (1-s)) S exp(t_f A s) r0 over s in [0, 1]
    with Pade-based matrix exponentials at every node; no eigensystem is
    shared with the closed-form route.
    """
    if nodes < 16:
        raise ValueError(f"need at least 16 quadrature nodes, got {nodes}")
    a = np.asarray(a, dtype=float)
    s_bloch = np.asarray(s_bloch, dtype=float)
    x, w = np.polynomial.legendre.leggauss(nodes)
    pts = 0.5 * (x + 1.0)
    wts = 0.5 * w
    acc = 0.0
    for s, weight in zip(pts, wts):
        left = expm(t_f * (1.0 - s) * a)
        right = expm(t_f * s * a)
        acc += weight * float((rf @ left) @ (s_bloch @ (right @ r0)))
    return float(-t_f * f_n * acc)


def fd_oracle(system_builder: Callable[["UncertaintyStructure", "Controller", float], float],
              structure: "UncertaintyStructure", controller: "Controller",
              h: float) -> float:
    """Central finite difference of the error under full re-propagation.

    ``system_builder(structure, controller, delta)`` must return the
    transfer error of the perturbed Hamiltonian; the derivative estimate
    is (e(+h) - e(-h)) / 2h with truncation error O(h^2).
    """
    if not 1e-7 <= abs(h) <= 1e-4:
        raise ValueError(f"step size must lie in [1e-7, 1e-4], got {h}")
    e_plus = system_builder(structure, controller, +h)
    e_minus = system_builder(structure, controller, -h)
    return float((e_plus - e_minus) / (2.0 * h))
