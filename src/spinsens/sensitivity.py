"""Differential sensitivity of the transfer error to structured uncertainty.

Everything here works on the real N^2-dimensional adjoint picture: the
generator A is skew-symmetric, so iA is Hermitian and A = M diag(i lam) M*
with real frequencies lam. The derivative of exp(A t) along a skew
direction has a closed form in that eigenbasis: conjugate the direction
into the eigenbasis, multiply entrywise by divided differences of the
phase factors, and conjugate back. The same eigensystem yields the
propagator, which keeps the analytically exact orthogonality between the
propagator and the sensitivity operator intact at eigensolver precision.

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

# Relative scale for treating two frequencies as degenerate; the divided
# difference is continuous across the threshold, so the cut is benign.
DEGENERACY_TOL_SCALE = 1e-10

# The difference quotient loses about eps / |x| relative accuracy at
# half phase gap x = (lam_k - lam_l) t_f / 2. Inside this band (where that
# loss would pass 1e-12) the equivalent product form takes over.
PRODUCT_FORM_BAND = 1e-4

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

    ``lam`` is real and ascending; columns of the unitary ``M`` are phase
    canonicalized (largest-magnitude entry real positive) and exact ties
    in ``lam`` are ordered by eigenvector lexicographic order, so the
    decomposition is deterministic for a given input.
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
    m = np.array(vec[:, ::-1], dtype=complex)
    for k in range(m.shape[1]):
        col = m[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        if pivot != 0:
            m[:, k] = col * (np.conj(pivot) / abs(pivot))
    order = sorted(range(lam.size),
                   key=lambda k: (lam[k],) + _column_key(m[:, k]))
    lam = lam[order]
    m = m[:, order]

    gram_defect = np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]))
    if gram_defect > 1e-10:
        raise InvariantViolation(f"eigenvector matrix not unitary (defect {gram_defect:.3e})")
    recon = np.linalg.norm((m * (1j * lam)) @ m.conj().T - a)
    if recon > 1e-9 * max(1.0, np.linalg.norm(a)):
        raise InvariantViolation(f"spectral reconstruction failed (residual {recon:.3e})")
    return SpectralData(M=m, lam=lam)


def _column_key(col: np.ndarray) -> tuple:
    # pivot position first so degenerate identity-like blocks keep their
    # natural order, then the full column as the final tie-break
    pivot = int(np.argmax(np.abs(col)))
    r = np.round(col.real, 12) + 0.0
    i = np.round(col.imag, 12) + 0.0
    return (pivot,) + tuple(np.column_stack([r, i]).ravel())


def propagator_matrix(spectral: SpectralData, t_f: float) -> np.ndarray:
    """Real orthogonal exp(A t_f) assembled from the shared eigensystem."""
    phases = np.exp(1j * spectral.lam * t_f)
    phi_c = (spectral.M * phases) @ spectral.M.conj().T
    residue = np.abs(phi_c.imag).max()
    if residue > IMAG_TOL:
        raise InvariantViolation(f"propagator has imaginary residue {residue:.3e}")
    return phi_c.real.copy()


def hadamard_core(z: np.ndarray, lam: np.ndarray, t_f: float,
                  degeneracy_tol: float | None = None) -> np.ndarray:
    """Entrywise divided-difference weighting of an eigenbasis direction.

    Entry (k, l) of the result is z_kl * exp(i lam_k t_f) when the two
    frequencies coincide (within ``degeneracy_tol``), and otherwise
    z_kl * (exp(i lam_k t_f) - exp(i lam_l t_f)) / (i t_f (lam_k - lam_l)),
    the limit of which is the degenerate branch. Where the half phase gap
    x = (lam_k - lam_l) t_f / 2 lies inside ``PRODUCT_FORM_BAND`` the
    quotient is taken in its cancellation-free form
    exp(i (lam_k + lam_l) t_f / 2) sin(x) / x. t_f = 0 takes the
    degenerate branch everywhere (the weight matrix becomes all ones).
    """
    z = np.asarray(z, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    if t_f == 0.0:
        return z.copy()
    if degeneracy_tol is None:
        degeneracy_tol = DEGENERACY_TOL_SCALE * (np.abs(lam).max() if lam.size else 0.0)
    phases = np.exp(1j * lam * t_f)
    diff = lam[:, None] - lam[None, :]
    gap = np.abs(diff)
    degenerate = gap <= degeneracy_tol
    safe = np.where(degenerate, 1.0, diff)
    x = (phases[:, None] - phases[None, :]) / (1j * t_f * safe)
    k, l = np.nonzero(gap < 2.0 * PRODUCT_FORM_BAND / abs(t_f))
    x[k, l] = (np.exp(0.5j * t_f * (lam[k] + lam[l]))
               * np.sinc(t_f * diff[k, l] / (2.0 * np.pi)))
    x = np.where(degenerate, np.broadcast_to(phases[:, None], x.shape), x)
    return z * x


@dataclass(frozen=True)
class SensitivityOperator:
    """Input-output agnostic sensitivity operator for one uncertainty direction.

    ``K`` is the real operator, ``Q`` its eigenbasis form (direction times
    divided differences), and ``norm_K`` the Frobenius norm computed from
    ``Q``; unitary invariance makes it equal the norm of ``K`` itself.
    """

    K: np.ndarray
    Q: np.ndarray
    norm_K: float

    def __post_init__(self):
        _readonly(self.K)
        _readonly(self.Q)


def sensitivity_operator(spectral: SpectralData, s_bloch: np.ndarray, t_f: float,
                         degeneracy_tol: float | None = None) -> SensitivityOperator:
    """Assemble the sensitivity operator for one adjoint-space direction."""
    s_bloch = _require_skew(s_bloch, "uncertainty direction")
    z = spectral.M.conj().T @ s_bloch @ spectral.M
    q = hadamard_core(z, spectral.lam, t_f, degeneracy_tol)
    k_c = (spectral.M @ q) @ spectral.M.conj().T
    residue = np.linalg.norm(k_c.imag)
    if residue > IMAG_TOL:
        raise InvariantViolation(
            f"sensitivity operator has imaginary residue {residue:.3e}; "
            "this signals a convention error upstream")
    norm_k = float(np.sqrt((np.abs(q) ** 2).sum()))
    return SensitivityOperator(K=k_c.real.copy(), Q=q, norm_K=norm_k)


def differential_sensitivity(system: "BlochSystem", op: SensitivityOperator,
                             f_n: float, t_f: float | None = None) -> float:
    """Derivative of the transfer error along a scaled uncertainty direction."""
    if f_n < 0:
        raise ValueError(f"scaling factor must be nonnegative, got {f_n}")
    if t_f is None:
        t_f = system.t_f
    return float(-t_f * f_n * (system.rf @ op.K @ system.r0))


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
