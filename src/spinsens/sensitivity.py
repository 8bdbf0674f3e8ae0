"""Differential sensitivity of the transfer error to structured uncertainty.

The records ``analyze`` publishes come from the N x N Hilbert space. With
H = V diag(E) V^T, the amplitude U_oi = <out| exp(-iHt) |in> and its
derivative along a Hamiltonian direction S are closed forms in the
eigenbasis: conjugate S into it, multiply entrywise by the divided
differences X of exp(-iEt), and contract with the output and input rows
of V (Najfeld & Havel, Adv. Appl. Math. 16, 1995). The frame coefficient
<R, K> and the norm |K| of the adjoint-picture sensitivity operator follow
from the same X at O(N^3) per controller (``sensitivity_operator``). One
formula gives the divided differences at every gap, degenerate or not
(see ``hadamard_core``); it returns the weights alone, and each route
multiplies its eigenbasis directions by them.

The real N^2-dimensional adjoint picture stays as the reference that
verification checks against: the generator A is skew-symmetric, so iA is
Hermitian and A = M diag(i lam) M* with real frequencies lam.
``spectral_decompose`` returns lam and M as two read-only arrays, and
``propagator_matrix`` and ``adjoint_sensitivity_operator`` take them as
they are; the latter builds K itself by the same recipe one level up. It
takes a stack of directions (leading axes, plain numpy broadcasting), so
one call per controller conjugates every structure's image, weights it
with divided differences computed once, and returns every K and |K|;
verification reads k = rf . K r0 and zeta = -t_f f_n k off the whole
stack in one product. Two slower, independent evaluations
of the derivative are oracles too: fixed-order Gauss-Legendre quadrature
of the integral representation (one batched Pade-based matrix exponential
of 33 slices for the 64 nodes, since exp(-X) = exp(X)^T for skew X; no
shared eigensystem) and a central finite difference of the error under
full re-propagation (``fd_oracle``: two Pade-based matrix exponentials of
the displaced N x N Hamiltonian, at the fixed step ``FD_STEP``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvariantViolation
from .network import _readonly, build_hamiltonian, perturb

if TYPE_CHECKING:
    from .network import NetworkSpec, UncertaintyStructure
    from .synthesis import Controller

# Allowed imaginary residue when a reconstructed operator must be real.
IMAG_TOL = 1e-9

# Order of the Gauss-Legendre rule in ``quadrature_oracle``.
QUADRATURE_NODES = 64

# Central-difference step of ``fd_oracle``.
FD_STEP = 1e-5


def _require_skew(a: np.ndarray, what: str) -> np.ndarray:
    # each matrix of a stack (..., n, n) is checked on its own scale
    a = np.asarray(a, dtype=float)
    defect = np.linalg.norm(a + np.swapaxes(a, -1, -2), axis=(-2, -1))
    bad = defect > 1e-9 * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
    if bad.any():
        raise ValueError(f"{what} must be skew-symmetric "
                         f"(defect {defect[bad].flat[0]:.3e})")
    return a


def spectral_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = M diag(i lam) M* of a skew-symmetric matrix,
    via the Hermitian iA; returns (lam, M), both read-only.

    ``lam`` is real and ascending and ``M`` is unitary, with columns as
    the eigensolver returns them: no phase or order within a degenerate
    eigenspace is imposed. None is needed. The propagator and the
    sensitivity operator are functions of A alone: a phase on column k
    cancels between M and M*, and within a degenerate eigenspace the
    divided-difference weights are constant, so any unitary mix of its
    columns cancels too. The eigensolver is deterministic for a given
    input, so reruns still give the same bytes.
    """
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
    return _readonly(lam), _readonly(m)


def propagator_matrix(lam: np.ndarray, m: np.ndarray, t_f: float) -> np.ndarray:
    """Real orthogonal exp(A t_f) assembled from the eigensystem (lam, M) of A."""
    phi_c = (m * np.exp(1j * lam * t_f)) @ m.conj().T
    residue = np.abs(phi_c.imag).max()
    if residue > IMAG_TOL:
        raise InvariantViolation(f"propagator has imaginary residue {residue:.3e}")
    return phi_c.real.copy()


def hadamard_core(lam: np.ndarray, t_f: float) -> np.ndarray:
    """Divided differences of exp(i lam t_f), the entrywise weights of an
    eigenbasis direction.

    Entry (k, l) of the result is the divided difference of
    exp(i lam t_f) at (lam_k, lam_l), taken in the cancellation-free form

        exp(i lam_k t_f / 2) exp(i lam_l t_f / 2) sin(x) / x,
        x = (lam_k - lam_l) t_f / 2,

    with sin(x) / x = 1 at x = 0. It equals the difference quotient
    (exp(i lam_k t_f) - exp(i lam_l t_f)) / (i t_f (lam_k - lam_l)) and
    its limit exp(i lam_k t_f) at a degenerate pair, and keeps full
    relative accuracy at every gap in between (Higham, Functions of
    Matrices, SIAM 2008, ch. 10). At t_f = 0 every weight is one.
    """
    lam = np.asarray(lam, dtype=float)
    half = np.exp(0.5j * t_f * lam)
    x = 0.5 * t_f * (lam[:, None] - lam[None, :])
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    return half[:, None] * half * sinc


def _eigensystem(spec: "NetworkSpec",
                 biases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues E and eigenvectors V of the N x N Hamiltonian, plus the
    transfer weights w_j = V_oj V_ij.

    The amplitude U_oi at any read-out time is then the phase sum
    sum_j w_j exp(-i E_j t), and its read-out time derivative comes from
    the same phases.
    """
    e, v = np.linalg.eigh(build_hamiltonian(spec, biases))
    return e, v, v[spec.output_spin - 1] * v[spec.input_spin - 1]


@dataclass(frozen=True)
class HilbertTransfer:
    """One working point in the N x N picture, shared by every direction.

    ``e`` holds the eigenvalues E of H, ``v`` its eigenvectors as columns,
    ``x`` the divided differences of exp(-i E t_f) at E, ``column`` the
    propagated input U[:, in], and ``output`` the 0-based output site.
    The rest is what every direction's ``sensitivity_operator`` reads and
    is computed once per controller: ``x_sq`` = |X|^2, the output and
    input rows of V as complex rows, and ``amp_conj`` = conj(U_oi).
    """

    e: np.ndarray
    v: np.ndarray
    x: np.ndarray
    column: np.ndarray
    output: int
    x_sq: np.ndarray
    out_row: np.ndarray
    in_row: np.ndarray
    amp_conj: np.complex128

    def __post_init__(self):
        for a in (self.e, self.v, self.x, self.column, self.x_sq,
                  self.out_row, self.in_row):
            _readonly(a)


def hilbert_transfer(spec: "NetworkSpec", biases: np.ndarray,
                     t_f: float) -> HilbertTransfer:
    """Eigensystem, propagated input and divided differences of one controller."""
    e, v, _ = _eigensystem(spec, biases)
    out, inp = spec.output_spin - 1, spec.input_spin - 1
    column = (v * np.exp(-1j * e * t_f)) @ v[inp]
    x = hadamard_core(-e, t_f)
    return HilbertTransfer(e=e, v=v, x=x, column=column, output=out,
                           x_sq=x.real ** 2 + x.imag ** 2,
                           out_row=v[out].astype(complex),
                           in_row=v[inp].astype(complex),
                           amp_conj=np.conj(column[out]))


def sensitivity_operator(transfer: HilbertTransfer,
                         s_matrix: np.ndarray) -> tuple[float, float]:
    """Frame coefficient k = <R, K> and norm |K| for one Hamiltonian direction.

    With S^ = V^T S V, the amplitude moves by dU_oi = -i t_f y along S,
    y = V_o (S^ o X) V_i^T, and k = (2 / t_f) Re(conj(U_oi) dU_oi), which
    is 2 Im(conj(U_oi) y). K is d(U . U^dagger) / t_f in the adjoint
    picture, which gives |K|^2 = 2N sum_jk S^_jk^2 |X_jk|^2 - 2 (tr S)^2
    without forming K. Since |X_jj| = 1, that equals 2N times the same
    sum over the traceless part S^ - (tr S / N) I, a sum of squares that
    keeps its relative accuracy when |K| is small. O(N^3);
    ``adjoint_sensitivity_operator`` is the N^2 x N^2 reference.
    """
    v = transfer.v
    n = v.shape[0]
    s_hat = v.T @ s_matrix @ v
    y = transfer.out_row @ (s_hat * transfer.x) @ transfer.in_row
    k_coeff = 2.0 * float((transfer.amp_conj * y).imag)
    # the diagonal as a strided view of the flat matrix
    s_hat.reshape(-1)[::n + 1] -= s_matrix.trace() / n
    return k_coeff, math.sqrt(2.0 * n * float((s_hat ** 2 * transfer.x_sq).sum()))


def adjoint_sensitivity_operator(lam: np.ndarray, m: np.ndarray, s_bloch: np.ndarray,
                                 t_f: float) -> tuple[np.ndarray, float | np.ndarray]:
    """The N^2 x N^2 sensitivity operators K of adjoint-space directions and
    their Frobenius norms |K|, from the eigensystem (lam, M) of the generator.

    ``s_bloch`` is one direction (N^2, N^2) or a stack (..., N^2, N^2).
    K, read-only, has the same shape, and |K| has the leading axes (a float
    for a single direction). The divided-difference weights are computed
    once for the whole stack, and the skew-symmetry and imaginary-residue
    checks hold per direction. The norms come from the eigenbasis form
    (direction times divided differences); unitary invariance makes them
    equal the norms of K itself. The reference route for
    ``sensitivity_operator``: verification and the tests compare the
    records against it.
    """
    s_bloch = _require_skew(s_bloch, "uncertainty direction")
    m_h = m.conj().T
    q = (m_h @ s_bloch @ m) * hadamard_core(lam, t_f)
    k_c = (m @ q) @ m_h
    residue = np.linalg.norm(k_c.imag, axis=(-2, -1))
    if (residue > IMAG_TOL).any():
        raise InvariantViolation(
            f"sensitivity operator has imaginary residue {residue.max():.3e}; "
            "this signals a convention error upstream")
    norm_k = np.sqrt((np.abs(q) ** 2).sum(axis=(-2, -1)))
    return _readonly(k_c.real.copy()), norm_k


@lru_cache(maxsize=None)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # nodes and weights of the rule on [0, 1]; the nodes are symmetric
    # about 1/2, so node QUADRATURE_NODES-1-k sits at 1 - s_k
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    return _readonly(0.5 * (x + 1.0)), _readonly(0.5 * w)


def quadrature_oracle(a: np.ndarray, s_bloch: np.ndarray, t_f: float,
                      r0: np.ndarray, rf: np.ndarray, f_n: float) -> float:
    """Independent sensitivity evaluation by Gauss-Legendre quadrature.

    Integrates rf^T exp(t_f A (1-s)) S exp(t_f A s) r0 over s in [0, 1]
    with the ``QUADRATURE_NODES``-point rule. One batched Pade-based
    ``expm`` call gives E_k = exp(t_f A s_k) at the nodes below 1/2 and
    exp(t_f A) itself: 33 exponentials for 64 nodes. A is skew, so
    exp(-X) = exp(X)^T, and every other factor is a product of these:
    exp(t_f A (1 - s_k)) = exp(t_f A) E_k^T, and the nodes above 1/2 are
    the mirrored 1 - s_k. No eigensystem is shared with the closed-form
    route.
    """
    # imported here so that the closed-form route loads no scipy
    from scipy.linalg import expm

    a = np.asarray(a, dtype=float)
    s_bloch = np.asarray(s_bloch, dtype=float)
    pts, wts = _gauss_legendre()
    half = QUADRATURE_NODES // 2
    exps = expm((t_f * np.append(pts[:half], 1.0))[:, None, None] * a)
    low, full = exps[:half], exps[half]
    # left and right vectors rf^T exp(t_f A (1-s)) and exp(t_f A s) r0 at
    # the nodes in ascending order: s_k < 1/2, then 1 - s_k for k descending
    mirrored = low[::-1]
    left = np.concatenate([low @ (full.T @ rf), rf @ mirrored])
    right = np.concatenate([low @ r0, (r0 @ mirrored) @ full.T])
    acc = np.einsum("k,ki,ij,kj->", wts, left, s_bloch, right)
    return float(-t_f * f_n * acc)


def fd_oracle(structure: "UncertaintyStructure", controller: "Controller") -> float:
    """Central finite difference of the error under full re-propagation.

    The error 1 - |U_oi|^2 of the Hamiltonian displaced by +-``FD_STEP``
    along the scaled structure, each from one Pade-based ``expm`` of the
    N x N Hamiltonian; the derivative estimate is
    (e(+h) - e(-h)) / 2h, h = ``FD_STEP``, with truncation error O(h^2).
    """
    # imported here so that the closed-form route loads no scipy
    from scipy.linalg import expm

    spec = controller.spec
    ham = build_hamiltonian(spec, controller.biases)

    def error(delta: float) -> float:
        u = expm(-1j * perturb(ham, structure, delta, controller) * controller.t_f)
        return float(1.0 - abs(u[spec.output_spin - 1, spec.input_spin - 1]) ** 2)

    return float((error(+FD_STEP) - error(-FD_STEP)) / (2.0 * FD_STEP))
