"""Differential sensitivity of the transfer error to structured uncertainty.

The records ``analyze`` publishes come from the N x N Hilbert space. With
H = V diag(E) V^T, the amplitude U_oi = <out| exp(-iHt) |in> and its
derivative along a Hamiltonian direction S are closed forms in the
eigenbasis: conjugate S into it, multiply entrywise by the divided
differences X of exp(-iEt), and contract with the output and input rows
of V (Najfeld & Havel, Adv. Appl. Math. 16, 1995). Every structure has
rank at most 2 in site space, so no structure is conjugated: one O(N^3)
contraction per controller (``hilbert_transfer``) gives the derivative
for every structure and the norm |K| of the adjoint-picture sensitivity
operator for every bias, and ``sensitivity_operator`` reads one
structure's frame coefficient <R, K> and |K| off it, in O(N^2) for a
coupling. One formula gives the divided differences at every gap,
degenerate or not (see ``hadamard_core``); it returns the weights alone,
and each route multiplies its eigenbasis directions by them.

The real N^2-dimensional adjoint picture stays as the reference that
verification checks against: the generator A is skew-symmetric, so iA is
Hermitian and A = M diag(i lam) M* with real frequencies lam.
``spectral_decompose`` returns lam and M as two read-only arrays, and
``propagator_matrix`` and ``adjoint_sensitivity_operator`` take them as
they are; the latter builds K itself by the same recipe one level up. It
takes a stack of directions (leading axes, plain numpy broadcasting), so
one call per controller conjugates every structure's image, weights it
with divided differences computed once, and returns every K and |K|;
verification reads every k = rf . K r0 off the whole stack in one
product. Two slower, independent evaluations
of the derivative are oracles too, both in the N x N picture and sharing
no eigensystem with the closed form: the Frechet derivative of the
exponential along the scaled structure (``frechet_oracle``: one
exponential of Van Loan's block-triangular matrix) and a central finite
difference of the error under full re-propagation (``fd_oracle``: the
Hamiltonian displaced by +- the fixed step ``FD_STEP``, exponentiated one
at a time), each from ``_expm``, a Pade exponential of one matrix in
numpy alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InvariantViolation
from .network import BIAS, _readonly, build_hamiltonian, perturb, scaling_factor

if TYPE_CHECKING:
    from .network import NetworkSpec, UncertaintyStructure
    from .synthesis import Controller

# Allowed imaginary residue when a reconstructed operator must be real.
IMAG_TOL = 1e-9

# Central-difference step of ``fd_oracle``.
FD_STEP = 1e-5

# Pade degrees m = 3, 5, 7, 9, 13 of ``_expm``: the largest 1-norm each serves
# to double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005), and
# the coefficients b_j = (2m - j)! / (j! (m - j)!) of p_m(A) = sum_j b_j A^j
_PADE_THETA = (1.495585217958292e-2, 2.539398330063230e-1, 9.504178996162932e-1,
               2.097847961257068e0, 5.371920351148152e0)
_PADE_COEFFICIENTS = tuple(
    np.array([math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))
              for j in range(m + 1)], dtype=float)[:, None, None]
    for m in (3, 5, 7, 9, 13))


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


def hadamard_core(lam: np.ndarray, t_f: float | np.ndarray) -> np.ndarray:
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

    A stack (..., n) of spectra with read-out times of shape (...) gives
    the stack (..., n, n) of their weights.
    """
    lam = np.asarray(lam, dtype=float)
    t_f = np.asarray(t_f, dtype=float)[..., None]
    half = np.exp(0.5j * t_f * lam)
    x = 0.5 * t_f[..., None] * (lam[..., :, None] - lam[..., None, :])
    sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
    return half[..., :, None] * half[..., None, :] * sinc


def _eigensystem(spec: "NetworkSpec",
                 biases: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues E and eigenvectors V of the N x N Hamiltonian, plus the
    transfer weights w_j = V_oj V_ij.

    The amplitude U_oi at any read-out time is then the phase sum
    sum_j w_j exp(-i E_j t), and its read-out time derivative comes from
    the same phases. A stack (..., N) of bias vectors gives stacked
    results from one stacked ``eigh``.
    """
    e, v = np.linalg.eigh(build_hamiltonian(spec, biases))
    return e, v, v[..., spec.output_spin - 1, :] * v[..., spec.input_spin - 1, :]


class HilbertTransfer(NamedTuple):
    """One working point in the N x N picture, shared by every direction.

    A plain ``NamedTuple`` row of per-call arrays, which
    ``evaluate_controller`` consumes and nothing keeps. ``e`` holds the
    eigenvalues E of H, ``v`` its eigenvectors as columns, and ``column``
    the propagated input U[:, in]. The rest is what every direction's
    ``sensitivity_operator`` reads and is computed once per controller,
    from the divided differences X of exp(-i E t_f) at E: ``x_sq`` =
    |X|^2, ``k_pairs`` = 2 Im(conj(U_oi) Y) with the contraction
    Y = (V o v_o) X (V o v_i)^T, whose entry (a, b) is the frame
    coefficient of the site pair, and ``bias_norms``, |K| of the bias
    direction of every site.
    """

    e: np.ndarray
    v: np.ndarray
    column: np.ndarray
    x_sq: np.ndarray
    k_pairs: np.ndarray
    bias_norms: np.ndarray


def hilbert_transfer(spec: "NetworkSpec", biases: np.ndarray,
                     t_f: float) -> HilbertTransfer:
    """Eigensystem, propagated input and divided differences of one
    controller, with the contraction every direction reads.

    Every structure is a symmetric S of rank at most 2 in site space, so
    its eigenbasis image S^ = V^T S V is v_a v_b^T (+ its transpose) in
    the rows v_a = V[a] of V. Then v_o (S^ o X) v_i^T is an entry, or the
    sum of two entries, of Y = (V o v_o) X (V o v_i)^T, one O(N^3)
    product for all of them; V is real, so the frame coefficients
    2 Im(conj(U_oi) Y) are the real product of the same factors with
    2 Im(conj(U_oi) X). For a bias site n, S^ minus its trace part
    is v_n v_n^T - I / N, and with W = V o V and X_off = |X|^2 with its
    diagonal zeroed the sum of squares behind |K| is
    (W X_off o W) 1 + sum_j (W_nj - 1/N)^2 |X_jj|^2, one more product for
    every site. Each term is non-negative, so a small |K| keeps its
    relative accuracy.
    """
    e, v, _ = _eigensystem(spec, biases)
    n = e.shape[0]
    out, inp = spec.output_spin - 1, spec.input_spin - 1
    column = (v * np.exp(-1j * e * t_f)) @ v[inp]
    x = hadamard_core(-e, t_f)
    x_sq = x.real ** 2 + x.imag ** 2
    w = v * v
    x_off = x_sq.copy()
    # the diagonal as a strided view of the flat matrix
    x_off.reshape(-1)[::n + 1] = 0.0
    bias_sq = ((w @ x_off) * w).sum(axis=1) + (w - 1.0 / n) ** 2 @ x_sq.diagonal()
    k_weights = 2.0 * (np.conj(column[out]) * x).imag
    return HilbertTransfer(e=e, v=v, column=column, x_sq=x_sq,
                           k_pairs=(v * v[out]) @ k_weights @ (v * v[inp]).T,
                           bias_norms=np.sqrt(2.0 * n * bias_sq))


def sensitivity_operator(transfer: HilbertTransfer,
                         structure: "UncertaintyStructure") -> tuple[float, float]:
    """Frame coefficient k = <R, K> and norm |K| for one structure.

    With S^ = V^T S V, the amplitude moves by dU_oi = -i t_f y along S,
    y = v_o (S^ o X) v_i^T, and k = (2 / t_f) Re(conj(U_oi) dU_oi), which
    is 2 Im(conj(U_oi) y): ``transfer.k_pairs`` at (n, n) for the bias of
    site n, and the sum of its entries (a, b) and (b, a) for the coupling
    (a, b). K is d(U . U^dagger) / t_f in the adjoint picture, which gives
    |K|^2 = 2N sum_jk S^_jk^2 |X_jk|^2 - 2 (tr S)^2 without forming K.
    Since |X_jj| = 1, that equals 2N times the same sum over the traceless
    part S^ - (tr S / N) I, a sum of squares that keeps its relative
    accuracy when |K| is small.
    A bias reads its |K| off ``transfer.bias_norms``; a coupling is
    traceless, and its rank-2 S^ = v_a v_b^T + v_b v_a^T gives the sum in
    O(N^2). ``adjoint_sensitivity_operator`` is the N^2 x N^2 reference.
    """
    if structure.kind == BIAS:
        site = structure.sites[0] - 1
        return float(transfer.k_pairs[site, site]), float(transfer.bias_norms[site])
    a, b = structure.sites[0] - 1, structure.sites[1] - 1
    v = transfer.v
    s_hat = v[a][:, None] * v[b]
    s_hat = s_hat + s_hat.T
    return (float(transfer.k_pairs[a, b] + transfer.k_pairs[b, a]),
            math.sqrt(2.0 * v.shape[0] * float(np.vdot(s_hat * s_hat, transfer.x_sq))))


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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(A) of one square matrix, by scaling and squaring a diagonal Pade
    approximant (Higham 2005).

    The degree m is the smallest of 3, 5, 7, 9 and 13 whose bound holds the
    1-norm of A. Past the last bound, A is halved s times to meet it and
    the approximant is squared s times. With U and V the odd and even terms
    of p_m(A), the approximant is (V - U)^-1 (V + U).
    """
    a = np.asarray(a, dtype=complex)
    norm = float(np.linalg.norm(a, 1))
    b = _PADE_COEFFICIENTS[sum(norm > theta for theta in _PADE_THETA[:-1])]
    s = math.ceil(math.log2(max(norm, _PADE_THETA[-1]) / _PADE_THETA[-1]))
    x = a * 2.0 ** -s
    # the even powers I, A^2, A^4, ... of the halved A
    powers = [np.eye(a.shape[0]), x @ x]
    while 2 * len(powers) < len(b):
        powers.append(powers[-1] @ powers[1])
    powers = np.array(powers)
    u = x @ (b[1::2] * powers).sum(axis=0)
    v = (b[0::2] * powers).sum(axis=0)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _expm_frechet(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(X) and its Frechet derivative along E, read off one exponential
    of the block-triangular [[X, a E], [0, X]] (Van Loan, IEEE TAC 23, 395,
    1978): its diagonal blocks are exp(X), its upper-right block a times
    the derivative. a = |X|_1 / |E|_1 keeps the block's 1-norm within
    twice that of X; a zero direction has derivative 0, exactly.
    """
    size = np.linalg.norm(e, 1)
    if not size:
        return _expm(x), np.zeros_like(x, dtype=complex)
    n, scale = x.shape[0], np.linalg.norm(x, 1) / size
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = block[n:, n:] = x
    block[:n, n:] = scale * e
    exp = _expm(block)
    return exp[:n, :n], exp[:n, n:] / scale


def frechet_oracle(structure: "UncertaintyStructure", controller: "Controller") -> float:
    """Sensitivity from the Frechet derivative of the N x N exponential.

    ``_expm_frechet`` returns U = exp(-i t_f H) and its derivative dU
    along -i t_f f S, with S the structure scaled by ``scaling_factor``,
    from one Pade approximant with scaling and squaring. The error
    1 - |U_oi|^2 then moves at -2 Re(conj(U_oi) dU_oi).
    """
    spec = controller.spec
    ham = build_hamiltonian(spec, controller.biases)
    direction = scaling_factor(structure, controller) * structure.matrix
    u, du = _expm_frechet(-1j * controller.t_f * ham, -1j * controller.t_f * direction)
    out, inp = spec.output_spin - 1, spec.input_spin - 1
    return float(-2.0 * (np.conj(u[out, inp]) * du[out, inp]).real)


def fd_oracle(structure: "UncertaintyStructure", controller: "Controller") -> float:
    """Central finite difference of the error under full re-propagation.

    The error 1 - |U_oi|^2 of the Hamiltonian displaced by +-``FD_STEP``
    along the scaled structure, one ``_expm`` call each; the derivative
    estimate is (e(+h) - e(-h)) / 2h, h = ``FD_STEP``, with truncation
    error O(h^2).
    """
    spec, t_f = controller.spec, controller.t_f
    ham = build_hamiltonian(spec, controller.biases)
    out, inp = spec.output_spin - 1, spec.input_spin - 1
    u = np.array([_expm(-1j * perturb(ham, structure, delta, controller) * t_f)[out, inp]
                  for delta in (+FD_STEP, -FD_STEP)])
    # np.abs of the pair: scalar abs can differ from it in the last bit,
    # which the quotient by 2h turns into a different estimate
    plus, minus = (1.0 - np.abs(u) ** 2).tolist()
    return float((plus - minus) / (2.0 * FD_STEP))
