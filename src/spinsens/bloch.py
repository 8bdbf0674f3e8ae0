"""Real adjoint embedding of single-excitation dynamics.

States are expanded in an orthonormal Hermitian basis (trace inner
product), giving a real coherence vector r with r_m = tr(rho sigma_m).
Under a Hamiltonian H the vector obeys r' = A r with A real and
skew-symmetric, so the flow exp(A t) is orthogonal and the analysis of
transfer fidelity and its derivatives happens entirely over the reals.

The basis generalizes the Pauli set: off-diagonal symmetric and
antisymmetric pairs, the diagonal ladder, and the scaled identity, all
normalized to tr(sigma_m sigma_l) = delta_ml. The identity element is
kept (last) so pure states embed with norm exactly one; its row and
column of A vanish identically. ``gell_mann_basis`` builds the basis once
per dimension as one read-only (N^2, N, N) array, and ``adjoint_rep`` and
``state_to_bloch`` both read that array: there is no other basis to pass.

The adjoint picture is verification's reference, and its callers hold
plain arrays: the generator A from ``adjoint_rep`` and the endpoint
vectors r0 and rf from ``state_to_bloch`` of ``site_state``. Each is
checked where it is made: A is antisymmetrized exactly, and a coherence
vector is taken only of a normalized state, so it has unit norm.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvariantViolation
from .network import _readonly


@lru_cache(maxsize=None)
def gell_mann_basis(n: int) -> np.ndarray:
    """The generalized Gell-Mann basis for dimension n, scaled orthonormal,
    as one read-only array of shape (n^2, n, n).

    Ordering: symmetric off-diagonal pairs by ascending (j, k), then the
    antisymmetric pairs in the same order, then the n - 1 diagonal
    elements, then I/sqrt(n). For n = 2 this is {X, Y, Z, I}/sqrt(2).
    """
    if n < 2:
        raise ValueError(f"basis needs dimension >= 2, got {n}")
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    elems = []
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = m[k, j] = inv_sqrt2
            elems.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k] = -1j * inv_sqrt2
            m[k, j] = 1j * inv_sqrt2
            elems.append(m)
    for l in range(1, n):
        m = np.zeros((n, n), dtype=complex)
        scale = 1.0 / np.sqrt(l * (l + 1.0))
        for j in range(l):
            m[j, j] = scale
        m[l, l] = -l * scale
        elems.append(m)
    elems.append(np.eye(n, dtype=complex) / np.sqrt(n))
    return _readonly(np.array(elems))


def adjoint_rep(h: np.ndarray) -> np.ndarray:
    """Real skew-symmetric generator of r' = A r for the Hamiltonian h.

    Built by conjugating the vectorized commutator superoperator
    -i(I (x) H - H^T (x) I) into the Gell-Mann basis, whose column-major
    vectorizations, stacked as columns, make the congruence unitary. The
    result is symmetrized exactly and the identity row/column zeroed
    exactly; both are identities of the construction, enforced to kill
    roundoff.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    n = h.shape[0]
    herm_defect = np.linalg.norm(h - h.conj().T)
    if herm_defect > 1e-10 * max(1.0, np.linalg.norm(h)):
        raise ValueError(f"Hamiltonian must be Hermitian (defect {herm_defect:.3e})")
    eye = np.eye(n)
    lv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    b = gell_mann_basis(n).transpose(0, 2, 1).reshape(n * n, n * n).T
    a_c = b.conj().T @ lv @ b
    residue = np.abs(a_c.imag).max()
    if residue > 1e-9 * max(1.0, np.linalg.norm(h)):
        raise InvariantViolation(f"adjoint generator has imaginary residue {residue:.3e}")
    a = 0.5 * (a_c.real - a_c.real.T)
    a[-1, :] = 0.0
    a[:, -1] = 0.0
    return a


def state_to_bloch(psi: np.ndarray) -> np.ndarray:
    """Coherence vector of a normalized pure state, r_m = <psi|sigma_m|psi>."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    n = psi.size
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state must be normalized, |psi| = {nrm:.12e}")
    r = np.einsum("mij,i,j->m", gell_mann_basis(n), psi.conj(), psi)
    residue = np.abs(r.imag).max()
    if residue > 1e-12:
        raise InvariantViolation(f"coherence vector has imaginary residue {residue:.3e}")
    return r.real.copy()


def site_state(num_spins: int, site: int) -> np.ndarray:
    """Basis state with the excitation on the given site (1-indexed)."""
    if not 1 <= site <= num_spins:
        raise ValueError(f"site {site} outside 1..{num_spins}")
    psi = np.zeros(num_spins, dtype=complex)
    psi[site - 1] = 1.0
    return psi
