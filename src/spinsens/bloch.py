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
column of A vanish identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvariantViolation
from .network import NetworkSpec, _readonly


@dataclass(frozen=True)
class HermitianBasis:
    """Orthonormal Hermitian basis of N x N matrices, identity last.

    ``elements`` has shape (N^2, N, N); ``vec_matrix`` stacks the
    column-major vectorizations as columns, so passing between the matrix
    and coherence-vector picture is a single unitary congruence.
    """

    dim: int
    elements: np.ndarray
    vec_matrix: np.ndarray

    def __post_init__(self):
        _readonly(self.elements)
        _readonly(self.vec_matrix)


@lru_cache(maxsize=None)
def gell_mann_basis(n: int) -> HermitianBasis:
    """The generalized Gell-Mann basis for dimension n, scaled orthonormal.

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
    elements = np.array(elems)
    vec_matrix = np.stack([e.flatten(order="F") for e in elems], axis=1)
    return HermitianBasis(dim=n, elements=elements, vec_matrix=vec_matrix)


def adjoint_rep(h: np.ndarray, basis: HermitianBasis | None = None) -> np.ndarray:
    """Real skew-symmetric generator of r' = A r for the Hamiltonian h.

    Built by conjugating the vectorized commutator superoperator
    -i(I (x) H - H^T (x) I) into the Hermitian basis. The result is
    symmetrized exactly and the identity row/column zeroed exactly; both
    are identities of the construction, enforced to kill roundoff.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"Hamiltonian must be square, got shape {h.shape}")
    n = h.shape[0]
    herm_defect = np.linalg.norm(h - h.conj().T)
    if herm_defect > 1e-10 * max(1.0, np.linalg.norm(h)):
        raise ValueError(f"Hamiltonian must be Hermitian (defect {herm_defect:.3e})")
    if basis is None:
        basis = gell_mann_basis(n)
    if basis.dim != n:
        raise ValueError(f"basis dimension {basis.dim} does not match Hamiltonian ({n})")
    eye = np.eye(n)
    lv = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    b = basis.vec_matrix
    a_c = b.conj().T @ lv @ b
    residue = np.abs(a_c.imag).max()
    if residue > 1e-9 * max(1.0, np.linalg.norm(h)):
        raise InvariantViolation(f"adjoint generator has imaginary residue {residue:.3e}")
    a = 0.5 * (a_c.real - a_c.real.T)
    a[-1, :] = 0.0
    a[:, -1] = 0.0
    return a


def state_to_bloch(psi: np.ndarray, basis: HermitianBasis | None = None) -> np.ndarray:
    """Coherence vector of a normalized pure state, r_m = <psi|sigma_m|psi>."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    n = psi.size
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"state must be normalized, |psi| = {nrm:.12e}")
    if basis is None:
        basis = gell_mann_basis(n)
    if basis.dim != n:
        raise ValueError(f"basis dimension {basis.dim} does not match state ({n})")
    r = np.einsum("mij,i,j->m", basis.elements, psi.conj(), psi)
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


def fidelity(rf: np.ndarray, phi: np.ndarray,
             r0: np.ndarray) -> tuple[float, float]:
    """Transfer fidelity F = rf . Phi r0 and the error e = 1 - F."""
    mat = np.asarray(phi, dtype=float)
    rf = np.asarray(rf, dtype=float)
    r0 = np.asarray(r0, dtype=float)
    for name, r in (("initial", r0), ("target", rf)):
        nrm = np.linalg.norm(r)
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"{name} coherence vector not normalized, |r| = {nrm:.12e}")
    f = float(rf @ mat @ r0)
    return f, 1.0 - f


@dataclass(frozen=True)
class BlochSystem:
    """A transfer problem in the adjoint picture: generator, ends, read-out time."""

    A: np.ndarray
    r0: np.ndarray
    rf: np.ndarray
    basis: HermitianBasis
    t_f: float

    def __post_init__(self):
        a = np.asarray(self.A, dtype=float)
        r0 = np.asarray(self.r0, dtype=float)
        rf = np.asarray(self.rf, dtype=float)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "rf", rf)
        for arr in (a, r0, rf):
            _readonly(arr)
        if self.t_f <= 0:
            raise ValueError(f"read-out time must be positive, got {self.t_f}")
        skew = np.linalg.norm(a + a.T)
        if skew > 1e-9 * max(1.0, np.linalg.norm(a)):
            raise ValueError(f"generator must be skew-symmetric (defect {skew:.3e})")
        for name, r in (("r0", r0), ("rf", rf)):
            nrm = np.linalg.norm(r)
            if abs(nrm - 1.0) > 1e-8:
                raise ValueError(f"{name} must be a unit coherence vector, |r| = {nrm:.12e}")


def build_bloch_system(ham: np.ndarray, spec: NetworkSpec, t_f: float) -> BlochSystem:
    """Embed a network Hamiltonian and its transfer endpoints."""
    basis = gell_mann_basis(spec.num_spins)
    a = adjoint_rep(ham, basis)
    r0 = state_to_bloch(site_state(spec.num_spins, spec.input_spin), basis)
    rf = state_to_bloch(site_state(spec.num_spins, spec.output_spin), basis)
    return BlochSystem(A=a, r0=r0, rf=rf, basis=basis, t_f=float(t_f))
