"""Hermitian basis, adjoint generator, coherence vectors, orthogonal flow."""

import numpy as np
import pytest
from scipy.linalg import expm

from spinsens import (Controller, NetworkSpec, adjoint_rep, build_hamiltonian,
                      enumerate_structures, gell_mann_basis,
                      propagator_matrix, site_state, spectral_decompose,
                      state_to_bloch)
from spinsens.verification import _adjoint_frame, adjoint_records

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (h + h.conj().T)


def random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


class TestGellMannBasis:
    def test_qubit_basis_is_scaled_paulis(self):
        basis = gell_mann_basis(2)
        s = 1.0 / np.sqrt(2.0)
        for got, want in zip(basis, (X, Y, Z, I2)):
            assert np.allclose(got, s * want, atol=1e-15)

    def test_count_and_identity_last(self):
        for n in (2, 3, 4, 5):
            basis = gell_mann_basis(n)
            assert basis.shape == (n * n, n, n)
            assert np.allclose(basis[-1], np.eye(n) / np.sqrt(n), atol=1e-15)

    def test_all_but_identity_traceless(self):
        basis = gell_mann_basis(3)
        traces = np.einsum("mii->m", basis)
        assert np.abs(traces[:-1]).max() < 1e-15
        assert traces[-1] == pytest.approx(np.sqrt(3.0), abs=1e-15)

    def test_orthonormal_under_trace_product(self):
        for n in (2, 3, 4, 5):
            elems = gell_mann_basis(n)
            gram = np.einsum("mij,lji->ml", elems, elems)
            assert np.abs(gram.imag).max() < 1e-14
            assert np.abs(gram.real - np.eye(n * n)).max() < 1e-12

    def test_elements_hermitian(self):
        for n in (2, 3, 4):
            for e in gell_mann_basis(n):
                assert np.array_equal(e, e.conj().T)

    def test_diagonal_ladder_scale(self):
        # second ladder element for n = 3: diag(1, 1, -2)/sqrt(6)
        basis = gell_mann_basis(3)
        want = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
        assert np.allclose(basis[7], want, atol=1e-15)

    def test_vec_matrix_unitary(self):
        # the column-major vectorizations, stacked as columns, are unitary
        for n in (2, 3, 4):
            b = np.stack([e.flatten(order="F") for e in gell_mann_basis(n)], axis=1)
            assert np.abs(b.conj().T @ b - np.eye(n * n)).max() < 1e-12

    def test_vec_matrix_column_major(self):
        # the reshape adjoint_rep uses is the column-major vectorization
        basis = gell_mann_basis(3)
        b = basis.transpose(0, 2, 1).reshape(9, 9).T
        for m, e in enumerate(basis):
            assert np.array_equal(b[:, m], e.flatten(order="F"))

    def test_read_only(self):
        with pytest.raises(ValueError):
            gell_mann_basis(3)[0, 0, 0] = 1.0

    def test_cached(self):
        assert gell_mann_basis(4) is gell_mann_basis(4)

    def test_dimension_one_rejected(self):
        with pytest.raises(ValueError):
            gell_mann_basis(1)


class TestAdjointRep:
    def test_pauli_z_rotation_sign(self):
        # precession about z: x feeds y positively, A[y, x] = +2
        a = adjoint_rep(Z)
        want = np.zeros((4, 4))
        want[1, 0] = 2.0
        want[0, 1] = -2.0
        assert np.allclose(a, want, atol=1e-12)

    def test_exactly_skew(self, rng):
        a = adjoint_rep(random_hermitian(rng, 4))
        assert np.array_equal(a, -a.T)

    def test_identity_row_and_column_exact_zero(self, rng):
        a = adjoint_rep(random_hermitian(rng, 5))
        assert np.all(a[-1, :] == 0.0)
        assert np.all(a[:, -1] == 0.0)

    def test_identity_hamiltonian_is_zero(self):
        assert np.all(adjoint_rep(np.eye(3)) == 0.0)

    def test_linear(self, rng):
        h1 = random_hermitian(rng, 3)
        h2 = random_hermitian(rng, 3)
        combined = adjoint_rep(h1 + 2.5 * h2)
        assert np.abs(combined - (adjoint_rep(h1) + 2.5 * adjoint_rep(h2))).max() < 1e-10

    def test_flow_matches_hilbert_evolution(self, rng):
        # dual route: conjugate the state in Hilbert space, or flow the
        # coherence vector with exp(A t); both must land on the same r
        for n in (2, 3, 4):
            h = random_hermitian(rng, n)
            psi = random_state(rng, n)
            t = 0.7
            left = expm(adjoint_rep(h) * t) @ state_to_bloch(psi)
            right = state_to_bloch(expm(-1j * h * t) @ psi)
            assert np.linalg.norm(left - right) < 1e-10

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            adjoint_rep(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_same_bits_as_explicit_column_stack(self, rng):
        # the generator conjugated with the explicitly stacked column-major
        # vectorizations, as a separate vec matrix once formed it
        for n in range(2, 7):
            h = random_hermitian(rng, n)
            b = np.stack([e.flatten(order="F") for e in gell_mann_basis(n)], axis=1)
            eye = np.eye(n)
            a_c = b.conj().T @ (-1j * (np.kron(eye, h) - np.kron(h.T, eye))) @ b
            want = 0.5 * (a_c.real - a_c.real.T)
            want[-1, :] = 0.0
            want[:, -1] = 0.0
            assert np.array_equal(adjoint_rep(h), want)


class TestStateToBloch:
    def test_excited_qubit(self):
        r = state_to_bloch(np.array([1.0, 0.0]))
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(r, [0.0, 0.0, s, s], atol=1e-15)

    def test_unit_norm(self, rng):
        for n in (2, 3, 5):
            r = state_to_bloch(random_state(rng, n))
            assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states_orthogonal_vectors(self, rng):
        # r1 . r2 = tr(rho1 rho2) = |<psi1|psi2>|^2, zero for orthogonal
        # states because the identity element is part of the basis
        for n in (2, 4):
            u = np.linalg.qr(rng.normal(size=(n, n))
                             + 1j * rng.normal(size=(n, n)))[0]
            r1 = state_to_bloch(u[:, 0])
            r2 = state_to_bloch(u[:, 1])
            assert abs(r1 @ r2) < 1e-12

    def test_global_phase_invariant(self, rng):
        psi = random_state(rng, 3)
        r = state_to_bloch(psi)
        assert np.allclose(state_to_bloch(np.exp(0.4j) * psi), r, atol=1e-14)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            state_to_bloch(np.array([1.0, 1.0]))


class TestSiteState:
    def test_unit_vector(self):
        assert np.array_equal(site_state(3, 2), np.array([0, 1, 0], dtype=complex))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            site_state(3, 0)
        with pytest.raises(ValueError):
            site_state(3, 4)


def propagate(a, t):
    return propagator_matrix(*spectral_decompose(a), t)


class TestPropagator:
    def _generator(self, rng, n=3):
        return adjoint_rep(random_hermitian(rng, n))

    def test_matches_expm(self, rng):
        a = self._generator(rng)
        t = 1.3
        assert np.abs(propagate(a, t) - expm(a * t)).max() < 1e-12

    def test_group_property(self, rng):
        a = self._generator(rng)
        lam, m = spectral_decompose(a)
        p1 = propagator_matrix(lam, m, 0.9)
        p2 = propagator_matrix(lam, m, 1.7)
        p12 = propagator_matrix(lam, m, 2.6)
        assert np.abs(p12 - p2 @ p1).max() < 1e-12

    def test_time_zero_is_identity(self, rng):
        a = self._generator(rng, 4)
        assert np.abs(propagate(a, 0.0) - np.eye(16)).max() < 1e-12

    def test_norm_preserving(self, rng):
        a = self._generator(rng)
        phi = propagate(a, 2.2)
        r = state_to_bloch(random_state(rng, 3))
        assert np.linalg.norm(phi @ r) == pytest.approx(1.0, abs=1e-12)
        assert phi.shape == (9, 9)
        # orthogonality fixes the Frobenius norm at sqrt(dim)
        assert np.linalg.norm(phi) == pytest.approx(3.0, abs=1e-10)

    def test_orthogonal_rotation(self, rng):
        phi = propagate(self._generator(rng, 4), 1.9)
        assert np.linalg.norm(phi.T @ phi - np.eye(16)) < 1e-10
        assert np.linalg.det(phi) > 0


class TestFidelity:
    # the fidelity F = rf . Phi r0 that the adjoint-picture reference
    # records carry
    @staticmethod
    def reference_fidelity(spec, biases, t_f):
        controller = Controller(biases=biases, t_f=t_f, fidelity=0.0, spec=spec,
                                seed=0, index=0)
        record, _ = adjoint_records(controller)[0]
        return record.F

    def test_matches_hilbert_amplitude(self, rng):
        spec = NetworkSpec(num_spins=5, topology="ring", input_spin=1, output_spin=3)
        biases = rng.uniform(-2, 2, 5)
        t_f = 1.7
        u = expm(-1j * build_hamiltonian(spec, biases) * t_f)
        assert self.reference_fidelity(spec, biases, t_f) == pytest.approx(
            abs(u[2, 0]) ** 2, abs=1e-12)

    def test_perfect_transfer_two_spin_chain(self):
        # unbiased 2-chain transfers perfectly at t = pi/2
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        assert abs(1.0 - self.reference_fidelity(spec, np.zeros(2), np.pi / 2)) < 1e-12


class TestAdjointFrame:
    def test_build_shapes(self):
        # verification's frame (r0, rf, lam, M, Phi) of one controller, all
        # plain arrays
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=3)
        controller = Controller(biases=np.zeros(4), t_f=2.0, fidelity=0.0, spec=spec,
                                seed=0, index=0)
        r0, rf, lam, m, phi = _adjoint_frame(controller)
        assert np.array_equal(r0, state_to_bloch(site_state(4, 1)))
        assert np.array_equal(rf, state_to_bloch(site_state(4, 3)))
        assert lam.shape == (16,) and m.shape == phi.shape == (16, 16)
        a = adjoint_rep(build_hamiltonian(spec, np.zeros(4)))
        assert np.array_equal(phi, propagate(a, 2.0))
        assert not (lam.flags.writeable or m.flags.writeable)


class TestStructureImages:
    def test_uncertainty_directions_embed_skew(self):
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
        for s in enumerate_structures(spec):
            image = adjoint_rep(s.matrix)
            assert np.array_equal(image, -image.T)
            assert np.all(image[-1, :] == 0.0)
            assert np.linalg.norm(image) > 0.0
