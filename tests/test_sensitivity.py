"""Spectral route for exp(A t), its directional derivative, and the oracles."""

import dataclasses

import mpmath
import numpy as np
import pytest

from spinsens import (InvariantViolation, NetworkSpec, adjoint_rep,
                      adjoint_sensitivity_operator, build_bloch_system,
                      build_hamiltonian, differential_sensitivity,
                      enumerate_structures, fd_oracle, fidelity,
                      hadamard_core, hilbert_transfer,
                      perturb, propagator_matrix, quadrature_oracle,
                      scaling_factor, sensitivity_operator,
                      spectral_decompose, transfer_fidelity)
from spinsens.synthesis import Controller


def random_generator(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return adjoint_rep(0.5 * (h + h.conj().T))


def make_system(spec, biases, t_f):
    ham = build_hamiltonian(spec, np.asarray(biases, dtype=float))
    return build_bloch_system(ham, spec, t_f)


def make_controller(spec, biases, t_f):
    biases = np.asarray(biases, dtype=float)
    f = transfer_fidelity(spec, biases, t_f)
    return Controller(biases=biases, t_f=t_f, fidelity=min(1.0, max(0.0, f)),
                      spec=spec, seed=0, index=0)


def perturbed_error(structure, controller, delta):
    ham = build_hamiltonian(controller.spec, controller.biases)
    tilted = perturb(ham, structure, delta, controller)
    system = build_bloch_system(tilted, controller.spec, controller.t_f)
    phi = propagator_matrix(spectral_decompose(system.A), system.t_f)
    return 1.0 - fidelity(system.rf, phi, system.r0)


class TestSpectralDecompose:
    def test_zero_generator_gives_identity(self):
        sd = spectral_decompose(np.zeros((4, 4)))
        assert np.array_equal(sd.lam, np.zeros(4))
        # any basis of the one eigenspace will do; eigh's is a permutation
        assert np.isin(sd.M, (0.0, 1.0)).all()
        assert np.array_equal(sd.M.sum(axis=0), np.ones(4))
        assert np.array_equal(sd.M.sum(axis=1), np.ones(4))
        assert np.array_equal(propagator_matrix(sd, 1.7), np.eye(4))

    def test_two_spin_chain_frequencies(self):
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        system = make_system(spec, [0.0, 0.0], 1.0)
        sd = spectral_decompose(system.A)
        assert np.allclose(sd.lam, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_frequencies_real_ascending_and_paired(self, rng):
        a = random_generator(rng, 3)
        sd = spectral_decompose(a)
        assert np.all(np.diff(sd.lam) >= 0)
        # skew-symmetric real matrices have frequencies in +/- pairs
        assert np.allclose(sd.lam, -sd.lam[::-1], atol=1e-10)

    def test_reconstruction_and_unitarity(self, rng):
        a = random_generator(rng, 4)
        sd = spectral_decompose(a)
        n2 = a.shape[0]
        assert np.linalg.norm(sd.M.conj().T @ sd.M - np.eye(n2)) < 1e-12
        assert np.linalg.norm((sd.M * (1j * sd.lam)) @ sd.M.conj().T - a) < 1e-11

    def test_deterministic(self, rng):
        a = random_generator(rng, 3)
        sd1 = spectral_decompose(a)
        sd2 = spectral_decompose(a.copy())
        assert np.array_equal(sd1.lam, sd2.lam)
        assert np.array_equal(sd1.M, sd2.M)

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            spectral_decompose(np.eye(3))

    def test_output_read_only(self, rng):
        sd = spectral_decompose(random_generator(rng, 2))
        with pytest.raises(ValueError):
            sd.lam[0] = 1.0


class TestHadamardCore:
    def test_time_zero_weight_is_one(self):
        lam = np.array([-2.0, -1.0, 1.0, 2.0])
        assert np.array_equal(hadamard_core(lam, 0.0), np.ones((4, 4)))

    def test_diagonal_entries_carry_phase(self):
        lam = np.array([-1.0, 0.0, 1.0])
        t = 0.9
        q = hadamard_core(lam, t)
        assert np.allclose(np.diag(q), np.exp(1j * lam * t), atol=1e-14)

    def test_degenerate_pair_takes_phase_branch(self):
        lam = np.array([0.7, 0.7])
        q = hadamard_core(lam, 1.3)
        assert np.allclose(q, np.exp(1j * 0.7 * 1.3) * np.ones((2, 2)), atol=1e-14)

    def test_off_diagonal_magnitude_is_sinc(self):
        # |q_kl| = |sinc(omega t / 2)| with omega the frequency gap
        for omega, t in ((2.0, 0.8), (3.5, 1.9), (0.4, 5.0)):
            lam = np.array([0.0, omega])
            q = hadamard_core(lam, t)
            want = abs(np.sinc(omega * t / (2.0 * np.pi)))
            assert abs(q[0, 1]) == pytest.approx(want, abs=1e-13)

    def test_full_period_zeroes_off_diagonal(self):
        omega = 1.75
        lam = np.array([0.0, omega])
        q = hadamard_core(lam, 2.0 * np.pi / omega)
        assert abs(q[0, 1]) < 1e-14
        assert abs(q[1, 0]) < 1e-14

    def test_near_degenerate_pair_matches_high_precision(self):
        # every gap from exact degeneracy to well separated, against the
        # difference quotient (or its degenerate limit) at 50 digits
        mpmath.mp.dps = 50
        t = 50.0
        for base in (1.0, 20.0):
            for gap in (0.0, 1e-16, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 10.0):
                lam = np.array([base, base + gap])
                q = hadamard_core(lam, t)
                a, b = (mpmath.mpf(float(v)) for v in lam)
                ea, eb = mpmath.expj(a * t), mpmath.expj(b * t)
                off = ea if a == b else (ea - eb) / (1j * t * (a - b))
                for got, want in ((q[0, 0], ea), (q[1, 1], eb), (q[0, 1], off), (q[1, 0], off)):
                    assert abs(complex(want) - got) <= 1e-13, (base, gap)


class TestSensitivityOperator:
    def _setup(self, rng, n=4, t_f=1.6):
        spec = NetworkSpec(num_spins=n, topology="ring", input_spin=1, output_spin=2)
        system = make_system(spec, rng.uniform(-1, 1, n), t_f)
        structure = enumerate_structures(spec)[0]
        s_bloch = adjoint_rep(structure.matrix)
        return system, spectral_decompose(system.A), s_bloch

    def test_real_with_matching_frobenius_norm(self, rng):
        system, sd, s_bloch = self._setup(rng)
        op = adjoint_sensitivity_operator(sd, s_bloch, system.t_f)
        assert op.K.dtype == np.float64
        assert op.norm_K == pytest.approx(np.linalg.norm(op.K), abs=1e-9)
        # the divided differences have unit magnitude at most
        assert 0.0 < op.norm_K <= np.linalg.norm(s_bloch) + 1e-9

    def test_orthogonal_to_propagator(self, rng):
        # the frame inner product <Phi, K> vanishes identically
        system, sd, s_bloch = self._setup(rng)
        op = adjoint_sensitivity_operator(sd, s_bloch, system.t_f)
        phi = propagator_matrix(sd, system.t_f)
        assert abs(np.tensordot(phi, op.K)) < 1e-12 * max(1.0, op.norm_K)

    def test_pullback_skew(self, rng):
        # the operator seen from the rotating frame, Phi^T K, is skew
        system, sd, s_bloch = self._setup(rng)
        op = adjoint_sensitivity_operator(sd, s_bloch, system.t_f)
        w = propagator_matrix(sd, system.t_f).T @ op.K
        assert np.linalg.norm(w + w.T) < 1e-9 * max(1.0, op.norm_K)

    def test_time_zero_recovers_direction(self, rng):
        system, sd, s_bloch = self._setup(rng)
        op = adjoint_sensitivity_operator(sd, s_bloch, 0.0)
        assert np.abs(op.K - s_bloch).max() < 1e-12

    def test_non_skew_direction_rejected(self, rng):
        system, sd, _ = self._setup(rng)
        with pytest.raises(ValueError):
            adjoint_sensitivity_operator(sd, np.eye(16), system.t_f)


class TestHilbertSensitivity:
    def test_small_norm_keeps_relative_accuracy(self):
        # just past t_f = pi the two-spin bias operators nearly vanish,
        # |K| = 1.4e-6; 2N sum S^2 |X|^2 - 2 (tr S)^2 would cancel to 2e-4
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        t_f = np.pi * (1.0 + 1e-6)
        transfer = hilbert_transfer(spec, np.zeros(2), t_f)
        system = make_system(spec, np.zeros(2), t_f)
        sd = spectral_decompose(system.A)
        for structure in enumerate_structures(spec):
            k_coeff, norm_k = sensitivity_operator(transfer, structure.matrix)
            op = adjoint_sensitivity_operator(
                sd, adjoint_rep(structure.matrix), t_f)
            assert norm_k == pytest.approx(op.norm_K, rel=1e-8)
            assert k_coeff == pytest.approx(system.rf @ op.K @ system.r0, abs=1e-12)


class TestDifferentialSensitivity:
    def test_zero_scaling_factor_vanishes(self, rng):
        spec = NetworkSpec(num_spins=3, topology="chain", input_spin=1, output_spin=3)
        system = make_system(spec, rng.uniform(-1, 1, 3), 1.2)
        sd = spectral_decompose(system.A)
        s_bloch = adjoint_rep(enumerate_structures(spec)[0].matrix)
        op = adjoint_sensitivity_operator(sd, s_bloch, system.t_f)
        assert differential_sensitivity(system, op, 0.0) == 0.0

    def test_negative_scaling_rejected(self, rng):
        spec = NetworkSpec(num_spins=3, topology="chain", input_spin=1, output_spin=3)
        system = make_system(spec, np.zeros(3), 1.0)
        sd = spectral_decompose(system.A)
        s_bloch = adjoint_rep(enumerate_structures(spec)[0].matrix)
        op = adjoint_sensitivity_operator(sd, s_bloch, system.t_f)
        with pytest.raises(ValueError):
            differential_sensitivity(system, op, -1.0)

    def test_linear_in_scale_and_time(self, rng):
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=3)
        system = make_system(spec, rng.uniform(-1, 1, 4), 2.0)
        sd = spectral_decompose(system.A)
        s_bloch = adjoint_rep(enumerate_structures(spec)[4].matrix)
        op = adjoint_sensitivity_operator(sd, s_bloch, system.t_f)
        base = differential_sensitivity(system, op, 1.0)
        assert differential_sensitivity(system, op, 3.0) == pytest.approx(3.0 * base, rel=1e-14)
        # the same operator read out by the same system at twice the time
        later = dataclasses.replace(system, t_f=4.0)
        assert differential_sensitivity(later, op, 1.0) == pytest.approx(
            2.0 * base, rel=1e-14)

    def test_perfect_transfer_is_stationary(self):
        # e = 0 is a minimum of a nonnegative function, so every
        # uncertainty direction sees zero first derivative there
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        system = make_system(spec, [0.0, 0.0], np.pi / 2.0)
        sd = spectral_decompose(system.A)
        for s in enumerate_structures(spec):
            s_bloch = adjoint_rep(s.matrix)
            op = adjoint_sensitivity_operator(sd, s_bloch, system.t_f)
            assert abs(differential_sensitivity(system, op, 1.0)) < 1e-9


class TestOracleAgreement:
    def _cases(self, rng):
        cases = []
        for n, topo in ((3, "chain"), (4, "ring"), (5, "ring")):
            spec = NetworkSpec(num_spins=n, topology=topo, input_spin=1,
                               output_spin=2 + (n > 3))
            biases = rng.uniform(-1, 1, n)
            t_f = rng.uniform(0.3, 3.0)
            cases.append((spec, biases, t_f))
        return cases

    def test_closed_form_matches_quadrature(self, rng):
        for spec, biases, t_f in self._cases(rng):
            system = make_system(spec, biases, t_f)
            ctl = make_controller(spec, biases, t_f)
            sd = spectral_decompose(system.A)
            for structure in enumerate_structures(spec):
                s_bloch = adjoint_rep(structure.matrix)
                op = adjoint_sensitivity_operator(sd, s_bloch, t_f)
                f_n = scaling_factor(structure, ctl)
                zeta = differential_sensitivity(system, op, f_n)
                ref = quadrature_oracle(system.A, s_bloch, t_f, system.r0,
                                        system.rf, f_n)
                assert zeta == pytest.approx(ref, abs=max(1e-10, 1e-8 * abs(ref)))

    def test_closed_form_matches_finite_difference(self, rng):
        for spec, biases, t_f in self._cases(rng):
            system = make_system(spec, biases, t_f)
            ctl = make_controller(spec, biases, t_f)
            sd = spectral_decompose(system.A)
            for structure in enumerate_structures(spec):
                s_bloch = adjoint_rep(structure.matrix)
                op = adjoint_sensitivity_operator(sd, s_bloch, t_f)
                f_n = scaling_factor(structure, ctl)
                zeta = differential_sensitivity(system, op, f_n)
                ref = fd_oracle(perturbed_error, structure, ctl, 1e-5)
                assert zeta == pytest.approx(ref, abs=max(1e-8, 1e-6 * abs(ref)))


class TestQuadratureOracle:
    def test_zero_direction_gives_zero(self, rng):
        a = random_generator(rng, 2)
        r = np.zeros(4)
        r[0] = 1.0
        assert quadrature_oracle(a, np.zeros((4, 4)), 1.0, r, r, 1.0) == 0.0

    def test_zero_time_gives_zero(self, rng):
        a = random_generator(rng, 2)
        s = random_generator(rng, 2)
        r = np.zeros(4)
        r[0] = 1.0
        assert quadrature_oracle(a, s, 0.0, r, r, 1.0) == 0.0

    def test_one_expm_call_per_invocation(self, rng, monkeypatch):
        import scipy.linalg

        calls = []
        expm = scipy.linalg.expm

        def counting_expm(a):
            calls.append(a.shape)
            return expm(a)

        monkeypatch.setattr(scipy.linalg, "expm", counting_expm)
        a = random_generator(rng, 3)
        s = random_generator(rng, 3)
        r = np.zeros(9)
        r[0] = 1.0
        quadrature_oracle(a, s, 1.3, r, r[::-1].copy(), 1.0)
        assert calls == [(33, 9, 9)]


class TestFdOracle:
    def _pst_controller(self):
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        return make_controller(spec, [0.0, 0.0], np.pi / 2.0)

    def test_sign_symmetric_in_step(self):
        ctl = self._pst_controller()
        structure = enumerate_structures(ctl.spec)[2]
        plus = fd_oracle(perturbed_error, structure, ctl, 1e-5)
        minus = fd_oracle(perturbed_error, structure, ctl, -1e-5)
        assert plus == minus

    def test_stationary_at_perfect_transfer(self):
        ctl = self._pst_controller()
        for structure in enumerate_structures(ctl.spec):
            assert abs(fd_oracle(perturbed_error, structure, ctl, 1e-5)) < 1e-7

    def test_step_size_window_enforced(self):
        ctl = self._pst_controller()
        structure = enumerate_structures(ctl.spec)[0]
        for h in (0.0, 1e-8, 1e-3):
            with pytest.raises(ValueError):
                fd_oracle(perturbed_error, structure, ctl, h)
