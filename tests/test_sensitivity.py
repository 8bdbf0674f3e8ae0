"""Spectral route for exp(A t), its directional derivative, and the oracles."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, expm_frechet

from spinsens import (InvariantViolation, NetworkSpec, adjoint_rep,
                      adjoint_sensitivity_operator,
                      build_hamiltonian, enumerate_structures, fd_oracle,
                      frechet_oracle, hadamard_core, hilbert_transfer,
                      propagator_matrix, scaling_factor, sensitivity_operator,
                      spectral_decompose, transfer_fidelity)
from spinsens import sensitivity
from spinsens.synthesis import Controller
from spinsens.verification import _endpoints, adjoint_records
from test_properties import BOX_BIASES, EDGE_BIASES, RING4

EPS = np.finfo(float).eps


def random_generator(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return adjoint_rep(0.5 * (h + h.conj().T))


def make_system(spec, biases):
    # the adjoint generator A and the endpoints r0, rf of one working point
    ham = build_hamiltonian(spec, np.asarray(biases, dtype=float))
    return (adjoint_rep(ham), *_endpoints(spec))


def make_controller(spec, biases, t_f):
    biases = np.asarray(biases, dtype=float)
    f = transfer_fidelity(spec, biases, t_f)
    return Controller(biases=biases, t_f=t_f, fidelity=min(1.0, max(0.0, f)),
                      spec=spec, seed=0, index=0)


class TestSpectralDecompose:
    def test_zero_generator_gives_identity(self):
        lam, m = spectral_decompose(np.zeros((4, 4)))
        assert np.array_equal(lam, np.zeros(4))
        # any basis of the one eigenspace will do; eigh's is a permutation
        assert np.isin(m, (0.0, 1.0)).all()
        assert np.array_equal(m.sum(axis=0), np.ones(4))
        assert np.array_equal(m.sum(axis=1), np.ones(4))
        assert np.array_equal(propagator_matrix(lam, m, 1.7), np.eye(4))

    def test_two_spin_chain_frequencies(self):
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        a, _, _ = make_system(spec, [0.0, 0.0])
        lam, _ = spectral_decompose(a)
        assert np.allclose(lam, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_frequencies_real_ascending_and_paired(self, rng):
        a = random_generator(rng, 3)
        lam, _ = spectral_decompose(a)
        assert np.all(np.diff(lam) >= 0)
        # skew-symmetric real matrices have frequencies in +/- pairs
        assert np.allclose(lam, -lam[::-1], atol=1e-10)

    def test_reconstruction_and_unitarity(self, rng):
        a = random_generator(rng, 4)
        lam, m = spectral_decompose(a)
        n2 = a.shape[0]
        assert np.linalg.norm(m.conj().T @ m - np.eye(n2)) < 1e-12
        assert np.linalg.norm((m * (1j * lam)) @ m.conj().T - a) < 1e-11

    def test_deterministic(self, rng):
        a = random_generator(rng, 3)
        lam1, m1 = spectral_decompose(a)
        lam2, m2 = spectral_decompose(a.copy())
        assert np.array_equal(lam1, lam2)
        assert np.array_equal(m1, m2)

    def test_non_skew_rejected(self):
        with pytest.raises(ValueError):
            spectral_decompose(np.eye(3))

    @pytest.mark.parametrize("bend, message", [
        (lambda mu, vec: (mu, 1.001 * vec), "eigenvector matrix not unitary"),
        (lambda mu, vec: (1.001 * mu, vec), "spectral reconstruction failed")])
    def test_bent_eigensolver_is_an_invariant_violation(self, bend, message, rng,
                                                         monkeypatch):
        exact = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: bend(*exact(a)))
        with pytest.raises(InvariantViolation, match=message):
            spectral_decompose(random_generator(rng, 3))

    def test_output_read_only(self, rng):
        lam, m = spectral_decompose(random_generator(rng, 2))
        with pytest.raises(ValueError):
            lam[0] = 1.0
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


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
        a, _, _ = make_system(spec, rng.uniform(-1, 1, n))
        structure = enumerate_structures(spec)[0]
        s_bloch = adjoint_rep(structure.matrix)
        return spectral_decompose(a), s_bloch, t_f

    def test_real_with_matching_frobenius_norm(self, rng):
        (lam, m), s_bloch, t_f = self._setup(rng)
        k_op, norm_k = adjoint_sensitivity_operator(lam, m, s_bloch, t_f)
        assert k_op.dtype == np.float64
        assert not k_op.flags.writeable
        assert norm_k == pytest.approx(np.linalg.norm(k_op), abs=1e-9)
        # the divided differences have unit magnitude at most
        assert 0.0 < norm_k <= np.linalg.norm(s_bloch) + 1e-9

    def test_orthogonal_to_propagator(self, rng):
        # the frame inner product <Phi, K> vanishes identically
        (lam, m), s_bloch, t_f = self._setup(rng)
        k_op, norm_k = adjoint_sensitivity_operator(lam, m, s_bloch, t_f)
        phi = propagator_matrix(lam, m, t_f)
        assert abs(np.tensordot(phi, k_op)) < 1e-12 * max(1.0, norm_k)

    def test_pullback_skew(self, rng):
        # the operator seen from the rotating frame, Phi^T K, is skew
        (lam, m), s_bloch, t_f = self._setup(rng)
        k_op, norm_k = adjoint_sensitivity_operator(lam, m, s_bloch, t_f)
        w = propagator_matrix(lam, m, t_f).T @ k_op
        assert np.linalg.norm(w + w.T) < 1e-9 * max(1.0, norm_k)

    def test_time_zero_recovers_direction(self, rng):
        (lam, m), s_bloch, _ = self._setup(rng)
        k_op, _ = adjoint_sensitivity_operator(lam, m, s_bloch, 0.0)
        assert np.abs(k_op - s_bloch).max() < 1e-12

    def test_imaginary_residue_is_an_invariant_violation(self, rng, monkeypatch):
        # any residue exceeds a negative tolerance
        (lam, m), s_bloch, t_f = self._setup(rng)
        monkeypatch.setattr(sensitivity, "IMAG_TOL", -1.0)
        with pytest.raises(InvariantViolation,
                           match="sensitivity operator has imaginary residue"):
            adjoint_sensitivity_operator(lam, m, s_bloch, t_f)

    def test_non_skew_direction_rejected(self, rng):
        (lam, m), _, t_f = self._setup(rng)
        with pytest.raises(ValueError):
            adjoint_sensitivity_operator(lam, m, np.eye(16), t_f)


class TestHilbertSensitivity:
    def test_small_norm_keeps_relative_accuracy(self):
        # just past t_f = pi the two-spin bias operators nearly vanish,
        # |K| = 1.4e-6; 2N sum S^2 |X|^2 - 2 (tr S)^2 would cancel to 2e-4
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        t_f = np.pi * (1.0 + 1e-6)
        transfer = hilbert_transfer(spec, np.zeros(2), t_f)
        a, r0, rf = make_system(spec, np.zeros(2))
        lam, m = spectral_decompose(a)
        for structure in enumerate_structures(spec):
            k_coeff, norm_k = sensitivity_operator(transfer, structure)
            k_op, ref_norm = adjoint_sensitivity_operator(
                lam, m, adjoint_rep(structure.matrix), t_f)
            assert norm_k == pytest.approx(ref_norm, rel=1e-8)
            assert k_coeff == pytest.approx(rf @ k_op @ r0, abs=1e-12)


def dense_sensitivity(transfer, spec, t_f, matrix):
    """k = <R, K> and |K| of one structure by the per-structure form:
    conjugate S into the eigenbasis, weight it with the divided
    differences, contract with the output and input rows of V, and sum the
    squares of the traceless part."""
    v = transfer.v
    n = v.shape[0]
    s_hat = v.T @ matrix @ v
    out = spec.output_spin - 1
    y = (v[out].astype(complex) @ (s_hat * hadamard_core(-transfer.e, t_f))
         @ v[spec.input_spin - 1].astype(complex))
    k_coeff = 2.0 * float((np.conj(transfer.column[out]) * y).imag)
    s_hat.reshape(-1)[::n + 1] -= matrix.trace() / n
    return k_coeff, math.sqrt(2.0 * n * float((s_hat ** 2 * transfer.x_sq).sum()))


@st.composite
def contraction_points(draw):
    # chains and rings of 2 to 20 spins; uniform biases keep a ring's
    # degenerate spectrum
    n = draw(st.integers(min_value=2, max_value=20))
    topology = draw(st.sampled_from(("chain", "ring") if n >= 3 else ("chain",)))
    input_spin = draw(st.integers(min_value=1, max_value=n))
    output_spin = draw(st.integers(min_value=1, max_value=n).filter(
        lambda s: s != input_spin))
    spec = NetworkSpec(num_spins=n, topology=topology, input_spin=input_spin,
                       output_spin=output_spin)
    bias = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
    if draw(st.booleans()):
        biases = np.full(n, draw(bias))
    else:
        biases = np.array(draw(st.lists(bias, min_size=n, max_size=n)))
    return spec, biases, draw(st.floats(min_value=0.0, max_value=50.0))


class TestContraction:
    # the one contraction per controller against the per-structure form

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(contraction_points())
    @example((RING4, EDGE_BIASES, 0.0))
    @example((RING4, EDGE_BIASES, 1.0))
    @example((RING4, BOX_BIASES, 50.0))
    def test_matches_per_structure_form(self, point):
        spec, biases, t_f = point
        transfer = hilbert_transfer(spec, biases, t_f)
        for structure in enumerate_structures(spec):
            k_coeff, norm_k = sensitivity_operator(transfer, structure)
            k_ref, norm_ref = dense_sensitivity(transfer, spec, t_f, structure.matrix)
            assert abs(k_coeff - k_ref) <= 1e-14 * max(1.0, abs(k_ref))
            assert abs(norm_k - norm_ref) <= 1e-14 * norm_ref

    @pytest.mark.parametrize("n", [20, 100])
    def test_matches_frechet_derivative(self, n, rng):
        # dU = L(-iHt, -iSt), the Frechet derivative of the exponential:
        # k = (2 / t) Re(conj(U_oi) dU_oi) and, since |L|_F = t |S^ o X|_F,
        # |K|^2 = 2N |L|_F^2 / t^2 - 2 (tr S)^2
        # 1 -> 3 at t = 2.5 keeps a transfer amplitude of order one
        spec = NetworkSpec(num_spins=n, topology="chain", input_spin=1, output_spin=3)
        biases = rng.uniform(0.0, 1.0, n)
        t_f = 2.5
        transfer = hilbert_transfer(spec, biases, t_f)
        ham = build_hamiltonian(spec, biases)
        structures = enumerate_structures(spec)
        u = expm(-1j * t_f * ham)
        assert abs(u[2, 0]) > 0.1
        for structure in (structures[0], structures[2], structures[n // 2], structures[n],
                          structures[n + 1], structures[-1]):
            d_u = expm_frechet(-1j * t_f * ham, -1j * t_f * structure.matrix,
                               compute_expm=False)
            k_ref = 2.0 / t_f * float((np.conj(u[2, 0]) * d_u[2, 0]).real)
            norm_ref = math.sqrt(2.0 * n * np.linalg.norm(d_u) ** 2 / t_f ** 2
                                 - 2.0 * structure.matrix.trace() ** 2)
            k_coeff, norm_k = sensitivity_operator(transfer, structure)
            assert abs(k_coeff - k_ref) <= 1e-12 * max(1.0, abs(k_ref))
            assert abs(norm_k - norm_ref) <= 1e-12 * norm_ref


class TestDifferentialSensitivity:
    # zeta of the adjoint-picture reference records
    def test_zero_scaling_factor_vanishes(self, rng):
        spec = NetworkSpec(num_spins=3, topology="chain", input_spin=1, output_spin=3)
        biases = rng.uniform(-1, 1, 3)
        biases[0] = 0.0
        record, _ = adjoint_records(make_controller(spec, biases, 1.2))[0]
        assert (record.f_n, record.zeta) == (0.0, 0.0)

    def test_perfect_transfer_is_stationary(self):
        # e = 0 is a minimum of a nonnegative function, so every
        # uncertainty direction sees zero first derivative there, at unit
        # scale too (the zero biases scale the bias directions to 0)
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        for record, _ in adjoint_records(make_controller(spec, [0.0, 0.0], np.pi / 2.0)):
            assert abs(record.zeta) < 1e-9
            assert abs(record.t_f * record.k_coeff) < 1e-9


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

    def test_closed_form_matches_frechet(self, rng):
        for spec, biases, t_f in self._cases(rng):
            ctl = make_controller(spec, biases, t_f)
            for structure, (record, _) in zip(enumerate_structures(spec),
                                              adjoint_records(ctl)):
                ref = frechet_oracle(structure, ctl)
                assert record.zeta == pytest.approx(ref, abs=max(1e-10, 1e-8 * abs(ref)))

    def test_closed_form_matches_finite_difference(self, rng):
        for spec, biases, t_f in self._cases(rng):
            ctl = make_controller(spec, biases, t_f)
            for structure, (record, _) in zip(enumerate_structures(spec),
                                              adjoint_records(ctl)):
                ref = fd_oracle(structure, ctl)
                assert record.zeta == pytest.approx(ref, abs=max(1e-8, 1e-6 * abs(ref)))


class TestFrechetOracle:
    def test_zero_direction_gives_zero(self):
        # a bias structure at a site without bias has scale f_n = 0
        spec = NetworkSpec(num_spins=3, topology="chain", input_spin=1, output_spin=3)
        ctl = make_controller(spec, [0.4, 0.0, -0.7], 1.3)
        bias2, = [s for s in enumerate_structures(spec) if s.kind == "bias" and s.sites == (2,)]
        assert frechet_oracle(bias2, ctl) == 0.0

    def test_stationary_at_perfect_transfer(self):
        # the unbiased 2-chain at t = pi/2: the biases have f_n = 0, and
        # the coupling's derivative vanishes at the maximum of F
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        ctl = make_controller(spec, [0.0, 0.0], np.pi / 2.0)
        for structure in enumerate_structures(spec):
            assert abs(frechet_oracle(structure, ctl)) < 1e-14


# t max|E| from verify's instances out to where no N^2 x N^2 reference holds
REACHES = (10.0, 1e3, 1e5, 1e6)


class TestFrechetReach:
    # Each phase exp(-i E t) carries an absolute error of about eps t |E|,
    # so the published k and the Frechet oracle's k = -zeta / (t_f f_n)
    # each stray by a multiple of eps t max|E|; the budget is 4 of them.
    # Biases spread over [0, 10] localize the excitation and keep |k|
    # small; biases clustered within 1 of each other keep the transfer
    # delocalized and |k| up to order 1.

    def _gaps(self):
        # per (reach, structure): the k gap as a fraction of its budget, and |k|
        rng = np.random.default_rng(28)
        for n, topology, out in ((2, "chain", 2), (3, "chain", 3), (4, "ring", 2),
                                 (5, "ring", 3), (6, "chain", 6), (6, "ring", 4)):
            spec = NetworkSpec(num_spins=n, topology=topology, input_spin=1,
                               output_spin=out)
            for biases in (rng.uniform(0.0, 10.0, n),
                           rng.uniform(0.5, 9.5) + rng.uniform(-0.5, 0.5, n)):
                top = np.abs(np.linalg.eigvalsh(build_hamiltonian(spec, biases))).max()
                for reach in REACHES:
                    ctl = make_controller(spec, biases, reach / top)
                    transfer = hilbert_transfer(spec, biases, ctl.t_f)
                    for structure in enumerate_structures(spec):
                        k_coeff, _ = sensitivity_operator(transfer, structure)
                        k_ref = -frechet_oracle(structure, ctl) / (
                            ctl.t_f * scaling_factor(structure, ctl))
                        yield reach, abs(k_coeff - k_ref) / (4.0 * EPS * reach), abs(k_ref)

    def test_published_k_within_budget(self):
        gaps = list(self._gaps())
        assert all(ratio <= 1.0 for _, ratio, _ in gaps), max(gaps, key=lambda g: g[1])

    def test_divided_differences_off_by_1e_9_fail_at_large_reach(self, monkeypatch):
        # X scaled by 1 + 1e-9 moves k by 1e-9 |k|, above the budget where
        # |k| > 4 eps t max|E| / 1e-9, about 0.09 at 1e5; at 1e6 that takes
        # |k| > 0.9, which none of these instances reaches
        exact = sensitivity.hadamard_core
        monkeypatch.setattr(sensitivity, "hadamard_core",
                            lambda lam, t_f: (1.0 + 1e-9) * exact(lam, t_f))
        at_1e5 = [(abs_k, ratio) for reach, ratio, abs_k in self._gaps() if reach == 1e5]
        assert max(at_1e5)[1] > 1.0


class TestPadeExponential:
    # sensitivity._expm and _expm_frechet, the exponentials of both oracles
    # and of cross-formulation's Hilbert propagation. Each entry of exp(-iHt)
    # carries an absolute error of about eps t max|E|, and each entry of its
    # derivative along -iSt, |S|_2 = 1, about t times that.

    @pytest.mark.parametrize("n, topology", [(2, "chain"), (3, "ring"), (5, "ring"),
                                             (8, "chain"), (12, "ring"), (20, "chain")])
    @pytest.mark.parametrize("reach", (1.0,) + REACHES)
    def test_matches_scipy(self, n, topology, reach):
        spec = NetworkSpec(num_spins=n, topology=topology, input_spin=1, output_spin=2)
        biases = np.random.default_rng(n).uniform(0.0, 1.0, n)
        ham = build_hamiltonian(spec, biases)
        t = reach / np.abs(np.linalg.eigvalsh(ham)).max()
        x = -1j * t * ham
        u_ref = expm(x)
        assert np.abs(sensitivity._expm(x) - u_ref).max() <= 4.0 * EPS * reach
        structures = enumerate_structures(spec)
        for structure in (structures[0], structures[n - 1], structures[n], structures[-1]):
            u, du = sensitivity._expm_frechet(x, -1j * t * structure.matrix)
            du_ref = expm_frechet(x, -1j * t * structure.matrix, compute_expm=False)
            assert np.abs(u - u_ref).max() <= 4.0 * EPS * reach
            assert np.abs(du - du_ref).max() <= 4.0 * EPS * reach * t

    @pytest.mark.parametrize("t", [0.3, np.pi / 2.0, 2.0, 10.0, 1e3])
    def test_unbiased_two_chain_closed_form(self, t):
        # H = P, the swap, with P^2 = I: U = cos t I - i sin t P. The coupling
        # direction P commutes with H, so dU = -i t P U; the bias of site 1 is
        # (I + Z) / 2, and PZ = -ZP gives dU = -i t (U + Z sin t / t) / 2
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        swap, z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
        u_exact = math.cos(t) * np.eye(2) - 1j * math.sin(t) * swap
        x = -1j * t * build_hamiltonian(spec, [0.0, 0.0])
        bias1, _, coupling = enumerate_structures(spec)
        for structure, du_exact in ((coupling, -1j * t * swap @ u_exact),
                                    (bias1, -0.5j * t * (u_exact + z * math.sin(t) / t))):
            u, du = sensitivity._expm_frechet(x, -1j * t * structure.matrix)
            assert np.abs(u - u_exact).max() <= 4.0 * EPS * max(1.0, t)
            assert np.abs(du - du_exact).max() <= 4.0 * EPS * max(1.0, t) * t
        assert np.abs(sensitivity._expm(x) - u_exact).max() <= 4.0 * EPS * max(1.0, t)

    def test_zero_direction_gives_exactly_zero(self):
        # a bias of zero scales its direction to 0; at t max|E| = 1e8 the
        # scaled block would otherwise read inf * 0
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=3)
        biases = np.array([0.0, 0.3, 0.6, 0.9])
        ham = build_hamiltonian(spec, biases)
        t = 1e8 / np.abs(np.linalg.eigvalsh(ham)).max()
        u, du = sensitivity._expm_frechet(-1j * t * ham, np.zeros((4, 4)))
        assert not du.any()
        assert np.abs(u - expm(-1j * t * ham)).max() <= 4.0 * EPS * 1e8
        ctl = Controller(biases=biases, t_f=t, fidelity=0.5, spec=spec, seed=0, index=0)
        assert frechet_oracle(enumerate_structures(spec)[0], ctl) == 0.0


class TestFdOracle:
    def _pst_controller(self):
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        return make_controller(spec, [0.0, 0.0], np.pi / 2.0)

    def test_stationary_at_perfect_transfer(self):
        ctl = self._pst_controller()
        for structure in enumerate_structures(ctl.spec):
            assert abs(fd_oracle(structure, ctl)) < 1e-7

    # (N, topology, input, output, biases, t_f, structure index) and the
    # estimate's bits. The 1e-5 difference quotient turns a last-bit change
    # of |U_oi| into a new figure: taking |U_oi| with scalar abs in place of
    # np.abs over the +-h pair moves four of these six.
    PINNED = [
        ((2, "chain", 1, 2, [0.4, 0.9], 1.3, 1), "0x1.0906d36280d40p-3"),
        ((3, "ring", 1, 2, [0.2, 0.7, 1.5], 2.1, 3), "-0x1.5112ee5e35ed8p+0"),
        ((4, "chain", 1, 4, [0.1, 0.8, 0.5, 1.2], 3.7, 5), "0x1.941c7fe5754ffp-3"),
        ((4, "ring", 1, 3, [0.0, 0.6, 0.3, 0.9], 2.9, 4), "0x1.7d7d8b130857fp-3"),
        ((5, "ring", 2, 4, [1.0, 0.2, 0.7, 0.4, 0.9], 4.4, 6), "-0x1.094ccb4819180p-1"),
        ((6, "chain", 1, 6, [0.3, 0.8, 0.1, 0.6, 1.1, 0.5], 5.2, 7),
         "-0x1.96bc0429c517fp-3"),
    ]

    @pytest.mark.parametrize("point, bits", PINNED)
    def test_estimate_bits_pinned(self, point, bits):
        n, topology, input_spin, output_spin, biases, t_f, index = point
        spec = NetworkSpec(num_spins=n, topology=topology, input_spin=input_spin,
                           output_spin=output_spin)
        ctl = make_controller(spec, biases, t_f)
        assert fd_oracle(enumerate_structures(spec)[index], ctl).hex() == bits
