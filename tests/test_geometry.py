"""Frame projection, angle extraction, and the factored sensitivity identity."""

import math

import numpy as np
import pytest

from spinsens import (GeometryRecord, InvariantViolation, NetworkSpec,
                      SensitivityOperator, adjoint_rep,
                      adjoint_sensitivity_operator, angles,
                      build_bloch_system, build_hamiltonian,
                      differential_sensitivity, enumerate_structures,
                      identity_residual, io_operator, project,
                      propagator_matrix, pst_check, scaling_factor,
                      spectral_decompose, transfer_fidelity)
from spinsens.synthesis import Controller


def pipeline(spec, biases, t_f, structure):
    """Full decomposition of one (controller, structure) pair."""
    biases = np.asarray(biases, dtype=float)
    ham = build_hamiltonian(spec, biases)
    system = build_bloch_system(ham, spec, t_f)
    ctl = Controller(biases=biases, t_f=t_f,
                     fidelity=min(1.0, max(0.0, transfer_fidelity(spec, biases, t_f))),
                     spec=spec, seed=0, index=0)
    sd = spectral_decompose(system.A)
    phi = propagator_matrix(sd, t_f)
    s_bloch = adjoint_rep(structure.matrix)
    op = adjoint_sensitivity_operator(sd, s_bloch, t_f)
    f_n = scaling_factor(structure, ctl)
    zeta = differential_sensitivity(system, op, f_n)
    f = float(system.rf @ phi @ system.r0)
    r_op = io_operator(system.rf, system.r0)
    r_s, norm_rs, perp = project(r_op, phi, op)
    cos_phi, sin_phi, cos_theta = angles(f, zeta, spec.num_spins, norm_rs,
                                         op.norm_K, f_n, t_f, norm_rs_perp=perp)
    return dict(system=system, phi=phi, op=op, f_n=f_n, zeta=zeta, F=f,
                r_op=r_op, r_s=r_s, norm_rs=norm_rs, perp=perp,
                cos_phi=cos_phi, sin_phi=sin_phi, cos_theta=cos_theta)


def ring_cases(rng, count=6):
    spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
    structures = enumerate_structures(spec)
    for _ in range(count):
        biases = rng.uniform(-1, 1, 4)
        t_f = rng.uniform(0.3, 3.0)
        for structure in structures:
            yield pipeline(spec, biases, t_f, structure), spec


class TestIoOperator:
    def test_rank_one_outer(self):
        rf = np.array([1.0, 0.0, 0.0])
        r0 = np.array([0.0, 0.6, 0.8])
        r = io_operator(rf, r0)
        assert np.array_equal(r, np.outer(rf, r0))

    def test_pairing_with_propagator_gives_fidelity(self, rng):
        for out, spec in ring_cases(rng, count=2):
            paired = float(np.tensordot(out["r_op"], out["phi"], axes=2))
            assert paired == pytest.approx(out["F"], abs=1e-10)

    def test_equal_vectors_give_symmetric_dyad(self):
        r = np.array([0.6, 0.0, 0.8])
        dyad = io_operator(r, r)
        assert np.array_equal(dyad, dyad.T)
        assert np.trace(dyad) == pytest.approx(1.0, abs=1e-15)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            io_operator(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


class TestProject:
    def test_norm_splits_over_frame(self, rng):
        for out, spec in ring_cases(rng, count=3):
            op = out["op"]
            n = spec.num_spins
            k_coeff = float(np.tensordot(out["r_op"], op.K, axes=2))
            frame_sq = (out["F"] / n) ** 2 + (k_coeff / op.norm_K) ** 2
            assert out["norm_rs"] ** 2 == pytest.approx(frame_sq, abs=1e-10)

    def test_k_pairing_recovers_sensitivity(self, rng):
        for out, spec in ring_cases(rng, count=3):
            if out["f_n"] == 0.0:
                continue
            k_coeff = float(np.tensordot(out["r_op"], out["op"].K, axes=2))
            system = out["system"]
            assert -system.t_f * out["f_n"] * k_coeff == pytest.approx(
                out["zeta"], abs=1e-9 * max(1.0, abs(out["zeta"])))

    def test_projection_fixes_its_image(self, rng):
        for out, _ in ring_cases(rng, count=2):
            again, norm_again, _ = project(out["r_s"], out["phi"], out["op"])
            assert np.abs(again - out["r_s"]).max() < 1e-12
            assert norm_again == pytest.approx(out["norm_rs"], abs=1e-12)

    def test_perp_component_orthogonal_to_propagator(self, rng):
        for out, _ in ring_cases(rng, count=2):
            perp_mat = out["r_s"] - (float(np.tensordot(out["r_s"], out["phi"], axes=2))
                                     / out["phi"].shape[0]) * out["phi"]
            assert abs(float(np.tensordot(perp_mat, out["phi"], axes=2))) < 1e-10

    def test_vanishing_operator_rejected(self):
        zero_op = SensitivityOperator(K=np.zeros((4, 4)), norm_K=0.0)
        r = np.zeros(4)
        r[0] = 1.0
        with pytest.raises(ValueError):
            project(io_operator(r, r), np.eye(4), zero_op)


class TestAngles:
    def test_direct_values_orthogonal_case(self):
        # F = 0 with the projection entirely along K: phi = 90 degrees
        cos_phi, sin_phi, cos_theta = angles(0.0, 1.0, 2, 0.5, 2.0, 1.0, 1.0,
                                             norm_rs_perp=0.5)
        assert cos_phi == 0.0
        assert sin_phi == 1.0
        assert cos_theta == -1.0

    def test_frame_angles_complementary(self, rng):
        # R_S lies in span{Phi, K}, so cos^2 phi + cos^2 theta = 1
        for out, _ in ring_cases(rng, count=3):
            if out["f_n"] == 0.0:
                continue
            assert out["cos_phi"] ** 2 + out["cos_theta"] ** 2 == pytest.approx(
                1.0, abs=1e-9)

    def test_zero_scale_reports_zero_cos_theta(self):
        cos_phi, sin_phi, cos_theta = angles(0.5, 0.0, 2, 0.4, 1.0, 0.0, 1.0,
                                             norm_rs_perp=0.2)
        assert cos_theta == 0.0

    def test_subnormal_scale_reports_zero_cos_theta(self):
        # a subnormal bias underflows zeta and the scale; neither resolves cos theta
        for f_n, zeta in ((5e-324, 0.0), (1e-310, -1e-310)):
            _, _, cos_theta = angles(0.5, zeta, 2, 0.4, 0.3, f_n, 1.0,
                                     norm_rs_perp=0.2)
            assert cos_theta == 0.0

    def test_cos_phi_overshoot_near_zero_fidelity_clamped(self):
        # F = 3.1e-9 on a 12-chain: rounding in F and |R_S| reached 8.6e-9
        norm_rs = 2.6e-10
        f = 12 * norm_rs * (1.0 + 8.6e-9)
        cos_phi, _, _ = angles(f, 0.0, 12, norm_rs, 1.0, 0.0, 1.0, norm_rs_perp=0.0)
        assert cos_phi == 1.0
        # overshoots inside the record tolerance are kept as computed
        cos_phi, _, _ = angles(1.0 + 1e-12, 0.0, 2, 0.5, 1.0, 0.0, 1.0,
                               norm_rs_perp=0.0)
        assert cos_phi == 1.0 + 1e-12

    def test_cos_phi_overshoot_beyond_allowance_rejected(self):
        with pytest.raises(InvariantViolation):
            angles(1.0 + 1e-6, 0.0, 2, 0.5, 1.0, 0.0, 1.0, norm_rs_perp=0.0)

    def test_vanishing_projection_rejected(self):
        with pytest.raises(ValueError):
            angles(0.0, 0.0, 2, 0.0, 1.0, 1.0, 1.0, norm_rs_perp=0.0)

    def test_vanishing_operator_rejected(self):
        with pytest.raises(ValueError):
            angles(0.5, 0.0, 2, 0.5, 0.0, 1.0, 1.0, norm_rs_perp=0.3)

    def test_inconsistent_sensitivity_rejected(self, rng):
        for out, spec in ring_cases(rng, count=1):
            if out["f_n"] == 0.0 or out["sin_phi"] < 0.1:
                continue
            with pytest.raises(InvariantViolation):
                angles(out["F"], 2.0 * out["zeta"] + 1.0, spec.num_spins,
                       out["norm_rs"], out["op"].norm_K, out["f_n"],
                       out["system"].t_f, norm_rs_perp=out["perp"])
            break


class TestIdentityResidual:
    def test_exact_example(self):
        assert identity_residual(-6.0, 1.0, 3.0, 2.0, 1.0, 1.0) == 0.0

    def test_pipeline_residual_tiny(self, rng):
        for out, _ in ring_cases(rng, count=4):
            res = identity_residual(out["zeta"], out["f_n"], out["system"].t_f,
                                    out["op"].norm_K, out["norm_rs"], out["sin_phi"])
            assert res <= 1e-8 * max(1.0, abs(out["zeta"]))


class TestPstCheck:
    def _pst(self):
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        system = build_bloch_system(build_hamiltonian(spec, np.zeros(2)), spec,
                                    np.pi / 2.0)
        sd = spectral_decompose(system.A)
        return system, propagator_matrix(sd, system.t_f)

    def test_analytic_transfer_flags(self):
        system, phi = self._pst()
        assert pst_check(phi, system.r0, system.rf)

    def test_detuned_transfer_does_not_flag(self):
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        system = build_bloch_system(build_hamiltonian(spec, np.zeros(2)), spec, 1.3)
        phi = propagator_matrix(spectral_decompose(system.A), 1.3)
        assert not pst_check(phi, system.r0, system.rf)

    def test_identity_propagator_does_not_flag(self):
        # zero evolution leaves the input state at the input site
        system, _ = self._pst()
        phi = propagator_matrix(spectral_decompose(system.A), 0.0)
        assert np.abs(phi - np.eye(phi.shape[0])).max() < 1e-12
        assert not pst_check(phi, system.r0, system.rf)


class TestPerfectTransferGeometry:
    def test_projection_norm_and_alignment(self):
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        out = pipeline(spec, [0.0, 0.0], np.pi / 2.0, enumerate_structures(spec)[2])
        assert abs(out["zeta"]) <= 1e-9
        assert out["norm_rs"] == pytest.approx(0.5, abs=1e-9)
        assert out["cos_phi"] == pytest.approx(1.0, abs=1e-9)
        assert out["sin_phi"] <= 1e-9


class TestProjectionNormRange:
    def test_five_ring_stays_within_bounds(self, rng):
        # fidelity/N lower bound is exact; the 1/N ceiling is empirical
        spec = NetworkSpec(num_spins=5, topology="ring", input_spin=1, output_spin=3)
        structures = enumerate_structures(spec)
        for _ in range(10):
            biases = rng.uniform(-1, 1, 5)
            t_f = rng.uniform(0.3, 3.0)
            for structure in structures:
                out = pipeline(spec, biases, t_f, structure)
                assert out["norm_rs"] >= out["F"] / 5.0 - 1e-12
                assert out["norm_rs"] <= 0.2 + 1e-10


class TestGeometryRecord:
    def _kwargs(self, **over):
        kw = dict(controller_index=0, structure_index=1, F=0.9, e=0.1,
                  zeta=-0.01, f_n=1.0, t_f=2.0, norm_K=1.5, norm_Rs=0.22,
                  k_coeff=0.066, cos_phi=0.98, sin_phi=0.2, cos_theta=0.2,
                  identity_residual=1e-12, pst=False, zero_fidelity=False)
        kw.update(over)
        return kw

    def test_round_trip_fields(self):
        rec = GeometryRecord(**self._kwargs())
        assert rec.abs_zeta == 0.01
        assert rec.bound_product == pytest.approx(1.0 * 2.0 * 1.5 * 0.22 * 0.2)

    def test_nan_angles_allowed(self):
        rec = GeometryRecord(**self._kwargs(cos_phi=float("nan"),
                                            sin_phi=float("nan"),
                                            cos_theta=float("nan"),
                                            zero_fidelity=True))
        assert math.isnan(rec.cos_phi) and rec.zero_fidelity

    def test_nonpositive_norm_rejected(self):
        with pytest.raises(ValueError):
            GeometryRecord(**self._kwargs(norm_K=0.0))

    def test_out_of_range_angles_rejected(self):
        with pytest.raises(ValueError):
            GeometryRecord(**self._kwargs(cos_phi=1.5))
        with pytest.raises(ValueError):
            GeometryRecord(**self._kwargs(cos_theta=-1.2))


class TestRecordedDecompositions:
    # regression rows (f, t_f, |K|, |R_S|, sin phi, |zeta|) recorded to
    # three digits from high-bias 5-ring controllers; the factored product
    # must reproduce the recorded sensitivity within that rounding
    ROWS = (
        (2.35, 198.0, 1.71, 0.199, 1.48e-7, 2.33e-5),
        (330.0, 108.0, 2.74, 0.199, 1.37e-6, 2.69e-2),
        (17.0, 400.0, 1.68, 0.198, 4.50e-5, 1.01e-1),
    )

    @pytest.mark.parametrize("row", ROWS, ids=["low-bias", "high-bias", "long-time"])
    def test_factored_product_matches(self, row):
        f_n, t_f, norm_k, norm_rs, sin_phi, abs_zeta = row
        product = f_n * t_f * norm_k * norm_rs * sin_phi
        assert abs(product - abs_zeta) <= 0.02 * abs_zeta
        assert identity_residual(abs_zeta, f_n, t_f, norm_k, norm_rs,
                                 sin_phi) <= 0.02 * abs_zeta
