"""Frame projection, angle extraction, and the factored sensitivity identity."""

import math

import numpy as np
import pytest

from spinsens import (GeometryRecord, InvariantViolation, NetworkSpec,
                      adjoint_rep, adjoint_sensitivity_operator, angles,
                      build_hamiltonian, enumerate_structures,
                      identity_residual, project, propagator_matrix,
                      pst_check, quadrature_oracle, transfer_fidelity)
from spinsens.synthesis import Controller
from spinsens.verification import _adjoint_frame, adjoint_records


def decompositions(spec, biases, t_f):
    """Reference decomposition of every (controller, structure) pair of one
    controller: its adjoint-picture record, with the direction, the
    operator and the projection behind it, in structure order."""
    biases = np.asarray(biases, dtype=float)
    ctl = Controller(biases=biases, t_f=t_f,
                     fidelity=min(1.0, max(0.0, transfer_fidelity(spec, biases, t_f))),
                     spec=spec, seed=0, index=0)
    frame = _adjoint_frame(ctl)
    r0, rf, lam, m, phi = frame
    a = adjoint_rep(build_hamiltonian(spec, biases))
    for structure, (record, _) in zip(enumerate_structures(spec),
                                      adjoint_records(ctl, frame)):
        s_bloch = adjoint_rep(structure.matrix)
        k_op, norm_k = adjoint_sensitivity_operator(lam, m, s_bloch, t_f)
        r_s, norm_rs, perp = project(record.F, record.k_coeff, phi, k_op, norm_k)
        yield dict(a=a, r0=r0, rf=rf, t_f=t_f, phi=phi, s_bloch=s_bloch, k_op=k_op,
                   norm_k=norm_k, f_n=record.f_n,
                   zeta=record.zeta, F=record.F, k_coeff=record.k_coeff, r_s=r_s,
                   norm_rs=norm_rs, perp=perp, cos_phi=record.cos_phi,
                   sin_phi=record.sin_phi, cos_theta=record.cos_theta)


def ring_cases(rng, count=6):
    spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
    for _ in range(count):
        biases = rng.uniform(-1, 1, 4)
        t_f = rng.uniform(0.3, 3.0)
        for out in decompositions(spec, biases, t_f):
            yield out, spec


class TestIoOperator:
    # R = rf r0^T is never formed; its frame coefficients reach the
    # projection, which pairs with the propagator as R does
    def test_pairing_with_propagator_gives_fidelity(self, rng):
        for out, spec in ring_cases(rng, count=2):
            paired = float(np.tensordot(out["r_s"], out["phi"], axes=2))
            assert paired == pytest.approx(out["F"], abs=1e-10)


class TestProject:
    def test_norm_splits_over_frame(self, rng):
        for out, spec in ring_cases(rng, count=3):
            n = spec.num_spins
            frame_sq = (out["F"] / n) ** 2 + (out["k_coeff"] / out["norm_k"]) ** 2
            assert out["norm_rs"] ** 2 == pytest.approx(frame_sq, abs=1e-10)

    def test_k_pairing_recovers_sensitivity(self, rng):
        # k = rf . K r0 read out of the operator gives the derivative that
        # quadrature of the integral representation gives
        for out, spec in ring_cases(rng, count=3):
            ref = quadrature_oracle(out["a"], out["s_bloch"], out["t_f"], out["r0"],
                                    out["rf"], out["f_n"])
            assert -out["t_f"] * out["f_n"] * out["k_coeff"] == pytest.approx(
                ref, abs=max(1e-10, 1e-8 * abs(ref)))

    def test_projection_fixes_its_image(self, rng):
        for out, _ in ring_cases(rng, count=2):
            r_s, phi, k_op = out["r_s"], out["phi"], out["k_op"]
            again, norm_again, _ = project(float(np.tensordot(r_s, phi, axes=2)),
                                           float(np.tensordot(r_s, k_op, axes=2)),
                                           phi, k_op, out["norm_k"])
            assert np.abs(again - out["r_s"]).max() < 1e-12
            assert norm_again == pytest.approx(out["norm_rs"], abs=1e-12)

    def test_perp_component_orthogonal_to_propagator(self, rng):
        for out, _ in ring_cases(rng, count=2):
            perp_mat = out["r_s"] - (float(np.tensordot(out["r_s"], out["phi"], axes=2))
                                     / out["phi"].shape[0]) * out["phi"]
            assert abs(float(np.tensordot(perp_mat, out["phi"], axes=2))) < 1e-10

    def test_vanishing_operator_rejected(self):
        with pytest.raises(ValueError):
            project(1.0, 0.0, np.eye(4), np.zeros((4, 4)), 0.0)


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


class TestIdentityResidual:
    def test_exact_example(self):
        assert identity_residual(-6.0, 1.0, 3.0, 2.0, 1.0, 1.0) == 0.0

    def test_pipeline_residual_tiny(self, rng):
        for out, _ in ring_cases(rng, count=4):
            res = identity_residual(out["zeta"], out["f_n"], out["t_f"],
                                    out["norm_k"], out["norm_rs"], out["sin_phi"])
            assert res <= 1e-8 * max(1.0, abs(out["zeta"]))


class TestPstCheck:
    @staticmethod
    def _frame(t_f):
        # (r0, rf, lam, M, Phi) of the unbiased 2-chain read out at t_f
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        return _adjoint_frame(Controller(biases=np.zeros(2), t_f=t_f, fidelity=0.0,
                                         spec=spec, seed=0, index=0))

    def test_analytic_transfer_flags(self):
        r0, rf, _, _, phi = self._frame(np.pi / 2.0)
        assert pst_check(phi, r0, rf)

    def test_detuned_transfer_does_not_flag(self):
        r0, rf, _, _, phi = self._frame(1.3)
        assert not pst_check(phi, r0, rf)

    def test_identity_propagator_does_not_flag(self):
        # zero evolution leaves the input state at the input site
        r0, rf, lam, m, _ = self._frame(np.pi / 2.0)
        phi = propagator_matrix(lam, m, 0.0)
        assert np.abs(phi - np.eye(phi.shape[0])).max() < 1e-12
        assert not pst_check(phi, r0, rf)


class TestPerfectTransferGeometry:
    def test_projection_norm_and_alignment(self):
        spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
        out = list(decompositions(spec, [0.0, 0.0], np.pi / 2.0))[2]
        assert abs(out["zeta"]) <= 1e-9
        assert out["norm_rs"] == pytest.approx(0.5, abs=1e-9)
        assert out["cos_phi"] == pytest.approx(1.0, abs=1e-9)
        assert out["sin_phi"] <= 1e-9


class TestProjectionNormRange:
    def test_five_ring_stays_within_bounds(self, rng):
        # fidelity/N lower bound is exact; the 1/N ceiling is empirical
        spec = NetworkSpec(num_spins=5, topology="ring", input_spin=1, output_spin=3)
        for _ in range(10):
            biases = rng.uniform(-1, 1, 5)
            t_f = rng.uniform(0.3, 3.0)
            for out in decompositions(spec, biases, t_f):
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
