"""Frame projection, angle extraction, and the factored sensitivity identity."""

import math

import numpy as np
import pytest

from spinsens import (GeometryRecord, NetworkSpec, adjoint_rep,
                      adjoint_sensitivity_operator, angles,
                      enumerate_structures, frechet_oracle, identity_residual,
                      project, scaling_factor, transfer_fidelity)
from spinsens.analytics import evaluate_controller
from spinsens.geometry import PST_TOL, TINY, ZERO_FIDELITY_FLOOR
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
    _, _, lam, m, phi = frame
    for structure, (record, _) in zip(enumerate_structures(spec),
                                      adjoint_records(ctl, frame)):
        s_bloch = adjoint_rep(structure.matrix)
        k_op, norm_k = adjoint_sensitivity_operator(lam, m, s_bloch, t_f)
        r_s, norm_rs, perp = project(record.F, record.k_coeff, phi, k_op, norm_k)
        yield dict(controller=ctl, structure=structure, t_f=t_f, phi=phi, k_op=k_op,
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
        # the Frechet derivative of the N x N exponential gives
        for out, spec in ring_cases(rng, count=3):
            ref = frechet_oracle(out["structure"], out["controller"])
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

    def test_vanishing_projection_rejected(self):
        with pytest.raises(ValueError):
            angles(0.0, 0.0, 2, 0.0, 1.0, 1.0, 1.0, norm_rs_perp=0.0)

    def test_vanishing_operator_gives_zero_cos_theta(self):
        # nothing in angles divides by |K|: a zero |K| makes the scale zero,
        # and assemble, not angles, rejects it on the record path
        cos_phi, sin_phi, cos_theta = angles(0.5, 0.0, 2, 0.5, 0.0, 1.0, 1.0,
                                             norm_rs_perp=0.3)
        assert (cos_phi, sin_phi, cos_theta) == (0.5, 0.6, 0.0)


class TestIdentityResidual:
    def test_exact_example(self):
        assert identity_residual(-6.0, 1.0, 3.0, 2.0, 1.0, 1.0) == 0.0

    def test_pipeline_residual_tiny(self, rng):
        for out, _ in ring_cases(rng, count=4):
            res = identity_residual(out["zeta"], out["f_n"], out["t_f"],
                                    out["norm_k"], out["norm_rs"], out["sin_phi"])
            assert res <= 1e-8 * max(1.0, abs(out["zeta"]))


CHAIN2 = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)


def chain2_controller(t_f):
    # the unbiased 2-chain read out at t_f
    fidelity = transfer_fidelity(CHAIN2, np.zeros(2), t_f)
    return Controller(biases=np.zeros(2), t_f=t_f, fidelity=min(1.0, fidelity),
                      spec=CHAIN2, seed=0, index=0)


class TestPerfectTransferFlag:
    # the flag ``assemble`` sets from the state distance |rf - Phi r0| that
    # each route measures: the published route and the adjoint reference
    @pytest.mark.parametrize("t_f, flagged", [
        (np.pi / 2.0, True),
        (1.3, False),
        # the excitation is back on the input site
        (np.pi, False)],
        ids=["analytic-transfer", "detuned", "back-on-input"])
    def test_both_routes_flag_the_record(self, t_f, flagged):
        ctl = chain2_controller(t_f)
        published = [r.pst for r in evaluate_controller(ctl, enumerate_structures(CHAIN2))]
        reference = [r.pst for r, _ in adjoint_records(ctl)]
        assert published == reference == [flagged] * 3

    def test_gap_at_the_tolerance_is_perfect_transfer(self):
        ctl = chain2_controller(1.3)
        coupling = enumerate_structures(CHAIN2)[2]

        def flag(gap):
            (record,), = GeometryRecord.assemble(
                [ctl], (coupling,), f_val=[0.5], k_coeff=[[0.1]], norm_k=[[1.0]],
                norm_rs=[[math.hypot(0.25, 0.1)]], perp=[[0.1]], gap=[gap]).rows()
            return record.pst

        assert flag(PST_TOL) is True
        assert flag(math.nextafter(PST_TOL, 1.0)) is False


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


def record_alone(ctl, structure, f_val, zero_fid, k, norm_k, norm_rs, perp, gap):
    """One record from Python floats, one operation at a time: the rules
    ``assemble`` applies to a whole controller, given the controller's
    zero-fidelity decision ``zero_fid``."""
    n, t_f = ctl.spec.num_spins, ctl.t_f
    f_n = scaling_factor(structure, ctl)
    zeta = -t_f * f_n * k
    cos_phi = sin_phi = cos_theta = residual = float("nan")
    if not zero_fid:
        cos_phi = f_val / (n * norm_rs)
        sin_phi = min(1.0, perp / norm_rs)
        scale = f_n * t_f * norm_k * norm_rs
        cos_theta = -zeta / scale if scale >= TINY else 0.0
        residual = abs(abs(zeta) - scale * abs(sin_phi))
    return GeometryRecord(ctl.index, structure.index, f_val, 1.0 - f_val, zeta, f_n, t_f,
                          norm_k, norm_rs, k, cos_phi, sin_phi, cos_theta, residual,
                          gap <= PST_TOL, zero_fid)


class TestControllerAssembly:
    RING4 = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)

    @pytest.mark.parametrize("f_val, gap, vanishing", [
        (0.4, 0.2, False), (0.4, PST_TOL, False), (1e-13, 0.9, False), (0.4, 0.2, True)],
        ids=["live", "perfect-transfer", "zero-fidelity", "vanishing-projection"])
    def test_fields_match_one_record_at_a_time(self, rng, f_val, gap, vanishing):
        # bit for bit, through both branches, with a zero bias (f_n = 0, so
        # cos theta = 0) on one structure; a vanishing |R_S| on one
        # structure flags the whole controller, as a vanishing F does
        biases = rng.uniform(0.5, 2.0, 4)
        biases[1] = 0.0
        ctl = Controller(biases=biases, t_f=1.3, fidelity=0.5, spec=self.RING4,
                         seed=0, index=3)
        structures = enumerate_structures(self.RING4)
        k = rng.normal(size=8)
        norm_k = rng.uniform(0.5, 2.0, 8)
        perp = np.abs(k) / norm_k
        norm_rs = np.hypot(f_val / 4, perp)
        if vanishing:
            norm_rs[5] = 0.0
        zero_fid = f_val < ZERO_FIDELITY_FLOOR or vanishing
        records, = GeometryRecord.assemble([ctl], structures, f_val=[f_val], k_coeff=[k],
                                           norm_k=[norm_k], norm_rs=[norm_rs], perp=[perp],
                                           gap=[gap]).rows()
        expected = [record_alone(ctl, s, f_val, zero_fid, *row, gap) for s, row in zip(
            structures, zip(k.tolist(), norm_k.tolist(), norm_rs.tolist(), perp.tolist()))]
        # repr shows every digit, and nan equals nan
        assert repr(records) == repr(expected)
        assert repr(records) == repr([r._replace() for r in records])
        with pytest.raises(AttributeError):
            records[0].zeta = 0.0

    def test_nonpositive_norm_rejected(self):
        ctl = Controller(biases=np.ones(4), t_f=1.3, fidelity=0.5, spec=self.RING4,
                         seed=0, index=0)
        with pytest.raises(ValueError, match="norm_K must be positive"):
            GeometryRecord.assemble([ctl], enumerate_structures(self.RING4), f_val=[0.5],
                                    k_coeff=[[0.1] * 8], norm_k=[[1.0] * 7 + [0.0]],
                                    norm_rs=[[0.2] * 8], perp=[[0.1] * 8], gap=[0.3])


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
