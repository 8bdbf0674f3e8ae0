"""Controller synthesis: objective, gradient, multistart search, serialization."""

import hashlib
import json

import numpy as np
import pytest
from scipy.linalg import expm

from spinsens import (Controller, NetworkSpec, SynthesisConfig,
                      build_hamiltonian, controllers_from_json, controllers_to_json,
                      fidelity_objective, local_optimize, synthesize_ensemble,
                      transfer_fidelity)
from spinsens.synthesis import FIDELITY_TOL, f17
from spinsens.verification import adjoint_records

CHAIN2 = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
RING4 = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)


class TestTransferFidelity:
    def test_matches_hilbert_route(self, rng):
        for _ in range(4):
            biases = rng.uniform(-3, 3, 4)
            t_f = rng.uniform(0.3, 3.0)
            ham = build_hamiltonian(RING4, biases)
            u = expm(-1j * ham * t_f)
            assert transfer_fidelity(RING4, biases, t_f) == pytest.approx(
                abs(u[1, 0]) ** 2, abs=1e-10)

    def test_zero_time_zero_overlap(self, rng):
        assert abs(transfer_fidelity(RING4, rng.uniform(-1, 1, 4), 0.0)) < 1e-12

    def test_bias_shift_invariance(self, rng):
        # a uniform bias shift only changes the global phase
        biases = rng.uniform(0, 5, 4)
        t_f = 2.1
        base = transfer_fidelity(RING4, biases, t_f)
        assert transfer_fidelity(RING4, biases + 3.7, t_f) == pytest.approx(
            base, abs=1e-10)


class TestFidelityObjective:
    def test_value_consistent(self, rng):
        biases = rng.uniform(0, 5, 4)
        f, _ = fidelity_objective(RING4, biases, 1.9)
        assert f == transfer_fidelity(RING4, biases, 1.9)

    def test_gradient_matches_finite_difference(self, rng):
        t_f = 1.7
        h = 1e-6
        for _ in range(3):
            biases = rng.uniform(0, 5, 4)
            _, grad = fidelity_objective(RING4, biases, t_f)
            assert grad.shape == (5,)
            for site in range(4):
                step = np.zeros(4)
                step[site] = h
                fd = (transfer_fidelity(RING4, biases + step, t_f)
                      - transfer_fidelity(RING4, biases - step, t_f)) / (2 * h)
                assert grad[site] == pytest.approx(fd, abs=1e-6)
            fd_t = (transfer_fidelity(RING4, biases, t_f + h)
                    - transfer_fidelity(RING4, biases, t_f - h)) / (2 * h)
            assert grad[4] == pytest.approx(fd_t, abs=1e-6)

    def test_gradient_sums_to_zero(self, rng):
        # consequence of the shift invariance above, which holds for the
        # biases only: the last entry is the read-out time derivative
        _, grad = fidelity_objective(RING4, rng.uniform(0, 5, 4), 2.3)
        assert abs(grad[:4].sum()) < 1e-10

    def test_gradient_vanishes_at_perfect_transfer(self):
        value, grad = fidelity_objective(CHAIN2, np.zeros(2), np.pi / 2.0)
        assert value == pytest.approx(1.0, abs=1e-12)
        assert np.abs(grad).max() <= 1e-9

    def test_gradient_is_unit_scale_bias_sensitivity(self, rng):
        # the gradient along bias n is minus the unit-scaled sensitivity
        # -t_f <R, K_n> of the bias direction's reference record
        biases = rng.uniform(0, 5, 4)
        t_f = 1.3
        f, grad = fidelity_objective(RING4, biases, t_f)
        controller = Controller(biases=biases, t_f=t_f, fidelity=min(1.0, f),
                                spec=RING4, seed=0, index=0)
        for site, (record, _) in enumerate(adjoint_records(controller)[:4]):
            assert grad[site] == pytest.approx(t_f * record.k_coeff, abs=1e-9)


class TestController:
    def test_error_property(self):
        c = Controller(biases=np.zeros(2), t_f=1.0, fidelity=0.75,
                       spec=CHAIN2, seed=0, index=0)
        assert c.error == 0.25

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Controller(biases=np.zeros(3), t_f=1.0, fidelity=0.5,
                       spec=CHAIN2, seed=0, index=0)

    def test_bad_time_and_fidelity_rejected(self):
        with pytest.raises(ValueError):
            Controller(biases=np.zeros(2), t_f=0.0, fidelity=0.5,
                       spec=CHAIN2, seed=0, index=0)
        with pytest.raises(ValueError):
            Controller(biases=np.zeros(2), t_f=1.0, fidelity=1.5,
                       spec=CHAIN2, seed=0, index=0)

    @pytest.mark.parametrize("field, value", [
        ("index", 0.9), ("index", True), ("seed", True), ("seed", 1.0)])
    def test_integer_field_of_wrong_type_rejected_by_name(self, field, value):
        fields = {"biases": np.zeros(2), "t_f": 1.0, "fidelity": 0.5,
                  "spec": CHAIN2, "seed": 0, "index": 0}
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Controller(**{**fields, field: value})

    @pytest.mark.parametrize("field, value", [
        ("t_f", True), ("t_f", "1.0"), ("fidelity", True), ("fidelity", None)])
    def test_real_field_of_wrong_type_rejected_by_name(self, field, value):
        fields = {"biases": np.zeros(2), "t_f": 1.0, "fidelity": 0.5,
                  "spec": CHAIN2, "seed": 0, "index": 0}
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            Controller(**{**fields, field: value})

    def test_biases_read_only(self):
        c = Controller(biases=np.zeros(2), t_f=1.0, fidelity=0.5,
                       spec=CHAIN2, seed=0, index=0)
        with pytest.raises(ValueError):
            c.biases[0] = 1.0


class TestSynthesisConfig:
    def test_defaults(self):
        config = SynthesisConfig()
        assert config.restarts == 100
        assert config.t_f_range == (1.0, 50.0)
        assert config.bias_range == (0.0, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthesisConfig(restarts=0)
        with pytest.raises(ValueError):
            SynthesisConfig(t_f_range=(5.0, 1.0))
        with pytest.raises(ValueError):
            SynthesisConfig(t_f_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            SynthesisConfig(bias_range=(2.0, 2.0))

    @pytest.mark.parametrize("field, value, message", [
        ("restarts", True, "restarts must be an integer"),
        ("restarts", 2.0, "restarts must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", False, "seed must be an integer"),
        ("seed", -1, "seed must be >= 0")])
    def test_integer_field_checked_by_name(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SynthesisConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("t_f_range", (1.0, 5 + 0j), "t_f_range end must be a real number"),
        ("t_f_range", (True, 5.0), "t_f_range end must be a real number"),
        ("t_f_range", (1.0, "5"), "t_f_range end must be a real number"),
        ("bias_range", (False, 1.0), "bias_range end must be a real number"),
        ("bias_range", (0.0, None), "bias_range end must be a real number")])
    def test_real_field_of_wrong_type_rejected_by_name(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SynthesisConfig(**{field: value})

    def test_integral_values_stored_as_floats(self):
        config = SynthesisConfig(t_f_range=(1, np.float32(5)), bias_range=(np.int64(0), 2))
        assert (config.t_f_range, config.bias_range) == ((1.0, 5.0), (0.0, 2.0))
        assert all(type(v) is float for v in (*config.t_f_range, *config.bias_range))

    @pytest.mark.parametrize("field, value", [
        ("t_f_range", (1.0, np.inf)), ("t_f_range", (1.0, np.nan)),
        ("bias_range", (0.0, np.inf)), ("bias_range", (-np.inf, 1.0)),
        ("bias_range", (-1e308, 1e308))])
    def test_non_finite_values_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            SynthesisConfig(**{field: value})


class TestLocalOptimize:
    def test_perfect_transfer_point_is_fixed(self):
        # strict-improvement accepts leave an exact optimum untouched
        config = SynthesisConfig(t_f_range=(0.5, 3.0))
        start_t = np.pi / 2.0
        ctl = local_optimize(CHAIN2, np.zeros(2), start_t, config)
        assert np.array_equal(ctl.biases, np.zeros(2))
        assert ctl.t_f == start_t
        assert ctl.fidelity >= 1.0 - 1e-12
        assert ctl.status == "converged"

    def test_improves_poor_start(self):
        config = SynthesisConfig(t_f_range=(0.5, 3.0))
        start = np.array([4.0, 1.0])
        f0 = transfer_fidelity(CHAIN2, start, 2.5)
        ctl = local_optimize(CHAIN2, start, 2.5, config)
        assert ctl.fidelity > f0

    def test_out_of_bounds_start_rejected(self):
        config = SynthesisConfig()
        with pytest.raises(ValueError):
            local_optimize(CHAIN2, np.array([-1.0, 0.0]), 2.0, config)
        with pytest.raises(ValueError):
            local_optimize(CHAIN2, np.zeros(2), 0.5, config)

    def test_one_minimize_call_per_restart(self, rng, monkeypatch):
        import scipy.optimize
        calls = []
        real = scipy.optimize.minimize

        def counting(*args, **kwargs):
            calls.append(kwargs["method"])
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", counting)
        config = SynthesisConfig(t_f_range=(1.0, 4.0), bias_range=(0.0, 6.0))
        local_optimize(RING4, rng.uniform(0, 6, 4), 2.0, config)
        assert calls == ["L-BFGS-B"]

    def test_ascent_ends_are_not_evaluated_again(self, monkeypatch):
        # F at the start and (F, grad F) at the returned point come from the
        # ascent's own evaluations: one objective call per optimizer
        # evaluation, and no fidelity evaluated beside them
        import scipy.optimize

        import spinsens.synthesis as synthesis
        objective_calls = []
        real_objective = synthesis.fidelity_objective

        def counting(*args):
            objective_calls.append(args)
            return real_objective(*args)

        def forbidden(*args):
            raise AssertionError("transfer_fidelity called by the synthesis")

        nfev = []
        real_minimize = scipy.optimize.minimize

        def recording(*args, **kwargs):
            res = real_minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        per_restart = []
        real_local = synthesis.local_optimize

        def restart(*args, **kwargs):
            before = len(objective_calls)
            ctl = real_local(*args, **kwargs)
            per_restart.append(len(objective_calls) - before)
            return ctl

        monkeypatch.setattr(synthesis, "fidelity_objective", counting)
        monkeypatch.setattr(synthesis, "transfer_fidelity", forbidden)
        monkeypatch.setattr(scipy.optimize, "minimize", recording)
        monkeypatch.setattr(synthesis, "local_optimize", restart)
        synthesize_ensemble(RING4, SynthesisConfig(restarts=12, seed=2))
        assert len(per_restart) == 12
        assert per_restart == nfev

    def test_read_out_time_reaches_interior_maximum(self, monkeypatch):
        # two-spin chain at ~zero bias: F = sin^2 t has its only maximum in
        # [1.5, 1.6] at pi/2, and every start must reach it however far
        # from pi/2 it is drawn
        import spinsens.synthesis as synthesis
        results = []
        real = synthesis.local_optimize

        def recording(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(synthesis, "local_optimize", recording)
        synthesize_ensemble(CHAIN2, SynthesisConfig(
            restarts=8, bias_range=(0.0, 1e-9), t_f_range=(1.5, 1.6), seed=1))
        assert len(results) == 8
        for ctl in results:
            assert abs(ctl.t_f - np.pi / 2.0) <= 1e-6
            assert ctl.error <= 1e-10

    def test_result_respects_bounds(self, rng):
        config = SynthesisConfig(t_f_range=(1.0, 4.0), bias_range=(0.0, 6.0))
        ctl = local_optimize(RING4, rng.uniform(0, 6, 4), 2.0, config, seed=3, index=9)
        assert np.all(ctl.biases >= 0.0) and np.all(ctl.biases <= 6.0)
        assert 1.0 <= ctl.t_f <= 4.0
        assert ctl.seed == 3 and ctl.index == 9

    def test_former_saddle_restart_reaches_perfect_transfer(self):
        # restart 14 of the 40-restart 4-ring ensemble at seed 22 once
        # stopped "converged" at a saddle (uniform biases, F = 0.25); the
        # joint ascent over biases and t_f takes it to perfect transfer
        config = SynthesisConfig(restarts=40, seed=22)
        rng = np.random.default_rng(np.random.SeedSequence(22).spawn(40)[14])
        d0 = rng.uniform(*config.bias_range, RING4.num_spins)
        t0 = rng.uniform(*config.t_f_range)
        assert np.allclose(d0, [4.81, 5.14, 4.28, 3.97], atol=5e-3)
        assert abs(t0 - 15.49) < 5e-3
        ctl = local_optimize(RING4, d0, t0, config, seed=14, index=14)
        assert ctl.error <= FIDELITY_TOL
        assert ctl.status == "converged"


class TestSynthesizeEnsemble:
    CONFIG = SynthesisConfig(restarts=8, t_f_range=(1.0, 10.0), seed=11)

    def test_seeded_repeat_is_bitwise(self):
        a = synthesize_ensemble(RING4, self.CONFIG)
        b = synthesize_ensemble(RING4, self.CONFIG)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.biases, y.biases)
            assert x.t_f == y.t_f and x.fidelity == y.fidelity and x.seed == y.seed

    def test_ring4_ensemble_bytes_unchanged(self):
        # SHA-256 of this ensemble's controllers_to_json text as commit
        # "Synth: one bounded L-BFGS-B ascent over biases and t_f" produced
        # it; later rewrites of the objective must keep every bit
        text = controllers_to_json(
            synthesize_ensemble(RING4, SynthesisConfig(restarts=40, seed=0)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            "2e15120998c6d849d4c80779d71b7410b6f6a4bb935239a3aee7fb123f823a52"

    def test_single_restart(self):
        out = synthesize_ensemble(RING4, SynthesisConfig(restarts=1, seed=5))
        assert len(out) == 1 and out[0].index == 0

    def test_sorted_and_reindexed(self, ring4_ensemble):
        fids = [c.fidelity for c in ring4_ensemble]
        assert fids == sorted(fids, reverse=True)
        assert [c.index for c in ring4_ensemble] == list(range(len(ring4_ensemble)))

    def test_no_duplicates_kept(self, ring4_ensemble):
        for i, a in enumerate(ring4_ensemble):
            for b in ring4_ensemble[i + 1:]:
                close = (np.linalg.norm(a.biases - b.biases) < 1e-6
                         and abs(a.t_f - b.t_f) < 1e-6)
                assert not close

    def test_stored_fidelity_matches_reevaluation(self, ring4_ensemble):
        for c in ring4_ensemble[:20]:
            again = transfer_fidelity(c.spec, c.biases, c.t_f)
            assert abs(c.fidelity - again) < 1e-10

    def test_error_spread_spans_orders(self, ring4_ensemble):
        errors = [c.error for c in ring4_ensemble if c.error > 0]
        assert max(errors) / min(errors) >= 100.0

    def test_best_controller_is_good(self, ring4_ensemble):
        assert ring4_ensemble[0].error < 1e-2

    def test_perfect_transfer_restarts_are_converged(self, ring4_ensemble):
        # F <= 1 everywhere, so error at rounding level is a global maximum
        # even where the gradient cannot fall below the tolerance
        perfect = [c for c in ring4_ensemble if c.error < 1e-10]
        assert perfect
        assert [c.index for c in perfect if c.status != "converged"] == []


class TestSerialization:
    def _ensemble(self):
        return synthesize_ensemble(RING4, SynthesisConfig(restarts=3, seed=2))

    def test_round_trip_bitwise(self):
        ensemble = self._ensemble()
        text = controllers_to_json(ensemble)
        loaded = controllers_from_json(text, RING4)
        assert len(loaded) == len(ensemble)
        for x, y in zip(ensemble, loaded):
            assert np.array_equal(x.biases, y.biases)
            assert x.t_f == y.t_f and x.fidelity == y.fidelity
            assert x.seed == y.seed and x.index == y.index
            assert y.status == "loaded"

    def test_output_is_valid_json_with_17_digit_floats(self):
        text = controllers_to_json(self._ensemble())
        rows = json.loads(text)
        assert isinstance(rows, list) and rows
        # a third is not representable short; the rendering must carry
        # enough digits to survive the round trip
        assert "0.3333333333333333" in f17(1.0 / 3.0)

    def test_rejects_non_array(self):
        with pytest.raises(ValueError):
            controllers_from_json('{"index": 0}', RING4)

    def test_rejects_missing_key(self):
        with pytest.raises(ValueError):
            controllers_from_json('[{"index": 0, "tf": 1.0}]', RING4)

    @pytest.mark.parametrize("key, value", [
        ("index", 0.9), ("index", True), ("index", "0"), ("index", None),
        ("seed", 1.5), ("seed", True), ("seed", "1"),
        ("tf", "2.0"), ("tf", True), ("tf", None),
        ("fidelity", "0.5"), ("fidelity", False),
        ("biases", "0 0 0 0"), ("biases", 1.0), ("biases", [0.0, "1", 0.0, 0.0]),
        ("biases", [0.0, True, 0.0, 0.0]), ("biases", [0.0, None, 0.0, 0.0])])
    def test_field_of_wrong_json_type_rejected_by_name(self, key, value):
        # integral tf and biases are JSON numbers too
        row = {"index": 0, "seed": 0, "tf": 2, "biases": [0] * 4,
               "fidelity": transfer_fidelity(RING4, np.zeros(4), 2.0)}
        loaded, = controllers_from_json(json.dumps([row]), RING4)
        assert loaded.t_f == 2.0 and np.array_equal(loaded.biases, np.zeros(4))
        row[key] = value
        with pytest.raises(ValueError, match=f"'{key}' has the wrong type"):
            controllers_from_json(json.dumps([row]), RING4)

    def test_f17_round_trips(self):
        for x in (np.pi, 1.0 / 3.0, 1e-17, -2.7182818284590451, 0.1):
            assert float(f17(x)) == x
        assert f17(1.0) == "1"
