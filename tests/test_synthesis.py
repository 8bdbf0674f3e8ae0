"""Controller synthesis: objective, gradient, multistart search, serialization."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from spinsens import (Controller, InvariantViolation, NetworkSpec, SynthesisConfig,
                      build_hamiltonian, controllers_from_json, controllers_to_json,
                      fidelity_objective, local_optimize, synthesize_ensemble,
                      transfer_fidelity)
from spinsens.synthesis import (_MAXFUN, FIDELITY_TOL, MAXITER, TOLERANCE, _ascend, _distinct,
                                f17)
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


def optimize_from(spec, biases, t_f, config, seed=0):
    # one restart from a given start: its ascent, then its controller
    ascent, = _ascend(spec, np.append(biases, t_f)[None], config)
    return local_optimize(spec, ascent, config, seed=seed)


def minimize_restart(spec, start, config, maxiter=MAXITER, maxfun=_MAXFUN):
    """The per-restart ascent that `_ascend` replaced, kept as its
    reference: scipy's public ``minimize`` with the same L-BFGS-B settings
    (an iteration cap of ``maxiter`` and an evaluation cap of ``maxfun``),
    then the same status. It keeps ``minimize``'s result only when
    ``-res.fun`` strictly improves the start, an acceptance that
    ``local_optimize`` no longer makes: as an independent reference it
    shows that returning the stopped iterate loses no restart.
    Returns the accepted point, its fidelity and status, and the number of
    objective evaluations."""
    from scipy.optimize import minimize

    evaluated = {}

    def negated(x):
        f, g = fidelity_objective(spec, x[:-1], x[-1])
        evaluated[x.tobytes()] = (f, g)
        return -f, -g

    bounds = [config.bias_range] * spec.num_spins + [config.t_f_range]
    res = minimize(negated, start, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": maxiter, "maxfun": maxfun, "ftol": 1e-15,
                            "gtol": TOLERANCE / 10.0})
    start_f = next(iter(evaluated.values()))[0]
    x = np.asarray(res.x) if -res.fun > start_f else start
    f, grad = evaluated[x.tobytes()]
    lo, hi = np.array(bounds).T
    g = grad.copy()
    g[(x <= lo) & (g < 0)] = 0.0
    g[(x >= hi) & (g > 0)] = 0.0
    converged = np.abs(g).max() <= TOLERANCE or 1.0 - f <= FIDELITY_TOL
    return (x, min(1.0, f), "converged" if converged else "maxiter"), res.nfev


ORACLE_CASES = [
    *((RING4, SynthesisConfig(restarts=40, seed=seed)) for seed in range(4)),
    (NetworkSpec(num_spins=6, topology="ring", input_spin=1, output_spin=4),
     SynthesisConfig(restarts=24, seed=0)),
    (NetworkSpec(num_spins=5, topology="chain", input_spin=1, output_spin=5),
     SynthesisConfig(restarts=24, seed=0)),
    (NetworkSpec(num_spins=8, topology="chain", input_spin=1, output_spin=8),
     SynthesisConfig(restarts=16, seed=0)),
    (CHAIN2, SynthesisConfig(restarts=8, bias_range=(0.0, 1e-9), t_f_range=(1.5, 1.6),
                             seed=1)),
]


def ring4_starts(config):
    # the starts synthesize_ensemble draws for the 4-ring under config
    return np.array([
        np.append(rng.uniform(*config.bias_range, RING4.num_spins),
                  rng.uniform(*config.t_f_range))
        for rng in map(np.random.default_rng,
                       np.random.SeedSequence(config.seed).spawn(config.restarts))])


class TestLocalOptimize:
    def test_perfect_transfer_point_is_fixed(self):
        # L-BFGS-B accepts no iterate at an exact optimum, so the stopped
        # iterate is the start, untouched
        config = SynthesisConfig(t_f_range=(0.5, 3.0))
        start_t = np.pi / 2.0
        ctl = optimize_from(CHAIN2, np.zeros(2), start_t, config)
        assert np.array_equal(ctl.biases, np.zeros(2))
        assert ctl.t_f == start_t
        assert ctl.fidelity >= 1.0 - 1e-12
        assert ctl.status == "converged"

    def test_improves_poor_start(self):
        config = SynthesisConfig(t_f_range=(0.5, 3.0))
        start = np.array([4.0, 1.0])
        f0 = transfer_fidelity(CHAIN2, start, 2.5)
        ctl = optimize_from(CHAIN2, start, 2.5, config)
        assert ctl.fidelity > f0

    @pytest.mark.parametrize("spec, config", ORACLE_CASES, ids=[
        f"{spec.topology}{spec.num_spins}-{spec.input_spin}to{spec.output_spin}"
        f"-seed{config.seed}" for spec, config in ORACLE_CASES])
    def test_lockstep_matches_per_restart_minimize(self, spec, config, monkeypatch):
        # each lockstep ascent ends where scipy's minimize ends it, with
        # the same fidelity, status and number of objective evaluations;
        # the restarts' evaluations are the only ones made
        import spinsens.synthesis as synthesis
        rows = []
        real_objective = synthesis.fidelity_objective

        def counting(spec_, biases, t_f):
            rows.append(np.size(t_f))
            return real_objective(spec_, biases, t_f)

        def forbidden(*args):
            raise AssertionError("transfer_fidelity called by the synthesis")

        restarts = []
        real_local = synthesis.local_optimize

        def recording(spec_, ascent, *args, **kwargs):
            restarts.append((real_local(spec_, ascent, *args, **kwargs), ascent.nfev))
            return restarts[-1][0]

        monkeypatch.setattr(synthesis, "fidelity_objective", counting)
        monkeypatch.setattr(synthesis, "transfer_fidelity", forbidden)
        monkeypatch.setattr(synthesis, "local_optimize", recording)
        synthesize_ensemble(spec, config)
        assert len(restarts) == config.restarts

        children = np.random.SeedSequence(config.seed).spawn(config.restarts)
        for i, (child, (ctl, nfev)) in enumerate(zip(children, restarts)):
            rng = np.random.default_rng(child)
            start = np.append(rng.uniform(*config.bias_range, spec.num_spins),
                              rng.uniform(*config.t_f_range))
            (x, fidelity, status), reference_nfev = minimize_restart(spec, start, config)
            assert ctl.biases.tobytes() == x[:-1].tobytes(), i
            assert (ctl.t_f, ctl.fidelity, ctl.status) == (x[-1], fidelity, status), i
            assert (ctl.seed, ctl.index) == (i, i)
            assert nfev == reference_nfev, i
            # the stopped iterate never falls below its start, including
            # the restarts whose last line search ended abnormally
            assert ctl.fidelity >= min(1.0, fidelity_objective(spec, start[:-1], start[-1])[0]), i
        # the ensemble is sorted and deduplicated from these restarts alone,
        # so its bytes and statuses follow from theirs
        assert sum(rows) == sum(nfev for _, nfev in restarts)

    def test_iteration_cap_matches_minimize(self, monkeypatch):
        # every restart stopped by the iteration cap stops where minimize's
        # maxiter stops it, with the same evaluations, labelled "maxiter"
        import spinsens.synthesis as synthesis
        monkeypatch.setattr(synthesis, "MAXITER", 3)
        config = SynthesisConfig(restarts=12, seed=0)
        starts = ring4_starts(config)
        for i, (start, ascent) in enumerate(zip(starts, _ascend(RING4, starts, config))):
            (x, fidelity, status), nfev = minimize_restart(RING4, start, config, maxiter=3)
            ctl = local_optimize(RING4, ascent, config, seed=i)
            assert ctl.biases.tobytes() == x[:-1].tobytes(), i
            assert (ctl.t_f, ctl.fidelity, ctl.status) == (x[-1], fidelity, status), i
            assert (status, ascent.nfev) == ("maxiter", nfev), i

    @pytest.mark.parametrize("maxfun", [3, 8, 15])
    def test_evaluation_cap_matches_minimize(self, maxfun, monkeypatch):
        # every restart stopped by the evaluation cap stops where minimize's
        # maxfun stops it, with the same point, fidelity, status and
        # number of evaluations
        import spinsens.synthesis as synthesis
        monkeypatch.setattr(synthesis, "_MAXFUN", maxfun)
        config = SynthesisConfig(restarts=12, seed=0)
        starts = ring4_starts(config)
        for i, (start, ascent) in enumerate(zip(starts, _ascend(RING4, starts, config))):
            (x, fidelity, status), nfev = minimize_restart(RING4, start, config, maxfun=maxfun)
            ctl = local_optimize(RING4, ascent, config, seed=i)
            assert ctl.biases.tobytes() == x[:-1].tobytes(), i
            assert (ctl.t_f, ctl.fidelity, ctl.status) == (x[-1], fidelity, status), i
            assert (ascent.task[1], ascent.nfev) == (synthesis._STOP_MAXFUN, nfev), i

    def test_finished_ascent_keeps_no_evaluation_history(self):
        # a finished ascent holds two evaluations (the iterate and the
        # point evaluated last) and no workspace, and it stopped at its
        # iterate, whose stored value local_optimize reads
        config = SynthesisConfig(restarts=12, seed=3)
        rng = np.random.default_rng(3)
        starts = np.column_stack([rng.uniform(*config.bias_range, (12, 4)),
                                  rng.uniform(*config.t_f_range, 12)])
        for ascent in _ascend(RING4, starts, config):
            assert ascent.nfev > 3
            assert not [v for v in vars(ascent).values() if isinstance(v, (dict, list))]
            assert ascent.wa is None and ascent.iwa is None
            assert ascent.x.tobytes() == ascent.iterate.tobytes()

    def test_iterate_not_evaluated_last_is_an_invariant_violation(self, monkeypatch):
        # an iterate one ulp off the point evaluated last has no stored value
        import spinsens.synthesis as synthesis
        setulb = synthesis._lbfgsb_step()

        def nudging(*args):
            setulb(*args)
            x, task = args[1], args[11]
            if task[0] == synthesis._NEW_X:
                x[0] = np.nextafter(x[0], np.inf)

        monkeypatch.setattr(synthesis, "_lbfgsb_step", lambda: nudging)
        config = SynthesisConfig(restarts=1, seed=0)
        with pytest.raises(InvariantViolation, match="iterate it did not evaluate last"):
            _ascend(RING4, ring4_starts(config), config)

    def test_end_away_from_the_iterate_is_an_invariant_violation(self):
        # one ulp off the last iterate, the ascent holds no value for its end
        config = SynthesisConfig(restarts=1, seed=0)
        ascent, = _ascend(RING4, ring4_starts(config), config)
        local_optimize(RING4, ascent, config)
        ascent.x[0] = np.nextafter(ascent.x[0], np.inf)
        with pytest.raises(InvariantViolation, match="stopped away from its last iterate"):
            local_optimize(RING4, ascent, config)

    def test_returns_the_iterate_whatever_the_last_trial(self):
        # restart 2 of the 40-restart 4-ring at seed 0 ends on an abnormal
        # line search: its last trial point is not its iterate, and the
        # value L-BFGS-B holds (ascent.f) is that trial's. With that value
        # set to F = 0, below the start, the controller is still the
        # iterate, with the fidelity stored for it
        config = SynthesisConfig(restarts=40, seed=0)
        start = ring4_starts(config)[2]
        ascent, = _ascend(RING4, start[None], config)
        assert -ascent.f != ascent.iterate_value[0]
        ascent.f = -0.0
        ctl = local_optimize(RING4, ascent, config, seed=2)
        assert ctl.biases.tobytes() == ascent.iterate[:-1].tobytes()
        assert ctl.t_f == ascent.iterate[-1]
        assert ctl.fidelity == ascent.iterate_value[0]
        assert ctl.fidelity > transfer_fidelity(RING4, start[:-1], start[-1])

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
        ctl = optimize_from(RING4, rng.uniform(0, 6, 4), 2.0, config, seed=3)
        assert np.all(ctl.biases >= 0.0) and np.all(ctl.biases <= 6.0)
        assert 1.0 <= ctl.t_f <= 4.0
        assert ctl.seed == ctl.index == 3

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
        ctl = optimize_from(RING4, d0, t0, config, seed=14)
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

    def test_dedup_ensemble_bytes_unchanged(self):
        # narrow boxes send 36 of the 40 restarts to points another restart
        # also reached, so deduplication keeps 4 (seeds 6, 1, 0 and 2); the
        # SHA-256 was taken before the deduplication became a greedy walk
        ensemble = synthesize_ensemble(RING4, SynthesisConfig(
            restarts=40, seed=0, t_f_range=(1.0, 2.0), bias_range=(0.0, 1.0)))
        assert [c.seed for c in ensemble] == [6, 1, 0, 2]
        text = controllers_to_json(ensemble)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == \
            "22a4d746e952b8483dad7d265747a1acc7002e87d45492e049c9aea0b049d6ce"

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


def close(a, b):
    # the deduplication rule: within 1e-6 in t_f and in the bias norm
    return abs(a.t_f - b.t_f) < 1e-6 and np.linalg.norm(a.biases - b.biases) < 1e-6


class TestDistinct:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
           st.lists(st.sampled_from(("exact", "near", "far bias", "far time")),
                    min_size=1, max_size=40))
    def test_matches_greedy_loop(self, seed, points, kinds):
        # copies of a few points: exact ones, near ones that lie within
        # 1e-6 of the point but not always of each other, so that greedy
        # order matters, and ones just out of reach in the biases or in t_f
        rng = np.random.default_rng(seed)
        origins = [(rng.uniform(0.0, 10.0, 4), rng.uniform(1.0, 50.0))
                   for _ in range(points)]
        controllers = []
        for i, kind in enumerate(kinds):
            biases, t_f = origins[rng.integers(points)]
            if kind == "near":
                biases = biases + rng.uniform(-4e-7, 4e-7, 4)
                t_f = t_f + rng.uniform(-6e-7, 6e-7)
            elif kind == "far bias":
                step = rng.normal(size=4)
                biases = biases + rng.uniform(2e-6, 1e-3) * step / np.linalg.norm(step)
            elif kind == "far time":
                t_f = t_f + rng.choice((-1.0, 1.0)) * rng.uniform(2e-6, 1e-3)
            controllers.append(Controller(biases=biases, t_f=t_f, fidelity=0.5,
                                          spec=RING4, seed=i, index=i))
        kept = _distinct(controllers)
        positions = [c.index for c in kept]
        assert positions == sorted(set(positions))
        assert all(c is controllers[i] for c, i in zip(kept, positions))
        for n, c in enumerate(kept):
            assert not any(close(c, k) for k in kept[:n])
        for i in sorted(set(range(len(controllers))) - set(positions)):
            assert any(close(controllers[i], k) for k in kept if k.index < i), i

    def test_empty(self):
        assert _distinct([]) == []


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
        ("tf", "2.0"), ("tf", True), ("tf", None), ("tf", -10 ** 400),
        ("fidelity", "0.5"), ("fidelity", False),
        ("biases", "0 0 0 0"), ("biases", 1.0), ("biases", [0.0, "1", 0.0, 0.0]),
        ("biases", [0.0, True, 0.0, 0.0]), ("biases", [0.0, None, 0.0, 0.0]),
        ("biases", [0.0, 10 ** 400, 0.0, 0.0])])
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
