"""Hand-rolled statistics and the ensemble record/summary pipeline."""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import spinsens
from spinsens import (Controller, NetworkSpec, SynthesisConfig, analyze,
                      enumerate_structures, kendall, pearson, synthesize_ensemble,
                      transfer_fidelity)
from spinsens import analytics
from spinsens.analytics import TF_CONDITION_LIMIT, evaluate_controller
from spinsens.geometry import ZERO_FIDELITY_FLOOR
from spinsens.verification import _structure_images, adjoint_records


def chain2_controller(t_f, index=0):
    spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
    f = transfer_fidelity(spec, np.zeros(2), t_f)
    return Controller(biases=np.zeros(2), t_f=t_f, fidelity=min(1.0, f),
                      spec=spec, seed=index, index=index)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        assert pearson([1.0, 2.0, 3.0], [6.0, 4.0, 2.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_known_fraction(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_zero_variance_is_nan(self):
        assert math.isnan(pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_affine_invariance(self, rng):
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        base = pearson(x, y)
        assert pearson(3.0 * x + 7.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(-2.0 * x, y) == pytest.approx(-base, abs=1e-12)

    def test_matches_reference_implementation(self, rng):
        x = rng.normal(size=60)
        y = 0.4 * x + rng.normal(size=60)
        assert pearson(x, y) == pytest.approx(stats.pearsonr(x, y).statistic,
                                              abs=1e-12)

    def test_bounded(self, rng):
        for _ in range(5):
            x = rng.normal(size=10)
            y = rng.normal(size=10)
            assert -1.0 <= pearson(x, y) <= 1.0

    def test_bad_input_rejected(self):
        # one sample is too few for a correlation, but not bad input
        assert math.isnan(pearson([1.0], [1.0]))
        with pytest.raises(ValueError):
            pearson([], [])
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def kendall_by_rows(x, y) -> float:
    """Tau-b from its definition, one row of pairs (i, j > i) at a time."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    concordant_minus_discordant = tied_x = tied_y = 0
    for i in range(n - 1):
        sx = np.sign(x[i + 1:] - x[i])
        sy = np.sign(y[i + 1:] - y[i])
        concordant_minus_discordant += int((sx * sy).sum())
        tied_x += int((sx == 0).sum())
        tied_y += int((sy == 0).sum())
    n0 = n * (n - 1) // 2
    denom = math.sqrt(float(n0 - tied_x) * float(n0 - tied_y))
    if denom == 0.0:
        return float("nan")
    return float(np.clip(concordant_minus_discordant / denom, -1.0, 1.0))


def samples(values):
    return st.lists(values, min_size=2, max_size=40)


# few distinct values make heavy ties, down to every pair tied
TIED = st.integers(0, 3).map(float)
SPREAD = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestKendall:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.sampled_from([TIED, SPREAD]), st.sampled_from([TIED, SPREAD]),
           st.integers(1, 100))
    def test_equals_row_loop_definition(self, data, x_values, y_values, block_cells):
        # block_cells below n^2 splits the sign matrices into many blocks,
        # down to one row each
        x = data.draw(samples(x_values))
        y = data.draw(st.lists(y_values, min_size=len(x), max_size=len(x)))
        expected = kendall_by_rows(x, y)
        with mock.patch.object(analytics, "KENDALL_BLOCK_CELLS", block_cells):
            got = kendall(x, y)
        assert got == expected or (math.isnan(got) and math.isnan(expected))

    def test_all_pairs_tied_in_both_is_nan(self):
        assert math.isnan(kendall_by_rows([2.0] * 5, [1.0] * 5))
        assert math.isnan(kendall([2.0] * 5, [1.0] * 5))

    def test_sample_spanning_several_blocks(self):
        rng = np.random.default_rng(7)
        n = 1200
        assert analytics.KENDALL_BLOCK_CELLS // n < n
        x = rng.integers(0, 40, size=n).astype(float)
        y = x + rng.integers(0, 60, size=n)
        assert kendall(x, y) == kendall_by_rows(x, y)

    def test_equal_infinities_tied(self):
        inf = math.inf
        assert kendall([inf, 1.0, inf, 2.0], [3.0, 1.0, 4.0, 2.0]) == \
            kendall([9.0, 1.0, 9.0, 2.0], [3.0, 1.0, 4.0, 2.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            kendall([1.0, math.nan, 2.0], [1.0, 2.0, 3.0])

    def test_perfect_orders(self):
        assert kendall([1, 2, 3], [10, 20, 30]) == 1.0
        assert kendall([1, 2, 3], [30, 20, 10]) == -1.0

    def test_one_discordant_pair(self):
        assert kendall([1, 2, 3], [1, 3, 2]) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_tie_correction(self):
        # C - D = 4 with two tied x-pairs: tau-b = 4 / sqrt(4 * 6)
        assert kendall([1, 1, 2, 2], [1, 2, 3, 4]) == pytest.approx(
            4.0 / math.sqrt(24.0), abs=1e-15)

    def test_all_tied_is_nan(self):
        assert math.isnan(kendall([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_monotone_invariance(self, rng):
        x = rng.normal(size=25)
        y = rng.uniform(0.1, 5.0, size=25)
        assert kendall(x, y) == kendall(x, y ** 2)

    def test_matches_reference_implementation(self, rng):
        x = rng.integers(0, 8, size=50).astype(float)
        y = rng.integers(0, 8, size=50).astype(float)
        assert kendall(x, y) == pytest.approx(
            stats.kendalltau(x, y).statistic, abs=1e-12)

    def test_bad_input_rejected(self):
        # one sample is too few for a correlation, but not bad input
        assert math.isnan(kendall([1.0], [1.0]))
        with pytest.raises(ValueError):
            kendall([], [])
        with pytest.raises(ValueError):
            kendall([1.0, 2.0], [1.0, 2.0, 3.0])


class TestColumnStacks:
    # a column stack under a mask gives, column for column, the statistic of
    # that column's masked samples alone
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30), st.integers(1, 6),
           st.booleans(), st.integers(1, 400))
    def test_columns_match_one_call_each(self, seed, rows, columns, shared_x, block_cells):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 5, size=(rows, 1 if shared_x else columns)).astype(float)
        y = rng.integers(0, 5, size=(rows, columns)).astype(float)
        where = rng.random((rows, columns)) < 0.8
        # a masked-out sample may hold anything, nan included
        y[~where] = np.nan
        with mock.patch.object(analytics, "KENDALL_BLOCK_CELLS", block_cells):
            taus = kendall(x, y, where=where)
        rs = pearson(x, y, where=where)
        for j in range(columns):
            xj = x[:, 0 if shared_x else j][where[:, j]]
            yj = y[:, j][where[:, j]]
            tau = kendall(xj, yj) if xj.size >= 2 else math.nan
            r = pearson(xj, yj) if xj.size >= 2 else math.nan
            assert taus[j] == tau or (math.isnan(taus[j]) and math.isnan(tau))
            assert rs[j] == pytest.approx(r, abs=1e-12, nan_ok=True)

    def test_vectors_give_a_float(self):
        assert isinstance(kendall([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]), float)
        assert isinstance(pearson([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]), float)
        # a vector mask on vectors keeps the float and drops its samples
        for stat in (pearson, kendall):
            masked = stat([1, 2, 3, 4], [1, 3, 2, 5], where=[True, True, False, True])
            assert isinstance(masked, float)
            assert masked == stat([1, 2, 4], [1, 3, 5])

    def test_used_nan_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            kendall([[1.0], [2.0], [3.0]], [[1.0], [math.nan], [2.0]],
                    where=[[True], [True], [False]])


def summaries_by_structure(records, structure_indices):
    """Each structure's statistics from its own records, one structure at
    a time."""
    out = []
    for index in structure_indices:
        rows = [r for r in records if r.structure_index == index]
        loglog = [(math.log10(r.e), math.log10(r.abs_zeta)) for r in rows
                  if r.e > 0.0 and r.abs_zeta > 0.0 and not r.zero_fidelity]
        ranked = [(r.e, r.sin_phi) for r in rows if math.isfinite(r.sin_phi)]
        norms = np.array([r.norm_K for r in rows])
        out.append((index,
                    pearson(*zip(*loglog)) if len(loglog) >= 2 else math.nan,
                    kendall(*zip(*ranked)) if len(ranked) >= 2 else math.nan,
                    len(loglog), float(norms.mean()), float(norms.var())))
    return out


class TestSummaries:
    def test_one_pass_matches_one_structure_at_a_time(self, ring4_analysis):
        # tau, the counts and the |K| moments bit for bit; the correlation of
        # logs to rounding, since its sums run in another order
        records, summaries = ring4_analysis
        expected = summaries_by_structure(records, range(1, 9))
        for s, (index, r, tau, count, mean, var) in zip(summaries, expected):
            assert (s.structure_index, s.count, s.mean_norm_K, s.var_norm_K) == \
                (index, count, mean, var)
            assert s.kendall_tau == tau
            assert s.pearson_r_loglog == pytest.approx(r, abs=1e-12)


class TestAnalyzePipeline:
    def test_record_count_and_indexing(self, ring4_ensemble, ring4_analysis):
        records, summaries = ring4_analysis
        assert len(records) == 8 * len(ring4_ensemble)
        assert sorted({r.structure_index for r in records}) == list(range(1, 9))
        assert [s.structure_index for s in summaries] == list(range(1, 9))

    def test_statistics_finite_for_all_structures(self, ring4_analysis):
        _, summaries = ring4_analysis
        for s in summaries:
            assert math.isfinite(s.pearson_r_loglog)
            assert math.isfinite(s.kendall_tau)
            assert s.count >= 2

    def test_identity_residual_on_every_record(self, ring4_analysis):
        records, _ = ring4_analysis
        for r in records:
            if math.isnan(r.identity_residual):
                assert r.zero_fidelity
                continue
            assert r.identity_residual <= 1e-8 * max(1.0, r.abs_zeta)

    def test_published_identity_holds_by_construction(self, ring4_analysis):
        # |zeta| = f_n t_f |K| |R_S| sin phi holds on the published records
        # by construction, so verify gates it on the reference records only:
        # the worst residual stays within 1e-6 of theorem 1's budget
        # 1e-8 * max(1, |zeta|), on the session 4-ring ensemble and on a
        # synthesized 8-chain 1 -> 8
        chain8 = NetworkSpec(num_spins=8, topology="chain", input_spin=1, output_spin=8)
        chain8_records, _ = analyze(synthesize_ensemble(
            chain8, SynthesisConfig(restarts=20, seed=0)))
        for records in (ring4_analysis[0], chain8_records):
            live = [r for r in records if not r.zero_fidelity]
            assert live
            assert max(r.identity_residual / (1e-8 * max(1.0, r.abs_zeta))
                       for r in live) <= 1e-6

    def test_projection_lower_bound(self, ring4_analysis):
        records, _ = ring4_analysis
        for r in records:
            assert r.norm_Rs >= r.F / 4.0 - 1e-12

    def test_factored_product_ranks_near_equal_errors(self, ring4_analysis):
        # controllers with nearly the same transfer error can sit far apart
        # in sensitivity; the factored product reproduces that ranking
        records, _ = ring4_analysis
        rows = sorted((r for r in records
                       if r.structure_index == 5 and math.isfinite(r.sin_phi)),
                      key=lambda r: r.e)
        assert len(rows) >= 3
        _, start = min((rows[i + 2].e - rows[i].e, i)
                       for i in range(len(rows) - 2))
        trio = sorted(rows[start:start + 3], key=lambda r: r.abs_zeta)
        for r in trio:
            assert abs(r.bound_product - r.abs_zeta) <= 1e-8 * max(1.0, r.abs_zeta)
        products = [r.bound_product for r in trio]
        assert products == sorted(products)

    def test_summary_norm_moments_match_records(self, ring4_analysis):
        records, summaries = ring4_analysis
        for s in summaries:
            norms = np.array([r.norm_K for r in records
                              if r.structure_index == s.structure_index])
            assert s.mean_norm_K == float(norms.mean())
            assert s.var_norm_K == float(norms.var())

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            analyze([])

    def test_mixed_networks_rejected(self):
        a = chain2_controller(1.0)
        other_spec = NetworkSpec(num_spins=2, topology="chain", input_spin=2,
                                 output_spin=1)
        b = Controller(biases=np.zeros(2), t_f=1.0, fidelity=0.5,
                       spec=other_spec, seed=0, index=1)
        with pytest.raises(ValueError):
            analyze([a, b])


class TestDegenerateEnsembles:
    def test_perfect_transfer_ensemble_all_nan_stats(self):
        # two copies of the analytic optimum: sensitivities at noise floor,
        # zero variance everywhere, so every statistic is undefined
        controllers = [chain2_controller(np.pi / 2.0, i) for i in range(2)]
        records, summaries = analyze(controllers)
        assert len(records) == 2 * 3
        for r in records:
            assert abs(r.zeta) <= 1e-9
            assert r.pst
        for s in summaries:
            assert math.isnan(s.pearson_r_loglog)
            assert math.isnan(s.kendall_tau)

    def test_one_controller_ensemble_all_nan_stats(self):
        # one controller gives each structure one sample, too few for
        # either correlation, though its records are live
        records, summaries = analyze([chain2_controller(1.3)])
        assert len(records) == 3 and not any(r.zero_fidelity for r in records)
        for s in summaries:
            assert math.isnan(s.pearson_r_loglog)
            assert math.isnan(s.kendall_tau)

    def test_back_on_input_is_zero_fidelity_on_both_routes(self):
        # the unbiased 2-chain at t_f = pi returns the excitation to the
        # input: F ~ 1e-32, so every record of both routes is zero-fidelity,
        # with nan angles and residual, and no summary has a sample
        controller = chain2_controller(math.pi)
        assert controller.fidelity < ZERO_FIDELITY_FLOOR
        records, summaries = analyze([controller])
        oracle = [r for r, _ in adjoint_records(controller)]
        for route in (records, oracle):
            assert len(route) == 3
            for r in route:
                assert r.zero_fidelity
                assert all(map(math.isnan, (r.cos_phi, r.sin_phi, r.cos_theta,
                                            r.identity_residual)))
        for s in summaries:
            assert s.count == 0
            assert math.isnan(s.pearson_r_loglog)
            assert math.isnan(s.kendall_tau)

    def test_near_uniform_ring_is_analyzed(self):
        # a synthesized 4-ring controller whose biases agree to 3e-9: its
        # adjoint frequencies split by 1e-9, just past the degeneracy cut,
        # where the difference quotient left an imaginary residue of 1.3e-7
        spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
        biases = np.array([4.5487219827235013, 4.54872198198942,
                           4.5487219808065964, 4.5487219839076811])
        controller = Controller(biases=biases, t_f=11.780972454160555,
                                fidelity=0.25, spec=spec, seed=14, index=0)
        records, _ = analyze([controller])
        assert len(records) == len(enumerate_structures(spec))
        for r in records:
            assert r.identity_residual <= 1e-8 * max(1.0, r.abs_zeta)

    @pytest.mark.parametrize("n, topology, t_f", [
        (3, "chain", math.pi / math.sqrt(2.0)),
        (4, "ring", math.pi / 2.0)])
    def test_theorem2_anchor_beyond_two_spins(self, n, topology, t_f):
        # perfect transfer 1 -> 3 at zero bias on graphs with PST (Christandl
        # et al., PRL 92, 187902, 2004): every structure is insensitive, in
        # the N x N records and in the adjoint-picture reference alike
        spec = NetworkSpec(num_spins=n, topology=topology, input_spin=1, output_spin=3)
        controller = Controller(biases=np.zeros(n), t_f=t_f,
                                fidelity=min(1.0, transfer_fidelity(spec, np.zeros(n), t_f)),
                                spec=spec, seed=0, index=0)
        structures, _ = _structure_images(n, topology)
        engine = evaluate_controller(controller, structures)
        oracle = [r for r, _ in adjoint_records(controller)]
        for records in (engine, oracle):
            assert len(records) == len(structures)
            for r in records:
                assert r.e <= 1e-12
                assert t_f * abs(r.k_coeff) <= 1e-12
                assert r.pst

    def test_huge_read_out_time_rejected(self):
        # t_f * max|E| above the bound leaves exp(-iEt) without a reliable
        # digit; the two-spin chain at zero bias has max|E| = 1
        structures = tuple(enumerate_structures(chain2_controller(1.0).spec))
        assert evaluate_controller(chain2_controller(TF_CONDITION_LIMIT), structures)
        with pytest.raises(ValueError, match="controller 5: tf"):
            evaluate_controller(chain2_controller(2.0 * TF_CONDITION_LIMIT, 5),
                                structures)

    def test_zero_scale_records_excluded_from_count(self):
        # unbiased controllers: bias structures have f_n = 0, hence an
        # exactly zero sensitivity with no log image; the used-row count
        # must reflect the exclusion while the coupling structure keeps
        # its full sample
        controllers = [chain2_controller(1.0, 0), chain2_controller(1.3, 1)]
        records, summaries = analyze(controllers)
        for r in records:
            if r.structure_index <= 2:
                assert r.f_n == 0.0 and r.zeta == 0.0
        by_index = {s.structure_index: s for s in summaries}
        assert by_index[1].count == 0
        assert by_index[2].count == 0
        assert math.isnan(by_index[1].pearson_r_loglog)
        assert by_index[3].count == 2
        assert math.isfinite(by_index[3].pearson_r_loglog)


class TestHotPath:
    @staticmethod
    def patch_everywhere(monkeypatch, original, replacement):
        # every spinsens namespace that binds the function by name
        for name, module in list(sys.modules.items()):
            if name == "spinsens" or name.startswith("spinsens."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, replacement)

    def test_records_come_from_the_hilbert_space(self, monkeypatch, rng):
        # analyze must build no N^2 x N^2 operator, and must call
        # sensitivity_operator exactly once per record
        def forbidden(*args, **kwargs):
            raise AssertionError("N^2 x N^2 route called by analyze")

        for fn in (spinsens.bloch.adjoint_rep, spinsens.sensitivity.spectral_decompose,
                   spinsens.sensitivity.adjoint_sensitivity_operator):
            self.patch_everywhere(monkeypatch, fn, forbidden)
        original = spinsens.sensitivity.sensitivity_operator
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        self.patch_everywhere(monkeypatch, original, counting)
        spec = NetworkSpec(num_spins=20, topology="chain", input_spin=1, output_spin=20)
        controllers = []
        for i in range(3):
            biases = rng.uniform(0.0, 10.0, 20)
            t_f = float(rng.uniform(1.0, 50.0))
            controllers.append(Controller(
                biases=biases, t_f=t_f,
                fidelity=min(1.0, transfer_fidelity(spec, biases, t_f)),
                spec=spec, seed=i, index=i))
        records, _ = analyze(controllers)
        assert len(records) == 39 * len(controllers)
        for c in controllers:
            assert sum(r.controller_index == c.index for r in records) == 39
        assert len(calls) == len(records)
