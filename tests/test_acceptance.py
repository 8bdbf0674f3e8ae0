"""Acceptance gate: ten numbered criteria, one printed report line each.

Every test emits exactly one `[criterion NN] PASS|FAIL ...` line so the
gate can be scraped from plain pytest output; the assert carries the same
text. Criteria 1-3 share one timed instance pool; 6-8 share the session
4-ring ensemble.
"""

import json
import math
import time
import warnings

import pytest

from spinsens import Controller, NetworkSpec, enumerate_structures
from spinsens.analytics import evaluate_controller
from spinsens.cli import main
from spinsens.network import COUPLING
from spinsens.verification import (check_cross_formulation,
                                   check_pst_sufficiency, check_three_way,
                                   sample_instances)
from test_imports import fresh

POOL_SEED = 20240814


@pytest.fixture(scope="module")
def instance_pool():
    start = time.perf_counter()
    instances = sample_instances(seed=POOL_SEED, dims=(2, 3, 4, 5, 6),
                                 systems_per_dim=14)
    return instances, time.perf_counter() - start


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_criterion_01_frame_orthogonality(instance_pool):
    instances, elapsed = instance_pool
    worst = max(abs(i.tr_phi_K) / (1e-9 * i.spec.num_spins ** 2)
                for i in instances)
    ok = len(instances) >= 500 and worst <= 1.0 and elapsed <= 60.0
    report(1, ok, f"{len(instances)} instances, worst |tr(Phi^T K)| at "
                  f"{worst:.2e} of budget, sampled in {elapsed:.1f}s")


def test_criterion_02_operator_norm_bounds(instance_pool):
    instances, _ = instance_pool
    # the reference |K| and the published one
    pairs = [(i, r) for i in instances for r in (i.oracle, i.record)]
    bad = [i for i, r in pairs if not 1e-6 < r.norm_K <= i.s_frob + 1e-9]
    margin = min(i.s_frob + 1e-9 - r.norm_K for i, r in pairs)
    report(2, not bad, f"{len(instances)} instances, 0 out of bounds, "
                       f"tightest upper margin {margin:.2e}")


def test_criterion_03_factored_identity(instance_pool, ring4_analysis):
    instances, _ = instance_pool
    records, _ = ring4_analysis
    pool = [i.oracle for i in instances]
    bad_pool = [r for r in pool
                if r.identity_residual > 1e-8 * max(1.0, r.abs_zeta)]
    bad_ring = [r for r in records
                if not r.identity_residual <= 1e-8 * max(1.0, r.abs_zeta)]
    worst = max(r.identity_residual / (1e-8 * max(1.0, r.abs_zeta)) for r in pool)
    ok = not bad_pool and not bad_ring
    report(3, ok, f"{len(instances)} pool + {len(records)} ensemble records, "
                  f"worst residual at {worst:.2e} of budget")


def test_criterion_04_three_way_agreement():
    res = check_three_way(seed=POOL_SEED, dims=(2, 3, 4, 5, 6), per_dim=50)
    report(4, res.passed, res.detail)


def test_criterion_05_perfect_transfer_sufficiency():
    res = check_pst_sufficiency()
    report(5, res.passed, res.detail)


def test_criterion_06_imperfect_transfer_necessity(ring4_analysis):
    records, _ = ring4_analysis
    eligible = [r for r in records if 1e-6 <= r.e <= 0.5 and r.f_n >= 0.1]
    silent = [r for r in eligible if r.abs_zeta < 1e-12 and r.sin_phi > 1e-8]
    residual_bad = [r for r in records
                    if not r.identity_residual <= 1e-8 * max(1.0, r.abs_zeta)]
    ok = bool(eligible) and not silent and not residual_bad
    report(6, ok, f"{len(eligible)} eligible records, {len(silent)} with "
                  f"vanishing sensitivity, {len(residual_bad)} identity violations")


def test_criterion_07_projection_norm_bounds(ring4_analysis):
    records, _ = ring4_analysis
    n = 4
    lower_bad = [r for r in records if r.norm_Rs < r.F / n - 1e-12]
    upper_bad = [r for r in records if r.norm_Rs > 1.0 / n + 1e-10]
    if upper_bad:
        dump = "; ".join(
            f"(controller {r.controller_index}, structure {r.structure_index}, "
            f"|R_S| {r.norm_Rs:.12e})" for r in upper_bad[:5])
        warnings.warn(f"empirical |R_S| <= 1/N exceeded on "
                      f"{len(upper_bad)} records: {dump}")
    report(7, not lower_bad,
           f"{len(records)} records, {len(lower_bad)} below F/N, "
           f"{len(upper_bad)} above 1/N (warn only)")


def computed_anchor_defect():
    """Worst defect of the two-spin chain's records from their closed forms.

    At zero bias and t_f = pi/4 the transfer is half done: F = 1/2 in every
    record. The coupling record has zeta = -pi/4, |K| = 2 sqrt 2,
    |R_S| = sqrt(3)/4 and sin phi = sqrt(2/3); each bias record |K| = 4/pi.
    """
    spec = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
    controller = Controller(biases=[0.0, 0.0], t_f=math.pi / 4, fidelity=0.5,
                            spec=spec, seed=0, index=0)
    structures = tuple(enumerate_structures(spec))
    defects = []
    for structure, r in zip(structures, evaluate_controller(controller, structures)):
        defects.append(abs(r.F - 0.5))
        if structure.kind == COUPLING:
            defects += [abs(r.zeta + math.pi / 4), abs(r.norm_K - 2 * math.sqrt(2)),
                        abs(r.norm_Rs - math.sqrt(3) / 4),
                        abs(r.sin_phi - math.sqrt(2 / 3))]
        else:
            defects.append(abs(r.norm_K - 4 / math.pi))
    return max(defects)


def test_criterion_08_ensemble_statistics(ring4_ensemble, ring4_analysis):
    records, summaries = ring4_analysis
    stats_ok = (len(summaries) == 8
                and all(math.isfinite(s.pearson_r_loglog)
                        and math.isfinite(s.kendall_tau) for s in summaries))
    product = 330.0 * 108.0 * 2.74 * 0.199 * 1.37e-6
    anchor_ok = abs(product - 2.69e-2) <= 0.02 * 2.69e-2
    defect = computed_anchor_defect()
    ok = len(ring4_ensemble) >= 200 and stats_ok and anchor_ok and defect <= 1e-12
    report(8, ok, f"{len(ring4_ensemble)} controllers, 8/8 finite statistics, "
                  f"anchor product {product:.3e} vs 2.69e-2, "
                  f"two-spin closed forms within {defect:.1e} (limit 1e-12)")


def test_criterion_09_fidelity_cross_formulation():
    res = check_cross_formulation(seed=POOL_SEED, count=100, dims=(2, 3, 4, 5, 6))
    report(9, res.passed, res.detail)


def test_criterion_10_byte_determinism(tmp_path):
    flags = ["--n", "4", "--topology", "ring", "--in", "1", "--out", "2",
             "--restarts", "8", "--seed", "42", "--tf-range", "1", "10"]
    ensembles, tables = [], []
    # in this interpreter with --threads 1, 1 and 4, then without --threads
    # in two fresh interpreters whose string hashing is seeded 0 and 1
    for name, threads, hash_seed in (("run1", 1, None), ("run2", 1, None),
                                     ("run4", 4, None), ("hash0", None, 0),
                                     ("hash1", None, 1)):
        out = tmp_path / name / "controllers.json"
        records = out.with_name("records.csv")
        summaries = out.with_name("summaries.csv")
        threads_flag = [] if threads is None else ["--threads", str(threads)]
        argvs = (["synth", *flags, *threads_flag, "-o", str(out)],
                 ["analyze", str(out), "--records", str(records),
                  "--summaries", str(summaries), *threads_flag])
        if hash_seed is not None:
            fresh("import spinsens.cli\n" + "".join(
                f"assert spinsens.cli.main({argv!r}) == 0\n" for argv in argvs),
                hash_seed=hash_seed)
        else:
            assert all(main(argv) == 0 for argv in argvs)
        ensembles.append(out.read_bytes())
        tables.append(records.read_bytes() + summaries.read_bytes())
    ok = len(set(ensembles)) == 1 and len(set(tables)) == 1
    n_rows = len(json.loads(ensembles[0]))
    report(10, ok, f"{n_rows} controllers, ensemble and tables byte-identical "
                   f"across 2 runs, threads {{1, 4}} and PYTHONHASHSEED {{0, 1}}")
