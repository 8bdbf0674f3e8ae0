"""The verification checks on empty instance pools (a check that examined
nothing fails instead of passing), the controllers the pool checks draw,
the bytes of the reference records, the reference route's one pass per
controller, its generator read off the cached structure images, a
misaligned reference that the cross check must catch, a reference
record whose two routes to the alignment disagree, the perfect-transfer
anchors of the sufficiency check, and the report branch of every check
for a record that breaks it."""

import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from spinsens import (Controller, NetworkSpec, adjoint_rep, build_hamiltonian,
                      transfer_fidelity, verification)
from spinsens.cli import main
from spinsens.geometry import RecordColumns
from spinsens.verification import (check_cross_formulation, check_lemma1,
                                   check_lemma2, check_necessity,
                                   check_pst_sufficiency, check_remark1,
                                   check_remark2, check_theorem1, check_three_way,
                                   run_checks, sample_instances)

STRUCTURAL = (check_lemma1, check_lemma2, check_theorem1, check_remark1,
              check_remark2)


@pytest.mark.parametrize("check", STRUCTURAL)
def test_structural_check_on_empty_pool_fails(check):
    res = check([])
    assert (res.passed, res.detail) == (False, "0 instances")


@pytest.mark.parametrize("kwargs", [{"dims": (), "per_dim": 50},
                                    {"dims": (2, 3, 4, 5, 6), "per_dim": 0}])
def test_three_way_with_no_instances_fails(kwargs):
    res = check_three_way(seed=3, **kwargs)
    assert (res.name, res.passed, res.detail) == ("three-way-agreement", False,
                                                  "0 instances")


@pytest.mark.parametrize("kwargs", [{"count": 0, "dims": (2, 3, 4, 5, 6)},
                                    {"count": 100, "dims": ()}])
def test_cross_formulation_with_no_instances_fails(kwargs):
    res = check_cross_formulation(seed=3, **kwargs)
    assert (res.name, res.passed, res.detail) == ("cross-formulation", False,
                                                  "0 instances")


def test_one_instance_each_passes():
    assert check_three_way(seed=3, dims=(3,), per_dim=1).passed
    assert check_cross_formulation(seed=3, count=1, dims=(2, 3)).passed


def test_empty_pools_still_report_nine_checks():
    results = run_checks(seed=3, dims=(2, 3), systems_per_dim=0,
                         three_way_per_dim=0, cross_count=0,
                         necessity_restarts=2)
    assert len(results) == 9
    empty = [r.name for r in results
             if not r.passed and r.detail == "0 instances"]
    assert empty == ["lemma1-orthogonality", "lemma2-norm-bounds",
                     "theorem1-identity", "remark1-frame-norm",
                     "remark2-projection-bounds", "three-way-agreement",
                     "cross-formulation"]


@pytest.fixture
def evaluated(monkeypatch):
    # every (controller, structures) pair handed to evaluate_controller
    calls = []
    evaluate = verification.evaluate_controller

    def recording(controller, structures):
        calls.append((controller, structures))
        return evaluate(controller, structures)
    monkeypatch.setattr(verification, "evaluate_controller", recording)
    return calls


def test_pool_draws_pinned(evaluated):
    # the controllers of the pool checks at seed 2024 with the benchmark's
    # sizes, in order: spins, topology, transfer pair, biases, t_f and the
    # structures evaluated, which for three-way is its one drawn structure
    dims = (2, 3, 4, 5, 6)
    sample_instances(2024, dims=dims, systems_per_dim=4)
    check_three_way(2024, dims=dims, per_dim=12)
    check_cross_formulation(2024, count=25, dims=dims)
    digest = hashlib.sha256()
    for c, structures in evaluated:
        digest.update(repr((c.spec.num_spins, c.spec.topology, c.spec.input_spin,
                            c.spec.output_spin, c.biases.tolist(), c.t_f,
                            [s.index for s in structures])).encode())
    assert len(evaluated) == 5 * 4 + 5 * 12 + 25
    assert digest.hexdigest() == (
        "116a0db87709658e22ec973d91db5d2a103a12be71f47b1ac7761fad7de1892b")


def test_reference_records_pinned():
    # every field of every adjoint_records record and its <Phi, K>, on the
    # seed-2024 pool at the benchmark's sizes and at the perfect-transfer
    # anchors; floats enter by repr, which is exact
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    controllers = list(verification._random_controllers(
        rng, (n for n in (2, 3, 4, 5, 6) for _ in range(4))))
    for n, topology, out, t_f in verification.PST_ANCHORS:
        spec = NetworkSpec(num_spins=n, topology=topology, input_spin=1,
                           output_spin=out)
        controllers.append(Controller(
            biases=np.zeros(n), t_f=t_f, spec=spec, seed=0, index=0,
            fidelity=transfer_fidelity(spec, np.zeros(n), t_f)))
    digest = hashlib.sha256()
    rows = 0
    for controller in controllers:
        for record, tr_phi_k in verification.adjoint_records(controller):
            digest.update(repr((tuple(record), tr_phi_k)).encode())
            rows += 1
    assert rows == 166
    assert digest.hexdigest() == (
        "ab3a896f215bd9a209f18a7a4116e8cc81f80b1e1d575571d24d6d385bf51ad9")


def test_cross_formulation_draws_only_requested_dims(evaluated):
    assert check_cross_formulation(seed=3, count=4, dims=(3,)).passed
    assert [c.spec.num_spins for c, _ in evaluated] == [3, 3, 3, 3]


REFERENCE_STEPS = ("_generator", "spectral_decompose",
                   "adjoint_sensitivity_operator", "project")


@pytest.mark.parametrize("run, controllers", [
    (lambda: check_cross_formulation(seed=3, count=6, dims=(2, 3, 4)).passed, 6),
    (lambda: len(sample_instances(3, dims=(2, 4), systems_per_dim=2)) > 0, 4)],
    ids=["cross-formulation", "sample-instances"])
def test_reference_route_runs_once_per_controller(monkeypatch, run, controllers):
    # one generator, one eigensystem, and one stacked operator and
    # projection pass per controller, whatever its number of structures
    calls = Counter()
    for name in REFERENCE_STEPS:
        def counting(*args, _fn=getattr(verification, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verification, name, counting)
    assert run()
    assert calls == {name: controllers for name in REFERENCE_STEPS}


def test_warm_reference_route_builds_no_adjoint_image(monkeypatch):
    # the generators are read off the cached structure images, so once
    # those are built the route conjugates nothing into the adjoint picture
    for n in (2, 3, 4):
        for topology in ("chain", "ring") if n >= 3 else ("chain",):
            verification._structure_images(n, topology)

    def refused(h):
        raise AssertionError("adjoint_rep called on a warm cache")
    monkeypatch.setattr(verification, "adjoint_rep", refused)
    assert check_cross_formulation(seed=3, count=6, dims=(2, 3, 4)).passed
    assert check_three_way(seed=3, dims=(2, 3, 4), per_dim=2).passed


@pytest.mark.parametrize("n, topology", [
    (n, topology) for n in range(2, 7) for topology in ("chain", "ring")
    if topology == "chain" or n >= 3])
@pytest.mark.parametrize("coupling", [1.0, 0.7, 2.5])
def test_generator_matches_adjoint_rep_of_hamiltonian(n, topology, coupling):
    # A is linear in H, so the combination of the structure images equals
    # the image of the assembled Hamiltonian; it is exactly skew, with a
    # zero identity row and column
    rng = np.random.default_rng(n * 10 + len(topology))
    spec = NetworkSpec(num_spins=n, topology=topology, input_spin=1, output_spin=2,
                       coupling=coupling)
    for _ in range(5):
        biases = rng.uniform(-3.0, 3.0, n)
        controller = Controller(biases=biases, t_f=1.0, fidelity=0.5, spec=spec,
                                seed=0, index=0)
        got = verification._generator(controller)
        want = adjoint_rep(build_hamiltonian(spec, biases))
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.linalg.norm(want))
        assert np.array_equal(got, -got.T)
        assert not got[-1].any() and not got[:, -1].any()


def test_misaligned_structure_images_fail_cross_formulation(monkeypatch):
    # the reference must pair each structure with its own adjoint image;
    # two swapped directions of the stack make its records disagree with
    # the published ones
    original = verification._structure_images

    def swapped(num_spins, topology):
        structures, images = original(num_spins, topology)
        order = np.arange(len(structures))
        order[[0, 1]] = order[[1, 0]]
        return structures, images[order]

    assert check_cross_formulation(seed=3, count=10, dims=(2, 3, 4)).passed
    monkeypatch.setattr(verification, "_structure_images", swapped)
    res = check_cross_formulation(seed=3, count=10, dims=(2, 3, 4))
    assert (res.label, res.name) == ("FAIL", "cross-formulation")


def test_sufficiency_covers_every_anchor(monkeypatch):
    # all three anchors are checked, in both record routes; a detuned read-out
    # time on the 4-ring leaves no perfect transfer and fails the check
    res = check_pst_sufficiency()
    assert res.passed and res.detail.startswith("3 anchors")
    detuned = verification.PST_ANCHORS[:2] + ((4, "ring", 3, 1.5),)
    monkeypatch.setattr(verification, "PST_ANCHORS", detuned)
    res = check_pst_sufficiency()
    assert (res.label, res.detail) == (
        "FAIL", "4-spin ring 1 -> 3 at t = 1.5 is not perfect transfer")


@pytest.mark.parametrize("factor, passed", [(0.5, True), (2.0, False)])
def test_theorem1_checks_alignment_of_reference_records(factor, passed):
    # |cos theta| (from zeta) and sin phi (from the projection) must agree
    # within 1e-8 + 8 N^2 eps / |R_S| on every reference record; a record
    # that keeps its identity residual but parts them fails theorem 1
    instances = sample_instances(3, dims=(3,), systems_per_dim=2)
    assert check_theorem1(instances).passed
    i = next(i for i in instances if i.oracle.f_n > 0 and i.oracle.sin_phi < 0.5)
    r = i.oracle
    allowance = 1e-8 + 8.0 * i.spec.num_spins ** 2 * np.finfo(float).eps / r.norm_Rs
    cos_theta = math.copysign(r.sin_phi + factor * allowance, r.cos_theta)
    bent = dataclasses.replace(i, oracle=r._replace(cos_theta=cos_theta))
    res = check_theorem1(instances + [bent])
    assert (res.name, res.passed) == ("theorem1-identity", passed)
    assert res.detail.endswith("1 with |cos theta| and sin phi apart") != passed


@pytest.fixture(scope="module")
def pool():
    # a small pool on which every structural check passes
    instances = sample_instances(3, dims=(3,), systems_per_dim=2)
    for check in STRUCTURAL:
        assert check(instances).label == "PASS"
    return instances


def bend(pool, at, **oracle_fields):
    # the pool with the reference record of instance ``at`` changed
    i = pool[at]
    return (pool[:at] + [dataclasses.replace(i, oracle=i.oracle._replace(**oracle_fields))]
            + pool[at + 1:])


@pytest.mark.parametrize("excess, label", [(1e-9, "WARN"), (0.0, "PASS")])
def test_remark2_upper_bound_only_warns(pool, capsys, monkeypatch, excess, label):
    n = pool[5].spec.num_spins
    res = check_remark2(bend(pool, 5, norm_Rs=1.0 / n + excess))
    assert (res.name, res.passed, res.label) == ("remark2-projection-bounds", True, label)
    if label == "PASS":
        return
    o = pool[5].oracle
    assert res.detail.startswith(
        f"upper bound exceeded on 1 instances (observation, not a theorem): "
        f"controller {o.controller_index} structure {o.structure_index} ")
    # verify prints the warning, counts it, and exits with 0
    monkeypatch.setattr(verification, "run_checks", lambda **kwargs: [res])
    assert main(["verify", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("WARN remark2-projection-bounds  upper bound exceeded")
    assert lines[1] == "verify: 1 checks, 1 passed, 1 warnings (seed 5)"


def test_remark2_lower_bound_fails(pool):
    o = pool[5].oracle
    n = pool[5].spec.num_spins
    low = o.F / n - 1e-11
    res = check_remark2(bend(pool, 5, norm_Rs=low))
    assert (res.label, res.detail) == (
        "FAIL", f"lower bound broken at controller {o.controller_index} structure "
                f"{o.structure_index}: |R_S| = {low:.12e} < F/N = {o.F / n:.12e}")


def test_lemma2_reports_first_violation(pool):
    i = pool[4]
    o = i.oracle
    res = check_lemma2(bend(pool, 4, norm_K=2.0 * i.s_frob))
    assert (res.label, res.detail) == (
        "FAIL", f"1 violations; first at controller {o.controller_index} structure "
                f"{o.structure_index}: |K| = {2.0 * i.s_frob:.6e}, "
                f"|S|_F = {i.s_frob:.6e}")


def test_theorem1_counts_zero_fidelity_records_left_out(pool):
    res = check_theorem1(bend(pool, 3, zero_fidelity=True))
    assert res.passed
    assert res.detail.startswith(f"{len(pool) - 1} records, worst residual at ")
    assert res.detail.endswith(", 1 zero-fidelity records left out")


@pytest.mark.parametrize("fields, passed, detail", [
    ({}, True, "1 eligible records of 1, min |zeta| = 1.000e+00"),
    ({"zeta": 1e-13}, False, "controller 3 structure 2: e = 1.000e-01 but "
                             "|zeta| = 1.000e-13 with sin phi = 5.000e-01"),
    ({"identity_residual": 5e-9}, True,
     "1 eligible records of 1, min |zeta| = 1.000e+00"),
    ({"identity_residual": 2e-8}, True,
     "1 eligible records of 1, min |zeta| = 1.000e+00"),
    ({"F": 0.4, "e": 0.6}, False,
     "no records in the eligible error band; enlarge the ensemble")])
def test_necessity_report_branches(pool, monkeypatch, fields, passed, detail):
    # one record inside the band [1e-6, 0.5] with f_n >= 0.1 and |zeta| = 1,
    # changed by ``fields``; necessity gates theorem 2 alone, so a residual
    # past theorem 1's budget of 1e-8 leaves it passing
    base = {"controller_index": 3, "structure_index": 2, "F": 0.9, "e": 0.1,
            "zeta": 1.0, "f_n": 1.0, "sin_phi": 0.5, "identity_residual": 0.0}
    record = pool[0].record._replace(**{**base, **fields})
    monkeypatch.setattr(verification, "synthesize_ensemble",
                        lambda spec, config: [None])
    # the ensemble pass's columns of that one record
    monkeypatch.setattr(verification, "evaluate_ensemble",
                        lambda controllers, structures: RecordColumns(
                            *(np.array([[value]]) for value in record)))
    res = check_necessity(seed=0, restarts=1)
    assert (res.name, res.passed, res.detail) == ("theorem2-necessity", passed, detail)
