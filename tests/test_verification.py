"""The verification checks on empty instance pools (a check that examined
nothing fails instead of passing), the controllers the pool checks draw,
the reference route's one pass per controller, a misaligned reference
that the cross check must catch, a reference record whose two routes to
the alignment disagree, and the perfect-transfer anchors of the
sufficiency check."""

import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from spinsens import verification
from spinsens.verification import (check_cross_formulation, check_lemma1,
                                   check_lemma2, check_pst_sufficiency,
                                   check_remark1, check_remark2, check_theorem1,
                                   check_three_way, run_checks, sample_instances)

STRUCTURAL = (check_lemma1, check_lemma2, check_theorem1, check_remark1,
              check_remark2)


@pytest.mark.parametrize("check", STRUCTURAL)
def test_structural_check_on_empty_pool_fails(check):
    res = check([])
    assert (res.passed, res.detail) == (False, "0 instances")


@pytest.mark.parametrize("kwargs", [{"dims": (), "per_dim": 50},
                                    {"dims": (6,), "per_dim": 50},
                                    {"dims": (2, 3, 4, 5), "per_dim": 0}])
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
    assert len(evaluated) == 5 * 4 + 4 * 12 + 25
    assert digest.hexdigest() == (
        "2f0aa57ea1cff6aeba9e7c206b70f2a1ad0a7f086c68c226eb52b375b2229a6c")


def test_cross_formulation_draws_only_requested_dims(evaluated):
    assert check_cross_formulation(seed=3, count=4, dims=(3,)).passed
    assert [c.spec.num_spins for c, _ in evaluated] == [3, 3, 3, 3]


REFERENCE_STEPS = ("build_bloch_system", "spectral_decompose",
                   "adjoint_sensitivity_operator", "project")


@pytest.mark.parametrize("run, controllers", [
    (lambda: check_cross_formulation(seed=3, count=6, dims=(2, 3, 4)).passed, 6),
    (lambda: len(sample_instances(3, dims=(2, 4), systems_per_dim=2)) > 0, 4)],
    ids=["cross-formulation", "sample-instances"])
def test_reference_route_runs_once_per_controller(monkeypatch, run, controllers):
    # one adjoint system, one eigensystem, and one stacked operator and
    # projection pass per controller, whatever its number of structures
    calls = Counter()
    for name in REFERENCE_STEPS:
        def counting(*args, _fn=getattr(verification, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verification, name, counting)
    assert run()
    assert calls == {name: controllers for name in REFERENCE_STEPS}


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
    bent = dataclasses.replace(i, oracle=dataclasses.replace(r, cos_theta=cos_theta))
    res = check_theorem1(instances + [bent])
    assert (res.name, res.passed) == ("theorem1-identity", passed)
    assert res.detail.endswith("1 with |cos theta| and sin phi apart") != passed
