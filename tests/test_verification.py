"""The verification checks on empty instance pools: a check that examined
nothing fails instead of passing."""

import pytest

from spinsens.verification import (check_cross_formulation, check_lemma1,
                                   check_lemma2, check_remark1, check_remark2,
                                   check_theorem1, check_three_way, run_checks)

STRUCTURAL = (check_lemma1, check_lemma2, check_theorem1, check_remark1,
              check_remark2)


@pytest.mark.parametrize("check", STRUCTURAL)
def test_structural_check_on_empty_pool_fails(check):
    res = check([])
    assert (res.passed, res.detail) == (False, "0 instances")


@pytest.mark.parametrize("kwargs", [{"dims": ()}, {"per_dim": 0}])
def test_three_way_with_no_instances_fails(kwargs):
    res = check_three_way(seed=3, **kwargs)
    assert (res.name, res.passed, res.detail) == ("three-way-agreement", False,
                                                  "0 instances")


@pytest.mark.parametrize("kwargs", [{"count": 0}, {"max_n": 1}])
def test_cross_formulation_with_no_instances_fails(kwargs):
    res = check_cross_formulation(seed=3, **kwargs)
    assert (res.name, res.passed, res.detail) == ("cross-formulation", False,
                                                  "0 instances")


def test_one_instance_each_passes():
    assert check_three_way(seed=3, dims=(3,), per_dim=1).passed
    assert check_cross_formulation(seed=3, count=1, max_n=3).passed


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
