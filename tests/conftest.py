"""Shared fixtures: the regenerated 4-ring ensemble is expensive, so it is
built once per session and reused by the synthesis, analytics, and
acceptance tests."""

import numpy as np
import pytest

from spinsens import NetworkSpec, SynthesisConfig, analyze, synthesize_ensemble


@pytest.fixture(scope="session")
def ring4_spec():
    return NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)


@pytest.fixture(scope="session")
def ring4_ensemble(ring4_spec):
    config = SynthesisConfig(restarts=220, seed=7)
    ensemble = synthesize_ensemble(ring4_spec, config)
    assert len(ensemble) >= 200
    return ensemble


@pytest.fixture(scope="session")
def ring4_analysis(ring4_ensemble):
    return analyze(ring4_ensemble)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240814)
