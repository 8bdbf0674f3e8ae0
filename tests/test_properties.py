"""Property tests over random networks and controllers: the record
invariants on the adjoint-picture reference records, the published
records and the synthesis objective against that reference, the stacked
reference pass against one call per direction, and the batched
quadrature oracle against a node-by-node evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import expm

from spinsens import Controller, NetworkSpec, adjoint_rep, enumerate_structures
from spinsens import (adjoint_sensitivity_operator, build_hamiltonian,
                      fidelity_objective, project, quadrature_oracle,
                      transfer_fidelity)
from spinsens.analytics import evaluate_controller
from spinsens.sensitivity import QUADRATURE_NODES
from spinsens.verification import (_adjoint_frame, _endpoints, _structure_images,
                                   adjoint_records, record_gap)


def reference_records(controller):
    spec = controller.spec
    return adjoint_records(controller), _structure_images(spec.num_spins, spec.topology)[1]


@st.composite
def networks(draw, max_n):
    n = draw(st.integers(min_value=2, max_value=max_n))
    topology = draw(st.sampled_from(("chain", "ring") if n >= 3 else ("chain",)))
    input_spin = draw(st.integers(min_value=1, max_value=n))
    output_spin = draw(st.integers(min_value=1, max_value=n).filter(
        lambda s: s != input_spin))
    return NetworkSpec(num_spins=n, topology=topology, input_spin=input_spin,
                       output_spin=output_spin)


@st.composite
def controllers(draw):
    spec = draw(networks(6))
    biases = np.array(draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=spec.num_spins, max_size=spec.num_spins)))
    t_f = draw(st.floats(min_value=0.3, max_value=3.0))
    f = transfer_fidelity(spec, biases, t_f)
    return Controller(biases=biases, t_f=t_f, fidelity=min(1.0, max(0.0, f)),
                      spec=spec, seed=0, index=0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(controllers())
def test_record_invariants(controller):
    n = controller.spec.num_spins
    oracle, images = reference_records(controller)
    for (r, tr_phi_k), image in zip(oracle, images):
        # lemma 1: the propagator and K are Frobenius orthogonal
        assert abs(tr_phi_k) <= 1e-9 * n * n
        # lemma 2: |K| is positive and bounded by the direction's norm
        assert 1e-6 < r.norm_K <= np.linalg.norm(image) + 1e-9
        # theorem 1: the factored identity, where the angles are defined
        if not r.zero_fidelity:
            assert r.identity_residual <= 1e-8 * max(1.0, r.abs_zeta)
        # remark 1: |R_S|^2 splits into the two frame coefficients
        assert abs(r.norm_Rs ** 2 - (r.F / n) ** 2 - (r.k_coeff / r.norm_K) ** 2) <= 1e-10
        # remark 2: the projection is at least F/N
        assert r.norm_Rs >= r.F / n - 1e-12


@st.composite
def working_points(draw):
    spec = draw(networks(8))
    n = spec.num_spins
    bias = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
    if spec.topology == "ring" and draw(st.booleans()):
        # a uniform bias leaves the ring's degenerate spectrum intact; a
        # spread of 1e-9 splits it into near-degenerate pairs
        spread = draw(st.sampled_from((0.0, 1e-9)))
        biases = draw(bias) + spread * np.arange(n)
    else:
        biases = np.array(draw(st.lists(bias, min_size=n, max_size=n)))
    t_f = draw(st.floats(min_value=0.1, max_value=50.0))
    return spec, biases, t_f


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(working_points())
def test_objective_matches_adjoint_records(point):
    # the N x N objective against the N^2 x N^2 adjoint picture: the fidelity
    # and, per bias site n, the gradient equals t_f <R, K_n>
    spec, biases, t_f = point
    n = spec.num_spins
    f, grad = fidelity_objective(spec, biases, t_f)
    controller = Controller(biases=biases, t_f=t_f, fidelity=min(1.0, f),
                            spec=spec, seed=0, index=0)
    oracle, _ = reference_records(controller)
    for site, (r, _) in enumerate(oracle[:n]):
        assert abs(f - r.F) <= 1e-9
        expected = t_f * r.k_coeff
        assert abs(grad[site] - expected) <= 1e-9 * max(1.0, abs(expected))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(working_points())
def test_engine_matches_adjoint_records(point):
    # every published field within the cross-formulation budgets of the
    # N^2 x N^2 reference, and the same flags
    spec, biases, t_f = point
    controller = Controller(biases=biases, t_f=t_f,
                            fidelity=min(1.0, transfer_fidelity(spec, biases, t_f)),
                            spec=spec, seed=0, index=0)
    structures = tuple(enumerate_structures(spec))
    oracle, _ = reference_records(controller)
    for r, (o, _) in zip(evaluate_controller(controller, structures), oracle):
        assert record_gap(r, o, spec.num_spins) <= 1.0
        assert (r.pst, r.zero_fidelity) == (o.pst, o.zero_fidelity)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(networks(5), st.data())
def test_stacked_reference_matches_per_direction_calls(spec, data):
    # one call over the stack of every structure's image gives what one
    # call per image gives: K, |K|, |R_S| and its part off Phi; and the
    # reference records read <R, K> = rf . K r0 and zeta off the stack as
    # one direction at a time would
    biases = np.array(data.draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=spec.num_spins, max_size=spec.num_spins)))
    t_f = data.draw(st.floats(min_value=0.3, max_value=3.0))
    controller = Controller(biases=biases, t_f=t_f,
                            fidelity=min(1.0, transfer_fidelity(spec, biases, t_f)),
                            spec=spec, seed=0, index=0)
    structures = enumerate_structures(spec)
    frame = _adjoint_frame(controller)
    r0, rf, lam, m, phi = frame
    records = [r for r, _ in adjoint_records(controller, frame)]
    f_val = records[0].F
    k_coeff = np.array([r.k_coeff for r in records])
    images = np.array([adjoint_rep(s.matrix) for s in structures])

    k_stack, norm_stack = adjoint_sensitivity_operator(lam, m, images, t_f)
    _, norm_rs, perp = project(f_val, k_coeff, phi, k_stack, norm_stack)
    assert k_stack.shape == images.shape
    for shape in (norm_stack.shape, norm_rs.shape, perp.shape):
        assert shape == (len(structures),)
    for i, (image, record) in enumerate(zip(images, records)):
        k_op, norm_k = adjoint_sensitivity_operator(lam, m, image, t_f)
        k_one = float(rf @ k_op @ r0)
        _, one_rs, one_perp = project(f_val, k_one, phi, k_op, norm_k)
        assert np.linalg.norm(k_stack[i] - k_op) <= 1e-14 * max(1.0, norm_k)
        # each scalar to 1e-14 of the bound Cauchy-Schwarz puts on it,
        # |r0| = |rf| = 1: numpy may sum a stack in another order, and a sum
        # that cancels to a small value keeps only the digits of that bound
        for got, want, bound in (
                (norm_stack[i], norm_k, norm_k),
                (record.norm_K, norm_k, norm_k),
                (record.k_coeff, k_one, norm_k),
                (norm_rs[i], one_rs, 1.0), (record.norm_Rs, one_rs, 1.0),
                (perp[i], one_perp, 1.0),
                (record.zeta, -t_f * record.f_n * k_one,
                 t_f * record.f_n * norm_k)):
            assert abs(got - want) <= 1e-14 * bound

    # the checks hold per direction: one bad direction anywhere in the
    # stack is caught
    pick = data.draw(st.integers(0, len(structures) - 1))
    bent = images.copy()
    bent[pick] += np.eye(images.shape[-1])
    with pytest.raises(ValueError, match="skew-symmetric"):
        adjoint_sensitivity_operator(lam, m, bent, t_f)
    k_zeroed, norm_zeroed = k_stack.copy(), norm_stack.copy()
    k_zeroed[pick], norm_zeroed[pick] = 0.0, 0.0
    # and a vanishing operator leaves no projection
    with pytest.raises(ValueError, match="vanishing sensitivity operator"):
        project(f_val, k_coeff, phi, k_zeroed, norm_zeroed)


def per_node_quadrature(a, s_bloch, t_f, r0, rf, f_n):
    # two independent exponentials per node, exp(t_f A (1-s)) and exp(t_f A s):
    # the evaluation the batched oracle replaced
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    acc = 0.0
    for s, weight in zip(0.5 * (x + 1.0), 0.5 * w):
        left = expm(t_f * (1.0 - s) * a)
        right = expm(t_f * s * a)
        acc += weight * float((rf @ left) @ (s_bloch @ (right @ r0)))
    return float(-t_f * f_n * acc)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(networks(5), st.data())
def test_batched_quadrature_matches_per_node_loop(spec, data):
    biases = np.array(data.draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=spec.num_spins, max_size=spec.num_spins)))
    t_f = data.draw(st.floats(min_value=0.3, max_value=3.0))
    structures = enumerate_structures(spec)
    structure = structures[data.draw(st.integers(0, len(structures) - 1))]
    r0, rf = _endpoints(spec)
    image = adjoint_rep(structure.matrix)
    args = (adjoint_rep(build_hamiltonian(spec, biases)), image, t_f, r0, rf, 1.0)
    got, want = quadrature_oracle(*args), per_node_quadrature(*args)
    # relative to the value, or to the integrand's bound t_f |S| |r0| |rf|
    # where the integral cancels to near zero
    scale = t_f * np.linalg.norm(image) * np.linalg.norm(r0) * np.linalg.norm(rf)
    assert abs(got - want) <= 1e-12 * max(abs(want), scale)
