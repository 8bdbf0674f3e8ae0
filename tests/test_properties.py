"""Property tests over random networks and controllers: the record
invariants on the adjoint-picture reference records, the published
records and the synthesis objective against that reference, the stacked
synthesis objective against one call per point, the range of the
published cosines at the synth boxes, and the stacked reference pass
against one call per direction, and the published ensemble pass against
one controller at a time."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsens import Controller, NetworkSpec, adjoint_rep, enumerate_structures
from spinsens import (adjoint_sensitivity_operator, analyze, fidelity_objective,
                      hilbert_transfer, project, transfer_fidelity)
from spinsens.analytics import evaluate_controller, evaluate_ensemble
from spinsens.verification import (_adjoint_frame, _structure_images,
                                   adjoint_records, record_gap)

EPS = np.finfo(float).eps

# Hypothesis also draws from constants it collects from the source, so
# which examples a derandomized test sees can move with any edit. Each
# such test therefore names its edge floats as explicit examples: a
# negative zero, the smallest subnormal and +-1e3, on a 4-ring whose
# other biases are zero, and the ends of the synth bias box.
EDGE_BIASES = np.array([-0.0, 5e-324, 1e3, -1e3])
BOX_BIASES = np.array([-0.0, 5e-324, 10.0, 0.0])
RING4 = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=3)


def edge_controller(biases, t_f):
    f = transfer_fidelity(RING4, biases, t_f)
    return Controller(biases=biases, t_f=t_f, fidelity=min(1.0, max(0.0, f)),
                      spec=RING4, seed=0, index=0)


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
def controllers(draw, max_n=6):
    spec = draw(networks(max_n))
    biases = np.array(draw(st.lists(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        min_size=spec.num_spins, max_size=spec.num_spins)))
    t_f = draw(st.floats(min_value=0.3, max_value=3.0))
    f = transfer_fidelity(spec, biases, t_f)
    return Controller(biases=biases, t_f=t_f, fidelity=min(1.0, max(0.0, f)),
                      spec=spec, seed=0, index=0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(controllers())
@example(edge_controller(EDGE_BIASES, 0.3))
@example(edge_controller(BOX_BIASES, 3.0))
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
@example((RING4, EDGE_BIASES, 0.1))
@example((RING4, BOX_BIASES, 50.0))
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


@st.composite
def point_stacks(draw):
    # up to six working points on one network of up to 12 spins; zero and
    # uniform biases leave degenerate spectra (rings, and a chain's
    # mirror-symmetric pairs), where the sinc argument is exactly zero
    spec = draw(networks(12))
    n = spec.num_spins
    bias = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(("spread", "zero", "uniform")))
        if kind == "spread":
            rows.append(draw(st.lists(bias, min_size=n, max_size=n)))
        else:
            rows.append([0.0 if kind == "zero" else draw(bias)] * n)
    times = draw(st.lists(st.floats(min_value=0.1, max_value=50.0),
                          min_size=len(rows), max_size=len(rows)))
    return spec, np.array(rows), np.array(times)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(point_stacks())
@example((RING4, np.array([EDGE_BIASES, BOX_BIASES, np.full(4, -0.0)]),
          np.array([0.1, 50.0, 1.0])))
def test_stacked_objective_rows_are_single_point_calls(stack):
    # synthesis evaluates every restart's point in one stacked call; each
    # row must be the single-point result bit for bit, or the lockstep
    # ascents would leave the per-restart ones
    spec, biases, times = stack
    n = spec.num_spins
    f, grad = fidelity_objective(spec, biases, times)
    assert f.shape == times.shape and grad.shape == (len(times), n + 1)
    first_f, first_grad = fidelity_objective(spec, biases[:1], times[:1])
    assert first_f.tobytes() == f[:1].tobytes() and first_grad.tobytes() == grad[:1].tobytes()
    for row, t_f in enumerate(times.tolist()):
        one_f, one_grad = fidelity_objective(spec, biases[row], t_f)
        assert type(one_f) is float and one_grad.shape == (n + 1,)
        assert one_f == f[row] and one_grad.tobytes() == grad[row].tobytes()
        assert one_f == transfer_fidelity(spec, biases[row], t_f)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(working_points())
# at t_f = 50 the +-1e3 biases put t max|E| near 5e4, beyond the reach of
# the adjoint reference's fixed budgets (ROADMAP item 5)
@example((RING4, EDGE_BIASES, 0.1))
@example((RING4, BOX_BIASES, 50.0))
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
        assert_cosines_in_range(r)


def assert_cosines_in_range(record):
    # ``angles`` reports the cosines unclamped; on the N x N route |R_S| is
    # hypot(F/N, |k|/|K|), so they leave [-1, 1] by rounding alone
    if not record.zero_fidelity:
        assert abs(record.cos_phi) <= 1.0 + 4 * EPS
        assert abs(record.cos_theta) <= 1.0 + 8 * EPS
        assert record.sin_phi <= 1.0


@st.composite
def synth_points(draw):
    # the boxes synth draws from, biases in [0, 10] and t_f in [1, 50], on
    # up to 20 spins, where F often falls below 1e-6
    spec = draw(networks(20))
    biases = np.array(draw(st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=spec.num_spins, max_size=spec.num_spins)))
    t_f = draw(st.floats(min_value=1.0, max_value=50.0))
    return spec, biases, t_f


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(synth_points())
@example((RING4, EDGE_BIASES, 1.0))
@example((RING4, BOX_BIASES, 50.0))
def test_published_cosines_in_range(point):
    # over 1.35 million such records, 98,000 of them with F < 1e-6, the
    # largest overshoot was |cos phi| = 1 + eps; |cos theta| stayed below 1
    spec, biases, t_f = point
    controller = Controller(biases=biases, t_f=t_f,
                            fidelity=min(1.0, transfer_fidelity(spec, biases, t_f)),
                            spec=spec, seed=0, index=0)
    for r in evaluate_controller(controller, tuple(enumerate_structures(spec))):
        assert_cosines_in_range(r)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(controllers(max_n=5), st.integers(min_value=0, max_value=9))
@example(edge_controller(EDGE_BIASES, 0.3), 7)
@example(edge_controller(BOX_BIASES, 3.0), 0)
def test_stacked_reference_matches_per_direction_calls(controller, pick):
    # one call over the stack of every structure's image gives what one
    # call per image gives: K, |K|, |R_S| and its part off Phi; and the
    # reference records read <R, K> = rf . K r0 and zeta off the stack as
    # one direction at a time would
    spec, t_f = controller.spec, controller.t_f
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
    # stack (at most 10 structures on 5 spins) is caught
    pick %= len(structures)
    bent = images.copy()
    bent[pick] += np.eye(images.shape[-1])
    with pytest.raises(ValueError, match="skew-symmetric"):
        adjoint_sensitivity_operator(lam, m, bent, t_f)
    k_zeroed, norm_zeroed = k_stack.copy(), norm_stack.copy()
    k_zeroed[pick], norm_zeroed[pick] = 0.0, 0.0
    # and a vanishing operator leaves no projection
    with pytest.raises(ValueError, match="vanishing sensitivity operator"):
        project(f_val, k_coeff, phi, k_zeroed, norm_zeroed)


def stack_of(spec, points):
    # the controllers of (biases, t_f) points on one network, indexed in order
    return [Controller(biases=np.asarray(biases, dtype=float), t_f=t_f,
                       fidelity=min(1.0, max(0.0, transfer_fidelity(spec, biases, t_f))),
                       spec=spec, seed=0, index=index)
            for index, (biases, t_f) in enumerate(points)]


CHAIN2 = NetworkSpec(num_spins=2, topology="chain", input_spin=1, output_spin=2)
RING6 = NetworkSpec(num_spins=6, topology="ring", input_spin=1, output_spin=4)


@st.composite
def ensembles(draw):
    # one to six controllers on one chain or ring of 2 to 12 spins: spread,
    # uniform or zero biases (a zero-bias ring has a degenerate spectrum),
    # and read-out times from 0.1 to 50 or 1e-3, where an output two or more
    # sites away holds F below the zero-fidelity floor
    spec = draw(networks(12))
    n = spec.num_spins
    bias = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
    points = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(("spread", "zero", "uniform")))
        if kind == "spread":
            biases = draw(st.lists(bias, min_size=n, max_size=n))
        else:
            biases = [0.0 if kind == "zero" else draw(bias)] * n
        t_f = draw(st.one_of(st.just(1e-3), st.floats(min_value=0.1, max_value=50.0)))
        points.append((biases, t_f))
    return stack_of(spec, points)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(ensembles())
# perfect transfer, the excitation back on the input (zero fidelity) and a
# detuned point on the 2-chain; a zero-bias 6-ring, a zero-fidelity point
# and a spread one on it
@example(stack_of(CHAIN2, [([0.0, 0.0], np.pi / 2.0), ([0.0, 0.0], np.pi),
                           ([0.0, 0.0], 1.3), ([0.4, 7.0], 0.7)]))
@example(stack_of(RING6, [([0.0] * 6, 2.0), ([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], 1e-3),
                          ([9.5, 0.1, 3.3, 0.0, 7.2, 5.0], 50.0)]))
def test_ensemble_rows_are_each_controller_alone(ensemble):
    # the one stacked pass gives every controller the records it gets
    # alone, bit for bit, and analyze publishes them in order; the stacked
    # transfer rows are the single-point arrays
    spec = ensemble[0].spec
    structures = tuple(enumerate_structures(spec))
    rows = evaluate_ensemble(ensemble, structures).rows()
    # repr shows every digit and the sign of a zero, and nan equals nan
    assert repr(rows) == repr([evaluate_controller(c, structures) for c in ensemble])
    records, _ = analyze(ensemble)
    assert repr(records) == repr([r for row in rows for r in row])
    transfer = hilbert_transfer(spec, np.array([c.biases for c in ensemble]),
                                np.array([c.t_f for c in ensemble]))
    for c, row in zip(ensemble, zip(*transfer)):
        for stacked, alone in zip(row, hilbert_transfer(spec, c.biases, c.t_f)):
            assert stacked.shape == alone.shape and stacked.tobytes() == alone.tobytes()
