"""Numerical verification suite for the sensitivity geometry.

Every check here compares the closed-form machinery against either an
exact structural identity (orthogonality, norm bounds, the |zeta|
factorization) or an independent computational route (Hilbert-space
propagation, the Frechet derivative of the exponential, finite
differences of the re-propagated error). Checks sample randomized
networks and controllers from a seeded generator, so a failure report
always pins the offending instance. This module only compares: both
routes build their records with ``GeometryRecord.assemble``, which
derives f_n, zeta and the perfect-transfer flag from what each route
measures, and ``_instances`` pairs them up; the scale comes from
``geometry``, and the oracles from ``sensitivity``. The angle allowance
lives here, in ``_angle_allowance``: the library reports the cosines as
computed, and only these checks judge them.

The records ``analyze`` publishes come from the N x N Hamiltonian, where
the structural identities hold by construction. ``adjoint_records`` keeps
the N^2 x N^2 adjoint-picture route (explicit propagator Phi, explicit
sensitivity operators K, explicit projection) as the reference, over
plain arrays: a controller's frame is the tuple (r0, rf, lam, M, Phi) of
its endpoints, its generator's eigensystem and its propagator. The
generator A is read off the cached adjoint images of the structures
(``_generator``): the Hamiltonian is the biases and the coupling times
the structure matrices, and ``adjoint_rep`` is linear, so the reference
builds no Hamiltonian and ``adjoint_rep`` runs only when a network's
images are first built. Three-way agreement stays in the N x N picture:
``sensitivity.frechet_oracle`` and ``sensitivity.fd_oracle`` each
exponentiate the Hamiltonian themselves, and cross-formulation propagates
the input state with the same Pade exponential ``sensitivity._expm``,
which shares no eigensystem with the closed form. One stacked pass over
every structure per controller reads F and <R, K> off the frame once
each: the structural checks read its records, and the cross-formulation
check compares the published records with it field by field. The frame
identities are checked here alone: a reference record whose |R_S|^2
strays from (F/N)^2 + (k/|K|)^2, whose |R_S| falls below F/N, or whose
|cos theta| strays from sin phi, fails the remark-1, remark-2 or
theorem-1 check instead of aborting the run, whichever way the defect
pushes the cosines.

The suite is what `verify` runs from the command line, which alone holds
the default sample sizes; the acceptance tests call the same functions
with the documented sizes.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytics import evaluate_controller, evaluate_ensemble
from .bloch import adjoint_rep, site_state, state_to_bloch
from .geometry import TINY, GeometryRecord, _frob, project, scale_product
from .network import (NetworkSpec, UncertaintyStructure, _readonly,
                      build_hamiltonian, enumerate_structures)
from .sensitivity import (_expm, adjoint_sensitivity_operator, fd_oracle, frechet_oracle,
                          propagator_matrix, spectral_decompose)
from .synthesis import Controller, SynthesisConfig, synthesize_ensemble, transfer_fidelity

# Randomized instances live on modest time and bias scales so that the
# finite-difference truncation error stays far below its agreement
# tolerance, and the adjoint reference holds its fixed budgets.
INSTANCE_T_RANGE = (0.3, 3.0)
INSTANCE_BIAS_SCALE = 1.0


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    detail: str
    warning: bool = False

    @property
    def label(self) -> str:
        if self.passed:
            return "WARN" if self.warning else "PASS"
        return "FAIL"


@dataclass(frozen=True)
class Instance:
    """One (controller, structure) pair, as ``_instances`` builds it.

    ``record`` is the published record, ``oracle`` the adjoint-picture
    reference record with its <Phi, K> in ``tr_phi_K``, and ``s_frob`` the
    Frobenius norm of the direction's adjoint image.
    """

    spec: NetworkSpec
    record: GeometryRecord
    oracle: GeometryRecord
    tr_phi_K: float
    s_frob: float


def _random_controllers(rng: np.random.Generator,
                        sizes: Iterable[int]) -> Iterator[Controller]:
    """One random working point (not optimized) per spin count in ``sizes``,
    drawn lazily from ``rng``, so a caller may draw between two controllers;
    the fidelity is ``transfer_fidelity``'s value as computed, unclamped."""
    for index, n in enumerate(sizes):
        topology = "ring" if n >= 3 and rng.random() < 0.5 else "chain"
        pair = rng.choice(n, size=2, replace=False) + 1
        spec = NetworkSpec(num_spins=n, topology=topology,
                           input_spin=int(pair[0]), output_spin=int(pair[1]))
        biases = rng.uniform(-INSTANCE_BIAS_SCALE, INSTANCE_BIAS_SCALE, n)
        t_f = float(rng.uniform(*INSTANCE_T_RANGE))
        yield Controller(biases=biases, t_f=t_f,
                         fidelity=transfer_fidelity(spec, biases, t_f),
                         spec=spec, seed=index, index=index)


@lru_cache(maxsize=None)
def _structure_images(num_spins: int, topology: str) -> tuple[
        tuple[UncertaintyStructure, ...], np.ndarray]:
    # every structure, as analyze enumerates them, with the read-only stack
    # (S, N^2, N^2) of their adjoint images; both depend on the size and
    # topology alone, so each pair is built once
    spec = NetworkSpec(num_spins=num_spins, topology=topology,
                       input_spin=1, output_spin=2)
    structures = tuple(enumerate_structures(spec))
    return structures, _readonly(np.array([adjoint_rep(s.matrix) for s in structures]))


def _generator(controller: Controller) -> np.ndarray:
    """Adjoint generator A of the controller's Hamiltonian, read off the
    cached structure images.

    H = sum_n Delta_n S_n + J sum_pairs S_pair, and ``adjoint_rep`` is
    linear, so A is the same combination of the images of
    ``_structure_images``, in structure order: the biases, then J once per
    coupled pair. Each image is exactly skew with a zero identity row and
    column, and so is their combination."""
    spec = controller.spec
    structures, images = _structure_images(spec.num_spins, spec.topology)
    coords = np.append(controller.biases,
                       np.full(len(structures) - spec.num_spins, spec.coupling))
    return np.tensordot(coords, images, 1)


@lru_cache(maxsize=None)
def _endpoints(spec: NetworkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Coherence vectors r0 and rf of the input and output sites, read-only
    and built once per network."""
    return (_readonly(state_to_bloch(site_state(spec.num_spins, spec.input_spin))),
            _readonly(state_to_bloch(site_state(spec.num_spins, spec.output_spin))))


def _adjoint_frame(controller: Controller) -> tuple[np.ndarray, ...]:
    """(r0, rf, lam, M, Phi) of one controller: its endpoints, the
    eigensystem A = M diag(i lam) M* of its adjoint generator, and the
    propagator Phi = exp(A t_f) built from it."""
    lam, m = spectral_decompose(_generator(controller))
    return (*_endpoints(controller.spec), lam, m,
            propagator_matrix(lam, m, controller.t_f))


def adjoint_records(controller: Controller,
                    frame: tuple[np.ndarray, ...] | None = None,
                    ) -> list[tuple[GeometryRecord, float]]:
    """Reference records of one controller from the N^2 x N^2 adjoint picture.

    One record per structure of ``_structure_images``, in the order
    ``analyze`` enumerates them, each with the frame inner product
    <Phi, K>, zero by lemma 1. ``frame`` is the controller's
    ``_adjoint_frame`` when the caller has built it already. The
    propagator and the sensitivity operators come from the spectral
    decomposition of the adjoint generator: one call of
    ``adjoint_sensitivity_operator`` covers every structure. The frame is
    read out once: F = rf . Phi r0, then one stacked product gives
    k = <R, K> = rf . K r0 per structure, and one ``project`` call
    assembles every R_S from F and k; so is |rf - Phi r0|. Two things are
    shared with the N x N route of ``evaluate_controller``:
    ``GeometryRecord.assemble``, which derives f_n, zeta and the
    perfect-transfer flag and turns the measurements into a record, and
    ``sensitivity.hadamard_core``, the divided-difference weights both
    routes (and synthesis) multiply their eigenbasis directions by. The
    cross-formulation check cannot see a defect in either; three-way
    agreement, against the Frechet derivative and finite differences, tests
    the weights.
    """
    structures, s_images = _structure_images(controller.spec.num_spins,
                                             controller.spec.topology)
    r0, rf, lam, m, phi = _adjoint_frame(controller) if frame is None else frame
    f_val = float(rf @ phi @ r0)
    gap = float(np.linalg.norm(rf - phi @ r0))
    k_op, norm_k = adjoint_sensitivity_operator(lam, m, s_images, controller.t_f)
    k_coeff = rf @ k_op @ r0
    _, norm_rs, perp = project(f_val, k_coeff, phi, k_op, norm_k)
    records, = GeometryRecord.assemble(
        [controller], structures, f_val=[f_val], k_coeff=[k_coeff], norm_k=[norm_k],
        norm_rs=[norm_rs], perp=[perp], gap=[gap]).rows()
    return list(zip(records, _frob(phi, k_op).tolist()))


def _instances(controller: Controller,
               frame: tuple[np.ndarray, ...] | None = None) -> list[Instance]:
    """Per structure, the record ``evaluate_controller`` publishes paired
    with the ``adjoint_records`` reference record, its <Phi, K> and |S|_F.
    ``frame`` is passed on to ``adjoint_records``."""
    spec = controller.spec
    structures, images = _structure_images(spec.num_spins, spec.topology)
    return [Instance(spec=spec, record=r, oracle=o, tr_phi_K=tr, s_frob=norm)
            for r, (o, tr), norm in zip(
                evaluate_controller(controller, structures),
                adjoint_records(controller, frame),
                np.linalg.norm(images, axis=(-2, -1)).tolist())]


def sample_instances(seed: int, dims: tuple[int, ...], systems_per_dim: int) -> list[Instance]:
    """Randomized instance pool shared by the structural checks: the
    ``_instances`` of ``systems_per_dim`` random controllers per size."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [instance for controller in _random_controllers(
                rng, (n for n in dims for _ in range(systems_per_dim)))
            for instance in _instances(controller)]


def _no_instances(name: str) -> CheckResult:
    # a check that examined nothing fails instead of passing vacuously
    return CheckResult(name=name, passed=False, detail="0 instances")


def check_lemma1(instances: list[Instance]) -> CheckResult:
    """The propagator and the sensitivity operator are Frobenius orthogonal."""
    if not instances:
        return _no_instances("lemma1-orthogonality")
    worst = max(abs(i.tr_phi_K) / (1e-9 * i.spec.num_spins ** 2)
                for i in instances)
    return CheckResult(
        name="lemma1-orthogonality",
        passed=worst <= 1.0,
        detail=f"{len(instances)} instances, worst |tr(Phi^T K)| at "
               f"{worst:.3e} of the 1e-9*N^2 budget")


def check_lemma2(instances: list[Instance]) -> CheckResult:
    """0 < |K| <= |S|_F, with strict positivity at numerical scale.

    Checked on the reference |K| and on the published one, whose closed
    form does not bound itself.
    """
    if not instances:
        return _no_instances("lemma2-norm-bounds")
    pairs = [(i, r) for i in instances for r in (i.oracle, i.record)]
    norms = [r.norm_K for _, r in pairs]
    bad = [(i, r) for i, r in pairs if not (1e-6 < r.norm_K <= i.s_frob + 1e-9)]
    detail = (f"{len(instances)} instances, |K| in "
              f"[{min(norms):.3e}, {max(norms):.3e}]")
    if bad:
        i, r = bad[0]
        detail = (f"{len(bad)} violations; first at controller "
                  f"{r.controller_index} structure {r.structure_index}: "
                  f"|K| = {r.norm_K:.6e}, |S|_F = {i.s_frob:.6e}")
    return CheckResult(name="lemma2-norm-bounds", passed=not bad, detail=detail)


def _angle_allowance(n: int, record: GeometryRecord) -> float:
    # tolerance of a record's angles: 1e-8 plus the conditioning allowance
    # 8 n^2 eps / |R_S|, since F and |R_S| each carry O(n^2 eps) absolute
    # error, which near zero fidelity is large relative to both
    return 1e-8 + 8.0 * n * n * sys.float_info.epsilon / record.norm_Rs


def check_theorem1(instances: list[Instance]) -> CheckResult:
    """|zeta| equals the factored form within 1e-8 * max(1, |zeta|), and
    the two routes to the alignment agree, |cos theta| = sin phi, within
    the angle allowance wherever the scale f_n t_f |K| |R_S| resolves
    cos theta (a normal float)."""
    records = [(i.spec.num_spins, i.oracle) for i in instances
               if not i.oracle.zero_fidelity]
    if not records:
        return _no_instances("theorem1-identity")
    skipped = len(instances) - len(records)
    worst = max(r.identity_residual / (1e-8 * max(1.0, r.abs_zeta)) for _, r in records)
    misaligned = sum(abs(abs(r.cos_theta) - r.sin_phi) > _angle_allowance(n, r)
                     for n, r in records
                     if scale_product(r.f_n, r.t_f, r.norm_K, r.norm_Rs) >= TINY)
    detail = f"{len(records)} records, worst residual at {worst:.3e} of budget"
    if skipped:
        detail += f", {skipped} zero-fidelity records left out"
    if misaligned:
        detail += f", {misaligned} with |cos theta| and sin phi apart"
    return CheckResult(name="theorem1-identity", passed=worst <= 1.0 and not misaligned,
                       detail=detail)


def check_remark1(instances: list[Instance]) -> CheckResult:
    """|R_S|^2 decomposes into the two frame coefficients."""
    if not instances:
        return _no_instances("remark1-frame-norm")
    worst = 0.0
    for i in instances:
        r = i.oracle
        frame_sq = (r.F / i.spec.num_spins) ** 2 + (r.k_coeff / r.norm_K) ** 2
        worst = max(worst, abs(r.norm_Rs ** 2 - frame_sq))
    return CheckResult(
        name="remark1-frame-norm",
        passed=worst <= 1e-10,
        detail=f"worst |R_S|^2 defect {worst:.3e} (limit 1e-10)")


def check_remark2(instances: list[Instance]) -> CheckResult:
    """F/N <= |R_S| always; |R_S| <= 1/N is empirical, failure only warns."""
    if not instances:
        return _no_instances("remark2-projection-bounds")
    lower_bad = [i for i in instances
                 if i.oracle.norm_Rs < i.oracle.F / i.spec.num_spins - 1e-12]
    upper_bad = [i for i in instances
                 if i.oracle.norm_Rs > 1.0 / i.spec.num_spins + 1e-10]
    if lower_bad:
        i = lower_bad[0]
        r = i.oracle
        return CheckResult(
            name="remark2-projection-bounds", passed=False,
            detail=f"lower bound broken at controller {r.controller_index} "
                   f"structure {r.structure_index}: |R_S| = {r.norm_Rs:.12e} "
                   f"< F/N = {r.F / i.spec.num_spins:.12e}")
    if upper_bad:
        dump = "; ".join(
            f"controller {i.oracle.controller_index} structure "
            f"{i.oracle.structure_index} |R_S| = {i.oracle.norm_Rs:.12e} "
            f"(1/N = {1.0 / i.spec.num_spins:.6e})"
            for i in upper_bad[:5])
        return CheckResult(
            name="remark2-projection-bounds", passed=True, warning=True,
            detail=f"upper bound exceeded on {len(upper_bad)} instances "
                   f"(observation, not a theorem): {dump}")
    return CheckResult(
        name="remark2-projection-bounds", passed=True,
        detail=f"{len(instances)} instances inside [F/N - 1e-12, 1/N + 1e-10]")


def check_three_way(seed: int, dims: tuple[int, ...], per_dim: int) -> CheckResult:
    """Closed form vs the Frechet derivative of the N x N exponential vs
    finite differences on ``per_dim`` random instances per size in
    ``dims``, one drawn structure each; fails when there are none."""
    sizes = [n for n in dims for _ in range(per_dim)]
    if not sizes:
        return _no_instances("three-way-agreement")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst_frechet = worst_fd = 0.0
    for controller in _random_controllers(rng, sizes):
        spec = controller.spec
        structures, _ = _structure_images(spec.num_spins, spec.topology)
        structure = structures[int(rng.integers(len(structures)))]
        record, = evaluate_controller(controller, (structure,))
        frechet = frechet_oracle(structure, controller)
        fd = fd_oracle(structure, controller)
        zeta = record.zeta
        worst_frechet = max(worst_frechet,
                            abs(frechet - zeta) / max(1e-8 * abs(zeta), 1e-10))
        worst_fd = max(worst_fd, abs(fd - zeta) / max(1e-6 * abs(zeta), 1e-8))
    passed = worst_frechet <= 1.0 and worst_fd <= 1.0
    return CheckResult(
        name="three-way-agreement",
        passed=passed,
        detail=f"{len(sizes)} instances; Frechet derivative at {worst_frechet:.3e} "
               f"and finite differences at {worst_fd:.3e} of their budgets")


# Zero-bias perfect-transfer anchors (spins, topology, output spin, t_f), all
# from spin 1: the two-spin chain, and 1 -> 3 on the 3-chain and on the 4-ring
# (Christandl et al., PRL 92, 187902, 2004).
PST_ANCHORS = ((2, "chain", 2, math.pi / 2.0),
               (3, "chain", 3, math.pi / math.sqrt(2.0)),
               (4, "ring", 3, math.pi / 2.0))


def check_pst_sufficiency() -> CheckResult:
    """At each perfect-transfer anchor every published and reference record
    is insensitive, with |R_S| = 1/N and cos phi = 1."""
    worst_zeta = worst_rs = worst_cos = 0.0
    for n, topology, out, t_f in PST_ANCHORS:
        spec = NetworkSpec(num_spins=n, topology=topology, input_spin=1, output_spin=out)
        controller = Controller(biases=np.zeros(n), t_f=t_f,
                                fidelity=transfer_fidelity(spec, np.zeros(n), t_f),
                                spec=spec, seed=0, index=0)
        records = [r for i in _instances(controller) for r in (i.record, i.oracle)]
        if not all(r.pst for r in records):
            return CheckResult(name="theorem2-sufficiency", passed=False,
                               detail=f"{n}-spin {topology} 1 -> {out} at t = "
                                      f"{t_f:.6g} is not perfect transfer")
        for r in records:
            # unit scaling probes the bias structures too; on-site biases are 0
            worst_zeta = max(worst_zeta, abs(r.zeta), t_f * abs(r.k_coeff))
            worst_rs = max(worst_rs, abs(r.norm_Rs - 1.0 / n))
            worst_cos = max(worst_cos, abs(r.cos_phi - 1.0))
    passed = worst_zeta <= 1e-9 and worst_rs <= 1e-9 and worst_cos <= 1e-9
    return CheckResult(
        name="theorem2-sufficiency",
        passed=passed,
        detail=f"{len(PST_ANCHORS)} anchors, published and reference records: "
               f"max |zeta| = {worst_zeta:.3e}, max ||R_S| - 1/N| = {worst_rs:.3e}, "
               f"cos phi defect {worst_cos:.3e} (limits 1e-9)")


def check_necessity(seed: int, restarts: int) -> CheckResult:
    """Imperfect transfer implies nonzero sensitivity, desk scale.

    On a synthesized ensemble, every record with error inside
    [1e-6, 0.5] and scaling f_n >= 0.1 must show |zeta| >= 1e-12 unless
    its alignment factor sin phi is itself at the zero floor, judged on
    the columns of one ``evaluate_ensemble`` pass. This gates
    theorem 2 alone: the published records satisfy theorem 1's identity
    by construction, theorem1-identity gates it on the reference records,
    and cross-formulation catches a defect of the published route.
    """
    spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
    config = SynthesisConfig(restarts=restarts, seed=seed)
    records = evaluate_ensemble(synthesize_ensemble(spec, config), enumerate_structures(spec))
    abs_zeta = np.abs(records.zeta)
    eligible = (1e-6 <= records.e) & (records.e <= 0.5) & (records.f_n >= 0.1)
    violations = np.argwhere(eligible & (abs_zeta < 1e-12) & (records.sin_phi > 1e-8))
    passed = bool(eligible.any()) and not violations.size
    if violations.size:
        c, s = violations[0]
        detail = (f"controller {records.controller_index[c, 0]} structure "
                  f"{records.structure_index[0, s]}: e = {records.e[c, 0]:.3e} but "
                  f"|zeta| = {abs_zeta[c, s]:.3e} with sin phi = {records.sin_phi[c, s]:.3e}")
    elif not eligible.any():
        detail = "no records in the eligible error band; enlarge the ensemble"
    else:
        detail = (f"{eligible.sum()} eligible records of {abs_zeta.size}, "
                  f"min |zeta| = {abs_zeta[eligible].min():.3e}")
    return CheckResult(name="theorem2-necessity", passed=passed, detail=detail)


def record_gap(record: GeometryRecord, oracle: GeometryRecord, n: int) -> float:
    """Worst field gap of a published record from its reference record,
    as a fraction of that field's budget.

    Budgets: F and |R_S| 1e-12 absolute; zeta, k and |K| 1e-9 * max(1, |x|);
    sin phi and cos phi ``_angle_allowance``, 1e-8 + 8 n^2 eps / |R_S|.
    Flags are compared separately.
    """
    gaps = [abs(record.F - oracle.F) / 1e-12,
            abs(record.norm_Rs - oracle.norm_Rs) / 1e-12]
    for a, b in ((record.zeta, oracle.zeta), (record.k_coeff, oracle.k_coeff),
                 (record.norm_K, oracle.norm_K)):
        gaps.append(abs(a - b) / (1e-9 * max(1.0, abs(b))))
    if not (record.zero_fidelity or oracle.zero_fidelity):
        allowance = _angle_allowance(n, oracle)
        gaps += [abs(record.sin_phi - oracle.sin_phi) / allowance,
                 abs(record.cos_phi - oracle.cos_phi) / allowance]
    return max(gaps)


def check_cross_formulation(seed: int, count: int, dims: tuple[int, ...]) -> CheckResult:
    """Adjoint-picture transfer agrees with Schroedinger propagation, and
    the published records agree with the adjoint-picture reference.

    Checks both the scalar fidelity and the full propagated state; the
    latter is what catches a flipped generator sign, which the scalar
    cannot see on real Hamiltonians (swapping input and output there
    gives the same transfer probability). Every record of each controller
    is then compared field by field (``record_gap``), and its perfect
    transfer and zero-fidelity flags must match. The controllers take their
    sizes from ``dims`` in turn; fails when none is left to compare.
    """
    if count < 1 or not dims:
        return _no_instances("cross-formulation")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst_f = worst_state = worst_record = 0.0
    flag_mismatches = 0
    for controller in _random_controllers(rng, (dims[k % len(dims)] for k in range(count))):
        spec = controller.spec
        n = spec.num_spins
        ham = build_hamiltonian(spec, controller.biases)
        frame = _adjoint_frame(controller)
        r0, _, _, _, phi = frame
        instances = _instances(controller, frame)
        # the reference F = rf . Phi r0, which every record of the controller carries
        f_bloch = instances[0].oracle.F
        psi_t = _expm(-1j * ham * controller.t_f) @ site_state(n, spec.input_spin)
        f_hilbert = float(abs(psi_t[spec.output_spin - 1]) ** 2)
        r_t = state_to_bloch(psi_t / np.linalg.norm(psi_t))
        worst_f = max(worst_f, abs(f_bloch - f_hilbert))
        worst_state = max(worst_state, float(np.linalg.norm(phi @ r0 - r_t)))
        for i in instances:
            r, o = i.record, i.oracle
            worst_record = max(worst_record, record_gap(r, o, n))
            flag_mismatches += (r.pst != o.pst) + (r.zero_fidelity != o.zero_fidelity)
    passed = (worst_f <= 1e-10 and worst_state <= 1e-10 and worst_record <= 1.0
              and not flag_mismatches)
    return CheckResult(
        name="cross-formulation",
        passed=passed,
        detail=f"{count} instances; fidelity gap {worst_f:.3e}, "
               f"state gap {worst_state:.3e} (limits 1e-10); records at "
               f"{worst_record:.3e} of their budgets, {flag_mismatches} flag "
               f"mismatches")


def run_checks(seed: int, dims: tuple[int, ...], systems_per_dim: int,
               three_way_per_dim: int, cross_count: int,
               necessity_restarts: int) -> list[CheckResult]:
    """The nine checks in report order. Every randomized check draws from
    ``seed``, the pool ones from ``dims``; ``spinsens verify`` holds the
    default sizes."""
    instances = sample_instances(seed, dims=dims, systems_per_dim=systems_per_dim)
    return [
        check_lemma1(instances),
        check_lemma2(instances),
        check_theorem1(instances),
        check_remark1(instances),
        check_remark2(instances),
        check_pst_sufficiency(),
        check_necessity(seed, restarts=necessity_restarts),
        check_three_way(seed, dims=dims, per_dim=three_way_per_dim),
        check_cross_formulation(seed, count=cross_count, dims=dims),
    ]
