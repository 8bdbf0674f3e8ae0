"""Numerical verification suite for the sensitivity geometry.

Every check here compares the closed-form machinery against either an
exact structural identity (orthogonality, norm bounds, the |zeta|
factorization) or an independent computational route (Hilbert-space
propagation, quadrature of the integral representation, finite
differences of the re-propagated error). Checks sample randomized
networks and controllers from a seeded generator, so a failure report
always pins the offending instance. This module only compares: both
routes build their records with ``GeometryRecord.assemble``, the scale
and the angle allowance come from ``geometry``, and the oracles from
``sensitivity``.

The records ``analyze`` publishes come from the N x N Hamiltonian, where
the structural identities hold by construction. ``adjoint_records`` keeps
the N^2 x N^2 adjoint-picture route (explicit propagator Phi, explicit
sensitivity operators K, explicit projection) as the reference, over
plain arrays: a controller's frame is the tuple (r0, rf, lam, M, Phi) of
its endpoints, its generator's eigensystem and its propagator. One
stacked pass over every structure per controller reads F and <R, K> off
the frame once each: the structural checks read its records,
and the cross-formulation check compares the published records with it
field by field. The frame identities are checked here alone: a reference
record whose |R_S|^2 strays from (F/N)^2 + (k/|K|)^2, or whose |cos theta|
strays from sin phi, fails the remark-1 or theorem-1 check instead of
aborting the run.

The suite is what `verify` runs from the command line, which alone holds
the default sample sizes; the acceptance tests call the same functions
with the documented sizes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import expm

from .analytics import analyze, evaluate_controller
from .bloch import adjoint_rep, site_state, state_to_bloch
from .geometry import (TINY, GeometryRecord, _frob, angle_slack, project, pst_check,
                       scale_product)
from .network import (NetworkSpec, UncertaintyStructure, _readonly,
                      build_hamiltonian, enumerate_structures, scaling_factor)
from .sensitivity import (adjoint_sensitivity_operator, fd_oracle, propagator_matrix,
                          quadrature_oracle, spectral_decompose)
from .synthesis import Controller, SynthesisConfig, synthesize_ensemble, transfer_fidelity

# Randomized instances live on modest time and bias scales so that the
# finite-difference truncation error and the oscillation budget of the
# fixed-order quadrature both stay far below the agreement tolerances.
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
    """One randomized (controller, structure) pair.

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
    the fidelity is filled in honestly."""
    for index, n in enumerate(sizes):
        topology = "ring" if n >= 3 and rng.random() < 0.5 else "chain"
        pair = rng.choice(n, size=2, replace=False) + 1
        spec = NetworkSpec(num_spins=n, topology=topology,
                           input_spin=int(pair[0]), output_spin=int(pair[1]))
        biases = rng.uniform(-INSTANCE_BIAS_SCALE, INSTANCE_BIAS_SCALE, n)
        t_f = float(rng.uniform(*INSTANCE_T_RANGE))
        f = transfer_fidelity(spec, biases, t_f)
        yield Controller(biases=biases, t_f=t_f, fidelity=float(min(1.0, max(0.0, f))),
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


def _endpoints(spec: NetworkSpec) -> tuple[np.ndarray, np.ndarray]:
    """Coherence vectors r0 and rf of the input and output sites."""
    return (state_to_bloch(site_state(spec.num_spins, spec.input_spin)),
            state_to_bloch(site_state(spec.num_spins, spec.output_spin)))


def _adjoint_frame(controller: Controller) -> tuple[np.ndarray, ...]:
    """(r0, rf, lam, M, Phi) of one controller: its endpoints, the
    eigensystem A = M diag(i lam) M* of its adjoint generator, and the
    propagator Phi = exp(A t_f) built from it."""
    lam, m = spectral_decompose(
        adjoint_rep(build_hamiltonian(controller.spec, controller.biases)))
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
    k = <R, K> = rf . K r0 per structure, zeta = -t_f f_n k, and one
    ``project`` call assembles every R_S from F and k. Nothing is shared
    with the N x N route of ``evaluate_controller`` except
    ``GeometryRecord.assemble``, which turns the scale quantities into
    a record.
    """
    structures, s_images = _structure_images(controller.spec.num_spins,
                                             controller.spec.topology)
    r0, rf, lam, m, phi = _adjoint_frame(controller) if frame is None else frame
    f_val = float(rf @ phi @ r0)
    pst = pst_check(phi, r0, rf)
    k_op, norm_k = adjoint_sensitivity_operator(lam, m, s_images, controller.t_f)
    f_n = np.array([scaling_factor(s, controller) for s in structures])
    k_coeff = rf @ k_op @ r0
    zeta = -controller.t_f * f_n * k_coeff
    _, norm_rs, perp = project(f_val, k_coeff, phi, k_op, norm_k)
    tr_phi_k = _frob(phi, k_op)
    n = controller.spec.num_spins
    return [(GeometryRecord.assemble(
                controller.index, structure.index, n, controller.t_f, f_val=f_val,
                zeta=float(zeta[i]), f_n=float(f_n[i]), k_coeff=float(k_coeff[i]),
                norm_k=float(norm_k[i]), norm_rs=float(norm_rs[i]),
                perp=float(perp[i]), pst=pst),
             float(tr_phi_k[i]))
            for i, structure in enumerate(structures)]


def _record_pairs(controller: Controller,
                  frame: tuple[np.ndarray, ...] | None = None,
                  ) -> list[tuple[GeometryRecord, GeometryRecord, float]]:
    """Per structure, the record ``evaluate_controller`` publishes, the
    ``adjoint_records`` reference record and its <Phi, K>."""
    structures, _ = _structure_images(controller.spec.num_spins, controller.spec.topology)
    return [(r, o, tr) for r, (o, tr) in zip(evaluate_controller(controller, structures),
                                              adjoint_records(controller, frame))]


def sample_instances(seed: int, dims: tuple[int, ...], systems_per_dim: int) -> list[Instance]:
    """Randomized instance pool shared by the structural checks.

    Each instance carries the record ``evaluate_controller`` publishes and
    the adjoint-picture reference record of the same pair.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out: list[Instance] = []
    for controller in _random_controllers(
            rng, (n for n in dims for _ in range(systems_per_dim))):
        spec = controller.spec
        _, images = _structure_images(spec.num_spins, spec.topology)
        s_frob = np.linalg.norm(images, axis=(-2, -1))
        out.extend(Instance(spec=spec, record=r, oracle=o, tr_phi_K=tr, s_frob=float(norm))
                   for (r, o, tr), norm in zip(_record_pairs(controller), s_frob))
    return out


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
    # of ``angles``
    return 1e-8 + angle_slack(n, record.norm_Rs)


def _identity_budget(record: GeometryRecord) -> float:
    # tolerance of a record's identity residual
    return 1e-8 * max(1.0, record.abs_zeta)


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
    worst = max(r.identity_residual / _identity_budget(r) for _, r in records)
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
    """Closed form vs quadrature vs finite differences on random instances
    of up to 5 spins, one drawn structure each; fails when there are none."""
    sizes = [n for n in dims if n <= 5 for _ in range(per_dim)]
    if not sizes:
        return _no_instances("three-way-agreement")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst_quad = worst_fd = 0.0
    for controller in _random_controllers(rng, sizes):
        spec = controller.spec
        structures, images = _structure_images(spec.num_spins, spec.topology)
        pick = int(rng.integers(len(structures)))
        structure, image = structures[pick], images[pick]
        record, = evaluate_controller(controller, (structure,))
        r0, rf = _endpoints(spec)
        quad = quadrature_oracle(adjoint_rep(build_hamiltonian(spec, controller.biases)),
                                 image, controller.t_f, r0, rf, record.f_n)
        fd = fd_oracle(structure, controller)
        zeta = record.zeta
        worst_quad = max(worst_quad, abs(quad - zeta) / max(1e-8 * abs(zeta), 1e-10))
        worst_fd = max(worst_fd, abs(fd - zeta) / max(1e-6 * abs(zeta), 1e-8))
    passed = worst_quad <= 1.0 and worst_fd <= 1.0
    return CheckResult(
        name="three-way-agreement",
        passed=passed,
        detail=f"{len(sizes)} instances; quadrature at {worst_quad:.3e} and "
               f"finite differences at {worst_fd:.3e} of their budgets")


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
        records = [r for pair in _record_pairs(controller) for r in pair[:2]]
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
    its alignment factor sin phi is itself at the zero floor.
    """
    spec = NetworkSpec(num_spins=4, topology="ring", input_spin=1, output_spin=2)
    config = SynthesisConfig(restarts=restarts, seed=seed)
    ensemble = synthesize_ensemble(spec, config)
    records, _ = analyze(ensemble)
    eligible = [r for r in records
                if 1e-6 <= r.e <= 0.5 and r.f_n >= 0.1]
    violations = [r for r in eligible
                  if r.abs_zeta < 1e-12 and r.sin_phi > 1e-8]
    residual_bad = [r for r in records
                    if math.isfinite(r.identity_residual)
                    and r.identity_residual > _identity_budget(r)]
    passed = not violations and not residual_bad and bool(eligible)
    if violations:
        r = violations[0]
        detail = (f"controller {r.controller_index} structure "
                  f"{r.structure_index}: e = {r.e:.3e} but |zeta| = "
                  f"{r.abs_zeta:.3e} with sin phi = {r.sin_phi:.3e}")
    elif residual_bad:
        r = residual_bad[0]
        detail = (f"identity residual {r.identity_residual:.3e} at controller "
                  f"{r.controller_index} structure {r.structure_index}")
    elif not eligible:
        detail = "no records in the eligible error band; enlarge the ensemble"
    else:
        detail = (f"{len(eligible)} eligible records of {len(records)}, "
                  f"min |zeta| = {min(r.abs_zeta for r in eligible):.3e}")
    return CheckResult(name="theorem2-necessity", passed=passed, detail=detail)


def record_gap(record: GeometryRecord, oracle: GeometryRecord, n: int) -> float:
    """Worst field gap of a published record from its reference record,
    as a fraction of that field's budget.

    Budgets: F and |R_S| 1e-12 absolute; zeta, k and |K| 1e-9 * max(1, |x|);
    sin phi and cos phi 1e-8 + 8 n^2 eps / |R_S|, the conditioning
    allowance of ``angles``. Flags are compared separately.
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
        pairs = _record_pairs(controller, frame)
        # the reference F = rf . Phi r0, which every record of the controller carries
        f_bloch = pairs[0][1].F
        psi_t = expm(-1j * ham * controller.t_f) @ site_state(n, spec.input_spin)
        f_hilbert = float(abs(psi_t[spec.output_spin - 1]) ** 2)
        r_t = state_to_bloch(psi_t / np.linalg.norm(psi_t))
        worst_f = max(worst_f, abs(f_bloch - f_hilbert))
        worst_state = max(worst_state, float(np.linalg.norm(phi @ r0 - r_t)))
        for r, o, _ in pairs:
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
