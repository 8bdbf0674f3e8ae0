"""Ensemble tables: geometry records and per-structure correlation stats.

For every (controller, uncertainty structure) pair the pipeline computes
the full geometric decomposition (fidelity, sensitivity, frame norms and
angles) as one record. Per structure, two statistics summarize the
ensemble: the Pearson correlation of log error against log absolute
sensitivity, and the Kendall rank correlation of error against the
alignment factor sin phi. Records whose sensitivity is exactly zero have
no log image; they are dropped from the Pearson sample and the count
reflects the rows actually used. Undefined statistics (zero variance,
all ties, too few rows) are reported as nan rather than aborting the
batch.

Both statistics are written out from their definitions on purpose; they
double as the oracle for themselves and stay exact at desk scale.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bloch import adjoint_rep, build_bloch_system, fidelity, gell_mann_basis
from .geometry import (GeometryRecord, angles, identity_residual, io_operator,
                       project, pst_check)
from .network import (NetworkSpec, UncertaintyStructure, build_hamiltonian,
                      enumerate_structures, scaling_factor)
from .sensitivity import (differential_sensitivity, propagator_matrix,
                          sensitivity_operator, spectral_decompose)
from .synthesis import Controller

# Below this fidelity the angle decomposition is numerically meaningless;
# records are kept but angle fields carry nan and are excluded from stats.
ZERO_FIDELITY_FLOOR = 1e-12


@dataclass(frozen=True)
class CorrelationSummary:
    """Per-structure ensemble statistics; nan marks an undefined statistic."""

    structure_index: int
    pearson_r_loglog: float
    kendall_tau: float
    count: int
    mean_norm_K: float
    var_norm_K: float


def pearson(x, y) -> float:
    """Sample Pearson correlation; nan when either input has zero variance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    if x.size < 2:
        raise ValueError("need at least two samples")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    if sx == 0.0 or sy == 0.0:
        return float("nan")
    return float(np.clip(float(dx @ dy) / (sx * sy), -1.0, 1.0))


def kendall(x, y) -> float:
    """Tie-corrected Kendall tau-b over all pairs, O(n^2) and exact.

    nan when every pair is tied in one of the inputs.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    concordant_minus_discordant = 0
    tied_x = 0
    tied_y = 0
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


def evaluate_controller(controller: Controller,
                        structures: tuple[UncertaintyStructure, ...],
                        s_images: tuple[np.ndarray, ...],
                        pst_tol: float = 1e-12) -> list[GeometryRecord]:
    """All geometry records of one controller, one per structure."""
    spec = controller.spec
    ham = build_hamiltonian(spec, controller.biases)
    system = build_bloch_system(ham, spec, controller.t_f)
    sd = spectral_decompose(system.A)
    phi = propagator_matrix(sd, controller.t_f)
    f_val, e_val = fidelity(system.rf, phi, system.r0)
    pst = pst_check(phi, system.r0, system.rf, pst_tol)
    r_op = io_operator(system.rf, system.r0)
    zero_fid = f_val < ZERO_FIDELITY_FLOOR
    n = spec.num_spins

    records = []
    for structure, image in zip(structures, s_images):
        op = sensitivity_operator(sd, image, controller.t_f)
        f_n = scaling_factor(structure, controller)
        zeta = differential_sensitivity(system, op, f_n)
        _, norm_rs, perp = project(r_op, phi, op)
        if zero_fid or norm_rs <= 0.0:
            cos_phi = sin_phi = cos_theta = residual = float("nan")
            zero_fid_rec = True
        else:
            cos_phi, sin_phi, cos_theta = angles(
                f_val, zeta, n, norm_rs, op.norm_K, f_n, controller.t_f,
                norm_rs_perp=perp)
            residual = identity_residual(zeta, f_n, controller.t_f,
                                         op.norm_K, norm_rs, sin_phi)
            zero_fid_rec = False
        records.append(GeometryRecord(
            controller_index=controller.index,
            structure_index=structure.index,
            F=f_val,
            e=e_val,
            zeta=zeta,
            f_n=f_n,
            t_f=controller.t_f,
            norm_K=op.norm_K,
            norm_Rs=norm_rs,
            k_coeff=float(np.tensordot(r_op, op.K, axes=2)),
            tr_phi_K=float(np.tensordot(phi, op.K, axes=2)),
            cos_phi=cos_phi,
            sin_phi=sin_phi,
            cos_theta=cos_theta,
            identity_residual=residual,
            pst=pst,
            zero_fidelity=zero_fid_rec))
    return records


def summarize_structure(records: list[GeometryRecord],
                        structure_index: int) -> CorrelationSummary:
    """Fold one structure's records into the two correlation statistics."""
    rows = [r for r in records if r.structure_index == structure_index]
    if not rows:
        raise ValueError(f"no records for structure {structure_index}")
    norms = np.array([r.norm_K for r in rows])
    loglog = [(math.log10(r.e), math.log10(r.abs_zeta))
              for r in rows
              if r.e > 0.0 and r.abs_zeta > 0.0 and not r.zero_fidelity]
    if len(loglog) >= 2:
        le, lz = map(np.asarray, zip(*loglog))
        r_loglog = pearson(le, lz)
    else:
        r_loglog = float("nan")
    ranked = [(r.e, r.sin_phi) for r in rows if math.isfinite(r.sin_phi)]
    if len(ranked) >= 2:
        err, sin = map(np.asarray, zip(*ranked))
        tau = kendall(err, sin)
    else:
        tau = float("nan")
    return CorrelationSummary(
        structure_index=structure_index,
        pearson_r_loglog=r_loglog,
        kendall_tau=tau,
        count=len(loglog),
        mean_norm_K=float(norms.mean()),
        var_norm_K=float(norms.var()))


def analyze(controllers: list[Controller], *, threads: int | None = None,
            pst_tol: float = 1e-12,
            ) -> tuple[list[GeometryRecord], list[CorrelationSummary]]:
    """Records for every (controller, structure) pair plus per-structure stats.

    The structures are those ``enumerate_structures`` gives for the network
    all controllers share.

    The per-controller work runs as a parallel map when ``threads`` > 1;
    the output order depends only on the input order.
    """
    if not controllers:
        raise ValueError("cannot analyze an empty ensemble")
    spec = controllers[0].spec
    for c in controllers:
        if c.spec != spec:
            raise ValueError("all controllers must share one network")
    structures = enumerate_structures(spec)
    basis = gell_mann_basis(spec.num_spins)
    s_images = tuple(adjoint_rep(s.matrix, basis) for s in structures)

    def work(c: Controller) -> list[GeometryRecord]:
        return evaluate_controller(c, structures, s_images, pst_tol)

    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_controller = list(pool.map(work, controllers))
    else:
        per_controller = [work(c) for c in controllers]

    records = [rec for group in per_controller for rec in group]
    summaries = [summarize_structure(records, s.index) for s in structures]
    return records, summaries
