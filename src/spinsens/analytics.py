"""Ensemble tables: geometry records and per-structure correlation stats.

For every (controller, uncertainty structure) pair the pipeline computes
the scale quantities of the geometric decomposition (fidelity,
sensitivity, frame coefficient and norms) in the N x N picture, and
``GeometryRecord.assemble`` turns them into one record, angles included.
The scale quantities come from ``eigh`` of the N x N Hamiltonian, once
per controller, plus one O(N^3) contraction per structure
(``sensitivity.sensitivity_operator``); no N^2 x N^2 operator is formed.
The adjoint-picture route that builds Phi and K explicitly is kept in
``verification`` as the reference these records are checked against.

Per structure, two statistics summarize the ensemble: the Pearson
correlation of log error against log absolute sensitivity, and the
Kendall rank correlation of error against the alignment factor sin phi.
Records whose sensitivity is exactly zero have no log image; they are
dropped from the Pearson sample and the count reflects the rows actually
used. Undefined statistics (zero variance, all ties, too few rows) are
reported as nan rather than aborting the batch.

Both statistics are written out from their definitions on purpose; they
double as the oracle for themselves and stay exact at desk scale.
Kendall's tau-b counts every pair exactly, O(n^2), from whole blocks of
the pairwise sign matrices; the counts are integers, so the blocking
does not change a bit of tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import PST_TOL, GeometryRecord
from .network import UncertaintyStructure, enumerate_structures, scaling_factor
from .sensitivity import hilbert_transfer, sensitivity_operator
from .synthesis import Controller

# Largest accepted t_f * max|E|. The phases exp(-iEt) carry an absolute
# error of about eps * t_f * max|E|, so at this bound they keep about eight
# digits; far beyond it every record is noise that still passes its checks.
TF_CONDITION_LIMIT = 1e8

# Cells of one block of ``kendall``'s sign matrices, whatever the sample
# size: a quarter million, 256 KiB per int8 matrix or bool comparison.
KENDALL_BLOCK_CELLS = 1 << 18


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


def _signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sign(a_i - b_j) as int8, from comparisons: no difference is formed,
    # so equal infinities count as tied
    a = a[:, None]
    return (a > b).view(np.int8) - (a < b).view(np.int8)


def kendall(x, y) -> float:
    """Tie-corrected Kendall tau-b over all pairs, O(n^2) and exact.

    The pairs are counted from the sign matrices sign(x_i - x_j) and
    sign(y_i - y_j), a block of ``KENDALL_BLOCK_CELLS`` / n rows (at least
    one) at a time, so the extra memory stays O(n * block), not O(n^2).
    Both matrices are antisymmetric: their product summed over the full
    matrix is twice concordant minus discordant, and their zeros are twice
    the tied pairs plus the n on the diagonal. The counts are integers, so
    tau does not depend on the blocking. nan when every pair is tied in
    one of the inputs; an input holding nan is rejected.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length vectors")
    n = x.size
    if n < 2:
        raise ValueError("need at least two samples")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError("inputs must not hold nan")
    rows = max(1, KENDALL_BLOCK_CELLS // n)
    sign_products = zeros_x = zeros_y = 0
    for start in range(0, n, rows):
        sx = _signs(x[start:start + rows], x)
        sy = _signs(y[start:start + rows], y)
        zeros_x += sx.size - np.count_nonzero(sx)
        zeros_y += sy.size - np.count_nonzero(sy)
        sign_products += int((sx * sy).sum())
    n0 = n * (n - 1) // 2
    tied_x = (zeros_x - n) // 2
    tied_y = (zeros_y - n) // 2
    denom = math.sqrt(float(n0 - tied_x) * float(n0 - tied_y))
    if denom == 0.0:
        return float("nan")
    return max(-1.0, min(1.0, sign_products // 2 / denom))


def evaluate_controller(controller: Controller,
                        structures: tuple[UncertaintyStructure, ...],
                        ) -> list[GeometryRecord]:
    """All geometry records of one controller, one per structure.

    F = |U_oi|^2 from the propagated input column. Per structure,
    ``sensitivity_operator`` gives k = <R, K> and |K|; then
    zeta = -t_f f_n k, |R_S| = hypot(F/N, k/|K|), and the part of R_S off
    the propagator has norm |k|/|K|. The transfer counts as perfect when
    |rf - Phi r0| = sqrt(2 leak (F + leak)) <= ``PST_TOL``, with leak the
    population off the output site; unlike 1 - F this keeps its digits
    at perfect transfer.

    Raises ValueError when t_f * max|E| exceeds ``TF_CONDITION_LIMIT``.
    """
    spec = controller.spec
    t_f = controller.t_f
    n = spec.num_spins
    transfer = hilbert_transfer(spec, controller.biases, t_f)
    phase_scale = t_f * float(np.abs(transfer.e).max())
    if phase_scale > TF_CONDITION_LIMIT:
        raise ValueError(
            f"controller {controller.index}: tf {t_f!r} times the spectral radius "
            f"of H is {phase_scale:.3e}, above {TF_CONDITION_LIMIT:.0e}, where "
            "the phases exp(-iEt) lose more than half their digits")
    probs = np.abs(transfer.column) ** 2
    f_val = float(probs[transfer.output])
    leak = float(np.delete(probs, transfer.output).sum())
    pst = math.sqrt(2.0 * leak * (f_val + leak)) <= PST_TOL
    records = []
    for structure in structures:
        k_coeff, norm_k = sensitivity_operator(transfer, structure.matrix)
        f_n = scaling_factor(structure, controller)
        perp = abs(k_coeff) / norm_k
        records.append(GeometryRecord.assemble(
            controller.index, structure.index, n, t_f, f_val=f_val,
            zeta=-t_f * f_n * k_coeff, f_n=f_n, k_coeff=k_coeff, norm_k=norm_k,
            norm_rs=math.hypot(f_val / n, perp), perp=perp, pst=pst))
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


def analyze(controllers: list[Controller],
            ) -> tuple[list[GeometryRecord], list[CorrelationSummary]]:
    """Records for every (controller, structure) pair plus per-structure stats.

    The structures are those ``enumerate_structures`` gives for the network
    all controllers share. Records come in controller order, then
    structure order.
    """
    if not controllers:
        raise ValueError("cannot analyze an empty ensemble")
    spec = controllers[0].spec
    for c in controllers:
        if c.spec != spec:
            raise ValueError("all controllers must share one network")
    structures = enumerate_structures(spec)

    records = [rec for c in controllers
               for rec in evaluate_controller(c, structures)]
    # records[j::S] are the records of the j-th of the S structures
    summaries = [summarize_structure(records[j::len(structures)], s.index)
                 for j, s in enumerate(structures)]
    return records, summaries
