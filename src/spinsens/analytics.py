"""Ensemble tables: geometry records and per-structure correlation stats.

For every (controller, uncertainty structure) pair the pipeline measures
the fidelity, the frame coefficient and the norms in the N x N picture,
and ``GeometryRecord.assemble`` turns the measurements into the records,
deriving f_n, zeta, the angles and the perfect-transfer flag. One pass
covers a whole ensemble (``evaluate_ensemble``): one stacked ``eigh`` of
the N x N Hamiltonians and one stacked O(N^3) contraction
(``hilbert_transfer``), then O(N^2) at most per record
(``sensitivity_operator``); no N^2 x N^2 operator is formed and no
structure matrix is conjugated. Each controller's records are the bytes
it gets alone, which ``evaluate_controller`` computes as a stack of one.
The adjoint-picture route that builds Phi and K explicitly is kept in
``verification`` as the reference these records are checked against.

Per structure, two statistics summarize the ensemble: the Pearson
correlation of log error against log absolute sensitivity, and the
Kendall rank correlation of error against the alignment factor sin phi.
Records whose sensitivity is exactly zero have no log image; they are
dropped from the Pearson sample and the count reflects the rows actually
used. A zero-fidelity controller, flagged as a whole, leaves both
samples of every structure. Undefined statistics (zero variance, all
ties, fewer than two rows, as in a one-controller ensemble) are reported
as nan rather than aborting the batch. ``summarize_structure`` computes
them for every structure in one pass over the record columns: ``pearson``
and ``kendall`` take column stacks with a sample mask per column.

Both statistics are written out from their definitions on purpose; they
double as the oracle for themselves and stay exact at desk scale.
Kendall's tau-b counts every pair exactly, O(n^2), from whole blocks of
the pairwise sign matrices; the counts are integers, so the blocking
does not change a bit of tau.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np

from .geometry import GeometryRecord, RecordColumns
from .network import UncertaintyStructure, enumerate_structures
from .sensitivity import HilbertTransfer, hilbert_transfer, sensitivity_operator
from .synthesis import Controller

# Largest accepted t_f * max|E|. The phases exp(-iEt) carry an absolute
# error of about eps * t_f * max|E|, so at this bound they keep about eight
# digits; far beyond it every record is noise that still passes its checks.
TF_CONDITION_LIMIT = 1e8

# Cells of one block of ``kendall``'s sign matrices, whatever the sample
# size: a quarter million, 256 KiB per int8 matrix or bool comparison.
KENDALL_BLOCK_CELLS = 1 << 18


class CorrelationSummary(NamedTuple):
    """Per-structure ensemble statistics, one immutable ``NamedTuple`` row;
    nan marks an undefined statistic."""

    structure_index: int
    pearson_r_loglog: float
    kendall_tau: float
    count: int
    mean_norm_K: float
    var_norm_K: float


def _columns(x, y, where) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    # x and y as (n, columns) float arrays that broadcast against each other,
    # the sample mask as a bool array of their joint shape, and whether all
    # three came as vectors (or a scalar mask), which gives one statistic
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    where = np.asarray(where, dtype=bool)
    if x.ndim not in (1, 2) or y.ndim not in (1, 2) or not 0 < x.shape[0] == y.shape[0]:
        raise ValueError("inputs must be equal-length, nonempty vectors or column stacks")
    vector = x.ndim == y.ndim == 1 and where.ndim <= 1
    x, y = (a.reshape(a.shape[0], -1) for a in (x, y))
    if where.ndim == 1:
        where = where[:, None]
    shape = np.broadcast_shapes(x.shape, y.shape, where.shape)
    return x, y, np.broadcast_to(where, shape), vector


def _result(values: np.ndarray, vector: bool) -> float | np.ndarray:
    return float(values[0]) if vector else values


def pearson(x, y, where=True) -> float | np.ndarray:
    """Sample Pearson correlation; nan when either input has zero variance
    or there are fewer than two samples.

    ``x`` and ``y`` are vectors of n samples, or column stacks (n, m) that
    broadcast against each other along their columns (an (n, 1) stack or a
    vector is shared by every column); a stack gives one correlation per
    column. ``where``, of the same shape or broadcast to it, marks the
    samples each column uses; a column with fewer than two is nan.
    """
    x, y, where, vector = _columns(x, y, where)
    count = where.sum(axis=0)
    x = np.where(where, x, 0.0)
    y = np.where(where, y, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = np.where(where, x - x.sum(axis=0) / count, 0.0)
        dy = np.where(where, y - y.sum(axis=0) / count, 0.0)
        sx = np.sqrt((dx * dx).sum(axis=0))
        sy = np.sqrt((dy * dy).sum(axis=0))
        r = np.clip((dx * dy).sum(axis=0) / (sx * sy), -1.0, 1.0)
    return _result(np.where((sx > 0.0) & (sy > 0.0), r, np.nan), vector)


def _signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # sign(a_i - b_j) as int8 per column, from comparisons: no difference
    # is formed, so equal infinities count as tied
    a = a[:, None]
    return (a > b).view(np.int8) - (a < b).view(np.int8)


def kendall(x, y, where=True) -> float | np.ndarray:
    """Tie-corrected Kendall tau-b over all pairs, O(n^2) and exact.

    ``x``, ``y`` and ``where`` are shaped as for ``pearson``: vectors give
    one tau, column stacks one per column, and ``where`` marks the samples
    each column uses. A column of ``x`` shared by every column of ``y``
    has its sign matrix computed once. The pairs are counted from the
    sign matrices sign(x_i - x_j) and sign(y_i - y_j), a block of
    ``KENDALL_BLOCK_CELLS`` / (n * columns) rows (at least one) at a time,
    so the extra memory stays O(n * columns * block), not O(n^2). Both
    matrices are antisymmetric: their product summed over the full matrix
    is twice concordant minus discordant, and their zeros are twice the
    tied pairs plus the diagonal. A masked-out sample takes part in no
    pair. The counts are integers, so tau does not depend on the blocking
    or on the other columns. nan for a column with fewer than two samples
    or every pair tied in one of the inputs; a used sample holding nan is
    rejected.
    """
    x, y, where, vector = _columns(x, y, where)
    if (np.isnan(x) & where).any() or (np.isnan(y) & where).any():
        raise ValueError("inputs must not hold nan")
    n, columns = where.shape
    rows = max(1, KENDALL_BLOCK_CELLS // (n * columns))
    sign_products = zeros_x = zeros_y = 0
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        pairs = where[block, None] & where
        sx = _signs(x[block], x)
        sy = _signs(y[block], y) * pairs
        zeros_x += ((sx == 0) & pairs).sum(axis=(0, 1))
        zeros_y += ((sy == 0) & pairs).sum(axis=(0, 1))
        sign_products += (sx * sy).sum(axis=(0, 1))
    used = where.sum(axis=0)
    n0 = used * (used - 1) // 2
    tied_x = (zeros_x - used) // 2
    tied_y = (zeros_y - used) // 2
    denom = np.sqrt((n0 - tied_x).astype(float) * (n0 - tied_y).astype(float))
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = np.clip(sign_products // 2 / denom, -1.0, 1.0)
    return _result(np.where(denom == 0.0, np.nan, tau), vector)


def evaluate_ensemble(controllers: Sequence[Controller],
                      structures: Sequence[UncertaintyStructure]) -> RecordColumns:
    """The geometry records of controllers of one network, one per
    (controller, structure) pair, as columns.

    F = |U_oi|^2 from the propagated input column. One stacked
    ``hilbert_transfer`` makes every controller's contraction, and per
    record ``sensitivity_operator`` reads k = <R, K> and |K| off the
    controller's row of it. |R_S| is
    hypot(F/N, k/|K|) and its part off the propagator has norm |k|/|K|.
    One ``assemble`` call turns these arrays into the records (deriving
    f_n and zeta). The state distance that ``assemble`` compares with
    ``PST_TOL`` is |rf - Phi r0| = sqrt(2 leak (F + leak)), with leak the
    population off the output site; unlike 1 - F this keeps its digits at
    perfect transfer. Each row is the same floats as its controller alone.

    Raises ValueError, naming the first such controller, when t_f * max|E|
    exceeds ``TF_CONDITION_LIMIT``.
    """
    spec = controllers[0].spec
    t_f = np.array([c.t_f for c in controllers])
    transfer = hilbert_transfer(spec, np.array([c.biases for c in controllers]), t_f)
    phase_scale = t_f * np.abs(transfer.e).max(axis=-1)
    for c, scale in zip(controllers, phase_scale.tolist()):
        if scale > TF_CONDITION_LIMIT:
            raise ValueError(
                f"controller {c.index}: tf {c.t_f!r} times the spectral radius "
                f"of H is {scale:.3e}, above {TF_CONDITION_LIMIT:.0e}, where "
                "the phases exp(-iEt) lose more than half their digits")
    probs = np.abs(transfer.column) ** 2
    out = spec.output_spin - 1
    f_val = probs[:, out]
    leak = np.delete(probs, out, axis=1).sum(axis=1)
    k_coeff, norm_k = np.array(
        [[sensitivity_operator(row, structure) for structure in structures]
         for row in map(HilbertTransfer._make, zip(*transfer))],
        dtype=float).transpose(2, 0, 1)
    perp = np.abs(k_coeff) / norm_k
    norm_rs = [[math.hypot(f_over_n, p) for p in row]
               for f_over_n, row in zip((f_val / spec.num_spins).tolist(), perp.tolist())]
    return GeometryRecord.assemble(controllers, structures, f_val=f_val,
                                   k_coeff=k_coeff, norm_k=norm_k, norm_rs=norm_rs,
                                   perp=perp, gap=np.sqrt(2.0 * leak * (f_val + leak)))


def evaluate_controller(controller: Controller,
                        structures: Sequence[UncertaintyStructure],
                        ) -> list[GeometryRecord]:
    """All geometry records of one controller, one per structure: the
    ensemble pass on a stack of one."""
    return evaluate_ensemble([controller], structures).rows()[0]


def summarize_structure(columns: RecordColumns) -> list[CorrelationSummary]:
    """Fold an ensemble's records into every structure's two correlation
    statistics, in one pass over (controllers x structures) arrays.

    ``columns`` are the records as ``evaluate_ensemble`` makes them: each
    controller's error and zero-fidelity flag are one column, so Kendall's
    error signs are computed once for every structure. Per structure, the
    Pearson sample is the records with e > 0, |zeta| > 0 and a nonzero
    fidelity, and the Kendall sample the records with a finite sin phi;
    each statistic takes every structure's column at once under its sample
    mask, and a column with fewer than two samples gives nan. The |K|
    moments come from the contiguous per-structure rows, so each is the
    same float as from that structure's records alone.
    """
    err = columns.e
    abs_zeta = np.abs(columns.zeta)
    loglog = (err > 0.0) & (abs_zeta > 0.0) & ~columns.zero_fidelity
    log_err = np.log10(err, out=np.zeros_like(err), where=err > 0.0)
    log_zeta = np.log10(abs_zeta, out=np.zeros_like(abs_zeta), where=loglog)
    r_loglog = pearson(log_err, log_zeta, where=loglog)
    tau = kendall(err, columns.sin_phi, where=np.isfinite(columns.sin_phi))
    norms = np.ascontiguousarray(columns.norm_K.T)
    # positional in field order: structure_index, pearson_r_loglog,
    # kendall_tau, count, mean_norm_K, var_norm_K
    return list(map(CorrelationSummary._make, zip(
        columns.structure_index[0].tolist(), r_loglog.tolist(), tau.tolist(),
        loglog.sum(axis=0).tolist(), norms.mean(axis=1).tolist(),
        norms.var(axis=1).tolist())))


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

    columns = evaluate_ensemble(controllers, structures)
    return list(chain.from_iterable(columns.rows())), summarize_structure(columns)
