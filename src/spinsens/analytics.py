"""Ensemble tables: geometry records and per-structure correlation stats.

For every (controller, uncertainty structure) pair the pipeline measures
the fidelity, the frame coefficient and the norms in the N x N picture,
and ``GeometryRecord.assemble`` turns a controller's measurements into its
records, deriving f_n, zeta, the angles and the perfect-transfer flag.
The measurements come from ``eigh`` of the N x N Hamiltonian plus one
O(N^3) contraction, both once per controller (``hilbert_transfer``), and
O(N^2) at most per structure (``sensitivity_operator``); no N^2 x N^2
operator is formed and no structure matrix is conjugated. The
adjoint-picture route that builds Phi and K explicitly is kept in
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
them for every structure in one pass over (controllers x structures)
arrays: ``pearson`` and ``kendall`` take column stacks with a sample
mask per column.

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
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .geometry import GeometryRecord
from .network import UncertaintyStructure, enumerate_structures
from .sensitivity import hilbert_transfer, sensitivity_operator
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


def evaluate_controller(controller: Controller,
                        structures: tuple[UncertaintyStructure, ...],
                        ) -> list[GeometryRecord]:
    """All geometry records of one controller, one per structure.

    F = |U_oi|^2 from the propagated input column. ``hilbert_transfer``
    makes the controller's one O(N^3) contraction, and per structure
    ``sensitivity_operator`` reads k = <R, K> and |K| off it; |R_S| is
    hypot(F/N, k/|K|) and its part off the propagator has norm |k|/|K|.
    One ``assemble`` call turns these arrays into the records (deriving
    f_n and zeta). The state distance that
    ``assemble`` compares with ``PST_TOL`` is |rf - Phi r0| =
    sqrt(2 leak (F + leak)), with leak the population off the output
    site; unlike 1 - F this keeps its digits at perfect transfer.

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
    out = spec.output_spin - 1
    f_val = float(probs[out])
    leak = float(np.delete(probs, out).sum())
    gap = math.sqrt(2.0 * leak * (f_val + leak))
    k_coeff, norm_k = np.array(
        [sensitivity_operator(transfer, structure) for structure in structures],
        dtype=float).reshape(-1, 2).T
    perp = np.abs(k_coeff) / norm_k
    f_over_n = f_val / n
    norm_rs = [math.hypot(f_over_n, p) for p in perp.tolist()]
    return GeometryRecord.assemble(controller, structures, f_val=f_val,
                                   k_coeff=k_coeff, norm_k=norm_k, norm_rs=norm_rs,
                                   perp=perp, gap=gap)


_SUMMARY_FIELDS = attrgetter("zeta", "sin_phi", "norm_K")


def summarize_structure(rows: Sequence[Sequence[GeometryRecord]]) -> list[CorrelationSummary]:
    """Fold an ensemble's records into every structure's two correlation
    statistics, in one pass over (controllers x structures) arrays.

    ``rows`` holds each controller's records in structure order, as
    ``evaluate_controller`` makes them; the structure indices are read off
    the first row, and each controller's error and zero-fidelity flag off
    its first record, so Kendall's error signs are computed once for every
    structure. Per structure, the Pearson sample is the records with
    e > 0, |zeta| > 0 and a nonzero fidelity, and the Kendall sample the
    records with a finite sin phi; each statistic takes every structure's
    column at once under its sample mask, and a column with fewer than two
    samples gives nan. The |K| moments come from the contiguous
    per-structure rows, so each is the same float as from that
    structure's records alone.
    """
    width = len(rows[0])
    fields = np.fromiter(chain.from_iterable(map(_SUMMARY_FIELDS, chain.from_iterable(rows))),
                         float, count=3 * width * len(rows))
    zeta, sin_phi, norm_k = fields.reshape(-1, width, 3).transpose(2, 0, 1)
    abs_zeta = np.abs(zeta)
    err = np.array([row[0].e for row in rows])[:, None]
    live = ~np.array([row[0].zero_fidelity for row in rows])[:, None]
    loglog = (err > 0.0) & (abs_zeta > 0.0) & live
    log_err = np.log10(err, out=np.zeros_like(err), where=err > 0.0)
    log_zeta = np.log10(abs_zeta, out=np.zeros_like(abs_zeta), where=loglog)
    r_loglog = pearson(log_err, log_zeta, where=loglog)
    tau = kendall(err, sin_phi, where=np.isfinite(sin_phi))
    norms = np.ascontiguousarray(norm_k.T)
    # positional in field order: structure_index, pearson_r_loglog,
    # kendall_tau, count, mean_norm_K, var_norm_K
    return list(map(CorrelationSummary._make, zip(
        [r.structure_index for r in rows[0]], r_loglog.tolist(), tau.tolist(),
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

    rows = [evaluate_controller(c, structures) for c in controllers]
    return list(chain.from_iterable(rows)), summarize_structure(rows)
