"""Geometric decomposition of the sensitivity into frame angles.

The rank-one input-output operator R = rf r0^T lives in the N^2 x N^2
matrix space with the Frobenius inner product. The span of the propagator
and the sensitivity operator (mutually orthogonal, see the engine module)
carries all of the action: the projection R_S of R onto that plane
determines both the fidelity, through the angle phi between R_S and the
propagator, and the sensitivity, through the complementary angle theta
against the K direction. The working identity is

    |zeta| = f_n * t_f * |K| * |R_S| * |sin phi|

which factors the sensitivity into scale terms and a pure alignment term.

Because <Phi, R> = F, |Phi|^2 = N^2 and Phi is orthogonal to K, the
projection needs only F, k = <R, K> and |K|: |R_S| = hypot(F/N, k/|K|),
and the component of R_S off the propagator has norm |k|/|K|. The records
``analyze`` writes take these scalars from the N x N picture. The records
of controllers of one network are made by one ``GeometryRecord.assemble``
call from the controllers and the structures, with the measurements as
(controllers x structures) arrays; f_n, zeta = -t_f f_n k and the
perfect-transfer flag (the state distance |rf - Phi r0| its route
measured <= ``PST_TOL``) are derived there alone, every field by the
same operations a single record would take, over all controllers at once
(``angles`` and ``identity_residual`` take stacks). ``assemble`` returns
the records as ``RecordColumns``, arrays in the record fields, and their
``rows`` are the records. A record is an immutable ``NamedTuple`` row;
``._replace`` gives a changed copy. Zero fidelity,
where cos phi is undefined, is decided once per controller: all its
records carry nan angles, or none do. ``project`` assembles R_S itself
from F, k, |K| and the N^2 x N^2 operators Phi and K, all plain arrays,
for one direction or a whole stack at once, and never forms R; it is the
reference route that verification checks the records against. Nothing
here judges the frame: ``angles`` reports the cosines as computed,
unclamped, and neither the frame identities (remark 1 above, and
|cos theta| = sin phi) nor |cos| <= 1 is asserted. Verification's
remark-1, remark-2 and theorem-1 checks test the reference records for
them and report a defect, in either direction, as a failed check.

Numerical note: sin phi computed as sqrt(1 - cos^2 phi) would lose half
the digits when phi is tiny, exactly the regime of near-perfect transfer
that matters most. ``angles`` therefore takes sin phi from the norm of
the component of R_S orthogonal to the propagator, by division, without
cancellation.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .network import UncertaintyStructure, scaling_factor

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from .synthesis import Controller

# Largest state distance |rf - Phi r0| that still counts as perfect transfer.
PST_TOL = 1e-12

# The smallest normal float: below this scale cos theta is reported as 0.
TINY = sys.float_info.min

# Below this fidelity the angle decomposition is numerically meaningless; a
# controller's records are kept, their angle fields nan and left out of stats.
ZERO_FIDELITY_FLOOR = 1e-12


def _frob(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    # Frobenius inner product over the last two axes; leading axes broadcast
    return (a * b).sum(axis=(-2, -1))


def project(f_coeff: float, k_coeff: float | np.ndarray, phi: np.ndarray,
            k_op: np.ndarray, norm_k: float | np.ndarray,
            ) -> tuple[np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Project R onto span{Phi, K}; returns (R_S, |R_S|, |R_S - P_Phi R_S|).

    Phi and K are orthogonal, so the projection is the sum of the two
    rescaled components, R_S = (F / N^2) Phi + (k / |K|^2) K, assembled
    from the frame coefficients F = <R, Phi> and k = <R, K> without
    forming R. The third return value is the norm of the part of R_S
    outside the propagator direction, the cancellation-free ingredient
    for sin phi. ``k_op`` and ``norm_k`` are K and |K| as
    ``adjoint_sensitivity_operator`` returns them; they may hold a stack of
    operators, with one k per direction: then every return value gains
    its leading axes, one projection per direction, from one pass. A
    vanishing |K| anywhere in the stack is rejected. The norms are taken of the assembled matrices,
    so verification's remark-1 check compares them with the coefficients.
    """
    phi = np.asarray(phi, dtype=float)
    k_coeff = np.asarray(k_coeff, dtype=float)
    norm_k = np.asarray(norm_k, dtype=float)
    if (norm_k <= 0).any():
        raise ValueError("projection undefined for a vanishing sensitivity operator")
    n2 = phi.shape[0]
    r_s = (f_coeff / n2) * phi + (k_coeff / norm_k ** 2)[..., None, None] * k_op
    perp = r_s - (_frob(r_s, phi) / n2)[..., None, None] * phi
    return r_s, np.linalg.norm(r_s, axis=(-2, -1)), np.linalg.norm(perp, axis=(-2, -1))


def scale_product(f_n: float, t_f: float, norm_k: float, norm_rs: float) -> float:
    """The scale f_n t_f |K| |R_S| of the identity |zeta| = scale * |sin phi|."""
    return f_n * t_f * norm_k * norm_rs


def angles(fidelity: float, zeta: float | np.ndarray, n: int,
           norm_rs: float | np.ndarray, norm_k: float | np.ndarray,
           f_n: float | np.ndarray, t_f: float, *,
           norm_rs_perp: float | np.ndarray) -> tuple[float | np.ndarray, ...]:
    """Frame angles (cos phi, sin phi, cos theta) of one record, or of a
    stack of records, with F and t_f scalars or arrays that broadcast
    against the stack.

    cos phi = F / (n |R_S|) comes from the fidelity and is reported as
    computed: a frame defect that pushes it past 1 shows in verification's
    checks, not here. sin phi is |R_S - P_Phi R_S| / |R_S|, from the
    orthogonal component ``project`` reports; an orthogonal projection
    never exceeds its input, so capping it at 1 only trims rounding.
    cos theta comes from the sensitivity, -zeta / ``scale_product``. Below
    a normal-float scale (f_n = 0, a subnormal f_n, or |K| = 0) the
    sensitivity is zero at working precision and cos theta is reported as
    0; nothing here divides by |K|, and ``GeometryRecord.assemble`` rejects
    |K| <= 0 before it calls this. The two routes agree up to sign,
    |cos theta| = sin phi; on the N x N records both sides are
    |k| / (|K| |R_S|), and verification's theorem-1 check tests the
    reference records for it. Array arguments give arrays, with the same
    operations per entry as for one record.
    """
    norm_rs = np.asarray(norm_rs, dtype=float)
    if not (norm_rs > 0).all():
        raise ValueError("angles undefined for a vanishing projection")
    cos_phi = fidelity / (n * norm_rs)
    sin_phi = np.minimum(1.0, norm_rs_perp / norm_rs)
    scale = np.asarray(scale_product(f_n, t_f, norm_k, norm_rs), dtype=float)
    cos_theta = np.divide(np.negative(zeta), scale, out=np.zeros_like(scale),
                          where=scale >= TINY)
    return cos_phi, sin_phi, cos_theta


def identity_residual(zeta: float | np.ndarray, f_n: float | np.ndarray, t_f: float,
                      norm_k: float | np.ndarray, norm_rs: float | np.ndarray,
                      sin_phi: float | np.ndarray) -> float | np.ndarray:
    """Defect of |zeta| = f_n t_f |K| |R_S| sin phi for one record, or per
    entry of a stack of records."""
    return np.abs(np.abs(zeta) - scale_product(f_n, t_f, norm_k, norm_rs)
                  * np.abs(sin_phi))


class GeometryRecord(NamedTuple):
    """One (controller, uncertainty) row of the geometric decomposition.

    A record is an immutable ``NamedTuple`` row: equality and hashing
    compare the field tuple, and ``._replace`` gives a changed copy.
    ``k_coeff`` is the frame coefficient <R, K>. Angles carry nan when the
    controller is degenerate (fidelity at the zero-measure floor); all its
    rows keep their scale quantities but are excluded from angle statistics
    downstream.
    """

    controller_index: int
    structure_index: int
    F: float
    e: float
    zeta: float
    f_n: float
    t_f: float
    norm_K: float
    norm_Rs: float
    k_coeff: float
    cos_phi: float
    sin_phi: float
    cos_theta: float
    identity_residual: float
    pst: bool
    zero_fidelity: bool

    @classmethod
    def assemble(cls, controllers: Sequence["Controller"],
                 structures: Sequence[UncertaintyStructure], *, f_val: ArrayLike,
                 k_coeff: ArrayLike, norm_k: ArrayLike, norm_rs: ArrayLike,
                 perp: ArrayLike, gap: ArrayLike) -> "RecordColumns":
        """The records of controllers of one network, one per (controller,
        structure) pair, as columns, from what their route measures: per
        controller the fidelity F and the state distance ``gap`` =
        |rf - Phi r0|, and per pair the frame coefficient k, |K|, |R_S| and
        ``perp``, the norm of the part of R_S off the propagator, as
        (controllers x structures) arrays in controller, then structure
        order. The pairs give the indices, n, t_f, f_n = ``scaling_factor``
        and zeta = -t_f f_n k, and ``gap`` <= ``PST_TOL`` flags perfect
        transfer, made here alone. |K| > 0 is checked here, the one check
        on the record path; ``angles`` does not repeat it. A fidelity below
        ``ZERO_FIDELITY_FLOOR`` or a vanishing |R_S| on any structure flags
        the whole controller zero-fidelity, with nan angles and residuals.
        Otherwise every field takes the same operations as a record
        assembled on its own, over all controllers at once, so a
        controller's row does not depend on the others."""
        n = controllers[0].spec.num_spins
        f_val, gap = (np.asarray(a, dtype=float)[:, None] for a in (f_val, gap))
        k_coeff, norm_k, norm_rs, perp = (np.asarray(a, dtype=float)
                                          for a in (k_coeff, norm_k, norm_rs, perp))
        if (norm_k <= 0).any():
            raise ValueError("norm_K must be positive")
        t_f = np.array([[c.t_f] for c in controllers])
        f_n = np.array([[scaling_factor(s, c) for s in structures] for c in controllers])
        zeta = -t_f * f_n * k_coeff
        zero_fid = (f_val < ZERO_FIDELITY_FLOOR) | ~(norm_rs > 0.0).all(axis=1, keepdims=True)
        # a zero-fidelity controller's angles are computed on a stand-in
        # |R_S| = 1 and replaced by nan; no other row reads them
        degenerate = zero_fid.any()
        live_rs = np.where(zero_fid, 1.0, norm_rs) if degenerate else norm_rs
        cos_phi, sin_phi, cos_theta = angles(f_val, zeta, n, live_rs, norm_k, f_n, t_f,
                                             norm_rs_perp=perp)
        residual = identity_residual(zeta, f_n, t_f, norm_k, live_rs, sin_phi)
        if degenerate:
            cos_phi, sin_phi, cos_theta, residual = np.where(
                zero_fid, np.nan, (cos_phi, sin_phi, cos_theta, residual))
        return RecordColumns(
            np.array([[c.index] for c in controllers]), np.array([[s.index for s in structures]]),
            f_val, 1.0 - f_val, zeta, f_n, t_f, norm_k, norm_rs, k_coeff, cos_phi, sin_phi,
            cos_theta, residual, gap <= PST_TOL, zero_fid)

    @property
    def abs_zeta(self) -> float:
        return abs(self.zeta)

    @property
    def bound_product(self) -> float:
        """The factored form f_n t_f |K| |R_S| |sin phi|."""
        return scale_product(self.f_n, self.t_f, self.norm_K, self.norm_Rs) * abs(self.sin_phi)


class RecordColumns(NamedTuple("RecordColumns",
                                [(name, np.ndarray) for name in GeometryRecord._fields])):
    """The records of an ensemble as columns, one array per field of
    ``GeometryRecord``, as ``GeometryRecord.assemble`` makes them.

    Every field broadcasts to (controllers x structures):
    ``structure_index`` is a (1, structures) row, the fields a controller
    shares (its index, F, e, t_f and the two flags) are (controllers, 1)
    columns, and the rest are full arrays. ``rows`` gives the records.
    """

    __slots__ = ()

    def rows(self) -> list[list[GeometryRecord]]:
        """Each controller's records in structure order, with every field
        the Python scalar of its entry."""
        table = np.empty(self.zeta.shape + (len(self),), dtype=object)
        for field, column in enumerate(self):
            table[..., field] = column
        return [list(map(GeometryRecord._make, row)) for row in table.tolist()]
