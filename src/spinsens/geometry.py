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
``analyze`` writes take these scalars from the N x N picture. ``project``
assembles R_S itself from F, k, |K| and the N^2 x N^2 operators Phi and
K, all plain arrays, for one direction or a whole stack at once, and
never forms R; it is the reference route that verification checks the
records against. The frame identities (remark 1 above, and
|cos theta| = sin phi) are not asserted here: verification's remark-1
and theorem-1 checks test the reference records for them and report a
defect as a failed check.

Numerical note: sin phi computed as sqrt(1 - cos^2 phi) would lose half
the digits when phi is tiny, exactly the regime of near-perfect transfer
that matters most. ``angles`` therefore takes sin phi from the norm of
the component of R_S orthogonal to the propagator, by division, without
cancellation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation

# How far a record's cosines may stray outside [-1, 1] through rounding.
ANGLE_TOL = 1e-9

# Largest state distance |rf - Phi r0| that still counts as perfect transfer.
PST_TOL = 1e-12

# Machine epsilon and the smallest normal float, for the conditioning
# allowance of the angles and the scale below which cos theta is 0.
EPS = sys.float_info.epsilon
TINY = sys.float_info.min

# Below this fidelity the angle decomposition is numerically meaningless;
# records are kept but angle fields carry nan and are excluded from stats.
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


def angle_slack(n: int, norm_rs: float) -> float:
    """Conditioning allowance 8 n^2 eps / |R_S| of a record's angles.

    F and |R_S| each carry O(n^2 eps) absolute error, which near zero
    fidelity is large relative to both.
    """
    return 8.0 * n * n * EPS / norm_rs


def angles(fidelity: float, zeta: float, n: int, norm_rs: float, norm_k: float,
           f_n: float, t_f: float, *,
           norm_rs_perp: float) -> tuple[float, float, float]:
    """Frame angles (cos phi, sin phi, cos theta) of one record.

    cos phi comes from the fidelity. An overshoot of [-1, 1] beyond
    ``ANGLE_TOL`` is clamped when it lies within ``angle_slack``, which
    only near-zero fidelity reaches, and raises otherwise. sin phi is
    |R_S - P_Phi R_S| / |R_S|, from the orthogonal component ``project``
    reports, and cos theta comes from the sensitivity,
    -zeta / ``scale_product``. Below a normal-float scale
    (f_n = 0, or a subnormal f_n) the sensitivity is zero at working
    precision and cos theta is reported as 0. The two routes agree up to
    sign, |cos theta| = sin phi; on the N x N records both sides are
    |k| / (|K| |R_S|), and verification's theorem-1 check tests the
    reference records for it.
    """
    if not norm_rs > 0:
        raise ValueError("angles undefined for a vanishing projection")
    if norm_k <= 0:
        raise ValueError("angles undefined for a vanishing sensitivity operator")
    slack = angle_slack(n, norm_rs)
    cos_phi = fidelity / (n * norm_rs)
    overshoot = abs(cos_phi) - 1.0
    if overshoot > ANGLE_TOL:
        if overshoot > slack:
            raise InvariantViolation(
                f"cos phi = {cos_phi:.17e} outside [-1, 1] beyond the "
                f"conditioning allowance {slack:.3e}")
        cos_phi = math.copysign(1.0, cos_phi)
    sin_phi = min(1.0, norm_rs_perp / norm_rs)
    scale = scale_product(f_n, t_f, norm_k, norm_rs)
    cos_theta = -zeta / scale if scale >= TINY else 0.0
    return float(cos_phi), float(sin_phi), float(cos_theta)


def identity_residual(zeta: float, f_n: float, t_f: float, norm_k: float,
                      norm_rs: float, sin_phi: float) -> float:
    """Defect of |zeta| = f_n t_f |K| |R_S| sin phi for one record."""
    return float(abs(abs(zeta) - scale_product(f_n, t_f, norm_k, norm_rs) * abs(sin_phi)))


def pst_check(phi: np.ndarray, r0: np.ndarray, rf: np.ndarray) -> bool:
    """Whether the flow maps the input exactly onto the target,
    |rf - Phi r0| <= ``PST_TOL``."""
    gap = np.asarray(rf, float) - np.asarray(phi, float) @ np.asarray(r0, float)
    return bool(np.linalg.norm(gap) <= PST_TOL)


@dataclass(frozen=True)
class GeometryRecord:
    """One (controller, uncertainty) row of the geometric decomposition.

    ``k_coeff`` is the frame coefficient <R, K>. Angles carry nan when the
    record is degenerate (fidelity at the zero-measure floor); such rows
    keep their scale quantities but are excluded from angle statistics
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

    def __post_init__(self):
        if self.norm_K <= 0:
            raise ValueError("norm_K must be positive")
        if math.isfinite(self.cos_phi) and abs(self.cos_phi) > 1.0 + ANGLE_TOL:
            raise ValueError(f"cos phi {self.cos_phi} outside [-1, 1]")
        if math.isfinite(self.cos_theta) and abs(self.cos_theta) > 1.0 + ANGLE_TOL:
            raise ValueError(f"cos theta {self.cos_theta} outside [-1, 1]")

    @classmethod
    def assemble(cls, controller_index: int, structure_index: int, n: int, t_f: float,
                 *, f_val: float, zeta: float, f_n: float, k_coeff: float,
                 norm_k: float, norm_rs: float, perp: float,
                 pst: bool) -> "GeometryRecord":
        """The record of one (controller, structure) pair of an n-spin
        network, from its scale quantities; ``perp`` is the norm of the
        part of R_S off the propagator. A fidelity below
        ``ZERO_FIDELITY_FLOOR`` or a vanishing |R_S| gives a zero-fidelity
        record with nan angles and residual."""
        if f_val < ZERO_FIDELITY_FLOOR or norm_rs <= 0.0:
            cos_phi = sin_phi = cos_theta = residual = float("nan")
            zero_fid = True
        else:
            cos_phi, sin_phi, cos_theta = angles(
                f_val, zeta, n, norm_rs, norm_k, f_n, t_f, norm_rs_perp=perp)
            residual = identity_residual(zeta, f_n, t_f, norm_k, norm_rs, sin_phi)
            zero_fid = False
        return cls(controller_index=controller_index, structure_index=structure_index,
                   F=f_val, e=1.0 - f_val, zeta=zeta, f_n=f_n, t_f=t_f,
                   norm_K=norm_k, norm_Rs=norm_rs, k_coeff=k_coeff,
                   cos_phi=cos_phi, sin_phi=sin_phi, cos_theta=cos_theta,
                   identity_residual=residual, pst=pst, zero_fidelity=zero_fid)

    @property
    def abs_zeta(self) -> float:
        return abs(self.zeta)

    @property
    def bound_product(self) -> float:
        """The factored form f_n t_f |K| |R_S| |sin phi|."""
        return scale_product(self.f_n, self.t_f, self.norm_K, self.norm_Rs) * abs(self.sin_phi)
