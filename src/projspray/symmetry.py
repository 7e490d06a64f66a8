"""Plane vector fields: structure constants, point-symmetry and
projective-vector-field residuals.

A field a(x,y) dx + b(x,y) dy acts on the equation space (x, y, z = y')
through its prolongation with third coefficient
c = b_x + z b_y - z (a_x + z a_y), and on the tangent bundle through its
complete lift, whose fiber part is the Jacobian of (a, b) applied to (u, v).
A field's ``at(x, y)`` returns (a, b) and is lifted as one register; the
residuals read both actions, and ``structure_constants`` the Lie brackets,
off lifts of ``at`` directly.  All coefficient derivatives come from jets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .finsler import Spray, non_radial
from .jets import ScalarField, jet_value, lift, reject_first

__all__ = [
    "DegenerateBasisError",
    "LieAlgebraCase",
    "NotClosedError",
    "PlaneVectorField",
    "StructureConstants",
    "jacobi_residual",
    "point_symmetry_residual",
    "projective_field_residual",
    "structure_constants",
]


class DegenerateBasisError(ValueError):
    """Basis fields do not span enough directions at the sample points."""


class NotClosedError(ValueError):
    """Computed brackets do not lie in the span of the basis."""


@dataclass(frozen=True)
class PlaneVectorField:
    """The field a d/dx + b d/dy; ``at(x, y)`` returns (a, b)."""

    at: Callable
    name: str = ""


def _bracket(jx, jy):
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, as (a, b) at a point, from the
    order-1 lifts jx of X.at and jy of Y.at there."""
    return tuple(
        jx[0].value * cy.grad[0]
        + jx[1].value * cy.grad[1]
        - jy[0].value * cx.grad[0]
        - jy[1].value * cx.grad[1]
        for cx, cy in zip(jx, jy)
    )


def point_symmetry_residual(X: PlaneVectorField, f: ScalarField, at: Sequence[float]) -> float:
    """Defect of the prolonged field against the direction field of y'' = f.

    Zero when the flow of X takes solution trajectories to solution
    trajectories.  The prolongation coefficient c and its first derivatives
    come from one order-2 lift of ``X.at``:
    c = b_x + z b_y - z (a_x + z a_y),
    c_x = b_xx + z b_xy - z (a_xx + z a_xy),
    c_y = b_xy + z b_yy - z (a_xy + z a_yy),
    c_z = b_y - (a_x + z a_y + z a_y),
    in the order of operations that an order-1 lift of the prolonged field
    (x, y, z) -> (a, b, c) would take.
    """
    x, y, z = at
    jf = lift(f, (x, y, z), order=1)
    fval, fx, fy, fz = jf.value, jf.grad[0], jf.grad[1], jf.grad[2]
    ja, jb = lift(X.at, (x, y))
    a, (ax, ay) = ja.value, ja.grad
    b, (bx, by) = jb.value, jb.grad
    axx, axy, ayy = ja.hess_packed
    bxx, bxy, byy = jb.hess_packed
    s = ax + z * ay
    c = bx + z * by - z * s
    cx = bxx + z * bxy - z * (axx + z * axy)
    cy = bxy + z * byy - z * (axy + z * ayy)
    cz = by - (s + z * ay)
    return abs(a * fx + b * fy + c * fz - (cz - ax - z * ay) * fval - cx - z * cy)


def projective_field_residual(X: PlaneVectorField, spray: Spray, at: Sequence[float]) -> float:
    """Non-radial part of the Lie derivative of the spray along the lift of X.

    Only the fiber components of [X^, spray] enter: its base components
    vanish identically for complete lifts.  The derivative X^G of the spray
    along the complete lift X^ = (a, b, A3, B3) is read from one seeded
    variable t, as d/dt G(x + a t, y + b t, u + A3 t, v + B3 t) at t = 0.
    A coordinate whose rate is exactly 0.0 stays a float, since 0.0 t is the
    float zero (the jets' zero product), so a translation does t-work on one
    coordinate of four.
    Zero (up to roundoff) exactly when the flow of X permutes the spray's
    oriented geodesics.
    """

    def fiber(x, y, u, v):
        ja, jb = lift(X.at, (x, y), order=2)
        a, (ax, ay) = ja.value, ja.grad
        b, (bx, by) = jb.value, jb.grad
        axx, axy, ayy = ja.hess_packed
        bxx, bxy, byy = jb.hess_packed
        A3 = ax * u + ay * v
        B3 = bx * u + by * v
        jg1, jg2 = lift(
            lambda t: spray.coefficients(x + a * t, y + b * t, u + A3 * t, v + B3 * t), (0.0,), order=1
        )
        G1, G2 = jet_value(jg1), jet_value(jg2)
        xhat_g1, xhat_g2 = jet_value(jg1.grad[0]), jet_value(jg2.grad[0])
        gamma_a3 = u * (axx * u + axy * v) + v * (axy * u + ayy * v) - 2.0 * G1 * ax - 2.0 * G2 * ay
        gamma_b3 = u * (bxx * u + bxy * v) + v * (bxy * u + byy * v) - 2.0 * G1 * bx - 2.0 * G2 * by
        return -2.0 * xhat_g1 - gamma_a3, -2.0 * xhat_g2 - gamma_b3

    return abs(non_radial(fiber, at, "projective field residual"))


@dataclass(frozen=True)
class LieAlgebraCase:
    """A three-dimensional algebra of plane fields with its expected bracket table.

    ``expected`` maps the pairs (0,1), (0,2), (1,2) to expansion
    coefficients in the basis.  The first basis field spans the isotropy
    at the origin (``isotropy_ok``: it vanishes there to 1e-12); the other
    two span the tangent plane there (``transitive_ok``: |det| > 1e-9).
    """

    basis: tuple  # three PlaneVectorFields
    expected: dict  # {(i, j): (c0, c1, c2)}

    def isotropy_ok(self) -> bool:
        a0, b0 = self.basis[0].at(0.0, 0.0)
        return abs(a0) <= 1e-12 and abs(b0) <= 1e-12

    def transitive_ok(self) -> bool:
        v1 = self.basis[1].at(0.0, 0.0)
        v2 = self.basis[2].at(0.0, 0.0)
        return abs(v1[0] * v2[1] - v1[1] * v2[0]) > 1e-9


_SAMPLE_POOL = (
    (0.137, 0.291),
    (-0.218, 0.117),
    (0.301, -0.157),
    (-0.113, -0.271),
    (0.243, 0.193),
    (0.061, -0.329),
    (-0.307, 0.251),
    (0.173, 0.077),
)
"""The (x, y) points at which ``structure_constants`` reads the fields, in
order.  At the first five, every catalog basis gives a matrix A whose
smallest singular value is at least 0.2 times its largest."""

_PAIRS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class StructureConstants:
    constants: np.ndarray  # shape (3, 3, 3), antisymmetric in the first two slots
    residual: float


def structure_constants(
    case_or_basis,
    npoints: int = 5,
    tol: float = 1e-9,
) -> StructureConstants:
    """Expand the three brackets of a basis in the basis itself.

    Prolongation is a Lie-algebra homomorphism, so the plane components
    fix the constants.  At the first ``npoints`` points of a fixed pool of
    eight, the fields' (a, b) fill the columns of A, two rows per point, and
    the brackets' (a, b) the columns of R; one least-squares solve gives
    A C = R.  A field value or bracket that is not finite raises
    ``EvaluationError`` naming the first sample point where it is, before
    the solve.  A singular value of A at most 1e-10 times the largest raises
    ``DegenerateBasisError``, max|A C - R| above ``tol`` raises
    ``NotClosedError`` and is otherwise the residual.  A basis of other
    than three fields raises ``ValueError`` before anything is evaluated,
    and so does ``npoints`` outside [3, 8]: each point gives two equations per
    bracket, so three points leave three equations beyond the three
    unknowns and the default five leave seven, while two points leave one,
    too few to tell a non-closed basis from a closed one.
    """
    basis = case_or_basis.basis if isinstance(case_or_basis, LieAlgebraCase) else tuple(case_or_basis)
    if len(basis) != 3:
        raise ValueError(f"a basis of {len(basis)} fields; structure constants need three")
    if not 3 <= npoints <= len(_SAMPLE_POOL):
        raise ValueError(
            f"npoints {npoints} must lie between 3 and the sample pool of {len(_SAMPLE_POOL)} points"
        )
    points = _SAMPLE_POOL[:npoints]
    A, R = [], []  # rows (point, component), one column per field or bracket, from one lift per field
    for (x, y) in points:
        jets = [lift(X.at, (x, y), order=1) for X in basis]
        A.extend(zip(*[(ja.value, jb.value) for ja, jb in jets]))
        R.extend(zip(*[_bracket(jets[i], jets[j]) for (i, j) in _PAIRS]))
    A, R = np.array(A, dtype=float), np.array(R, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(R).all()):
        finite = (np.isfinite(A) & np.isfinite(R)).reshape(npoints, -1).all(axis=1)  # one entry per point
        reject_first(~finite, "a basis field or bracket is not finite", *zip(*points))
    C, _, _, sv = np.linalg.lstsq(A, R)
    if sv[-1] <= 1e-10 * sv[0]:
        raise DegenerateBasisError(
            f"basis fields are dependent at {npoints} sample points "
            f"(singular values {sv[-1]:.3e} against {sv[0]:.3e})"
        )
    residual = float(np.abs(A @ C - R).max())
    if not residual <= tol:  # a NaN residual is not closed either
        raise NotClosedError(f"brackets leave the span of the basis (residual {residual:.3e})")

    constants = np.zeros((3, 3, 3))
    for col, (i, j) in enumerate(_PAIRS):
        constants[i, j] = C[:, col]
        constants[j, i] = -C[:, col]
    return StructureConstants(constants=constants, residual=residual)


def jacobi_residual(constants) -> float:
    """Largest component of the Jacobiator [[X0,X1],X2] + [[X1,X2],X0] + [[X2,X0],X1].

    With [Xi, Xj] = C[i, j, l] Xl, J[i, j, k, m] = C[i, j, l] C[l, k, m] is
    the Xm-component of [[Xi, Xj], Xk].
    """
    C = constants.constants if isinstance(constants, StructureConstants) else np.asarray(constants)
    J = np.einsum("ijl,lkm->ijkm", C, C)
    return float(np.abs(J[0, 1, 2] + J[1, 2, 0] + J[2, 0, 1]).max())
