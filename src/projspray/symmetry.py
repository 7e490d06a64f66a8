"""Plane vector fields: prolongation, Lie brackets, structure constants,
point-symmetry and projective-vector-field residuals.

A field a(x,y) dx + b(x,y) dy acts on the equation space (x, y, z = y')
through its prolongation with third coefficient
c = b_x + z b_y - z (a_x + z a_y), and on the tangent bundle through its
complete lift.  Each field is one tuple-valued callable, lifted as one
register: a plane field's ``at(x, y)`` returns (a, b), a prolonged field's
``at(x, y, z)`` returns (a, b, c).  All coefficient derivatives come from
jets, so bracket fields and prolongations remain liftable themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .finsler import Spray
from .jets import EvaluationError, ScalarField, jet_value, lift

__all__ = [
    "DegenerateBasisError",
    "LieAlgebraCase",
    "NotClosedError",
    "PlaneVectorField",
    "ProlongedVectorField",
    "StructureConstants",
    "complete_lift",
    "jacobi_residual",
    "lie_bracket",
    "point_symmetry_residual",
    "projective_field_residual",
    "prolong",
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


@dataclass(frozen=True)
class ProlongedVectorField:
    """A plane field prolonged to (x, y, z = y'); ``at(x, y, z)`` returns (a, b, c)."""

    at: Callable
    name: str = ""


def prolong(X: PlaneVectorField) -> ProlongedVectorField:
    def at(x, y, z):
        ja, jb = lift(X.at, (x, y), order=1)
        return ja.value, jb.value, jb.grad[0] + z * jb.grad[1] - z * (ja.grad[0] + z * ja.grad[1])

    return ProlongedVectorField(at, X.name)


def complete_lift(X: PlaneVectorField) -> Callable:
    """Lift of X to the tangent bundle, (x, y, u, v) -> (a, b, A3, B3): the
    fiber part is the Jacobian of the base coefficients applied to (u, v)."""

    def at(x, y, u, v):
        ja, jb = lift(X.at, (x, y), order=1)
        return (
            ja.value,
            jb.value,
            ja.grad[0] * u + ja.grad[1] * v,
            jb.grad[0] * u + jb.grad[1] * v,
        )

    return at


def lie_bracket(X: PlaneVectorField, Y: PlaneVectorField) -> PlaneVectorField:
    """[X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, returned as a new field."""

    def at(x, y):
        jxa, jxb = lift(X.at, (x, y), order=1)
        jya, jyb = lift(Y.at, (x, y), order=1)
        return tuple(
            jxa.value * jy.grad[0]
            + jxb.value * jy.grad[1]
            - jya.value * jx.grad[0]
            - jyb.value * jx.grad[1]
            for jx, jy in ((jxa, jya), (jxb, jyb))
        )

    return PlaneVectorField(at, name=f"[{X.name},{Y.name}]")


def point_symmetry_residual(X: PlaneVectorField, f: ScalarField, at: Sequence[float]) -> float:
    """Defect of the prolonged field against the direction field of y'' = f.

    Zero when the flow of X takes solution trajectories to solution
    trajectories.
    """
    x, y, z = at
    jf = lift(f, (x, y, z), order=1)
    fval, fx, fy, fz = jf.value, jf.grad[0], jf.grad[1], jf.grad[2]
    ja, jb, jc = lift(prolong(X).at, (x, y, z), order=1)
    a, ax, ay = ja.value, ja.grad[0], ja.grad[1]
    b = jb.value
    c, cx, cy, cz = jc.value, jc.grad[0], jc.grad[1], jc.grad[2]
    return abs(a * fx + b * fy + c * fz - (cz - ax - z * ay) * fval - cx - z * cy)


def projective_field_residual(X: PlaneVectorField, spray: Spray, at: Sequence[float]) -> float:
    """Non-radial part of the Lie derivative of the spray along the lift of X.

    Only the fiber components of [X^, spray] enter: its base components
    vanish identically for complete lifts.  The derivative X^G of the spray
    along the complete lift X^ = (a, b, A3, B3) is read from one seeded
    variable t, as d/dt G(x + a t, y + b t, u + A3 t, v + B3 t) at t = 0.
    Zero (up to roundoff) exactly when the flow of X permutes the spray's
    oriented geodesics.
    """
    x, y, u, v = (float(c) for c in at)
    if u == 0.0 and v == 0.0:
        raise EvaluationError("projective field residual needs a nonzero fiber vector")
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
    comp3 = -2.0 * xhat_g1 - gamma_a3
    comp4 = -2.0 * xhat_g2 - gamma_b3

    n2 = u * u + v * v
    lam = (comp3 * u + comp4 * v) / n2
    return math.hypot(comp3 - lam * u, comp4 - lam * v)


@dataclass(frozen=True)
class LieAlgebraCase:
    """A three-dimensional algebra of plane fields with its expected bracket table.

    ``expected`` maps the pairs (0,1), (0,2), (1,2) to expansion
    coefficients in the basis.  The first basis field spans the isotropy
    at the origin; the other two span the tangent plane there.
    """

    name: str
    basis: tuple  # three PlaneVectorFields
    expected: dict  # {(i, j): (c0, c1, c2)}

    def isotropy_ok(self, tol: float = 1e-12) -> bool:
        a0, b0 = self.basis[0].at(0.0, 0.0)
        return abs(a0) <= tol and abs(b0) <= tol

    def transitive_ok(self, tol: float = 1e-9) -> bool:
        v1 = self.basis[1].at(0.0, 0.0)
        v2 = self.basis[2].at(0.0, 0.0)
        return abs(v1[0] * v2[1] - v1[1] * v2[0]) > tol


_SAMPLE_POOL = (
    (0.137, 0.291, 0.713),
    (-0.218, 0.117, -0.437),
    (0.301, -0.157, 1.213),
    (-0.113, -0.271, 0.517),
    (0.243, 0.193, -0.871),
    (0.061, -0.329, 1.531),
    (-0.307, 0.251, -1.117),
    (0.173, 0.077, 0.337),
)


@dataclass(frozen=True)
class StructureConstants:
    constants: np.ndarray  # shape (3, 3, 3), antisymmetric in the first two slots
    residual: float

    def table(self):
        return {key: tuple(self.constants[key]) for key in ((0, 1), (0, 2), (1, 2))}


def structure_constants(
    case_or_basis,
    npoints: int = 5,
    tol: float = 1e-9,
) -> StructureConstants:
    """Expand the three brackets of a basis in the basis itself.

    At each sample point (x, y, z) the prolonged fields give a 3x3 system
    (components a, b, c), solved exactly; the constants must agree across
    points to ``tol``.  Singular sample points are skipped and replaced
    from a fixed pool of eight; a larger ``npoints`` raises ``ValueError``.
    """
    if npoints > len(_SAMPLE_POOL):
        raise ValueError(f"npoints {npoints} exceeds the sample pool of {len(_SAMPLE_POOL)} points")
    basis = case_or_basis.basis if isinstance(case_or_basis, LieAlgebraCase) else tuple(case_or_basis)
    prolonged = [prolong(X) for X in basis]
    brackets = {
        (i, j): prolong(lie_bracket(basis[i], basis[j]))
        for (i, j) in ((0, 1), (0, 2), (1, 2))
    }

    per_point = []
    used = 0
    for (x, y, z) in _SAMPLE_POOL:
        if used >= npoints:
            break
        A = np.array([P.at(x, y, z) for P in prolonged], dtype=float).T  # one column per field
        if abs(np.linalg.det(A)) < 1e-10 * max(1.0, float(np.abs(A).max()) ** 3):
            continue
        rhs = {key: np.array(B.at(x, y, z), dtype=float) for key, B in brackets.items()}
        per_point.append((A, rhs, {key: np.linalg.solve(A, r) for key, r in rhs.items()}))
        used += 1
    if used < npoints:
        raise DegenerateBasisError(
            f"only {used} of {npoints} sample points gave an invertible prolonged basis"
        )

    keys = ((0, 1), (0, 2), (1, 2))
    mean = {k: np.mean([pc[k] for (_, _, pc) in per_point], axis=0) for k in keys}
    spread = max(
        float(np.abs(pc[k] - mean[k]).max()) for (_, _, pc) in per_point for k in keys
    )
    residual = max(
        float(np.abs(A @ mean[k] - rhs[k]).max()) for (A, rhs, _) in per_point for k in keys
    )
    if spread > tol or residual > max(tol, 10 * spread):
        raise NotClosedError(
            f"bracket expansion disagrees across sample points "
            f"(spread {spread:.3e}, residual {residual:.3e})"
        )

    C = np.zeros((3, 3, 3))
    for (i, j) in keys:
        C[i, j] = mean[(i, j)]
        C[j, i] = -mean[(i, j)]
    return StructureConstants(constants=C, residual=max(residual, spread))


def jacobi_residual(constants) -> float:
    """Largest defect of the three Jacobi-identity relations.

    With [X0,X1] = sum a_i X_i, [X0,X2] = sum b_i X_i, [X1,X2] = sum g_i X_i
    the identity reduces to three bilinear relations in the coefficients.
    """
    C = constants.constants if isinstance(constants, StructureConstants) else np.asarray(constants)
    a = C[0, 1]
    b = C[0, 2]
    g = C[1, 2]
    eq1 = a[0] * g[1] + b[0] * g[2] - b[2] * g[0] - a[1] * g[0]
    eq2 = b[1] * g[2] + a[1] * b[0] - b[2] * g[1] - a[0] * b[1]
    eq3 = a[2] * g[1] + a[2] * b[0] - a[0] * b[2] - a[1] * g[2]
    return float(max(abs(eq1), abs(eq2), abs(eq3)))
