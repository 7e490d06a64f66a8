"""Cubic structure of scalar second-order equations, the two flatness
conditions on the cubic coefficients, and the metrizability residuals.

An equation y'' = f(x, y, y') is straightenable (all solutions straight
lines in some chart) iff f is cubic in y' and its coefficients satisfy two
second-order conditions.  A cubic equation comes from a Riemannian metric
iff the rescaled metric a = (det g)^{-2/3} g solves a linear first-order
system driven by the cubic coefficients; here that system is used as a
residual checker for explicit candidates, never solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .finsler import Rectangle
from .jets import EvaluationError, ScalarField, lift, power
from .randers import MetricField

__all__ = [
    "CubicForm",
    "FlatnessVerdict",
    "NotCubic",
    "ProjectiveConnectionCoeffs",
    "extract_cubic",
    "flatness_residuals",
    "is_projectively_flat",
    "liouville_candidate",
    "liouville_residuals",
    "reconstruct_metric",
]

_FIT_NODES = (0.0, 1.0, -1.0, 2.0)
_CHECK_NODES = (-2.0, 3.0)
_FIT_WEIGHTS = np.linalg.inv(
    np.array([[z**p for p in range(4)] for z in _FIT_NODES])
)


@dataclass(frozen=True)
class CubicForm:
    """Coefficient fields of f = A + B z + C z^2 + D z^3."""

    A: ScalarField
    B: ScalarField
    C: ScalarField
    D: ScalarField

    def coefficients(self, x: float, y: float):
        return (
            float(self.A(x, y)),
            float(self.B(x, y)),
            float(self.C(x, y)),
            float(self.D(x, y)),
        )

    def __call__(self, x, y, z):
        return self.A(x, y) + z * (self.B(x, y) + z * (self.C(x, y) + z * self.D(x, y)))


@dataclass(frozen=True)
class NotCubic:
    residual: float
    node: float


def _fit_coefficient(f: ScalarField, row: int) -> ScalarField:
    w = tuple(float(c) for c in _FIT_WEIGHTS[row])

    def fn(x, y):
        return (
            w[0] * f(x, y, _FIT_NODES[0])
            + w[1] * f(x, y, _FIT_NODES[1])
            + w[2] * f(x, y, _FIT_NODES[2])
            + w[3] * f(x, y, _FIT_NODES[3])
        )

    return ScalarField(2, fn, name=f"{'ABCD'[row]}[{f.name}]")


def extract_cubic(f: ScalarField, at: Sequence[float], tol: float = 1e-9):
    """Fit the cubic through z in {0, 1, -1, 2} and accept iff the check
    nodes {-2, 3} reproduce it to ``tol``.

    Returns a :class:`CubicForm` whose coefficient fields repeat the fit
    pointwise (so they stay liftable), or :class:`NotCubic` with the
    offending residual.
    """
    x, y = at
    vals = np.array([float(f(x, y, z)) for z in _FIT_NODES])
    coeffs = _FIT_WEIGHTS @ vals
    for z in _CHECK_NODES:
        fitted = float(np.polyval(coeffs[::-1], z))
        r = abs(float(f(x, y, z)) - fitted)
        if r > tol:
            return NotCubic(residual=r, node=z)
    return CubicForm(*(_fit_coefficient(f, row) for row in range(4)))


def flatness_residuals(cf: CubicForm, at: Sequence[float]):
    """The two straightening obstructions on the cubic coefficients."""
    x, y = at
    jA = lift(cf.A, (x, y), order=2)
    jB = lift(cf.B, (x, y), order=2)
    jC = lift(cf.C, (x, y), order=2)
    jD = lift(cf.D, (x, y), order=2)
    A, Ax, Ay, Axy, Axx, Ayy = jA.value, jA.grad[0], jA.grad[1], jA.hess[0][1], jA.hess[0][0], jA.hess[1][1]
    B, Bx, By, Bxy, Bxx, Byy = jB.value, jB.grad[0], jB.grad[1], jB.hess[0][1], jB.hess[0][0], jB.hess[1][1]
    C, Cx, Cy, Cxy, Cxx, Cyy = jC.value, jC.grad[0], jC.grad[1], jC.hess[0][1], jC.hess[0][0], jC.hess[1][1]
    D, Dx, Dy, Dxy, Dxx, Dyy = jD.value, jD.grad[0], jD.grad[1], jD.hess[0][1], jD.hess[0][0], jD.hess[1][1]
    r1 = (
        -Ayy
        + (2.0 / 3.0) * Bxy
        - (1.0 / 3.0) * Cxx
        - D * Ax
        - 2.0 * A * Dx
        + C * Ay
        + A * Cy
        + (1.0 / 3.0) * B * Cx
        - (2.0 / 3.0) * B * By
    )
    r2 = (
        (2.0 / 3.0) * Cxy
        - (1.0 / 3.0) * Byy
        - Dxx
        + A * Dy
        + 2.0 * D * Ay
        - D * Bx
        - B * Dx
        - (1.0 / 3.0) * C * By
        + (2.0 / 3.0) * C * Cx
    )
    return float(r1), float(r2)


@dataclass(frozen=True)
class FlatnessVerdict:
    flat: bool
    witness: tuple | None = None
    reason: str = ""
    worst: float = 0.0


def is_projectively_flat(
    f: ScalarField,
    region: Rectangle,
    nx: int = 4,
    ny: int = 4,
    tol: float = 1e-8,
    cubic_tol: float = 1e-9,
    margin: float = 0.9,
) -> FlatnessVerdict:
    """Flat iff the cubic fit succeeds and both obstructions vanish on the grid."""
    worst = 0.0
    for (x, y) in region.grid(nx, ny, margin):
        try:
            cf = extract_cubic(f, (x, y), tol=cubic_tol)
        except EvaluationError as err:
            return FlatnessVerdict(False, (x, y), f"not evaluable at cubic nodes: {err}")
        if isinstance(cf, NotCubic):
            return FlatnessVerdict(
                False, (x, y), f"not cubic (residual {cf.residual:.3e} at z={cf.node})", cf.residual
            )
        r1, r2 = flatness_residuals(cf, (x, y))
        worst = max(worst, abs(r1), abs(r2))
        if abs(r1) > tol or abs(r2) > tol:
            return FlatnessVerdict(
                False, (x, y), f"obstruction ({r1:.3e}, {r2:.3e})", max(abs(r1), abs(r2))
            )
    return FlatnessVerdict(True, None, "", worst)


@dataclass(frozen=True)
class ProjectiveConnectionCoeffs:
    """Coefficients K0..K3 of a cubic equation y'' = K0 + K1 z + K2 z^2 + K3 z^3."""

    K0: ScalarField
    K1: ScalarField
    K2: ScalarField
    K3: ScalarField

    @classmethod
    def from_cubic(cls, cf: CubicForm) -> "ProjectiveConnectionCoeffs":
        return cls(cf.A, cf.B, cf.C, cf.D)

    def at(self, x, y):
        return (
            float(self.K0(x, y)),
            float(self.K1(x, y)),
            float(self.K2(x, y)),
            float(self.K3(x, y)),
        )


def _det_scaled(m: MetricField, p: float, name: str) -> MetricField:
    """The matrix field (det m)^p m."""

    def entry(e):
        return ScalarField(2, lambda x, y: power(m.det(x, y), p) * e(x, y))

    return MetricField(entry(m.e11), entry(m.e12), entry(m.e22), m.domain, name=name)


def liouville_candidate(g: MetricField) -> MetricField:
    """The density-rescaled metric a = (det g)^{-2/3} g."""
    return _det_scaled(g, -2.0 / 3.0, f"a[{g.name}]" if g.name else "a")


def reconstruct_metric(a: MetricField) -> MetricField:
    """Inverse of :func:`liouville_candidate`: g = a / (det a)^2."""
    return _det_scaled(a, -2.0, "g")


def liouville_residuals(
    a: MetricField, K: ProjectiveConnectionCoeffs, at: Sequence[float]
) -> np.ndarray:
    """The four linear metrizability relations on (a, K) at a point."""
    x, y = at
    j11 = lift(a.e11, (x, y), order=1)
    j12 = lift(a.e12, (x, y), order=1)
    j22 = lift(a.e22, (x, y), order=1)
    a11, a12, a22 = j11.value, j12.value, j22.value
    k0, k1, k2, k3 = K.at(x, y)
    r = np.array(
        [
            j11.grad[0] - (2.0 / 3.0) * k1 * a11 + 2.0 * k0 * a12,
            j11.grad[1]
            + 2.0 * j12.grad[0]
            - (4.0 / 3.0) * k2 * a11
            + (2.0 / 3.0) * k1 * a12
            + 2.0 * k0 * a22,
            2.0 * j12.grad[1]
            + j22.grad[0]
            - 2.0 * k3 * a11
            - (2.0 / 3.0) * k2 * a12
            + (4.0 / 3.0) * k1 * a22,
            j22.grad[1] - 2.0 * k3 * a12 + (2.0 / 3.0) * k2 * a22,
        ],
        dtype=float,
    )
    return r
