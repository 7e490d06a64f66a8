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
from typing import Callable, Sequence

import numpy as np

from .finsler import Rectangle, checked_det
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
]

_FIT_NODES = (0.0, 1.0, -1.0, 2.0)
_CHECK_NODES = (-2.0, 3.0)
_FIT_WEIGHTS = tuple(
    tuple(float(w) for w in row)
    for row in np.linalg.inv(np.array([[z**p for p in range(4)] for z in _FIT_NODES]))
)


@dataclass(frozen=True)
class CubicForm:
    """Coefficients of f = A + B z + C z^2 + D z^3.

    ``fit(x, y) -> (A, B, C, D)`` repeats the four-node fit at each point
    from four evaluations of f, so the coefficients stay liftable together.
    """

    fit: Callable

    def coefficients(self, x: float, y: float):
        return tuple(float(c) for c in self.fit(x, y))


@dataclass(frozen=True)
class NotCubic:
    residual: float
    node: float


def extract_cubic(f: ScalarField, at: Sequence[float], tol: float = 1e-9):
    """Fit the cubic through z in {0, 1, -1, 2} and accept iff the check
    nodes {-2, 3} reproduce it to ``tol``.

    Returns a :class:`CubicForm` whose ``fit`` repeats the fit pointwise
    (so it stays liftable), or :class:`NotCubic` with the offending residual.
    """

    def fit(x, y):
        f0, f1, f2, f3 = (f(x, y, z) for z in _FIT_NODES)
        return tuple(w[0] * f0 + w[1] * f1 + w[2] * f2 + w[3] * f3 for w in _FIT_WEIGHTS)

    x, y = at
    A, B, C, D = (float(c) for c in fit(x, y))
    for z in _CHECK_NODES:
        r = abs(float(f(x, y, z)) - (A + z * (B + z * (C + z * D))))
        if r > tol:
            return NotCubic(residual=r, node=z)
    return CubicForm(fit)


def flatness_residuals(cf: CubicForm, at: Sequence[float]):
    """The two straightening obstructions on the cubic coefficients."""
    jA, jB, jC, jD = lift(cf.fit, at, order=2)
    A, (Ax, Ay), (Axx, Axy, Ayy) = jA.value, jA.grad, jA.hess_packed
    B, (Bx, By), (Bxx, Bxy, Byy) = jB.value, jB.grad, jB.hess_packed
    C, (Cx, Cy), (Cxx, Cxy, Cyy) = jC.value, jC.grad, jC.hess_packed
    D, (Dx, Dy), (Dxx, Dxy, Dyy) = jD.value, jD.grad, jD.hess_packed
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
        except EvaluationError:
            return FlatnessVerdict(False, (x, y))
        if isinstance(cf, NotCubic):
            return FlatnessVerdict(False, (x, y), cf.residual)
        r1, r2 = flatness_residuals(cf, (x, y))
        worst = max(worst, abs(r1), abs(r2))
        if abs(r1) > tol or abs(r2) > tol:
            return FlatnessVerdict(False, (x, y), max(abs(r1), abs(r2)))
    return FlatnessVerdict(True, None, worst)


class ProjectiveConnectionCoeffs(CubicForm):
    """Coefficients of a cubic equation y'' = K0 + K1 z + K2 z^2 + K3 z^3;
    ``fit(x, y)`` returns (K0, K1, K2, K3)."""

    @classmethod
    def from_cubic(cls, cf: CubicForm) -> "ProjectiveConnectionCoeffs":
        return cls(cf.fit)


def liouville_candidate(g: MetricField) -> MetricField:
    """The density-rescaled metric a = (det g)^{-2/3} g."""

    def entries(x, y):
        e11, e12, e22 = g.entries(x, y)
        scale = power(checked_det(e11, e12, e22, "metric field", (x, y)), -2.0 / 3.0)
        return scale * e11, scale * e12, scale * e22

    return MetricField(entries, g.domain)


def liouville_residuals(
    a: MetricField, K: ProjectiveConnectionCoeffs, at: Sequence[float]
) -> np.ndarray:
    """The four linear metrizability relations on (a, K) at a point."""
    x, y = at
    j11, j12, j22 = lift(a.entries, (x, y), order=1)
    a11, a12, a22 = j11.value, j12.value, j22.value
    k0, k1, k2, k3 = K.coefficients(x, y)
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
