"""Constant-curvature base metrics, area-form potentials, the Randers
construction, the Lorentz operator, and magnetic-geodesic residuals.

The construction: pick a background metric alpha, scale its area form by
-k, pick a potential one-form beta with d(beta) equal to that form, and
set F = sqrt(alpha) + beta.  The geodesics of F are then the positively
oriented curves of constant geodesic curvature k for alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .finsler import FinslerMetric, Rectangle
from .jets import EvaluationError, ScalarField, jet_value, lift, sqrt

__all__ = [
    "AreaForm",
    "CurveSample",
    "LorentzOperator",
    "MetricField",
    "OneFormField",
    "area_form",
    "beta_for",
    "christoffel",
    "constant_curvature_metric",
    "covariant_acceleration",
    "exterior_derivative",
    "geodesic_curvature",
    "lorentz",
    "magnetic_rhs",
    "magnetic_residual",
    "one_form_norm",
    "randers_metric",
]


@dataclass(frozen=True)
class MetricField:
    """Symmetric 2x2 matrix field on a base rectangle."""

    e11: ScalarField
    e12: ScalarField
    e22: ScalarField
    domain: Rectangle
    name: str = ""

    def matrix(self, x: float, y: float) -> np.ndarray:
        return np.array(
            [
                [float(self.e11(x, y)), float(self.e12(x, y))],
                [float(self.e12(x, y)), float(self.e22(x, y))],
            ]
        )

    def det(self, x, y):
        return self.e11(x, y) * self.e22(x, y) - self.e12(x, y) * self.e12(x, y)

    def inverse(self, x: float, y: float) -> np.ndarray:
        m = self.matrix(x, y)
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[0, 1]
        if d == 0.0:
            raise EvaluationError(f"singular matrix field at ({x}, {y})")
        return np.array([[m[1, 1], -m[0, 1]], [-m[0, 1], m[0, 0]]]) / d

    def norm(self, x: float, y: float, w: Sequence[float]) -> float:
        m = self.matrix(x, y)
        q = float(w[0] * (m[0, 0] * w[0] + m[0, 1] * w[1]) + w[1] * (m[0, 1] * w[0] + m[1, 1] * w[1]))
        if q < 0.0:
            raise EvaluationError("matrix field is not positive on this vector")
        return math.sqrt(q)


@dataclass(frozen=True)
class OneFormField:
    b1: ScalarField
    b2: ScalarField
    name: str = ""

    def at(self, x, y):
        return self.b1(x, y), self.b2(x, y)


@dataclass(frozen=True)
class AreaForm:
    """Antisymmetric matrix field Omega with Omega_12 = -k sqrt(det alpha)."""

    omega12: ScalarField
    k: float

    def matrix(self, x, y) -> np.ndarray:
        w = float(self.omega12(x, y))
        return np.array([[0.0, w], [-w, 0.0]])


@dataclass(frozen=True)
class LorentzOperator:
    """J = alpha^{-1} Omega; squares to -k^2 Id."""

    alpha: MetricField
    omega: AreaForm

    @property
    def k(self):
        return self.omega.k

    def matrix(self, x, y) -> np.ndarray:
        return self.alpha.inverse(x, y) @ self.omega.matrix(x, y)

    def __call__(self, x, y, w) -> np.ndarray:
        return self.matrix(x, y) @ np.asarray(w, dtype=float)


def constant_curvature_metric(model: str) -> MetricField:
    """Flat plane, round-sphere chart, or disk model of the hyperbolic plane."""
    if model == "euclidean":
        one = ScalarField(2, lambda x, y: 1.0)
        zero = ScalarField(2, lambda x, y: 0.0)
        return MetricField(one, zero, one, Rectangle(-3.0, 3.0, -3.0, 3.0), "euclidean")
    if model == "sphere":
        phi = ScalarField(2, lambda x, y: 1.0 / (1.0 + x * x + y * y) ** 2)
        zero = ScalarField(2, lambda x, y: 0.0)
        return MetricField(phi, zero, phi, Rectangle(-3.0, 3.0, -3.0, 3.0), "sphere")
    if model == "hyperbolic":
        def phi(x, y):
            w = 1.0 - x * x - y * y
            if jet_value(w) <= 0.0:
                raise EvaluationError("outside the unit disk")
            return 1.0 / (w * w)

        zero = ScalarField(2, lambda x, y: 0.0)
        return MetricField(
            ScalarField(2, phi), zero, ScalarField(2, phi), Rectangle(-0.7, 0.7, -0.7, 0.7), "hyperbolic"
        )
    raise ValueError(f"unknown model {model!r}")


def beta_for(model: str, k: float, sign: float = 1.0) -> OneFormField:
    """Rotationally symmetric potential with d(beta) = area_form(alpha, k).

    ``sign`` = -1 gives the opposite orientation; the consistent choice for
    the catalog sprays is +1.
    """
    if k <= 0:
        raise ValueError("curvature scale k must be positive")
    s = float(sign)
    if model == "euclidean":
        return OneFormField(
            ScalarField(2, lambda x, y: s * 0.5 * k * y),
            ScalarField(2, lambda x, y: -s * 0.5 * k * x),
            name=f"beta[euclidean,k={k}]",
        )
    if model in ("sphere", "hyperbolic"):
        eps = 1.0 if model == "sphere" else -1.0

        def b1(x, y):
            return s * 0.5 * k * y / (1.0 + eps * (x * x + y * y))

        def b2(x, y):
            return -s * 0.5 * k * x / (1.0 + eps * (x * x + y * y))

        return OneFormField(ScalarField(2, b1), ScalarField(2, b2), name=f"beta[{model},k={k}]")
    raise ValueError(f"unknown model {model!r}")


def area_form(alpha: MetricField, k: float) -> AreaForm:
    if k <= 0:
        raise ValueError("curvature scale k must be positive")

    def w(x, y):
        return -k * sqrt(alpha.e11(x, y) * alpha.e22(x, y) - alpha.e12(x, y) ** 2)

    return AreaForm(ScalarField(2, w), k)


def exterior_derivative(beta: OneFormField, at: Sequence[float]) -> float:
    """Coefficient of dx^dy in d(beta)."""
    x, y = at
    j2 = lift(beta.b2, (x, y), order=1)
    j1 = lift(beta.b1, (x, y), order=1)
    return float(j2.grad[0] - j1.grad[1])


def lorentz(alpha: MetricField, omega: AreaForm, check_points: int = 3) -> LorentzOperator:
    J = LorentzOperator(alpha, omega)
    k2 = omega.k**2
    for (x, y) in alpha.domain.grid(check_points, check_points):
        m = J.matrix(x, y)
        if float(np.abs(m @ m + k2 * np.eye(2)).max()) > 1e-12 * max(1.0, k2):
            raise EvaluationError(f"Lorentz operator fails J^2 = -k^2 Id at ({x}, {y})")
    return J


def one_form_norm(alpha: MetricField, beta: OneFormField, x: float, y: float) -> float:
    """alpha-norm of the one-form (via the inverse metric)."""
    b = np.array([float(c) for c in beta.at(x, y)])
    return math.sqrt(float(b @ alpha.inverse(x, y) @ b))


def randers_metric(
    alpha: MetricField,
    beta: OneFormField,
    domain: Rectangle | None = None,
    check: bool = True,
    name: str = "",
) -> FinslerMetric:
    """F = sqrt(alpha(xi, xi)) + beta(xi); requires |beta|_alpha < 1."""
    domain = domain or alpha.domain
    if check:
        for (x, y) in domain.grid(5, 5, margin=1.0 - 1e-9):
            n = one_form_norm(alpha, beta, x, y)
            if n >= 1.0:
                raise EvaluationError(
                    f"one-form norm {n:.3f} >= 1 at ({x}, {y}); positivity fails"
                )

    a11, a12, a22 = alpha.e11.fn, alpha.e12.fn, alpha.e22.fn
    b1, b2 = beta.b1.fn, beta.b2.fn

    def F(x, y, u, v):
        q = a11(x, y) * u * u + 2.0 * a12(x, y) * u * v + a22(x, y) * v * v
        return sqrt(q) + b1(x, y) * u + b2(x, y) * v

    return FinslerMetric(ScalarField(4, F), "randers", domain, name=name)


def riemannian_metric(alpha: MetricField, name: str = "") -> FinslerMetric:
    """F = sqrt(alpha(xi, xi)) as a Finsler metric."""
    a11, a12, a22 = alpha.e11.fn, alpha.e12.fn, alpha.e22.fn

    def F(x, y, u, v):
        return sqrt(a11(x, y) * u * u + 2.0 * a12(x, y) * u * v + a22(x, y) * v * v)

    return FinslerMetric(ScalarField(4, F), "riemannian", alpha.domain, name=name)


def christoffel(alpha: MetricField, x: float, y: float) -> np.ndarray:
    """Symbols Gamma[i][j][k] of the Levi-Civita connection at a point.

    Gamma^i_jk = 1/2 alpha^il (d_j alpha_lk + d_k alpha_lj - d_l alpha_jk).
    Raises ``EvaluationError`` where alpha is singular.
    """
    j11, j12, j22 = (lift(f, (x, y), order=1) for f in (alpha.e11, alpha.e12, alpha.e22))
    m = np.array([[j11.value, j12.value], [j12.value, j22.value]], dtype=float)
    det = m[0, 0] * m[1, 1] - m[0, 1] ** 2
    if det == 0.0:
        raise EvaluationError(f"singular metric field at ({x}, {y})")
    inv = np.array([[m[1, 1], -m[0, 1]], [-m[0, 1], m[0, 0]]]) / det
    d = np.array([[j11.grad, j12.grad], [j12.grad, j22.grad]], dtype=float)  # d[i, j, l] = d_l alpha_ij
    return 0.5 * np.einsum("il,ljk->ijk", inv, d.transpose(0, 2, 1) + d - d.transpose(2, 0, 1))


@dataclass(frozen=True)
class CurveSample:
    """Position, velocity, acceleration of a parametrized curve at one time."""

    pos: tuple
    vel: tuple
    acc: tuple


def covariant_acceleration(alpha: MetricField, sample: CurveSample) -> np.ndarray:
    x, y = sample.pos
    gamma = christoffel(alpha, x, y)
    vel = np.asarray(sample.vel, dtype=float)
    acc = np.asarray(sample.acc, dtype=float)
    return acc + np.einsum("ijk,j,k->i", gamma, vel, vel)


def magnetic_residual(alpha: MetricField, omega: AreaForm, sample: CurveSample) -> float:
    """alpha-norm of (covariant acceleration - J velocity)."""
    if sample.vel[0] == 0.0 and sample.vel[1] == 0.0:
        raise EvaluationError("magnetic residual needs a nonzero velocity")
    x, y = sample.pos
    J = LorentzOperator(alpha, omega)
    defect = covariant_acceleration(alpha, sample) - J(x, y, sample.vel)
    return alpha.norm(x, y, defect)


def geodesic_curvature(alpha: MetricField, sample: CurveSample, speed_tol: float = 1e-9) -> float:
    """Norm of the covariant acceleration for unit-speed samples."""
    x, y = sample.pos
    speed = alpha.norm(x, y, sample.vel)
    if abs(speed - 1.0) > speed_tol:
        raise EvaluationError(
            f"sample has alpha-speed {speed:.12f}; reparametrize to unit speed first"
        )
    return alpha.norm(x, y, covariant_acceleration(alpha, sample))


def magnetic_rhs(alpha: MetricField, omega: AreaForm):
    """Right-hand side of the magnetic flow (x, y, u, v) -> derivatives."""
    J = LorentzOperator(alpha, omega)

    def rhs(state):
        x, y, u, v = state
        gamma = christoffel(alpha, x, y)
        vel = np.array([u, v])
        acc = J(x, y, vel) - np.einsum("ijk,j,k->i", gamma, vel, vel)
        return np.array([u, v, acc[0], acc[1]])

    return rhs
