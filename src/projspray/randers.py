"""Constant-curvature base metrics, area-form potentials, the Randers
construction, the magnetic flow, and the geodesic curvature of sampled
curves.

The construction: pick a background metric alpha, scale its area form by
-k, pick a potential one-form beta with d(beta) equal to that form, and
set F = sqrt(alpha) + beta.  The geodesics of F are then the positively
oriented curves of constant geodesic curvature k for alpha.

A matrix field is one callable ``entries(x, y)`` returning (e11, e12, e22),
a one-form the callable (x, y) -> (b1, b2) and an area form its component
(x, y) -> Omega_12; each is read, and lifted, as one register per point.
Pointwise 2x2 algebra is done on floats: one J formula, one magnetic
equation, Gamma(xi, xi) = 1/2 K from ``finsler.levi_civita`` (whose 1/4 K
are geodesic sprays), and the determinant guard ``finsler.checked_det``,
which names a singular point; where alpha's area or dual norm is read, one
more guard names a point where alpha is not positive definite.  Both
metrics, lengths and the dual norm read quadratic forms through one helper,
``_quadratic``, which skips the cross term of a diagonal alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .finsler import FinslerMetric, Rectangle, checked_det, levi_civita
from .jets import EvaluationError, jet_value, lift, reject_first, sqrt

__all__ = [
    "CurveSample",
    "MetricField",
    "area_form",
    "beta_for",
    "christoffel",
    "constant_curvature_metric",
    "covariant_acceleration",
    "geodesic_curvature",
    "magnetic_rhs",
    "one_form_norm",
    "randers_metric",
    "riemannian_metric",
]


@dataclass(frozen=True)
class MetricField:
    """Symmetric 2x2 matrix field on a base rectangle; ``entries(x, y)``
    returns (e11, e12, e22)."""

    entries: Callable
    domain: Rectangle

    def matrix(self, x: float, y: float) -> np.ndarray:
        e11, e12, e22 = (float(e) for e in self.entries(x, y))
        return np.array([[e11, e12], [e12, e22]])

    def norm(self, x, y, w):
        """The length sqrt(q) of w = (w1, w2) at (x, y), with q = alpha(w, w) from ``_quadratic``.

        Takes floats, or float arrays of one shape: then the entries are
        evaluated once on the arrays and the lengths come back as an array.
        Raises ``EvaluationError`` naming the (first) point where q < 0 or
        q is NaN.
        """
        q = _quadratic(*self.entries(x, y), *w)
        many = isinstance(q, np.ndarray)
        bad = ~(q >= 0.0) if many else not q >= 0.0  # NaN fails q >= 0.0 where it passes q < 0.0
        reject_first(bad, "matrix field is negative or NaN on this vector", x, y)
        return np.sqrt(q) if many else math.sqrt(q)


def _lorentz(e11, e12, e22, det, w, vel) -> tuple[float, float]:
    """J (u, v) = (e22 w v + e12 w u, -e12 w v - e11 w u) / det alpha, with
    w = Omega_12 and det = det alpha already guarded: the one J formula, the
    Lorentz operator J = alpha^{-1} Omega of the magnetic flow.  J squares to
    -k^2 Id when Omega is ``area_form(alpha, k)``."""
    u, v = vel
    return (e22 * w * v + e12 * w * u) / det, (-e12 * w * v - e11 * w * u) / det


def constant_curvature_metric(model: str) -> MetricField:
    """Flat plane, round-sphere chart, or disk model of the hyperbolic plane."""
    if model == "euclidean":
        return MetricField(lambda x, y: (1.0, 0.0, 1.0), Rectangle(-3.0, 3.0, -3.0, 3.0))
    if model == "sphere":
        def entries(x, y):
            d = 1.0 + x * x + y * y
            phi = 1.0 / (d * d)
            return phi, 0.0, phi

        return MetricField(entries, Rectangle(-3.0, 3.0, -3.0, 3.0))
    if model == "hyperbolic":
        def entries(x, y):
            w = 1.0 - x * x - y * y
            wv = jet_value(w)
            if isinstance(wv, np.ndarray) or not wv > 0.0:  # NaN fails w > 0.0 where it passes w <= 0.0
                reject_first(np.logical_not(wv > 0.0), "outside the unit disk", x, y)
            phi = 1.0 / (w * w)
            return phi, 0.0, phi

        return MetricField(entries, Rectangle(-0.7, 0.7, -0.7, 0.7))
    raise ValueError(f"unknown model {model!r}")


def _check_scale(k: float):
    if not 0.0 < k < math.inf:  # false for NaN too
        raise ValueError(f"curvature scale k must be positive and finite (got {k!r})")


def beta_for(model: str, k: float) -> Callable:
    """Rotationally symmetric one-form (x, y) -> (b1, b2) with d(beta) = area_form(alpha, k),
    in the orientation the catalog sprays match."""
    _check_scale(k)
    if model == "euclidean":
        return lambda x, y: (0.5 * k * y, -0.5 * k * x)
    if model in ("sphere", "hyperbolic"):
        eps = 1.0 if model == "sphere" else -1.0

        def at(x, y):
            denom = 1.0 + eps * (x * x + y * y)
            return 0.5 * k * y / denom, -0.5 * k * x / denom

        return at
    raise ValueError(f"unknown model {model!r}")


def _positive_det(e11, e12, e22, at: Sequence):
    """det alpha from :func:`finsler.checked_det`, which names a singular
    point; then raises ``EvaluationError`` "metric field is not positive
    definite at (<at>)" unless e11 > 0 and det > 0.  Takes floats or jets."""
    det = checked_det(e11, e12, e22, "metric field", at)
    positive = jet_value(e11) > 0.0 and jet_value(det) > 0.0
    reject_first(not positive, "metric field is not positive definite", *at)
    return det


def area_form(alpha: MetricField, k: float) -> Callable:
    """The area form's component (x, y) -> Omega_12 = -k sqrt(det alpha), on floats or jets."""
    _check_scale(k)

    def w(x, y):
        return -k * sqrt(_positive_det(*alpha.entries(x, y), (x, y)))

    return w


def one_form_norm(alpha: MetricField, beta: Callable, x: float, y: float) -> float:
    """alpha-norm of the one-form: |b|^2 = (e22 b1^2 - 2 e12 b1 b2 + e11 b2^2) / det alpha.

    Raises ``EvaluationError`` naming the point where alpha is not positive
    definite, as ``checked_det`` does where it is singular.
    """
    e11, e12, e22 = (float(e) for e in alpha.entries(x, y))
    b1, b2 = (float(c) for c in beta(x, y))
    return math.sqrt(_quadratic(e22, -e12, e11, b1, b2) / _positive_det(e11, e12, e22, (x, y)))


def _quadratic(a11, a12, a22, u, v):
    """alpha(xi, xi) = a11 (u u) + (2 a12) (u v) + a22 (v v), in that
    association, on floats, jets or arrays: the one quadratic form, of both
    metrics, of lengths and, on (a22, -a12, a11), of the dual norm.  Each
    coefficient multiplies a finished fiber monomial: where the
    coefficients are jets of a newer register than u and v
    (``geodesic_spray`` seeds the base register inside its fiber lift),
    each term is one product of fiber jets and a scaling, not three
    products of fiber jets.  A float 0.0 ``a12``, as in every catalog
    background, drops the cross term: for finite u and v it is a zero, so
    every value and derivative is the same up to the sign of a zero, and
    the monomial u v is never built."""
    if type(a12) is float and a12 == 0.0:
        return a11 * (u * u) + a22 * (v * v)
    return a11 * (u * u) + 2.0 * a12 * (u * v) + a22 * (v * v)


def randers_metric(
    alpha: MetricField,
    beta: Callable,
    domain: Rectangle,
) -> FinslerMetric:
    """F = sqrt(alpha(xi, xi)) + beta(xi); requires |beta|_alpha < 1 on ``domain``."""
    for (x, y) in domain.grid(5, 5, margin=1.0 - 1e-9):
        n = one_form_norm(alpha, beta, x, y)
        if not n < 1.0:  # a NaN norm fails too
            raise EvaluationError(
                f"one-form norm {n:.3f} is not below 1 at ({x}, {y}); positivity fails"
            )

    def F(x, y, u, v):
        b1, b2 = beta(x, y)
        return sqrt(_quadratic(*alpha.entries(x, y), u, v)) + b1 * u + b2 * v

    return FinslerMetric(F, domain)


def riemannian_metric(alpha: MetricField) -> FinslerMetric:
    """F = sqrt(alpha(xi, xi)) as a Finsler metric."""

    def F(x, y, u, v):
        return sqrt(_quadratic(*alpha.entries(x, y), u, v))

    return FinslerMetric(F, alpha.domain)


def _entries_lift(alpha: MetricField, x, y) -> tuple:
    """alpha's entries h, h_x and h_y at (x, y) as packed triples, read off
    one order-1 lift: the arguments of ``levi_civita`` before xi."""
    j11, j12, j22 = lift(alpha.entries, (x, y), order=1)
    (a_x, a_y), (b_x, b_y), (c_x, c_y) = j11.grad, j12.grad, j22.grad
    return (j11.value, j12.value, j22.value), (a_x, b_x, c_x), (a_y, b_y, c_y)


def christoffel(alpha: MetricField, x: float, y: float) -> tuple:
    """Symbols Gamma[i][j][k] of the Levi-Civita connection at a point, as
    nested tuples.

    Gamma^i(xi, xi) = Gamma^i_jk xi^j xi^k is 1/2 K^i(xi), with K the
    ``levi_civita`` formula; the symbols are its polarization at
    xi = (1, 0), (0, 1) and (1, 1), all from one order-1 lift of the
    entries.  Raises ``EvaluationError`` where alpha is singular.
    """
    h = _entries_lift(alpha, x, y)
    (p1, p2), (q1, q2), (s1, s2) = (
        levi_civita(*h, xi, "metric field", (x, y)) for xi in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    )
    m1, m2 = 0.25 * (s1 - p1 - q1), 0.25 * (s2 - p2 - q2)
    return ((0.5 * p1, m1), (m1, 0.5 * q1)), ((0.5 * p2, m2), (m2, 0.5 * q2))


@dataclass(frozen=True)
class CurveSample:
    """Position, velocity, acceleration of a parametrized curve at one time."""

    pos: tuple
    vel: tuple
    acc: tuple


def covariant_acceleration(alpha: MetricField, sample: CurveSample) -> tuple[float, float]:
    x, y = sample.pos
    u, v = (float(c) for c in sample.vel)
    k1, k2 = levi_civita(*_entries_lift(alpha, x, y), (u, v), "metric field", (x, y))
    a1, a2 = (float(c) for c in sample.acc)
    return a1 + 0.5 * k1, a2 + 0.5 * k2


def geodesic_curvature(alpha: MetricField, sample: CurveSample, speed_tol: float = 1e-9) -> float:
    """Norm of the covariant acceleration for unit-speed samples."""
    x, y = sample.pos
    speed = alpha.norm(x, y, sample.vel)
    if abs(speed - 1.0) > speed_tol:
        raise EvaluationError(
            f"sample has alpha-speed {speed:.12f} at ({x}, {y}); reparametrize to unit speed first"
        )
    return alpha.norm(x, y, covariant_acceleration(alpha, sample))


def magnetic_rhs(alpha: MetricField, omega: Callable):
    """Right-hand side of the magnetic flow (x, y, u, v) -> (u, v, a1, a2),
    with a = J (u, v) - Gamma((u, v), (u, v)), in float arithmetic.

    Each call reads alpha's entries once, by the order-1 lift that gives
    Gamma (an ``area_form`` omega reads them once more).  J takes the
    lift's values, which equal the float entries, and the det alpha that
    ``levi_civita`` has just guarded, so a singular alpha raises there,
    before ``omega`` is called.
    """

    def rhs(state):
        x, y, u, v = state
        h = _entries_lift(alpha, x, y)
        k1, k2 = levi_civita(*h, (u, v), "metric field", (x, y))
        e11, e12, e22 = h[0]
        j1, j2 = _lorentz(e11, e12, e22, e11 * e22 - e12 * e12, float(omega(x, y)), (u, v))
        return u, v, j1 - 0.5 * k1, j2 - 0.5 * k2

    return rhs
