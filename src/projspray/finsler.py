"""Finsler metrics, their geodesic sprays, induced scalar equations, and
projective-equivalence residuals.

Coordinates are (x, y) on the base and (u, v) on the fibers.  A spray is
its pair function (x, y, u, v) -> (G1, G2); the corresponding vector field
on the slit tangent bundle is u*dx + v*dy - 2*G1*du - 2*G2*dv.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .jets import EvaluationError, Jet2, ScalarField, jet_value, lift, product_hessian, reject_first

__all__ = [
    "ConvexityReport",
    "FinslerMetric",
    "OdePair",
    "Rectangle",
    "Spray",
    "checked_det",
    "fundamental_tensor",
    "geodesic_spray",
    "induced_ode_direct",
    "induced_odes",
    "is_strongly_convex",
    "levi_civita",
    "min_eigenvalue_2x2",
    "non_radial",
    "projective_residual",
]


@dataclass(frozen=True)
class Rectangle:
    """Open axis-aligned rectangle in the (x, y)-plane."""

    x0: float
    x1: float
    y0: float
    y1: float

    def contains(self, x: float, y: float) -> bool:
        return self.x0 < x < self.x1 and self.y0 < y < self.y1

    def shrunk(self, factor: float) -> "Rectangle":
        cx, cy = 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)
        hx, hy = 0.5 * factor * (self.x1 - self.x0), 0.5 * factor * (self.y1 - self.y0)
        return Rectangle(cx - hx, cx + hx, cy - hy, cy + hy)

    def grid(self, nx: int = 5, ny: int = 5, margin: float = 0.9):
        if nx < 1 or ny < 1:
            raise ValueError(f"a grid needs at least one point per axis, not {nx} x {ny}")
        r = self.shrunk(margin)
        xs = np.linspace(r.x0, r.x1, nx)
        ys = np.linspace(r.y0, r.y1, ny)
        return [(float(x), float(y)) for x in xs for y in ys]


def fiber_directions(n: int):
    """n >= 1 unit fiber directions, offset by 0.1 so none is axis-aligned."""
    if n < 1:
        raise ValueError(f"need at least one fiber direction, not {n}")
    return [
        (math.cos(0.1 + 2.0 * math.pi * i / n), math.sin(0.1 + 2.0 * math.pi * i / n))
        for i in range(n)
    ]


@dataclass(frozen=True)
class FinslerMetric:
    """Positively 1-homogeneous fiber norm F(x, y, u, v), on floats or jets, over a base rectangle."""

    F: Callable
    domain: Rectangle
    name: str = ""

    def __call__(self, x, y, u, v):
        return self.F(x, y, u, v)


@dataclass(frozen=True)
class Spray:
    """A spray given by its pair function ``pair(x, y, u, v) -> (G1, G2)``.

    Both coefficients are 2-homogeneous in the fiber variables and come from
    one evaluation.  ``pair`` must accept jets, so that residuals can lift it.
    """

    pair: Callable
    domain: Rectangle
    name: str = ""

    def coefficients(self, x, y, u, v):
        """The pair (G1, G2) at one point.

        This is the one point at which spray evaluations are counted, by
        perfbench's ``finsler.spray_eval.*`` spans and by
        ``test_integrate_spray_evaluates_the_spray_through_coefficients``,
        so no float path may call ``pair`` around it.
        """
        return self.pair(x, y, u, v)


@dataclass(frozen=True)
class OdePair:
    """Right-hand sides f(x, y, z) of the two x-parametrized geodesic equations."""

    fplus: ScalarField  # arity 3
    fminus: ScalarField


def fundamental_tensor(metric: FinslerMetric, at: Sequence[float]) -> tuple:
    """Half the fiber Hessian of F^2 as the rows ((g11, g12), (g12, g22)) of
    a 2x2 symmetric matrix.

    F is lifted once over (u, v) and Hess(F^2) is its
    :func:`~projspray.jets.product_hessian` with itself, so it equals the
    lift of F^2 bit for bit.
    """
    x, y, u, v = at
    if u == 0.0 and v == 0.0:
        raise EvaluationError(f"fundamental tensor is undefined on the zero section at ({x}, {y})")
    jet = lift(lambda uf, vf: metric.F(x, y, uf, vf), (u, v))
    h11, h12, h22 = product_hessian(jet, jet)
    g11, g12, g22 = 0.5 * float(h11), 0.5 * float(h12), 0.5 * float(h22)
    return (g11, g12), (g12, g22)


@dataclass(frozen=True)
class ConvexityReport:
    ok: bool
    min_eigenvalue: float
    witness: tuple | None = None


def _product_error(x: float, y: float, p: float) -> float:
    """The rounding error x*y - p of p = fl(x*y), exactly (Dekker's two-product)."""
    t = 134217729.0 * x  # Veltkamp's split into 26-bit halves
    xh = t - (t - x)
    t = 134217729.0 * y
    yh = t - (t - y)
    xl, yl = x - xh, y - yh
    return ((xh * yh - p) + xh * yl + xl * yh) + xl * yl


def min_eigenvalue_2x2(a: float, b: float, c: float) -> float:
    """Smaller eigenvalue of the symmetric matrix [[a, b], [b, c]], in closed form.

    m - r with m = (a + c)/2, r = hypot((a - c)/2, b).  When m > 0 it is
    det/(m + r), with the determinant carried through the exact rounding
    errors of its two products, so a nearly singular positive tensor keeps
    its relative accuracy.
    """
    m = (a + c) / 2
    r = math.hypot((a - c) / 2, b)
    if m <= 0.0:
        return m - r
    ac, bb = a * c, b * b
    det = (ac - bb) + (_product_error(a, c, ac) - _product_error(b, b, bb))
    return det / (m + r)


def is_strongly_convex(
    metric: FinslerMetric,
    region: Rectangle,
    nx: int = 5,
    ny: int = 5,
    ndirs: int = 16,
    margin: float = 0.9,
) -> ConvexityReport:
    """Sample the fundamental tensor over base points and unit fiber directions.

    Raises ``EvaluationError`` at the first sample whose least eigenvalue is
    not finite, which no comparison with the others would catch (NaN).
    """
    worst = math.inf
    witness = None
    directions = fiber_directions(ndirs)
    for (x, y) in region.grid(nx, ny, margin):
        for (u, v) in directions:
            (a, b), (_, c) = fundamental_tensor(metric, (x, y, u, v))
            lo = min_eigenvalue_2x2(a, b, c)
            if not math.isfinite(lo):
                raise EvaluationError(f"fundamental tensor has eigenvalue {lo} at ({x}, {y}, {u}, {v})")
            if lo < worst:
                worst = lo
                witness = (x, y, u, v)
    return ConvexityReport(ok=worst > 0.0, min_eigenvalue=worst, witness=witness)


def checked_det(h11, h12, h22, field: str, at: Sequence):
    """det h = h11 h22 - h12^2, on floats, jets or float arrays; raises
    ``EvaluationError`` "singular <field> at (<at>)" where
    |det| <= 1e-15 max(|h11|, |h22|)^2, at the first such point of an array."""
    det = h11 * h22 - h12 * h12
    if type(det) is float:  # the float path: no jet or array to unwrap
        a, c = abs(h11), abs(h22)
        scale = c if c > a else a  # max(a, c), NaN included
        if abs(det) <= 1e-15 * scale * scale:
            reject_first(True, "singular " + field, *at)
        return det
    d, a, c = jet_value(det), abs(jet_value(h11)), abs(jet_value(h22))
    scale = np.maximum(a, c) if isinstance(d, np.ndarray) else max(a, c)
    reject_first(abs(d) <= 1e-15 * scale * scale, "singular " + field, *at)
    return det


def levi_civita(h: Sequence, h_x: Sequence, h_y: Sequence, xi: Sequence, field: str, at: Sequence) -> tuple:
    """The connection formula K = h^{-1} t, jet-transparent, for a symmetric
    2x2 field h = (h11, h12, h22) with base derivatives h_x and h_y (each a
    packed triple in the same order) and xi = (u, v), with
    t1 = h11_x u^2 + 2 h11_y uv + (2 h12_y - h22_x) v^2 and
    t2 = (2 h12_x - h11_y) u^2 + 2 h22_x uv + h22_y v^2.

    A metric alpha has Gamma(xi, xi) = 1/2 K; the fiber Hessian of F^2 has
    spray coefficients G = 1/4 K.  :func:`checked_det` guards h and names
    ``field`` and ``at``.
    """
    h11, h12, h22 = h
    det = checked_det(h11, h12, h22, field, at)
    a_x, b_x, c_x = h_x
    a_y, b_y, c_y = h_y
    u, v = xi
    uu, uv, vv = u * u, u * v, v * v
    t1 = a_x * uu + 2.0 * a_y * uv + (2.0 * b_y - c_x) * vv
    t2 = (2.0 * b_x - a_y) * uu + 2.0 * c_x * uv + c_y * vv
    return (h22 * t1 - h12 * t2) / det, (h11 * t2 - h12 * t1) / det


def geodesic_spray(metric: FinslerMetric) -> Spray:
    """Spray whose integral curves project to the geodesics of ``metric``.

    G = 1/4 K, with K the :func:`levi_civita` formula of h = 2g, the fiber
    Hessian of F^2.  One order-2 lift in (u, v) gives h and its base
    derivatives: it lifts a function that lifts F in (x, y) to order 1 and
    returns (F, d_x F, d_y F).  The (x, y) register is the newer, so it is
    the outer object: 3 components, each a (u, v) jet of 6 (see
    :mod:`projspray.jets`).  F^2 itself is never built: h is the
    :func:`~projspray.jets.product_hessian` of F with F, and by the product
    rule d_x F^2 = d_x F * F + F * d_x F, so h_x adds the product Hessians
    of those two terms entry by entry, as does h_y.  Each entry is the
    expression a lift of F^2 would form, in its order, so the spray is
    bit-identical to the one from F^2.
    A fiber-constant F has h = 0 and raises ``EvaluationError`` as a
    singular fundamental tensor.  The whole evaluation stays
    jet-transparent, so derived sprays can be lifted again (projective-field
    residuals, induced-equation coefficients).
    """
    F = metric.F

    def pair(x, y, u, v):
        def base_jet(uf, vf):
            j = lift(lambda xb, yb: F(xb, yb, uf, vf), (x, y), order=1)
            return j.value, *j.grad

        f, f_x, f_y = lift(base_jet, (u, v))
        h = product_hessian(f, f)
        h_x, h_y = (
            tuple([a + b for a, b in zip(product_hessian(d, f), product_hessian(f, d))]) for d in (f_x, f_y)
        )
        k1, k2 = levi_civita(h, h_x, h_y, (u, v), "fundamental tensor", (x, y, u, v))
        return 0.25 * k1, 0.25 * k2

    return Spray(pair, metric.domain, name=f"geodesic({metric.name})" if metric.name else "geodesic")


def induced_odes(spray: Spray) -> OdePair:
    """Scalar equations for the x-parametrizations of the spray's curves."""

    def branch(u):
        def f(x, y, z):
            g1, g2 = spray.coefficients(x, y, u, z if u > 0.0 else -z)
            return 2.0 * g1 * z - 2.0 * g2

        return f

    return OdePair(
        fplus=ScalarField(3, branch(1.0), name="f+"),
        fminus=ScalarField(3, branch(-1.0), name="f-"),
    )


def induced_ode_direct(metric: FinslerMetric) -> OdePair:
    """Same equations computed from F alone, bypassing the spray.

    Both branches come from the second Euler-Lagrange equation of the
    length functional along (t, y(t)) resp. (-t, y(-t)):
    y'' = (F_y - u F_xv - v F_yv) / F_vv at (x, y, u, v) = (x, y, ±1, ±y').
    The velocity components multiply the mixed partials; dropping them
    flips the sign of the F_xv term on the backward branch.
    """

    F = metric.F

    def branch(sign):
        def f(x, y, z):
            u = sign * 1.0
            v = sign * z if isinstance(z, Jet2) else sign * float(z)
            j = lift(lambda xf, yf, vf: F(xf, yf, u, vf), (x, y, v))
            Fy = j.grad[1]
            _, _, Fxv, _, Fyv, Fvv = j.hess_packed
            if jet_value(Fvv) == 0.0:
                raise EvaluationError(
                    f"degenerate fiber direction at ({jet_value(x)}, {jet_value(y)}, z={jet_value(z)})"
                )
            return (Fy - u * Fxv - v * Fyv) / Fvv

        return f

    return OdePair(
        fplus=ScalarField(3, branch(+1), name="f+ direct"),
        fminus=ScalarField(3, branch(-1), name="f- direct"),
    )


def non_radial(fiber: Callable, at: Sequence[float], what: str) -> float:
    """Signed non-radial part (w1 v - w2 u) / |xi| of w = fiber(x, y, u, v) at
    at = (x, y, u, v), zero exactly when w is parallel to xi = (u, v).  On the
    zero section it raises ``EvaluationError`` naming ``what``, unevaluated."""
    x, y, u, v = (float(c) for c in at)
    if u == 0.0 and v == 0.0:
        raise EvaluationError(f"{what} needs a nonzero fiber vector at ({x}, {y})")
    w1, w2 = fiber(x, y, u, v)
    return (w1 * v - w2 * u) / math.hypot(u, v)


def projective_residual(s1: Spray, s2: Spray, at: Sequence[float]) -> float:
    """Size of the non-radial part of the difference of two sprays at a point.

    Zero exactly when the sprays differ by a multiple of the radial field,
    i.e. when they share oriented geodesics through the point.
    """

    def difference(x, y, u, v):
        a1, b1 = s1.coefficients(x, y, u, v)
        a2, b2 = s2.coefficients(x, y, u, v)
        return -2.0 * (float(a1) - float(a2)), -2.0 * (float(b1) - float(b2))

    return abs(non_radial(difference, at, "projective residual"))
