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

from .jets import EvaluationError, Jet2, ScalarField, jet_value, lift

__all__ = [
    "ConvexityReport",
    "FinslerMetric",
    "OdePair",
    "Rectangle",
    "SmoothnessReport",
    "Spray",
    "TransposedOdePair",
    "fundamental_tensor",
    "geodesic_spray",
    "induced_ode_direct",
    "induced_odes",
    "is_strongly_convex",
    "min_eigenvalue_2x2",
    "projective_residual",
    "smoothness_at_zero",
    "transpose_odes",
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

    def shrunk(self, factor: float = 0.9) -> "Rectangle":
        cx, cy = 0.5 * (self.x0 + self.x1), 0.5 * (self.y0 + self.y1)
        hx, hy = 0.5 * factor * (self.x1 - self.x0), 0.5 * factor * (self.y1 - self.y0)
        return Rectangle(cx - hx, cx + hx, cy - hy, cy + hy)

    def grid(self, nx: int = 5, ny: int = 5, margin: float = 0.9):
        r = self.shrunk(margin)
        xs = np.linspace(r.x0, r.x1, nx)
        ys = np.linspace(r.y0, r.y1, ny)
        return [(float(x), float(y)) for x in xs for y in ys]


def fiber_directions(n: int = 8):
    """Unit fiber directions, offset by 0.1 so none is axis-aligned."""
    return [
        (math.cos(0.1 + 2.0 * math.pi * i / n), math.sin(0.1 + 2.0 * math.pi * i / n))
        for i in range(n)
    ]


@dataclass(frozen=True)
class FinslerMetric:
    """Positively 1-homogeneous fiber norm F(x, y, u, v) over a base rectangle."""

    F: ScalarField  # arity 4
    kind: str  # "riemannian" | "randers" | "general"
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
        """The pair (G1, G2) at one point."""
        return self.pair(x, y, u, v)


@dataclass(frozen=True)
class OdePair:
    """Right-hand sides f(x, y, z) of the two x-parametrized geodesic equations."""

    fplus: ScalarField  # arity 3
    fminus: ScalarField
    name: str = ""


@dataclass(frozen=True)
class TransposedOdePair:
    """The same geodesics parametrized by y; piecewise across z = 0."""

    gplus: ScalarField  # arity 3
    gminus: ScalarField
    name: str = ""


def fundamental_tensor(metric: FinslerMetric, at: Sequence[float]) -> tuple:
    """Half the fiber Hessian of F^2 as the rows ((g11, g12), (g12, g22)) of
    a 2x2 symmetric matrix."""
    x, y, u, v = at
    if u == 0.0 and v == 0.0:
        raise EvaluationError(f"fundamental tensor is undefined on the zero section at ({x}, {y})")
    h11, h12, h22 = lift(lambda *a: metric.F(*a) ** 2, (x, y, u, v), active=(2, 3)).hess_packed
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
    region: Rectangle | None = None,
    nx: int = 5,
    ny: int = 5,
    ndirs: int = 16,
    margin: float = 0.9,
) -> ConvexityReport:
    """Sample the fundamental tensor over base points and unit fiber directions."""
    region = region or metric.domain
    worst = math.inf
    witness = None
    directions = fiber_directions(ndirs)
    for (x, y) in region.grid(nx, ny, margin):
        for (u, v) in directions:
            (a, b), (_, c) = fundamental_tensor(metric, (x, y, u, v))
            lo = min_eigenvalue_2x2(a, b, c)
            if lo < worst:
                worst = lo
                witness = (x, y, u, v)
    return ConvexityReport(ok=worst > 0.0, min_eigenvalue=worst, witness=witness)


def geodesic_spray(metric: FinslerMetric) -> Spray:
    """Spray whose integral curves project to the geodesics of ``metric``.

    With h = 2g the fiber Hessian of F^2,
    G^i = 1/4 h^{ij} (2 dh_{jk}/dx^l - dh_{kl}/dx^j) xi^k xi^l.
    Two nested lifts give h and its base derivatives: the outer one, of
    order 1 in (x, y), lifts the entries of h, which an inner lift of F^2
    in (u, v) computes.  A fiber-constant F has h = 0 and raises
    ``EvaluationError`` as a singular tensor.  The whole evaluation stays
    jet-transparent, so derived sprays can be lifted again
    (projective-field residuals, induced-equation coefficients).
    """
    Ffn = metric.F.fn

    def pair(x, y, u, v):
        def entries(xb, yb):
            return lift(lambda uf, vf: Ffn(xb, yb, uf, vf) ** 2, (u, v)).hess_packed

        j11, j12, j22 = lift(entries, (x, y), order=1)
        h11, h12, h22 = j11.value, j12.value, j22.value
        det = h11 * h22 - h12 * h12
        scale = max(abs(jet_value(h11)), abs(jet_value(h22)), 1e-30)
        if abs(jet_value(det)) <= 1e-15 * scale * scale:
            raise EvaluationError(
                f"singular fundamental tensor at ({jet_value(x)}, {jet_value(y)}, "
                f"{jet_value(u)}, {jet_value(v)})"
            )
        inv = [[h22 / det, -(h12 / det)], [-(h12 / det), h11 / det]]
        # dh[l][i][j] = d_l h_ij
        dh = [[[e.grad[l] for e in row] for row in ((j11, j12), (j12, j22))] for l in range(2)]
        xi = (u, v)
        term = []
        for j in range(2):
            t = 0.0
            for k in range(2):
                for l in range(2):
                    t = t + (2.0 * dh[l][j][k] - dh[j][k][l]) * (xi[k] * xi[l])
            term.append(t)
        g1 = 0.25 * (inv[0][0] * term[0] + inv[0][1] * term[1])
        g2 = 0.25 * (inv[1][0] * term[0] + inv[1][1] * term[1])
        return g1, g2

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
        name=spray.name,
    )


def induced_ode_direct(metric: FinslerMetric) -> OdePair:
    """Same equations computed from F alone, bypassing the spray.

    Both branches come from the second Euler-Lagrange equation of the
    length functional along (t, y(t)) resp. (-t, y(-t)):
    y'' = (F_y - u F_xv - v F_yv) / F_vv at (x, y, u, v) = (x, y, ±1, ±y').
    The velocity components multiply the mixed partials; dropping them
    flips the sign of the F_xv term on the backward branch.
    """

    Ffn = metric.F.fn

    def branch(sign):
        def f(x, y, z):
            u = sign * 1.0
            v = sign * z if isinstance(z, Jet2) else sign * float(z)
            j = lift(Ffn, (x, y, u, v), active=(0, 1, 3))
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
        name=f"direct({metric.name})" if metric.name else "direct",
    )


def transpose_odes(pair: OdePair) -> TransposedOdePair:
    """Equations for the y-parametrizations; the two x-branches glue across z = 0.

    At z = 0 the value is the numerical limit from z > 0, extrapolated
    quadratically from h in {1e-2, 1e-3, 1e-4}; one-sided regularity is the
    business of :func:`smoothness_at_zero`.
    """

    def make(f_pos, f_neg):
        def g(x, y, z):
            zv = jet_value(z)
            if zv > 0.0:
                return -(z * z * z) * f_pos(x, y, 1.0 / z)
            if zv < 0.0:
                return -(z * z * z) * f_neg(x, y, 1.0 / z)
            # quadratic extrapolation of the limit from z > 0
            hs = (1e-2, 1e-3, 1e-4)
            vals = [-(h**3) * f_pos(x, y, 1.0 / h) for h in hs]
            out = 0.0
            for i, hi in enumerate(hs):
                w = 1.0
                for j, hj in enumerate(hs):
                    if j != i:
                        w *= hj / (hj - hi)
                out = out + w * vals[i]
            return out

        return g

    return TransposedOdePair(
        gplus=ScalarField(3, make(pair.fplus, pair.fminus), name="g+"),
        gminus=ScalarField(3, make(pair.fminus, pair.fplus), name="g-"),
        name=pair.name,
    )


@dataclass(frozen=True)
class SmoothnessReport:
    smooth: bool
    mismatches: tuple  # (order, limit_from_above, limit_from_below)


def smoothness_at_zero(
    transposed: TransposedOdePair,
    at: Sequence[float],
) -> SmoothnessReport:
    """Compare one-sided z-derivatives of ``transposed.gplus`` up to order 2.

    Each side is sampled at the steps 1e-2 and 1e-3 and Richardson-
    extrapolated to z = 0; orders whose one-sided limits disagree beyond
    1e-5 are reported as mismatches.
    """
    x, y = at
    g = transposed.gplus
    h1, h2 = 1e-2, 1e-3
    w = h1 / (h1 - h2)

    def one_sided(sign):
        vals = []
        for h in (h1, h2):
            j = lift(g, (x, y, sign * h), active=(2,), order=2)
            vals.append((j.value, j.grad[0], j.hess_packed[0]))
        a, b = vals
        return tuple(w * b[k] - (w - 1.0) * a[k] for k in range(3))

    above = one_sided(+1.0)
    below = one_sided(-1.0)
    mism = tuple(
        (order, above[order], below[order])
        for order in range(3)
        if abs(above[order] - below[order]) > 1e-5
    )
    return SmoothnessReport(smooth=not mism, mismatches=mism)


def projective_residual(s1: Spray, s2: Spray, at: Sequence[float]) -> float:
    """Size of the non-radial part of the difference of two sprays at a point.

    Zero exactly when the sprays differ by a multiple of the radial field,
    i.e. when they share oriented geodesics through the point.
    """
    x, y, u, v = (float(c) for c in at)
    if u == 0.0 and v == 0.0:
        raise EvaluationError(f"projective residual needs a nonzero fiber vector at ({x}, {y})")
    a1, b1 = s1.coefficients(x, y, u, v)
    a2, b2 = s2.coefficients(x, y, u, v)
    w1 = -2.0 * (float(a1) - float(a2))
    w2 = -2.0 * (float(b1) - float(b2))
    n2 = u * u + v * v
    lam = (w1 * u + w2 * v) / n2
    return math.hypot(w1 - lam * u, w2 - lam * v)
