"""The classification catalog: six scalar-equation normal forms, the spray
normal forms, the metrics realizing them, and the seven three-dimensional
symmetry algebras with their bracket tables.

Notes on conventions, all confirmed by the residual suites:

* Spray b_k(+/-) carries (k*|xi| -/+ 2(y u - x v)) / (1 +/- (x^2+y^2)) as
  its rotational coefficient; with this inner sign its induced equation is
  exactly the C2 normal form (same sign on 2(x z - y) as on the
  denominator), and the Randers metric built from the positively oriented
  potential matches it with zero projective residual.  The opposite inner
  sign matches neither orientation of the potential.
* The C2 algebra basis lists the rotation first (isotropy at the origin),
  then the two transvections ordered so the computed brackets reproduce
  the complex-case table ([X0,X1], [X0,X2]) = (-X2, X1); with that order
  the sphere family closes on [X1,X2] = -X0 and the hyperbolic one on
  +X0.
* Spray (a) induces f+ = +(1+z^2)^{3/2} and f- = -(1+z^2)^{3/2} by direct
  substitution; those constants are the catalog values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .finsler import FinslerMetric, Rectangle, Spray
from .jets import EvaluationError, ScalarField, arctan, exp, jet_value, power, reject_first, sqrt
from .randers import (
    MetricField,
    beta_for,
    constant_curvature_metric,
    randers_metric,
    riemannian_metric,
)
from .symmetry import LieAlgebraCase, PlaneVectorField

__all__ = [
    "LIE_CASE_KEYS",
    "METRIC_KEYS",
    "ODE_KEYS",
    "SPRAY_KEYS",
    "MetricEntry",
    "OdeEntry",
    "SprayEntry",
    "lie_case",
    "metric_entry",
    "ode_entry",
    "spray_entry",
    "symmetry_pairs",
]


# --------------------------------------------------------------------------
# scalar-equation normal forms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OdeEntry:
    key: str
    f: ScalarField  # arity 3, the forward (xdot > 0) normal form
    z_values: tuple
    point_filter: Callable | None = None
    # A perturbable f is f(x, y, z, p=<catalog value>); perturbed(eps) evaluates it at p = bump(eps).
    bump: Callable | None = None
    perturbed_filter: Callable | None = None  # D2's, whose perturbed exponent is fractional
    base_domain = Rectangle(-0.3, 0.3, -0.3, 0.3)  # not a field: every family shares this box

    def grid(self, n_spatial: int = 3):
        pts = []
        for (x, y) in self.base_domain.grid(n_spatial, n_spatial, margin=1.0 - 1e-12):
            for z in self.z_values:
                if self.point_filter is None or self.point_filter(x, y, z):
                    pts.append((x, y, float(z)))
        return pts

    def perturbed(self, eps: float = 0.01):
        if self.bump is None:
            raise ValueError(f"no structural perturbation defined for {self.key}")
        f = ScalarField(3, functools.partial(self.f.fn, p=self.bump(eps)), name=self.key)
        return f, self.perturbed_filter or self.point_filter


_Z_FULL = (-2.0, -1.0, 0.0, 1.0, 2.0)
_Z_POS = (0.5, 1.0, 2.0)


def _z_positive(x, y, z):
    return z > 0.0


def _check_param(family: str, name: str, value, default, used: bool):
    """Refuse a non-finite parameter, or one that ``family`` does not use unless it keeps its default."""
    if not np.isfinite(value).all():
        raise ValueError(f"parameter {name} of family {family} must be finite (got {value!r})")
    if not used and value != default:
        raise ValueError(f"family {family} takes no parameter {name} (got {value!r})")


def ode_entry(key: str, C: float = 1.0, lam: float = -1.0) -> OdeEntry:
    """Normal forms D1, D2, J1, J2, J3, C1, C2(+/-), and the flat equation."""
    _check_param(key, "C", C, 1.0, key not in ("flat", "J3"))
    _check_param(key, "lam", lam, -1.0, key in ("D2", "C1"))
    if key == "flat":
        return OdeEntry("flat", ScalarField(3, lambda x, y, z: 0.0, name="0"), _Z_FULL)
    if key == "D1":
        def f(x, y, z, p=1.0):
            w = y * y - 2.0 * z
            return C * power(w, 1.5) - p * (y**3) + p * 3.0 * y * z

        def inside(x, y, z):  # where y^2 - 2z, raised to 1.5, is positive
            return y * y - 2.0 * z > 1e-6

        return OdeEntry("D1", ScalarField(3, f, name="D1"), _Z_FULL, inside, bump=lambda eps: 1.0 + eps)
    if key == "D2":
        if lam == 1.0:
            raise ValueError("D2 exponent is undefined for lam = 1")
        k = (lam - 2.0) / (lam - 1.0)
        integer_exp = float(k).is_integer() and k >= 0

        def f(x, y, z, p=k):
            return C * power(z, p)

        return OdeEntry(
            "D2",
            ScalarField(3, f, name="D2"),
            _Z_FULL if integer_exp else _Z_POS,
            None if integer_exp else _z_positive,
            bump=lambda eps: k + eps * max(abs(k), 1.0),
            perturbed_filter=_z_positive,
        )
    if key == "J1":
        def f(x, y, z, p=1.0):
            if jet_value(z) <= 0.0:
                return 0.0  # smooth extension below z = 0
            return C * z**3 * exp(-p / z)

        return OdeEntry("J1", ScalarField(3, f, name="J1"), _Z_POS, _z_positive, bump=lambda eps: 1.0 + eps)
    if key == "J2":
        def f(x, y, z, p=0.5):
            return p * z + C * exp(-2.0 * x) * z**3

        return OdeEntry("J2", ScalarField(3, f, name="J2"), _Z_FULL, bump=lambda eps: 0.5 * (1.0 + eps))
    if key == "J3":
        def f(x, y, z):
            return (1.0 + y) * z**3

        return OdeEntry("J3", ScalarField(3, f, name="J3"), _Z_FULL)
    if key == "C1":
        def f(x, y, z, p=1.5):
            return C * (z * z + 1.0) ** p * exp(-lam * arctan(z))

        return OdeEntry("C1", ScalarField(3, f, name="C1"), _Z_FULL, bump=lambda eps: 1.5 * (1.0 + eps))
    if key in ("C2+", "C2-"):
        s = 1.0 if key == "C2+" else -1.0

        def f(x, y, z, p=2.0):
            return (C * (z * z + 1.0) ** 1.5 + s * p * (x * z - y) * (z * z + 1.0)) / (
                1.0 + s * (x * x + y * y)
            )

        return OdeEntry(key, ScalarField(3, f, name=key), _Z_FULL, bump=lambda eps: 2.0 * (1.0 + eps))
    raise KeyError(f"unknown equation family {key!r}")


ODE_KEYS = ("flat", "D1", "D2", "J1", "J2", "J3", "C1", "C2+", "C2-")


# --------------------------------------------------------------------------
# spray normal forms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SprayEntry:
    spray: Spray


def spray_entry(key: str, k: float = 1.0) -> SprayEntry:
    _check_param(key, "k", k, 1.0, key in ("bk+", "bk-"))
    if key == "flat":
        return SprayEntry(Spray(lambda *a: (0.0, 0.0), Rectangle(-3.0, 3.0, -3.0, 3.0), "flat"))
    if key == "a":
        def pair(x, y, u, v):
            r = sqrt(u * u + v * v)
            return 0.5 * r * v, -0.5 * r * u

        return SprayEntry(Spray(pair, Rectangle(-2.5, 2.5, -1.5, 3.5), "a"))
    if key in ("bk+", "bk-"):
        s = 1.0 if key == "bk+" else -1.0
        if k <= 0:
            raise ValueError("the b-family needs k > 0")

        def pair(x, y, u, v):
            denom = 1.0 + s * (x * x + y * y)
            if (denom if type(denom) is float else jet_value(denom)) <= 0.0:  # the float path first
                raise EvaluationError(f"outside the unit disk at ({jet_value(x)}, {jet_value(y)})")
            q = (k * sqrt(u * u + v * v) - s * 2.0 * (y * u - x * v)) / denom
            return 0.5 * q * v, -0.5 * q * u

        dom = Rectangle(-2.0, 2.0, -2.0, 2.0) if s > 0 else Rectangle(-0.68, 0.68, -0.68, 0.68)
        return SprayEntry(Spray(pair, dom, key))
    if key in ("c+", "c-"):
        s = 1.0 if key == "c+" else -1.0

        def pair(x, y, u, v):
            return 0.25 * (3.0 * u * u + s * exp(-2.0 * x) * v * v), 0.5 * u * v

        dom = Rectangle(-math.log(2.0) + 1e-9, 2.0, -2.0, 2.0) if s > 0 else Rectangle(-2.0, 2.0, -2.0, 2.0)
        return SprayEntry(Spray(pair, dom, key))
    raise KeyError(f"unknown spray {key!r}")


SPRAY_KEYS = ("flat", "a", "bk+", "bk-", "c+", "c-")


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricEntry:
    key: str
    metric: FinslerMetric
    spray_key: str
    domain: Rectangle  # where the entry's claims are verified
    alpha: MetricField  # background for Randers entries, g itself otherwise
    projective_basis: tuple


def _metric_c(sign: float) -> MetricField:
    if sign < 0:
        return MetricField(lambda x, y: (exp(3.0 * x), 0.0, exp(x)), Rectangle(-0.5, 0.5, -0.5, 0.5))

    def entries(x, y):
        ex = exp(x)
        w = 2.0 * ex - 1.0
        wv = jet_value(w)
        if isinstance(wv, np.ndarray) or wv <= 0.0:
            reject_first(wv <= 0.0, "outside 2 e^x - 1 > 0", x, y)
        return exp(3.0 * x) / (w * w), 0.0, ex / w

    return MetricField(entries, Rectangle(-0.5, 0.5, -0.5, 0.5))


def _j2_fields():
    return (
        PlaneVectorField(lambda x, y: (-y, -0.5 * y * y), "J2.X0"),
        PlaneVectorField(lambda x, y: (-1.0, -y), "J2.X1"),
        PlaneVectorField(lambda x, y: (0.0, -1.0), "J2.X2"),
    )


def _c1_fields(lam: float = 0.0):
    return (
        PlaneVectorField(lambda x, y: (-(lam * x - y), -(x + lam * y)), "C1.X0"),
        PlaneVectorField(lambda x, y: (1.0, 0.0), "C1.X1"),
        PlaneVectorField(lambda x, y: (0.0, -1.0), "C1.X2"),
    )


def _c2_fields(s: float):
    return (
        PlaneVectorField(lambda x, y: (y, -x), "C2.X0"),
        PlaneVectorField(lambda x, y: (x * y, 0.5 * (-x * x + y * y + s)), "C2.X1"),
        PlaneVectorField(lambda x, y: (0.5 * (x * x - y * y + s), x * y), "C2.X2"),
    )


def metric_entry(key: str, k: float = 1.0) -> MetricEntry:
    _check_param(key, "k", k, 1.0, key in ("bk+", "bk-"))
    if key == "euclidean":
        alpha = constant_curvature_metric("euclidean")
        return MetricEntry(
            "euclidean",
            riemannian_metric(alpha, name="euclidean"),
            "flat",
            alpha=alpha,
            projective_basis=(
                PlaneVectorField(lambda x, y: (1.0, 0.0), "dx"),
                PlaneVectorField(lambda x, y: (0.0, 1.0), "dy"),
                PlaneVectorField(lambda x, y: (y, -x), "rot"),
            ),
            domain=Rectangle(-1.0, 1.0, -1.0, 1.0),
        )
    if key == "a":
        alpha = constant_curvature_metric("euclidean")
        beta = beta_for("euclidean", 1.0)
        dom = Rectangle(-0.5, 0.5, -0.5, 0.5)
        return MetricEntry(
            "a",
            randers_metric(alpha, beta, domain=dom, name="a"),
            "a",
            alpha=alpha,
            projective_basis=_c1_fields(0.0),
            domain=dom,
        )
    if key in ("bk+", "bk-"):
        s = 1.0 if key == "bk+" else -1.0
        model = "sphere" if s > 0 else "hyperbolic"
        alpha = constant_curvature_metric(model)
        beta = beta_for(model, k)
        dom = Rectangle(-0.45, 0.45, -0.45, 0.45)
        return MetricEntry(
            key,
            randers_metric(alpha, beta, domain=dom, name=key),
            key,
            alpha=alpha,
            projective_basis=_c2_fields(s),
            domain=dom,
        )
    if key in ("c+", "c-"):
        s = 1.0 if key == "c+" else -1.0
        g = _metric_c(s)
        return MetricEntry(
            key,
            riemannian_metric(g, name=key),
            key,
            alpha=g,
            projective_basis=_j2_fields(),
            domain=g.domain,
        )
    raise KeyError(f"unknown metric {key!r}")


METRIC_KEYS = ("euclidean", "a", "bk+", "bk-", "c+", "c-")


# --------------------------------------------------------------------------
# symmetry algebras
# --------------------------------------------------------------------------


def lie_case(key: str, lam: float = -1.0, gamma=(1.0, 0.0)) -> LieAlgebraCase:
    _check_param(key, "lam", lam, -1.0, key in ("D2", "C1"))
    _check_param(key, "gamma", tuple(gamma), (1.0, 0.0), key == "J3")
    if key == "D1":
        return LieAlgebraCase(
            (
                PlaneVectorField(lambda x, y: (-x, y), "X0"),
                PlaneVectorField(lambda x, y: (1.0, 0.0), "X1"),
                PlaneVectorField(lambda x, y: (-0.5 * x * x, x * y + 1.0), "X2"),
            ),
            {(0, 1): (0, 1, 0), (0, 2): (0, 0, -1), (1, 2): (1, 0, 0)},
        )
    if key == "D2":
        return LieAlgebraCase(
            (
                PlaneVectorField(lambda x, y: (-x, -lam * y), "X0"),
                PlaneVectorField(lambda x, y: (1.0, 0.0), "X1"),
                PlaneVectorField(lambda x, y: (0.0, 1.0), "X2"),
            ),
            {(0, 1): (0, 1, 0), (0, 2): (0, 0, lam), (1, 2): (0, 0, 0)},
        )
    if key == "J1":
        return LieAlgebraCase(
            (
                PlaneVectorField(lambda x, y: (-(x + y), -y), "X0"),
                PlaneVectorField(lambda x, y: (1.0, 0.0), "X1"),
                PlaneVectorField(lambda x, y: (0.0, 1.0), "X2"),
            ),
            {(0, 1): (0, 1, 0), (0, 2): (0, 1, 1), (1, 2): (0, 0, 0)},
        )
    if key == "J2":
        return LieAlgebraCase(
            _j2_fields(),
            {(0, 1): (1, 0, 0), (0, 2): (0, 1, 0), (1, 2): (0, 0, 1)},
        )
    if key == "J3":
        g0, g1 = gamma
        return LieAlgebraCase(
            (
                PlaneVectorField(lambda x, y: (y, 0.0), "X0"),
                PlaneVectorField(lambda x, y: (1.0, 0.0), "X1"),
                PlaneVectorField(lambda x, y: ((g0 * y + g1) * x, g0 * y * y + g1 * y - 1.0), "X2"),
            ),
            {(0, 1): (0, 0, 0), (0, 2): (0, 1, 0), (1, 2): (g0, g1, 0)},
        )
    if key == "C1":
        return LieAlgebraCase(
            _c1_fields(lam),
            {(0, 1): (0, lam, -1), (0, 2): (0, 1, lam), (1, 2): (0, 0, 0)},
        )
    if key in ("C2+", "C2-"):
        s = 1.0 if key == "C2+" else -1.0
        return LieAlgebraCase(
            _c2_fields(s),
            {(0, 1): (0, 0, -1), (0, 2): (0, 1, 0), (1, 2): (-s, 0, 0)},
        )
    raise KeyError(f"unknown symmetry algebra {key!r}")


LIE_CASE_KEYS = ("D1", "D2", "J1", "J2", "J3", "C1", "C2+", "C2-")


def symmetry_pairs():
    """(label, algebra, equation) triples whose symmetry residuals vanish."""
    pairs = [("D1", lie_case("D1"), ode_entry("D1"))]
    for lam in (-1.0, 2.0):
        pairs.append((f"D2(lam={lam:g})", lie_case("D2", lam=lam), ode_entry("D2", lam=lam)))
    pairs.append(("J1", lie_case("J1"), ode_entry("J1")))
    pairs.append(("J2", lie_case("J2"), ode_entry("J2")))
    for lam in (-1.0, 2.0):
        pairs.append((f"C1(lam={lam:g})", lie_case("C1", lam=lam), ode_entry("C1", lam=lam)))
    pairs.append(("C2+", lie_case("C2+"), ode_entry("C2+")))
    pairs.append(("C2-", lie_case("C2-"), ode_entry("C2-")))
    return pairs
