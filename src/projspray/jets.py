"""Second-order forward-mode jets for closed-form scalar fields.

Every residual in this package is evaluated through these jets, so first
and second partial derivatives are exact up to roundoff; finite
differences appear only in tests, as an independent oracle.

Jets carry a register level.  A freshly seeded register nests inside any
older one: arithmetic between jets of different levels treats the older
jet as a scalar coefficient.  This is what lets derivative-backed fields
(Lie brackets, prolongation coefficients, fitted cubic coefficients, the
spray coefficients of a metric) be lifted and differentiated again
without ever requesting third-order data from a single register.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

__all__ = [
    "EvaluationError",
    "Jet2",
    "ScalarField",
    "arctan",
    "cos",
    "exp",
    "jet_value",
    "lift",
    "log",
    "power",
    "seed_jets",
    "sin",
    "sqrt",
    "split_jet",
]


class EvaluationError(ValueError):
    """A closed-form field was evaluated outside its domain."""


_REGISTER = itertools.count(1)


def jet_value(x):
    """Innermost plain value of a possibly nested jet."""
    while isinstance(x, Jet2):
        x = x.value
    return x


def _sym(n, entry):
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = entry(i, j)
            rows[i][j] = e
            if j != i:
                rows[j][i] = e
    return tuple(tuple(r) for r in rows)


class Jet2:
    """Truncated second-order Taylor data: value, gradient, Hessian.

    ``grad`` has one entry per seeded variable of the register; ``hess``
    is the full symmetric matrix, or ``None`` for a first-order jet.
    Components may themselves be jets of an older register.
    """

    __slots__ = ("value", "grad", "hess", "level")

    def __init__(self, value, grad, hess, level):
        self.value = value
        self.grad = grad
        self.hess = hess
        self.level = level

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad!r}, level={self.level})"

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            if other.level > self.level:
                return other._add_scalar(self)
            if other.level == self.level:
                g = tuple(a + b for a, b in zip(self.grad, other.grad))
                h = None
                if self.hess is not None and other.hess is not None:
                    h1, h2 = self.hess, other.hess
                    h = _sym(len(g), lambda i, j: h1[i][j] + h2[i][j])
                return Jet2(self.value + other.value, g, h, self.level)
        return self._add_scalar(other)

    def _add_scalar(self, s):
        return Jet2(self.value + s, self.grad, self.hess, self.level)

    __radd__ = _add_scalar

    def __neg__(self):
        h = None
        if self.hess is not None:
            hh = self.hess
            h = _sym(len(self.grad), lambda i, j: -hh[i][j])
        return Jet2(-self.value, tuple(-g for g in self.grad), h, self.level)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            if other.level > self.level:
                return other.__rsub__(self)
            if other.level == self.level:
                g = tuple(a - b for a, b in zip(self.grad, other.grad))
                h = None
                if self.hess is not None and other.hess is not None:
                    h1, h2 = self.hess, other.hess
                    h = _sym(len(g), lambda i, j: h1[i][j] - h2[i][j])
                return Jet2(self.value - other.value, g, h, self.level)
        return Jet2(self.value - other, self.grad, self.hess, self.level)

    def __rsub__(self, s):
        return (-self)._add_scalar(s)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            if other.level > self.level:
                return other._mul_scalar(self)
            if other.level == self.level:
                v1, v2 = self.value, other.value
                g1, g2 = self.grad, other.grad
                g = tuple(g1[i] * v2 + v1 * g2[i] for i in range(len(g1)))
                h = None
                if self.hess is not None and other.hess is not None:
                    h1, h2 = self.hess, other.hess
                    h = _sym(
                        len(g),
                        lambda i, j: h1[i][j] * v2
                        + g1[i] * g2[j]
                        + g2[i] * g1[j]
                        + v1 * h2[i][j],
                    )
                return Jet2(v1 * v2, g, h, self.level)
        return self._mul_scalar(other)

    def _mul_scalar(self, s):
        h = None
        if self.hess is not None:
            hh = self.hess
            h = _sym(len(self.grad), lambda i, j: hh[i][j] * s)
        return Jet2(self.value * s, tuple(g * s for g in self.grad), h, self.level)

    __rmul__ = _mul_scalar

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            if other.level > self.level:
                return other.__rtruediv__(self)
            if other.level == self.level:
                return self * other._reciprocal()
        return self * _recip_any(other)

    def __rtruediv__(self, s):
        return self._reciprocal()._mul_scalar(s)

    def _reciprocal(self):
        if jet_value(self.value) == 0.0:
            raise EvaluationError("division by zero")
        r = _recip_any(self.value)
        return self._chain(r, -(r * r), 2.0 * r * r * r)

    def __pow__(self, p):
        if isinstance(p, Jet2):
            raise TypeError("jet exponents are not supported")
        p = float(p)
        if p == 0.0:
            return 1.0
        if p == 1.0:
            return self
        if p == 2.0:
            return self * self
        v = self.value
        f0 = _pow_any(v, p)
        d1 = p * _pow_any(v, p - 1.0)
        d2 = (p * (p - 1.0)) * _pow_any(v, p - 2.0)
        return self._chain(f0, d1, d2)

    # -- chain rule through a scalar function ---------------------------

    def _chain(self, f0, d1, d2):
        g = self.grad
        gg = tuple(d1 * gi for gi in g)
        h = None
        if self.hess is not None:
            hh = self.hess
            h = _sym(len(g), lambda i, j: d1 * hh[i][j] + d2 * (g[i] * g[j]))
        return Jet2(f0, gg, h, self.level)

    # -- comparisons look at the innermost value ------------------------

    def __lt__(self, other):
        return jet_value(self) < jet_value(other)

    def __le__(self, other):
        return jet_value(self) <= jet_value(other)

    def __gt__(self, other):
        return jet_value(self) > jet_value(other)

    def __ge__(self, other):
        return jet_value(self) >= jet_value(other)

    def __float__(self):
        return float(jet_value(self))


def _recip_any(x):
    if isinstance(x, Jet2):
        return x._reciprocal()
    if x == 0.0:
        raise EvaluationError("division by zero")
    return 1.0 / x


def _pow_any(x, p):
    if p == 0.0:
        return 1.0
    if isinstance(x, Jet2):
        return x.__pow__(p)
    x = float(x)
    if x == 0.0 and p < 0.0:
        raise EvaluationError("zero raised to a negative power")
    if x < 0.0 and not p.is_integer():
        raise EvaluationError(f"fractional power {p} of negative value {x}")
    return math.pow(x, p)


def power(x, p):
    """x**p with real-domain guards on plain floats (no silent complex values)."""
    return _pow_any(x, float(p))


def sqrt(x):
    if isinstance(x, Jet2):
        return x**0.5
    if x <= 0.0:
        raise EvaluationError(f"sqrt of non-positive value {x}")
    return math.sqrt(x)


def exp(x):
    if isinstance(x, Jet2):
        f0 = exp(x.value)
        return x._chain(f0, f0, f0)
    return math.exp(x)


def log(x):
    if isinstance(x, Jet2):
        if jet_value(x.value) <= 0.0:
            raise EvaluationError("log of a non-positive value")
        d1 = _recip_any(x.value)
        return x._chain(log(x.value), d1, -(d1 * d1))
    if x <= 0.0:
        raise EvaluationError(f"log of non-positive value {x}")
    return math.log(x)


def sin(x):
    if isinstance(x, Jet2):
        s, c = sin(x.value), cos(x.value)
        return x._chain(s, c, -s)
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet2):
        s, c = sin(x.value), cos(x.value)
        return x._chain(c, -s, -c)
    return math.cos(x)


def arctan(x):
    if isinstance(x, Jet2):
        v = x.value
        w = _recip_any(1.0 + v * v)
        return x._chain(arctan(v), w, -2.0 * (v * (w * w)))
    return math.atan(x)


@dataclass(frozen=True)
class ScalarField:
    """A closed-form scalar field of fixed arity, evaluable on reals or jets."""

    arity: int
    fn: Callable
    name: str = ""

    def __call__(self, *args):
        if len(args) != self.arity:
            raise TypeError(
                f"field {self.name or self.fn!r} takes {self.arity} arguments, got {len(args)}"
            )
        return self.fn(*args)


def seed_jets(values: Sequence, order: int = 2):
    """Seed a fresh register: one jet per value, unit gradients, zero Hessians."""
    n = len(values)
    level = next(_REGISTER)
    zh = ((0.0,) * n,) * n if order == 2 else None
    return tuple(
        Jet2(v, tuple(1.0 if j == i else 0.0 for j in range(n)), zh, level)
        for i, v in enumerate(values)
    )


def lift(field, point: Sequence, active: Iterable[int] | None = None, order: int = 2) -> Jet2:
    """Evaluate ``field`` at ``point`` carrying derivatives w.r.t. ``active`` variables.

    Inactive variables are held constant.  ``point`` entries may themselves be
    jets of an enclosing register; they pass through untouched.  A field that
    turns out not to depend on the active variables is promoted to a constant
    jet, so callers can always read ``grad``/``hess``.
    """
    fn = field.fn if isinstance(field, ScalarField) else field
    point = tuple(point)
    idx = tuple(range(len(point))) if active is None else tuple(active)
    seeds = seed_jets(tuple(point[i] for i in idx), order=order)
    level = seeds[0].level
    args = list(point)
    for k, i in enumerate(idx):
        args[i] = seeds[k]
    out = fn(*args)
    if isinstance(out, Jet2) and out.level == level:
        return out
    m = len(idx)
    return Jet2(out, (0.0,) * m, ((0.0,) * m,) * m if order == 2 else None, level)


def split_jet(x, level: int, n: int):
    """Value and gradient of ``x`` w.r.t. the register ``level``.

    Objects constant for that register (plain numbers or jets of older
    registers) get a zero gradient.
    """
    if isinstance(x, Jet2) and x.level == level:
        return x.value, x.grad
    return x, (0.0,) * n
