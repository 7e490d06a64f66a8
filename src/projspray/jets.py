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

Registers are seeded through :func:`lift`, once per point and object: a
field whose components are computed together (a vector field's ``at``, a
metric's ``entries``, a cubic fit) returns a tuple and is lifted as one.

The elementary functions take a float or a jet; :func:`exp` and
:func:`power` also take a float ndarray, evaluated entry by entry with the
float path's libm call.  A closed-form field built from them (a metric's
``entries``) thus evaluates at many points in one call and agrees bit for
bit with its evaluations point by point.  Domain guards reduce over the
array through :func:`reject_first` and name the first bad point; on floats
and jets a guard stays one plain comparison.

A jet stores the Hessian of its n seeded variables as the packed upper
triangle: one flat tuple of n(n+1)/2 entries h_ij, i <= j, in row order,
so (h00, h01, h11) for n = 2 and (h00, h01, h02, h11, h12, h22) for n = 3.
Every operation maps that tuple entry by entry and never touches a
mirrored lower half (Griewank & Walther, *Evaluating Derivatives*, ch. 13).
``Jet2.hess`` is a read-only view that unfolds the full symmetric matrix;
the residuals read ``hess_packed`` directly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from operator import add, neg, sub
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "EvaluationError",
    "Jet2",
    "ScalarField",
    "arctan",
    "exp",
    "jet_value",
    "lift",
    "power",
    "reject_first",
    "seed_jets",
    "sqrt",
]


class EvaluationError(ValueError):
    """A closed-form field was evaluated outside its domain."""


_REGISTER = itertools.count(1)


def jet_value(x):
    """Innermost plain value of a possibly nested jet."""
    while isinstance(x, Jet2):
        x = x.value
    return x


def reject_first(bad, message: str, *at):
    """Raise ``EvaluationError(f"{message} at (a, b, ...)")`` at the first
    point where a domain guard fails.

    ``bad`` is the guard's comparison: a bool, or a boolean ndarray over
    points, which is reduced here; then each coordinate in ``at`` (a float,
    or an array that broadcasts against ``bad``) is read at the first true
    entry.  Returns quietly when ``bad`` holds nowhere.  A jet coordinate is
    named by its innermost value.
    """
    if isinstance(bad, np.ndarray):
        if not bad.any():
            return
        i = int(bad.argmax())
        at = [np.broadcast_to(a, bad.shape).flat[i] for a in at]
    elif not bad:
        return
    raise EvaluationError(f"{message} at ({', '.join(str(jet_value(a)) for a in at)})")


class _Layout(NamedTuple):
    """Constants of an n-variable register."""

    pairs: tuple  # index pairs (i, j), i <= j, of the packed Hessian, in row order
    units: tuple  # unit gradient of each seeded variable
    zero_grad: tuple
    zero_hess: tuple  # zero packed Hessian


@functools.cache
def _layout(n):
    pairs = tuple((i, j) for i in range(n) for j in range(i, n))
    units = tuple(tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n))
    return _Layout(pairs, units, (0.0,) * n, (0.0,) * len(pairs))


class Jet2:
    """Truncated second-order Taylor data: value, gradient, Hessian.

    ``grad`` has one entry per seeded variable of the register.
    ``hess_packed`` is the upper triangle of the Hessian, a flat tuple of
    n(n+1)/2 entries in row order ((h00, h01, h11) for n = 2), or ``None``
    for a first-order jet; ``hess`` unfolds it into the full symmetric
    tuple of rows.  Components may themselves be jets of an older register.
    """

    __slots__ = ("value", "grad", "hess_packed", "level")

    def __init__(self, value, grad, hess_packed, level):
        self.value = value
        self.grad = grad
        self.hess_packed = hess_packed
        self.level = level

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad!r}, level={self.level})"

    @property
    def hess(self):
        """The full symmetric Hessian as a tuple of rows, or ``None``."""
        hp = self.hess_packed
        if hp is None:
            return None
        n = len(self.grad)
        rows = [[None] * n for _ in range(n)]
        for (i, j), e in zip(_layout(n).pairs, hp):
            rows[i][j] = rows[j][i] = e
        return tuple(map(tuple, rows))

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            if other.level > self.level:
                return other._add_scalar(self)
            if other.level == self.level:
                h1, h2 = self.hess_packed, other.hess_packed
                h = None if h1 is None or h2 is None else tuple(map(add, h1, h2))
                g = tuple(map(add, self.grad, other.grad))
                return Jet2(self.value + other.value, g, h, self.level)
        return self._add_scalar(other)

    def _add_scalar(self, s):
        return Jet2(self.value + s, self.grad, self.hess_packed, self.level)

    __radd__ = _add_scalar

    def __neg__(self):
        h = self.hess_packed
        if h is not None:
            h = tuple(map(neg, h))
        return Jet2(-self.value, tuple(map(neg, self.grad)), h, self.level)

    def __sub__(self, other):
        if isinstance(other, Jet2):
            if other.level > self.level:
                return other.__rsub__(self)
            if other.level == self.level:
                h1, h2 = self.hess_packed, other.hess_packed
                h = None if h1 is None or h2 is None else tuple(map(sub, h1, h2))
                g = tuple(map(sub, self.grad, other.grad))
                return Jet2(self.value - other.value, g, h, self.level)
        return Jet2(self.value - other, self.grad, self.hess_packed, self.level)

    def __rsub__(self, s):
        return (-self)._add_scalar(s)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            if other.level > self.level:
                return other._mul_scalar(self)
            if other.level == self.level:
                v1, v2 = self.value, other.value
                g1, g2 = self.grad, other.grad
                h1, h2 = self.hess_packed, other.hess_packed
                h = None
                if h1 is not None and h2 is not None:
                    h = tuple(
                        [
                            a * v2 + g1[i] * g2[j] + g2[i] * g1[j] + v1 * b
                            for (i, j), a, b in zip(_layout(len(g1)).pairs, h1, h2)
                        ]
                    )
                g = tuple([a * v2 + v1 * b for a, b in zip(g1, g2)])
                return Jet2(v1 * v2, g, h, self.level)
        return self._mul_scalar(other)

    def _mul_scalar(self, s):
        h = self.hess_packed
        if h is not None:
            h = tuple([a * s for a in h])
        return Jet2(self.value * s, tuple([a * s for a in self.grad]), h, self.level)

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
        h = self.hess_packed
        if h is not None:
            h = tuple([d1 * a + d2 * (g[i] * g[j]) for (i, j), a in zip(_layout(len(g)).pairs, h)])
        return Jet2(f0, tuple([d1 * a for a in g]), h, self.level)

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


def _each(fn, x, *args):
    """``fn(entry, *args)`` for every entry of the float ndarray ``x``, as an
    array of its shape, filled in one pass.

    These are the libm calls the float path makes, so an array evaluation
    agrees bit for bit with evaluations at its points one by one; numpy's
    own ``exp`` and ``power`` are 1 ulp away at about one point in twenty.
    """
    flat = x.ravel().tolist()
    extra = (itertools.repeat(a, len(flat)) for a in args)
    return np.fromiter(map(fn, flat, *extra), float, len(flat)).reshape(x.shape)


def _pow_any(x, p):
    if p == 0.0:
        return 1.0
    if isinstance(x, Jet2):
        return x.__pow__(p)
    if isinstance(x, np.ndarray):
        if p < 0.0:
            reject_first(x == 0.0, "zero raised to a negative power", x)
        if not p.is_integer():
            reject_first(x < 0.0, f"fractional power {p} of negative value", x)
        return _each(math.pow, x, p)
    x = float(x)
    if x == 0.0 and p < 0.0:
        raise EvaluationError("zero raised to a negative power")
    if x < 0.0 and not p.is_integer():
        raise EvaluationError(f"fractional power {p} of negative value {x}")
    return math.pow(x, p)


def power(x, p):
    """x**p for a float, a jet or a float ndarray, with real-domain guards
    (no silent complex values or NaN): a negative base with a fractional
    exponent, or zero with a negative one, raises ``EvaluationError``."""
    return _pow_any(x, float(p))


def sqrt(x):
    """Square root of a positive float or jet."""
    if isinstance(x, Jet2):
        return x**0.5
    if x <= 0.0:
        raise EvaluationError(f"sqrt of non-positive value {x}")
    return math.sqrt(x)


def exp(x):
    """Exponential of a float, a jet or a float ndarray."""
    if isinstance(x, Jet2):
        f0 = exp(x.value)
        return x._chain(f0, f0, f0)
    if isinstance(x, np.ndarray):
        return _each(math.exp, x)
    return math.exp(x)


def arctan(x):
    """Arctangent of a float or a jet."""
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
    layout = _layout(len(values))
    level = next(_REGISTER)
    zh = layout.zero_hess if order == 2 else None
    return tuple([Jet2(v, g, zh, level) for v, g in zip(values, layout.units)])


def lift(field, point: Sequence, active: Iterable[int] | None = None, order: int = 2):
    """Evaluate ``field`` at ``point`` carrying derivatives w.r.t. ``active`` variables.

    Inactive variables are held constant.  ``point`` entries may themselves be
    jets of an enclosing register; they pass through untouched.  A field that
    returns a tuple gives a tuple of jets, all of one register.  A component
    that turns out not to depend on the active variables is promoted to a
    constant jet, so callers can always read ``grad``/``hess``.
    """
    fn = field.fn if isinstance(field, ScalarField) else field
    point = tuple(point)
    idx = tuple(range(len(point))) if active is None else tuple(active)
    seeds = seed_jets(tuple(point[i] for i in idx), order=order)
    level = seeds[0].level
    args = list(point)
    for k, i in enumerate(idx):
        args[i] = seeds[k]
    layout = _layout(len(idx))
    zh = layout.zero_hess if order == 2 else None

    def promote(c):
        if isinstance(c, Jet2) and c.level == level:
            return c
        return Jet2(c, layout.zero_grad, zh, level)

    out = fn(*args)
    return tuple(promote(c) for c in out) if isinstance(out, tuple) else promote(out)
