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

Each operation has one rule across registers.  ``+`` and ``*`` hand the
other operand, a float or an older jet, to the newer register's jet as
one scalar coefficient; ``a - b`` with b of another register is
``a + (-b)``, and ``a / b`` is ``a * (1 / b)`` for every b, the reciprocal
taken in b's own register.  A jet has no float value, no order, no
equality and no truth value: ``float(jet)``, ``math.sqrt(jet)``,
``jet < 0.0``, ``jet == 0.0`` and ``bool(jet)`` raise ``TypeError`` instead
of dropping the derivatives, so a guard reads the innermost value through
:func:`jet_value`.

The newest register is the outer object: its value, gradient and Hessian
entries are jets of the older registers.  So the nesting order sets the
cost.  An order-2 register in two variables has 6 components and an
order-1 one has 3; with the order-1 register as the newer, each nested
value is 1 + 3 objects, each holding 6 floats, against 1 + 6 objects of 3
floats the other way round.  Nest the register with fewer components as
the newer one (Griewank & Walther, *Evaluating Derivatives*, ch. 13).

Registers are seeded through :func:`lift`, once per point and object: a
field whose components are computed together (a vector field's ``at``, a
metric's ``entries``, a cubic fit) returns a tuple and is lifted as one.
A lift seeds every argument of the field; to hold a variable fixed, lift a
closure over it.

The elementary functions take a float or a jet; :func:`exp` and
:func:`power` also take a float ndarray, evaluated entry by entry with the
float path's libm call.  The power 0.5 is libm's ``sqrt`` on every path,
so a jet's value, :func:`sqrt` and ``power(x, 0.5)`` agree bit for bit.  A
closed-form field built from them (a metric's ``entries``) thus evaluates
at many points in one call and agrees bit for bit with its evaluations
point by point.  Domain guards reduce over the array through
:func:`reject_first` and name the first bad point; on floats and jets a
guard stays one plain comparison.

A jet stores the Hessian of its n seeded variables as the packed upper
triangle: one flat tuple of n(n+1)/2 entries h_ij, i <= j, in row order,
so (h00, h01, h11) for n = 2 and (h00, h01, h02, h11, h12, h22) for n = 3.
No operation touches a mirrored lower half.  A register chooses its
arithmetic once, when it is seeded: its size and order fix its class,
whose methods are the kernels, and a jet calls them on its ``level``.  So
each operation between jets of one register (sum, difference, negation,
product, sum with and product by a scalar, and the chain rule) is one
call of a generated kernel on the operand jets themselves: it reads their
values, gradients and Hessians and returns the finished result, with no
branch on order.  The kernels are written out entry by entry, in that row
order, for each register size and order on first use; at order 1 they
ignore the operands' Hessians and build jets without one.  Each entry is
the plain loop's expression in the loop's operation order, so the
written-out kernels and a loop agree bit for bit (Griewank & Walther,
*Evaluating Derivatives*, ch. 13).  A caller that reads only the Hessian
of a product takes it from :func:`product_hessian`, the kernel ``hmul``
of an order-2 register with ``mul``'s Hessian entries, which builds no
jet.  Forward mode carries only the coefficients that are read: a chain
rule (a power, the reciprocal, ``arctan``) forms f'' only for a jet that
carries a Hessian, so on an order-1 jet it forms f' alone.  The packed
triangle is the Hessian's only form: every reader takes h_ij from
``hess_packed`` by its (i, j) row-order position.

Three scalar operations are exact identities and build no jet.  A product
by the float 1.0 is the jet itself, since x * 1.0 is x exactly, so
``1.0 / jet`` is the reciprocal alone.  A product by the float 0.0 or -0.0
is the float value * s, a signed zero, when that is a float zero and every
gradient and Hessian entry is a finite float, since every entry of the
scaled jet would be a zero.  The ``scale`` kernel tests both after it
unpacks the operand, so a jet that does not fit its register raises on
either, and tests 1.0 before it forms value * s.  A jet with a NaN or an
infinity keeps the kernel path at 0.0, because 0 * NaN and 0 * inf are
NaN, and a NaN dropped here would let a verdict pass on it.  A nested jet
keeps it too: its entries are jets, which have no equality to test.  A sum
with the float 0.0 or -0.0 is the jet itself, since x + (-0.0) is x and
x + 0.0 differs from x only where x is -0.0; so ``jet - 0.0`` is the jet
and ``0.0 - jet`` is ``-jet``.  The ``shift`` kernel tests it after it
unpacks the operand, and a NaN entry stays where it was.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    "product_hessian",
    "reject_first",
    "seed_jets",
    "sqrt",
]


class EvaluationError(ValueError):
    """A closed-form field was evaluated outside its domain."""


_RANKS = itertools.count(1)


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


def _tuple(entries):
    """Source of the tuple of ``entries``, or of None when there are none."""
    return f"({', '.join(entries)},)" if entries else "None"


def _def(name, params, unpack, *body):
    """Source of one kernel: unpack each operand tuple that has entries into
    its locals, then run the statements ``body``, the last a ``return``."""
    lines = [f"{', '.join(names)}, = {operand}" for names, operand in unpack if names] + list(body)
    return f"def {name}(self, {params}):\n" + "".join(f"    {line}\n" for line in lines)


class _Register:
    """One seeded register: its nesting ``rank`` (a newer register ranks
    higher).  A register is an instance of the class :func:`_kernels`
    generates for its size and order, so its kernels are its methods."""

    __slots__ = ("rank",)

    def __init__(self):
        self.rank = next(_RANKS)

    def __repr__(self):
        return f"<register {self.rank}>"


@functools.cache
def _kernels(n, order):
    """The register class of the n-variable registers of ``order``, its
    kernels written out entry by entry as methods.

    Each kernel takes its operand jets, reads their ``value``, ``grad`` and
    ``hess_packed`` itself and returns the finished result, a ``Jet2`` of
    the register: ``add``, ``sub`` and ``mul`` (x, y), ``neg`` (x),
    ``scale`` (x, s) and ``shift`` (x, s), the product by and sum with a
    scalar s (``shift`` keeps the operand's tuples), and ``chain``
    (x, f0, d1, d2), f(x) with f = f0, f' = d1 and f'' = d2.  After its
    unpack ``scale`` returns x itself where s is the float 1.0, before it
    forms x.value * s, and that product where it is the module docstring's
    zero product; ``shift`` returns x itself where s is the float ±0.0.
    ``hmul`` (x, y), at order 2 only, returns only ``mul``'s packed
    Hessian.  At order 1 the Hessian entry lists are empty, so the same
    sources ignore the operands' Hessians, build jets with none and ignore
    f''.  The class constants are ``units`` (each seed's unit gradient),
    ``zero_grad`` and ``zero_hess`` (the seeds' Hessian, None at order 1).
    Each entry is the loop's expression over unpacked locals, in the loop's
    order.  Each (n, order) compiles under its own file name, so profilers
    keep every register kind's kernels apart."""
    pairs = tuple((i, j) for i in range(n) for j in range(i, n))
    hpairs = pairs if order == 2 else ()  # the packed Hessian entries the kernels carry
    p, q = [f"p{i}" for i in range(n)], [f"q{i}" for i in range(n)]  # gradient entries
    a, b = [f"a{k}" for k in range(len(hpairs))], [f"b{k}" for k in range(len(hpairs))]  # Hessian entries
    ux = (p, "x.grad"), (a, "x.hess_packed")  # the locals unpacked from each operand
    uxy = ux + ((q, "y.grad"), (b, "y.hess_packed"))
    add, sub = ([f"{x} {op} {y}" for x, y in zip(p + a, q + b)] for op in "+-")  # gradient, then Hessian
    neg = [f"-{e}" for e in p + a]
    mul_grad = [f"{p[i]} * v2 + v1 * {q[i]}" for i in range(n)]
    mul_hess = [
        f"{a[k]} * v2 + {p[i]} * {q[j]} + {q[i]} * {p[j]} + v1 * {b[k]}" for k, (i, j) in enumerate(hpairs)
    ]
    chain_hess = [f"d1 * {a[k]} + d2 * ({p[i]} * {p[j]})" for k, (i, j) in enumerate(hpairs)]
    values = "v1, v2 = x.value, y.value"

    # x * ±0.0 is the signed zero v when s and v are float zeros and every entry is a finite float
    zero_product = " and ".join(
        ["type(s) is float and s == 0.0 and type(v) is float and v == 0.0"]
        + [f"type({e}) is float and {e} - {e} == 0.0" for e in p + a]
    )

    def jet(value, grad, hess):
        return f"Jet2({value}, {_tuple(grad)}, {_tuple(hess)}, self)"

    scaled = jet("v", [f"{e} * s" for e in p], [f"{e} * s" for e in a])
    one = "if type(s) is float and s == 1.0: return x"  # x * 1.0 is x, tested before x.value * s
    zero = "if type(s) is float and s == 0.0: return x"  # x + ±0.0 is x, up to the sign of a zero
    source = (
        _def("add", "x, y", uxy, "return " + jet("x.value + y.value", add[:n], add[n:]))
        + _def("sub", "x, y", uxy, "return " + jet("x.value - y.value", sub[:n], sub[n:]))
        + _def("neg", "x", ux, "return " + jet("-x.value", neg[:n], neg[n:]))
        + _def("mul", "x, y", uxy, values, "return " + jet("v1 * v2", mul_grad, mul_hess))
        + _def("scale", "x, s", ux, one, "v = x.value * s", f"return v if {zero_product} else {scaled}")
        + _def("shift", "x, s", ux, zero, f"return Jet2(x.value + s, x.grad, {'x.hess_packed' if a else 'None'}, self)")
        + _def("chain", "x, f0, d1, d2", ux, "return " + jet("f0", [f"d1 * {e}" for e in p], chain_hess))
    )
    if order == 2:  # product_hessian refuses order-1 jets, so only order 2 has hmul
        source += _def("hmul", "x, y", uxy, values, "return " + _tuple(mul_hess))
    units = tuple(tuple(1.0 if j == i else 0.0 for j in range(n)) for i in range(n))
    zero_hess = (0.0,) * len(pairs) if order == 2 else None
    body = {"__slots__": (), "units": units, "zero_grad": (0.0,) * n, "zero_hess": zero_hess}
    exec(compile(source, f"<jets kernels n={n} order={order}>", "exec"), {"Jet2": Jet2}, body)  # adds the kernels
    return type(f"_Register{n}_{order}", (_Register,), body)


class Jet2:
    """Truncated second-order Taylor data: value, gradient, Hessian.

    ``grad`` has one entry per seeded variable of the register.
    ``hess_packed`` is the upper triangle of the Hessian, a flat tuple of
    n(n+1)/2 entries in row order ((h00, h01, h11) for n = 2), or ``None``
    for a first-order jet.  Components may themselves be jets of an older
    register.
    ``level`` is the jet's register: it holds the nesting rank, and its
    class the kernels of the register's size and order.

    Across registers the newer jet is the outer object and the other
    operand one scalar coefficient of it; subtraction goes through ``+`` and
    negation, division through ``*`` and the reciprocal.  A jet defines no
    ``float``, no ordering, no equality and no truth value, and is
    unhashable: read ``jet_value`` for any of them.
    """

    __slots__ = ("value", "grad", "hess_packed", "level")

    def __init__(self, value, grad, hess_packed, level):
        self.value = value
        self.grad = grad
        self.hess_packed = hess_packed
        self.level = level

    def __repr__(self):
        return f"Jet2({self.value!r}, grad={self.grad!r}, level={self.level.rank})"

    def __eq__(self, other):
        raise TypeError("a jet has no equality; compare jet_value(jet)")

    __hash__ = None

    def __bool__(self):
        raise TypeError("a jet has no truth value; test jet_value(jet)")

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            level = self.level
            if other.level is level:
                return level.add(self, other)
            if other.level.rank > level.rank:
                return other.level.shift(other, self)
        return self.level.shift(self, other)

    def __radd__(self, s):
        return self.level.shift(self, s)

    def __neg__(self):
        return self.level.neg(self)

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return self.level.shift(self, -other)
        level = self.level
        if other.level is not level:
            return self + (-other)
        return level.sub(self, other)

    def __rsub__(self, s):
        return self.level.shift(-self, s)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            level = self.level
            if other.level is level:
                return level.mul(self, other)
            if other.level.rank > level.rank:
                return other.level.scale(other, self)
        return self.level.scale(self, other)

    def __rmul__(self, s):
        return self.level.scale(self, s)

    def __truediv__(self, other):
        return self * _recip_any(other)

    def __rtruediv__(self, s):
        return self.level.scale(_recip_any(self), s)

    def __pow__(self, p):
        return _pow_any(self, float(p))


def _recip_any(x):
    if isinstance(x, Jet2):  # the chain rule of 1/x; an order-1 jet reads f' alone
        r = _recip_any(x.value)
        return x.level.chain(x, r, -(r * r), None if x.hess_packed is None else 2.0 * r * r * r)
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


def _pow_float(x, p):
    """x**p of a float x for p != 0.0, with the real-domain guards: zero to a
    negative power, a negative base to a fractional one and a NaN base raise
    ``EvaluationError``.  A positive base takes one comparison; the power 0.5
    is libm's ``sqrt``, any other libm's ``pow``."""
    if not x > 0.0:  # zero, negative or NaN
        if x == 0.0:
            if p < 0.0:
                raise EvaluationError("zero raised to a negative power")
        elif x < 0.0:
            if not p.is_integer():
                raise EvaluationError(f"fractional power {p} of negative value {x}")
        else:
            raise EvaluationError(f"power {p} of NaN value {x}")
    return math.sqrt(x) if p == 0.5 else math.pow(x, p)


def _pow_any(x, p):
    if p == 0.0:
        return 1.0
    if isinstance(x, Jet2):
        if p == 1.0:
            return x
        if p == 2.0:
            return x * x
        v = x.value  # p - 1.0 and p - 2.0 are not 0.0 here
        pw = _pow_float if type(v) is float else _pow_any  # a nested value keeps the recursion
        f0 = pw(v, p)  # f before f' and f'': a bad base names the exponent asked for
        d1 = p * pw(v, p - 1.0)
        d2 = None if x.hess_packed is None else (p * (p - 1.0)) * pw(v, p - 2.0)
        return x.level.chain(x, f0, d1, d2)
    if isinstance(x, np.ndarray):
        reject_first(np.isnan(x), f"power {p} of NaN value", x)
        if p < 0.0:
            reject_first(x == 0.0, "zero raised to a negative power", x)
        if not p.is_integer():
            reject_first(x < 0.0, f"fractional power {p} of negative value", x)
        return _each(math.sqrt, x) if p == 0.5 else _each(math.pow, x, p)
    return _pow_float(float(x), p)


def power(x, p):
    """x**p for a float, a jet or a float ndarray, with real-domain guards
    (no silent complex values or NaN): a negative base with a fractional
    exponent, or zero with a negative one, raises ``EvaluationError``."""
    return _pow_any(x, float(p))


def sqrt(x):
    """Square root of a positive float or jet; a plain float is tested
    first, and a NaN one raises as a non-positive one does."""
    if type(x) is not float and isinstance(x, Jet2):
        return _pow_any(x, 0.5)
    if not x > 0.0:  # NaN fails x > 0.0 where it passes x <= 0.0
        raise EvaluationError(f"sqrt of non-positive value {x}")
    return math.sqrt(x)


def exp(x):
    """Exponential of a float, a jet or a float ndarray; a plain float is tested first."""
    if type(x) is not float:
        if isinstance(x, Jet2):
            f0 = exp(x.value)
            return x.level.chain(x, f0, f0, f0)
        if isinstance(x, np.ndarray):
            return _each(math.exp, x)
    return math.exp(x)


def arctan(x):
    """Arctangent of a float or a jet."""
    if isinstance(x, Jet2):
        v = x.value
        w = _recip_any(1.0 + v * v)
        return x.level.chain(x, arctan(v), w, None if x.hess_packed is None else -2.0 * (v * (w * w)))
    return math.atan(x)


def product_hessian(p: Jet2, q: Jet2) -> tuple:
    """Packed Hessian of p * q for two order-2 jets of one register, as a
    plain tuple, equal to ``(p * q).hess_packed`` bit for bit; no jet is
    built.  Order-1 or cross-register operands raise ``ValueError``."""
    if p.hess_packed is None or q.hess_packed is None:
        raise ValueError("product_hessian needs two order-2 jets")
    if p.level is not q.level:
        raise ValueError(f"product_hessian needs one register, not {p.level} and {q.level}")
    return p.level.hmul(p, q)


@dataclass(frozen=True)
class ScalarField:
    """A closed-form scalar field of fixed arity, evaluable on reals or jets."""

    arity: int
    fn: Callable
    name: str = ""

    def __call__(self, *args):
        if len(args) != self.arity:
            raise self.arity_error(len(args))
        return self.fn(*args)

    def arity_error(self, given: int) -> TypeError:
        """The error of a call with ``given`` arguments where ``arity`` are taken."""
        return TypeError(f"field {self.name or self.fn!r} takes {self.arity} arguments, got {given}")


def seed_jets(values: Sequence, order: int = 2):
    """Seed a fresh register: one jet per value, unit gradients, zero Hessians
    (``order`` 2) or none (``order`` 1)."""
    if order not in (1, 2):
        raise ValueError(f"jets have order 1 or 2, not {order!r}")
    level = _kernels(len(values), order)()
    return tuple([Jet2(v, g, level.zero_hess, level) for v, g in zip(values, level.units)])


def lift(field, point: Sequence, order: int = 2):
    """Evaluate ``field`` at ``point`` carrying derivatives w.r.t. every variable.

    To hold a variable fixed, lift a closure over it:
    ``lift(lambda u, v: F(x, y, u, v), (u, v))``.  ``point`` entries may be
    jets of an enclosing register.  A field that returns a tuple gives a
    tuple of jets, all of one register; a component that does not depend on
    the seeded variables is promoted to a constant jet, so callers can always
    read ``grad``/``hess_packed``.  ``order`` is 2, or 1 for gradients only;
    any other raises ``ValueError``, as does an empty ``point``.  A
    :class:`ScalarField` is called as such, so a point of the wrong length
    raises its arity ``TypeError``.
    """
    if len(point) == 0:
        raise ValueError("a lift of a 0-variable point seeds nothing")
    seeds = seed_jets(point, order)
    level = seeds[0].level
    zg, zh = level.zero_grad, level.zero_hess
    out = field(*seeds)
    many = isinstance(out, tuple)
    comps = [
        c if isinstance(c, Jet2) and c.level is level else Jet2(c, zg, zh, level)
        for c in (out if many else (out,))
    ]
    return tuple(comps) if many else comps[0]
