import math
import operator
import re

import numpy as np
import pytest

from projspray.jets import (
    EvaluationError,
    Jet2,
    ScalarField,
    arctan,
    exp,
    jet_value,
    lift,
    power,
    product_hessian,
    seed_jets,
    sqrt,
)


def central_diff(fn, point, i, h):
    p = list(point)
    p[i] += h
    up = fn(*p)
    p[i] -= 2 * h
    dn = fn(*p)
    return (up - dn) / (2 * h)


def central_diff2(fn, point, i, j, h):
    if i == j:
        p = list(point)
        mid = fn(*p)
        p[i] += h
        up = fn(*p)
        p[i] -= 2 * h
        dn = fn(*p)
        return (up - 2 * mid + dn) / (h * h)
    return central_diff(lambda *q: central_diff(fn, q, j, h), point, i, h)


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def test_polynomial_by_hand():
    j = lift(ScalarField(2, lambda x, y: x * x * y), (2.0, 3.0))
    assert j.value == pytest.approx(12.0, abs=1e-14)
    assert j.grad[0] == pytest.approx(12.0, abs=1e-14)
    assert j.grad[1] == pytest.approx(4.0, abs=1e-14)
    # d2/dxdy of x^2 y is 2x = 4 at this point
    expected = [[6.0, 4.0], [4.0, 0.0]]
    assert np.allclose(np.array(j.hess_packed, float), [expected[i][k] for i, k in _pairs(2)], atol=1e-14)


def test_tuple_valued_field_lifts_from_one_register():
    j, c = lift(lambda x, y: (x * x * y, 2.0), (2.0, 3.0))
    assert j.level == c.level
    assert c.value == 2.0
    assert c.grad == (0.0, 0.0)
    assert c.hess_packed == (0.0, 0.0, 0.0)
    # the first component is the field of test_polynomial_by_hand
    assert (j.value, j.grad) == (12.0, (12.0, 4.0))
    assert j.hess_packed == (6.0, 4.0, 0.0)


def test_euclidean_norm_at_axis_point():
    j = lift(lambda u, v: sqrt(u * u + v * v), (1.0, 0.0))
    assert j.value == pytest.approx(1.0)
    assert np.allclose(np.array(j.grad, float), [1.0, 0.0], atol=1e-14)
    assert np.allclose(np.array(j.hess_packed, float), [0.0, 0.0, 1.0], atol=1e-14)


def test_exponential_single_variable():
    j = lift(lambda x: exp(-2.0 * x), (0.0,))
    assert j.value == pytest.approx(1.0)
    assert j.grad[0] == pytest.approx(-2.0)
    assert j.hess_packed[0] == pytest.approx(4.0)


class Poly2:
    """Bivariate polynomial with analytic derivatives via coefficient shifts."""

    def __init__(self, coeffs):
        self.coeffs = dict(coeffs)  # {(i, j): c}

    def __call__(self, x, y):
        tot = 0.0
        for (i, j), c in self.coeffs.items():
            tot = tot + c * x**i * y**j
        return tot

    def diff(self, var):
        out = {}
        for (i, j), c in self.coeffs.items():
            if var == 0 and i > 0:
                out[(i - 1, j)] = out.get((i - 1, j), 0.0) + c * i
            if var == 1 and j > 0:
                out[(i, j - 1)] = out.get((i, j - 1), 0.0) + c * j
        return Poly2(out)


def test_random_polynomials_match_symbolic():
    rng = np.random.default_rng(20240)
    for _ in range(50):
        coeffs = {
            (i, j): rng.uniform(-2, 2)
            for i in range(5)
            for j in range(5)
            if i + j <= 4
        }
        p = Poly2(coeffs)
        x0, y0 = rng.uniform(-1.5, 1.5, size=2)
        j = lift(ScalarField(2, p), (x0, y0))
        scale = abs(p(x0, y0)) + 1.0
        assert abs(j.value - p(x0, y0)) <= 1e-12 * scale
        for a in range(2):
            d = p.diff(a)
            assert abs(j.grad[a] - d(x0, y0)) <= 1e-12 * (abs(d(x0, y0)) + 1.0)
        for (a, b), h in zip(_pairs(2), j.hess_packed):
            dd = p.diff(a).diff(b)
            assert abs(h - dd(x0, y0)) <= 1e-12 * (abs(dd(x0, y0)) + 1.0)


@pytest.mark.parametrize(
    "fn,point",
    [
        (lambda x, y: sqrt(1.0 + x * x + y * y), (0.4, -0.7)),
        (lambda x, y: exp(x * y - 0.5 * x), (0.3, 0.9)),
        (lambda x, y: arctan(exp(sqrt(x + 2.0)) - y), (1.3, 0.6)),
    ],
)
def test_chain_rule_against_finite_differences(fn, point):
    j = lift(fn, point)
    for i in range(2):
        fd = central_diff(fn, point, i, 1e-5)
        assert abs(j.grad[i] - fd) <= 1e-6
    for (i, k), h in zip(_pairs(2), j.hess_packed):
        assert abs(h - central_diff2(fn, point, i, k, 1e-4)) <= 1e-6


def test_leibniz_rule_on_jets():
    (xa, xb) = seed_jets((0.7, -0.4))
    f = xa * xa * xb
    g = xb * xb + 1.5
    prod = f * g
    for i in range(2):
        assert prod.grad[i] == pytest.approx(
            jet_value(f) * g.grad[i] + jet_value(g) * f.grad[i], rel=1e-13
        )


def test_domain_violations_raise_not_nan():
    with pytest.raises(EvaluationError):
        lift(lambda x: sqrt(x), (-1.0,))
    with pytest.raises(EvaluationError):
        lift(lambda x: 1.0 / x, (0.0,))
    with pytest.raises(EvaluationError):
        lift(lambda x: x ** 1.5, (-2.0,))
    for bad in (0.0, -1.0):
        with pytest.raises(EvaluationError, match="sqrt of non-positive value"):
            sqrt(bad)
    with pytest.raises(EvaluationError, match="zero raised to a negative power"):
        power(0.0, -1.0)


def test_inactive_variables_held_constant():
    f = ScalarField(3, lambda x, y, z: x * y + z * z)
    j = lift(lambda x: f(x, 3.0, 4.0), (2.0,))
    assert j.value == pytest.approx(22.0)
    assert len(j.grad) == 1
    assert j.grad[0] == pytest.approx(3.0)


def test_lift_of_an_empty_point_raises():
    with pytest.raises(ValueError, match="a lift of a 0-variable point seeds nothing"):
        lift(lambda *xs: sum(xs, 1.0), ())


def test_scalar_field_checks_its_arity():
    f = ScalarField(3, lambda x, y, z: x, name="f")
    with pytest.raises(TypeError, match="field 'f' takes 3 arguments, got 2"):
        f(1.0, 2.0)


@pytest.mark.parametrize("point", [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4)], ids=["short", "long"])
def test_lift_keeps_a_scalar_fields_arity_check(point):
    f = ScalarField(3, lambda x, y, z: x * y + z, name="f")
    with pytest.raises(TypeError, match=f"field 'f' takes 3 arguments, got {len(point)}"):
        lift(f, point)


def test_constant_field_promoted():
    j = lift(lambda x, y: 7.5, (1.0, 2.0))
    assert j.value == 7.5
    assert j.grad == (0.0, 0.0)
    assert j.hess_packed == (0.0, 0.0, 0.0)


def test_nested_registers_give_higher_derivatives():
    # derivative field of x**4: lifting it again sees 12 x^2 and 24 x
    def deriv_field(x):
        inner = lift(lambda t: t**4, (x,))
        return inner.grad[0]

    outer = lift(deriv_field, (1.5,))
    assert outer.value == pytest.approx(4 * 1.5**3)
    assert outer.grad[0] == pytest.approx(12 * 1.5**2)
    assert outer.hess_packed[0] == pytest.approx(24 * 1.5)


def test_first_order_jets_skip_hessian():
    (s,) = seed_jets((0.3,), order=1)
    out = exp(s * s)
    assert out.hess_packed is None
    assert out.grad[0] == pytest.approx(2 * 0.3 * math.exp(0.09))


def test_packed_hessian_of_a_three_variable_product():
    a, b, c = seed_jets((2.0, 3.0, 5.0))
    j = a * a * b * c
    # f = a^2 b c: f_aa = 2bc, f_ab = 2ac, f_ac = 2ab, f_bb = 0, f_bc = a^2, f_cc = 0
    assert j.hess_packed == (30.0, 20.0, 12.0, 0.0, 4.0, 0.0)


def test_packed_entries_of_a_nested_jet_carry_outer_gradients():
    x, y = seed_jets((0.5, -1.25), order=1)
    u, v = seed_jets((0.75, 2.0))
    F = x * u * u + y * u * v + x * y * v * v
    # F_uu = 2x, F_uv = y, F_vv = 2xy, each a jet in the outer register (x, y)
    huu, huv, hvv = F.hess_packed
    assert all(e.level == x.level for e in (huu, huv, hvv))
    assert (huu.value, huv.value, hvv.value) == (1.0, -1.25, -1.25)
    assert huu.grad == (2.0, 0.0)
    assert huv.grad == (0.0, 1.0)
    assert hvv.grad == (-2.5, 1.0)


def test_first_order_lift_has_no_hessian():
    j = lift(lambda x, y: x * y, (1.0, 2.0), order=1)
    assert j.grad == (2.0, 1.0)
    assert j.hess_packed is None


def test_exp_and_power_of_arrays_match_their_floats_bit_for_bit():
    xs = np.linspace(0.05, 2.0, 40).reshape(8, 5)
    for fn in (exp, lambda x: power(x, 1.5), lambda x: power(x, -2.0 / 3.0), lambda x: power(x, 3)):
        out = fn(xs)
        assert out.shape == xs.shape and out.dtype == np.float64
        assert np.array_equal(out, [[fn(float(x)) for x in row] for row in xs])


def test_power_of_an_array_with_a_negative_entry_names_it():
    with pytest.raises(EvaluationError, match=r"fractional power 1\.5 of negative value at \(-0\.25\)"):
        power(np.array([0.5, -0.25, -1.0]), 1.5)
    with pytest.raises(EvaluationError, match=r"zero raised to a negative power at \(0\.0\)"):
        power(np.array([0.5, 0.0]), -1.0)
    assert np.array_equal(power(np.array([-2.0, 3.0]), 2), [4.0, 9.0])


def test_power_of_a_negative_jet_names_the_exponent_asked_for():
    # f is formed before f' and f'', so the guard names 1.5, not 0.5 or -0.5
    with pytest.raises(EvaluationError, match=r"fractional power 1\.5 of negative value -2\.0$"):
        lift(lambda x: x**1.5, (-2.0,))


# Cross-register operations: x is seeded in the older register, y in the
# newer one, so each result is a jet in y whose entries are jets in x (or
# floats), and its parts give f, f_x, f_y, f_xx, f_xy and f_yy.
X0, Y0 = 0.7, 1.3


def _nested_parts(j):
    def dx(c):
        return c.grad[0] if isinstance(c, Jet2) else 0.0

    def dxx(c):
        return c.hess_packed[0] if isinstance(c, Jet2) else 0.0

    v, gy, hyy = j.value, j.grad[0], j.hess_packed[0]
    return (jet_value(v), dx(v), jet_value(gy), dxx(v), dx(gy), jet_value(hyy))


@pytest.mark.parametrize(
    "op,expected",
    [
        (lambda X, Y: X * X - X * Y, (X0 * X0 - X0 * Y0, 2 * X0 - Y0, -X0, 2.0, -1.0, 0.0)),
        (lambda X, Y: X * Y - X * X, (X0 * Y0 - X0 * X0, Y0 - 2 * X0, X0, -2.0, 1.0, 0.0)),
        (lambda X, Y: X / Y, (X0 / Y0, 1 / Y0, -X0 / Y0**2, 0.0, -1 / Y0**2, 2 * X0 / Y0**3)),
        (lambda X, Y: Y / X, (Y0 / X0, -Y0 / X0**2, 1 / X0, 2 * Y0 / X0**3, -1 / X0**2, 0.0)),
        (lambda X, Y: X * Y / 2.5, (X0 * Y0 / 2.5, Y0 / 2.5, X0 / 2.5, 0.0, 1 / 2.5, 0.0)),
        (
            lambda X, Y: 2.5 / (X * Y),
            (2.5 / (X0 * Y0), -2.5 / (X0**2 * Y0), -2.5 / (X0 * Y0**2), 5.0 / (X0**3 * Y0), 2.5 / (X0 * Y0) ** 2, 5.0 / (X0 * Y0**3)),
        ),
    ],
    ids=["older-newer", "newer-older", "older/newer", "newer/older", "jet/float", "float/jet"],
)
def test_cross_register_operations_match_closed_form_derivatives(op, expected):
    (X,) = seed_jets((X0,))
    (Y,) = seed_jets((Y0,))
    j = op(X, Y)
    assert j.level == Y.level and j.value.level == X.level
    assert _nested_parts(j) == pytest.approx(expected, rel=1e-14, abs=1e-15)


def test_cross_register_division_by_a_zero_value_raises():
    (X,) = seed_jets((0.0,))
    (Y,) = seed_jets((1.0,))
    for num in (Y, 1.0):
        with pytest.raises(EvaluationError, match="division by zero"):
            num / (X * Y)


@pytest.mark.parametrize(
    "use",
    [float, math.sqrt, lambda j: j < 0.0, lambda j: 0.0 >= j, lambda j: j ** j],
    ids=["float", "math.sqrt", "lt", "ge", "jet-exponent"],
)
def test_a_jet_has_no_float_value_and_no_order(use):
    (j,) = seed_jets((0.5,))
    with pytest.raises(TypeError):
        use(j)


@pytest.mark.parametrize(
    "use",
    [
        lambda j: j == 0.0,
        lambda j: 0.0 == j,
        lambda j: j != 0.0,
        lambda j: j == j,
        bool,
        lambda j: 1 if j else 0,
        lambda j: not j,
        hash,
        lambda j: {j},
    ],
    ids=["eq", "req", "ne", "eq-self", "bool", "if", "not", "hash", "set"],
)
def test_a_jet_has_no_equality_and_no_truth_value(use):
    (j,) = seed_jets((0.0,))
    with pytest.raises(TypeError):
        use(j)


@pytest.mark.parametrize("order", [0, 3, -1, 2.5])
def test_seeding_any_order_but_1_or_2_raises(order):
    with pytest.raises(ValueError, match=f"not {order}"):
        seed_jets((0.5,), order=order)
    with pytest.raises(ValueError, match=f"not {order}"):
        lift(lambda x: x**3, (0.5,), order=order)


# --- the written-out kernels against the loops they replace -----------------


def _loop_product(x, y):
    v1, v2, g1, g2, h1, h2 = x.value, y.value, x.grad, y.grad, x.hess_packed, y.hess_packed
    g = tuple([a * v2 + v1 * b for a, b in zip(g1, g2)])
    if h1 is None:
        return Jet2(v1 * v2, g, None, x.level)
    h = tuple(
        [a * v2 + g1[i] * g2[j] + g2[i] * g1[j] + v1 * b for (i, j), a, b in zip(_pairs(len(g1)), h1, h2)]
    )
    return Jet2(v1 * v2, g, h, x.level)


def _loop_scalar_product(x, s):
    h = x.hess_packed
    if h is not None:
        h = tuple([a * s for a in h])
    return Jet2(x.value * s, tuple([a * s for a in x.grad]), h, x.level)


def _loop_chain(x, f0, d1, d2):
    g, h = x.grad, x.hess_packed
    if h is not None:
        h = tuple([d1 * a + d2 * (g[i] * g[j]) for (i, j), a in zip(_pairs(len(g)), h)])
    return Jet2(f0, tuple([d1 * a for a in g]), h, x.level)


def _floats(x):
    """Every innermost float of a possibly nested jet, with its levels."""
    if not isinstance(x, Jet2):
        return [x]
    parts = (x.value, *x.grad, *(() if x.hess_packed is None else x.hess_packed))
    return [("level", x.level)] + [f for c in parts for f in _floats(c)]


def _random_jet(n, level, component, order=2):
    grad = tuple(component() for _ in range(n))
    value = component()
    hess = tuple(component() for _ in range(n * (n + 1) // 2)) if order == 2 else None
    return Jet2(value, grad, hess, level)


def _kernel_cases(n, nested, order):
    """(kernel result, loop result) for each operation the kernels carry, on
    random n-variable jets of ``order``.

    The loops are the per-entry comprehensions the kernels replaced.  With
    float components they are an independent reference; with components of
    an older order-2 register, that register's arithmetic runs the same way
    on both sides and the outer entries are checked.
    """
    rng = np.random.default_rng(1000 * n + nested)
    older_seed = seed_jets((0.0, 0.0))[0]
    newer_seed = seed_jets((0.0,) * n, order)[0]

    def real():
        return float(rng.uniform(0.5, 2.0))

    def older():
        return _random_jet(2, older_seed.level, real)

    component = older if nested else real
    level = newer_seed.level
    x, y = (_random_jet(n, level, component, order) for _ in range(2))
    s, o = real(), older()
    v = x.value
    cases = [
        (x * y, _loop_product(x, y)),
        (x * x, _loop_product(x, x)),
        (x * s, _loop_scalar_product(x, s)),
        (s * x, _loop_scalar_product(x, s)),
        (x * o, _loop_scalar_product(x, o)),
        (o * x, _loop_scalar_product(x, o)),
        (x**1.5, _loop_chain(x, power(v, 1.5), 1.5 * power(v, 0.5), (1.5 * 0.5) * power(v, -0.5))),
        (exp(x), _loop_chain(x, exp(v), exp(v), exp(v))),
    ]
    r = 1.0 / v
    reciprocal = _loop_chain(x, r, -(r * r), 2.0 * r * r * r)
    cases.append((1.0 / x, _loop_scalar_product(reciprocal, 1.0)))
    cases.append((y / x, _loop_product(y, reciprocal)))
    return cases


@pytest.mark.parametrize("nested", [False, True], ids=["floats", "nested"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kernels_match_the_loop_formulas_bit_for_bit(n, nested):
    for got, want in _kernel_cases(n, nested, order=2):
        assert got.hess_packed is not None
        assert _floats(got) == _floats(want)


@pytest.mark.parametrize("nested", [False, True], ids=["floats", "nested"])
@pytest.mark.parametrize("order", [1, 2])
def test_a_product_by_the_float_one_is_the_jet_itself(order, nested):
    rng = np.random.default_rng(2000 * order + nested)
    older_seed = seed_jets((0.0, 0.0))[0]

    def real():
        return float(rng.uniform(0.5, 2.0))

    def older():
        return _random_jet(2, older_seed.level, real)

    x = _random_jet(2, seed_jets((0.0, 0.0), order)[0].level, older if nested else real, order)
    for got in (x * 1.0, 1.0 * x, x / 1.0):
        assert got is x
    r = 1.0 / x.value
    assert _floats(1.0 / x) == _floats(_loop_chain(x, r, -(r * r), 2.0 * r * r * r if order == 2 else None))
    s = math.nextafter(1.0, 2.0)  # one ulp off: scaled entry by entry
    for got in (x * s, s * x):
        assert got is not x and _floats(got) == _floats(_loop_scalar_product(x, s))


def _reprs(x):
    """``_floats`` of x by ``repr``, so NaN equals NaN and -0.0 differs from 0.0."""
    return [repr(f) for f in _floats(x)]


@pytest.mark.parametrize("nested", [False, True], ids=["floats", "nested"])
@pytest.mark.parametrize("order", [1, 2])
def test_a_product_by_a_float_zero_of_a_finite_jet_is_a_signed_zero(order, nested):
    rng = np.random.default_rng(3000 * order + nested)
    older_seed = seed_jets((0.0, 0.0))[0]

    def real():
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))

    def older():
        return _random_jet(2, older_seed.level, real)

    level = seed_jets((0.0, 0.0), order)[0].level
    for _ in range(4):
        x = _random_jet(2, level, older if nested else real, order)
        for s in (0.0, -0.0):
            want = _loop_scalar_product(x, s)
            for got in (x * s, s * x):
                if nested:  # an older jet entry keeps the kernel: the scaled jet, entry by entry
                    assert isinstance(got, Jet2) and got.level is level
                    assert _reprs(got) == _reprs(want)
                else:
                    assert type(got) is float and repr(got) == repr(x.value * s)
                    assert all(f == 0.0 for f in _floats(want)[1:])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("nested", [False, True], ids=["floats", "nested"])
@pytest.mark.parametrize("order", [1, 2])
def test_a_product_by_a_float_zero_keeps_a_non_finite_entry(order, nested, bad):
    # 0 * NaN and 0 * inf are NaN: a jet carrying one is scaled entry by entry, never dropped to a zero
    rng = np.random.default_rng(4000 * order + nested)
    older_seed = seed_jets((0.0, 0.0))[0]

    def real():
        return float(rng.uniform(0.5, 2.0))

    def older():
        return _random_jet(2, older_seed.level, real)

    level = seed_jets((0.0, 0.0), order)[0].level
    x = _random_jet(2, level, older if nested else real, order)
    slots = 1 + len(x.grad) + (0 if x.hess_packed is None else len(x.hess_packed))
    for k in range(slots):  # the value, then each gradient entry, then each Hessian entry
        parts = [x.value, *x.grad, *(x.hess_packed or ())]
        parts[k] = Jet2(bad, parts[k].grad, parts[k].hess_packed, parts[k].level) if nested else bad
        g, h = tuple(parts[1:3]), None if order == 1 else tuple(parts[3:])
        y = Jet2(parts[0], g, h, level)
        for s in (0.0, -0.0):
            want = _loop_scalar_product(y, s)
            for got in (y * s, s * y):
                assert isinstance(got, Jet2) and _reprs(got) == _reprs(want)
                assert any(f != f for f in _floats(got)[1:])


@pytest.mark.parametrize("nested", [False, True], ids=["floats", "nested"])
@pytest.mark.parametrize("order", [1, 2])
def test_a_sum_with_a_float_zero_is_the_jet_itself(order, nested):
    # x + (-0.0) is x, and x + 0.0 differs from x only where x is -0.0
    rng = np.random.default_rng(5000 * order + nested)
    older_seed = seed_jets((0.0, 0.0))[0]

    def real():
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))

    def older():
        return _random_jet(2, older_seed.level, real)

    level = seed_jets((0.0, 0.0), order)[0].level
    w = _random_jet(2, level, older if nested else real, order)
    for got in (w + 0.0, 0.0 + w, w - 0.0, w - (-0.0), w + (-0.0), -0.0 + w):
        assert got is w
    assert _reprs(0.0 - w) == _reprs(-w)
    bad = Jet2(math.nan, w.grad, w.hess_packed, level)  # a NaN entry stays where it was
    assert bad + 0.0 is bad and _reprs(0.0 - bad) == _reprs(-bad)
    s = math.ulp(0.0)  # the smallest nonzero shift: added to the value
    assert _reprs(w + s) == _reprs(Jet2(w.value + s, w.grad, w.hess_packed, level))


@pytest.mark.parametrize("nested", [False, True], ids=["floats", "nested"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order1_kernels_match_the_loop_formulas_bit_for_bit(n, nested):
    for got, want in _kernel_cases(n, nested, order=1):
        assert got.hess_packed is None
        assert _floats(got) == _floats(want)


def _loop_sum(x, y, op):
    """x + y or x - y of one register, entry by entry as ``map`` runs it."""
    h1, h2 = x.hess_packed, y.hess_packed
    h = None if h1 is None or h2 is None else tuple(map(op, h1, h2))
    return Jet2(op(x.value, y.value), tuple(map(op, x.grad, y.grad)), h, x.level)


def _loop_neg(x):
    h = x.hess_packed
    if h is not None:
        h = tuple(map(operator.neg, h))
    return Jet2(-x.value, tuple(map(operator.neg, x.grad)), h, x.level)


def _loop_add_scalar(x, s):
    return Jet2(x.value + s, x.grad, x.hess_packed, x.level)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("nested", [False, True], ids=["floats", "nested"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sum_difference_and_negation_kernels_match_the_map_loops_bit_for_bit(n, nested, order):
    rng = np.random.default_rng(2000 * n + 10 * nested + order)
    older_seed = seed_jets((0.0, 0.0))[0]
    newer_seed = seed_jets((0.0,) * n, order)[0]

    def real():
        return float(rng.uniform(-2.0, 2.0))

    def older():
        return _random_jet(2, older_seed.level, real)

    component = older if nested else real
    level = newer_seed.level
    x, y = (_random_jet(n, level, component, order) for _ in range(2))
    s, o = real(), older()
    cases = [
        (x + y, _loop_sum(x, y, operator.add)),
        (x - y, _loop_sum(x, y, operator.sub)),
        (y - x, _loop_sum(y, x, operator.sub)),
        (x + x, _loop_sum(x, x, operator.add)),
        (x - x, _loop_sum(x, x, operator.sub)),
        (-x, _loop_neg(x)),
        (x + s, _loop_add_scalar(x, s)),
        (s + x, _loop_add_scalar(x, s)),
        (x - s, Jet2(x.value - s, x.grad, x.hess_packed, level)),
        (s - x, _loop_add_scalar(_loop_neg(x), s)),
        (x + o, _loop_add_scalar(x, o)),
        (o + x, _loop_add_scalar(x, o)),
        (o - x, _loop_add_scalar(_loop_neg(x), o)),  # older - newer is o + (-x)
        (x - o, _loop_add_scalar(x, _loop_neg(o))),  # newer - older is x + (-o)
    ]
    for got, want in cases:
        assert (got.hess_packed is None) == (want.hess_packed is None)
        assert _floats(got) == _floats(want)


def test_each_register_kind_compiles_its_kernels_under_its_own_file_name():
    from projspray.jets import _kernels

    kinds = [(n, order) for n in range(1, 5) for order in (1, 2)]
    methods = {kind: {k: f for k, f in vars(_kernels(*kind)).items() if callable(f)} for kind in kinds}
    kernels = {"add", "sub", "neg", "mul", "scale", "shift", "chain"}
    assert all(set(m) == kernels | ({"hmul"} if order == 2 else set()) for (_, order), m in methods.items())
    names = {kind: {f.__code__.co_filename for f in m.values()} for kind, m in methods.items()}
    assert names == {(n, o): {f"<jets kernels n={n} order={o}>"} for n, o in kinds}


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_register_holds_the_kernels_of_its_size_and_order(n, order):
    from projspray.jets import _kernels

    seeds = []

    def field(*xs):
        seeds.extend(xs)
        return sum(xs, 1.0), 2.5

    total, constant = lift(field, tuple(0.25 * (i + 1) for i in range(n)), order)
    register = seeds[0].level
    assert all(j.level is register for j in (*seeds, total, constant))
    assert type(register) is _kernels(n, order)
    assert (constant.grad, constant.hess_packed) == (register.zero_grad, register.zero_hess)
    assert register.zero_grad == (0.0,) * n
    assert register.zero_hess == (None if order == 1 else (0.0,) * len(_pairs(n)))
    units = tuple(tuple(float(i == j) for j in range(n)) for i in range(n))
    assert register.units == tuple(s.grad for s in seeds) == units
    # a jet whose gradient does not fit its register is refused, not computed
    (x,) = seed_jets((0.5,), order)
    wide = Jet2(0.5, (1.0, 0.0), None if order == 1 else (0.0, 0.0, 0.0), x.level)
    for use in (operator.add, operator.sub, operator.mul, lambda w, x: -w, lambda w, x: w * 2.0, lambda w, x: exp(w)):
        with pytest.raises(ValueError):
            use(wide, x)


@pytest.mark.parametrize("order", [1, 2])
def test_a_scalar_sum_refuses_a_jet_that_does_not_fit_its_register(order):
    (x,) = seed_jets((0.5,), order)
    wide = Jet2(0.5, (1.0, 0.0), None if order == 1 else (0.0, 0.0, 0.0), x.level)
    uses = (
        lambda w: w + 1.0, lambda w: 1.0 + w, lambda w: w - 1.0, lambda w: 1.0 - w, lambda w: w * 0.0,
        lambda w: w + 0.0, lambda w: w - 0.0, lambda w: 0.0 - w,
    )
    for use in uses:
        with pytest.raises(ValueError):
            use(wide)
    # a jet that fits keeps its gradient and Hessian tuples
    shifted = x + 1.0
    assert shifted.value == 1.5 and shifted.grad is x.grad and shifted.hess_packed is x.hess_packed


@pytest.mark.parametrize("order", [1, 2])
def test_every_scalar_product_refuses_a_jet_that_does_not_fit_its_register(order):
    # the kernels test x * 1.0 after they unpack the operand, as they do x * 0.0
    (x,) = seed_jets((0.5,), order)
    w = Jet2(0.5, (1.0, 0.0), None if order == 1 else (0.0, 0.0, 0.0), x.level)
    uses = [
        lambda w: w * 1.0, lambda w: 1.0 * w, lambda w: w / 1.0, lambda w: w * 0.0,
        lambda w: w * 2.0, lambda w: w + 1.0, lambda w: 1.0 - w, lambda w: -w,
    ]
    for use in uses:
        with pytest.raises(ValueError):
            use(w)


@pytest.mark.parametrize("order", [1, 2])
def test_two_lifts_of_one_kind_share_the_class_but_not_the_register(order):
    from projspray.jets import _kernels

    first = lift(lambda x, y: x * y, (0.5, 1.5), order)
    second = lift(lambda x, y: x + y, (0.5, 1.5), order)
    assert type(first.level) is type(second.level) is _kernels(2, order)
    assert first.level is not second.level and second.level.rank > first.level.rank
    assert repr(second.level) == f"<register {second.level.rank}>"
    # the newer register's jet is the outer one: the older jet enters as one coefficient
    mixed = first * second
    assert mixed.level is second.level and mixed.value.level is first.level


# --- the Hessian of a product without its jet --------------------------------


def _hess_floats(h):
    return [f for e in h for f in _floats(e)]


@pytest.mark.parametrize("nested", [False, True], ids=["floats", "nested"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_hessian_equals_the_products_hessian_bit_for_bit(n, nested):
    rng = np.random.default_rng(3000 * n + nested)
    older_seed = seed_jets((0.0, 0.0))[0]
    newer_seed = seed_jets((0.0,) * n)[0]

    def real():
        return float(rng.uniform(-2.0, 2.0))

    def older():
        return _random_jet(2, older_seed.level, real)

    component = older if nested else real
    p, q = (_random_jet(n, newer_seed.level, component) for _ in range(2))
    for a, b in ((p, q), (q, p), (p, p)):
        got = _hess_floats(product_hessian(a, b))
        assert got == _hess_floats((a * b).hess_packed)
        assert got == _hess_floats(_loop_product(a, b).hess_packed)


def test_product_hessian_of_a_promoted_constant():
    f, c = lift(lambda x, y: (x * x * y + 0.5 * y, 2.5), (0.75, -1.25))
    assert c.grad == (0.0, 0.0) and c.hess_packed == (0.0, 0.0, 0.0)
    for a, b in ((f, c), (c, f), (c, c)):
        assert product_hessian(a, b) == (a * b).hess_packed == _loop_product(a, b).hess_packed


def test_product_hessian_needs_two_order2_jets_of_one_register():
    a, b = seed_jets((0.5, 1.5))
    (s,) = seed_jets((0.5,), order=1)
    c, d = seed_jets((0.5, 1.5))
    with pytest.raises(ValueError, match="two order-2 jets"):
        product_hessian(a, s * s)
    with pytest.raises(ValueError, match="two order-2 jets"):
        product_hessian(s, s)
    with pytest.raises(ValueError, match="one register"):
        product_hessian(a * b, c * d)


# --- order-1 chain rules read f' alone ----------------------------------------


def test_an_order1_power_of_zero_needs_no_second_derivative():
    j = lift(lambda x: power(x, 1.5), (0.0,), order=1)
    assert (j.value, j.grad) == (0.0, (0.0,))
    with pytest.raises(EvaluationError, match="zero raised to a negative power"):
        lift(lambda x: power(x, 1.5), (0.0,))


ORDER1_CHAINS = {
    "power 1.5": lambda x: power(x, 1.5),
    "power -2/3": lambda x: power(x, -2.0 / 3.0),
    "power 3": lambda x: power(x, 3),
    "sqrt": sqrt,
    "reciprocal": lambda x: 1.0 / x,
    "arctan": arctan,
}


@pytest.mark.parametrize("nested", [False, True], ids=["floats", "nested"])
@pytest.mark.parametrize("fn", ORDER1_CHAINS.values(), ids=ORDER1_CHAINS.keys())
def test_order1_chain_rules_match_the_order2_value_and_gradient(fn, nested):
    rng = np.random.default_rng(4000 + nested)
    for _ in range(5):
        point = tuple(float(c) for c in rng.uniform(0.25, 2.0, 2))
        if nested:  # the point's entries are jets of an older order-2 register
            older = seed_jets((float(rng.uniform(-1.0, 1.0)),))[0]
            point = tuple(c + 0.25 * older * older for c in point)

        def field(x, y):
            return fn(x * y + 0.5 * x)

        one, two = lift(field, point, order=1), lift(field, point)
        assert one.hess_packed is None
        assert _floats(one.value) == _floats(two.value)
        assert [_floats(g) for g in one.grad] == [_floats(g) for g in two.grad]


@pytest.mark.parametrize("x", [5e-324, 1e-300, 0.25, 1.0, 2.0, 1e300, math.inf])
def test_sqrt_of_a_positive_float_is_libms(x):
    got = sqrt(x)
    assert type(got) is float and got == math.sqrt(x)


def test_a_jets_square_root_is_libms_on_every_path():
    # math.pow(x, 0.5) is 1 ulp off math.sqrt(x) at 17 of these points
    xs = np.random.default_rng(0).uniform(1e-3, 10.0, 20_000)
    want = [math.sqrt(x) for x in xs.tolist()]
    assert [x for x, w in zip(xs.tolist(), want) if lift(sqrt, (x,)).value != w] == []
    assert [lift(lambda u: power(u, 0.5), (x,), 1).value for x in xs[:100].tolist()] == want[:100]
    assert [power(x, 0.5) for x in xs.tolist()] == [sqrt(x) for x in xs.tolist()] == want
    got = power(xs.reshape(200, 100), 0.5)
    assert got.shape == (200, 100) and got.ravel().tolist() == want


@pytest.mark.parametrize("x", [-745.2, -700.0, -1.5, -0.0, 0.0, 0.3, 709.7, -math.inf, math.inf])
def test_exp_of_a_float_is_libms(x):
    got = exp(x)
    assert type(got) is float and got == math.exp(x)


@pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -math.inf])
def test_sqrt_of_a_non_positive_float_raises(bad):
    with pytest.raises(EvaluationError, match=re.escape(f"sqrt of non-positive value {bad}")):
        sqrt(bad)


def test_sqrt_and_exp_of_nan_and_numpy_scalars():
    # the sqrt guard refuses unless x > 0.0, which NaN fails; exp has no guard
    with pytest.raises(EvaluationError, match="sqrt of non-positive value nan"):
        sqrt(math.nan)
    # so does every power's guard, on floats, jets and arrays; a zeroth power is 1.0
    for p in (1.5, 3.0, -1.0):
        with pytest.raises(EvaluationError, match=f"power {p} of NaN value nan"):
            power(math.nan, p)
    with pytest.raises(EvaluationError, match="power 0.5 of NaN value nan"):
        lift(sqrt, (math.nan,))
    with pytest.raises(EvaluationError, match="power 1.5 of NaN value nan"):
        lift(lambda x: power(x, 1.5), (math.nan,), order=1)
    with pytest.raises(EvaluationError, match=r"power 1.5 of NaN value at \(nan\)"):
        power(np.array([0.5, math.nan]), 1.5)
    assert power(math.nan, 0) == 1.0
    assert math.isnan(exp(math.nan))
    for x in (0.25, 2.0):
        assert sqrt(np.float64(x)) == math.sqrt(x) and exp(np.float64(-x)) == math.exp(-x)
    for bad in (0.0, -1.0):
        with pytest.raises(EvaluationError, match="sqrt of non-positive value"):
            sqrt(np.float64(bad))
    with pytest.raises(OverflowError):
        exp(1000.0)
