import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projspray.jets import (
    EvaluationError,
    Jet2,
    ScalarField,
    arctan,
    exp,
    jet_value,
    lift,
    power,
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


def test_polynomial_by_hand():
    j = lift(ScalarField(2, lambda x, y: x * x * y), (2.0, 3.0))
    assert j.value == pytest.approx(12.0, abs=1e-14)
    assert j.grad[0] == pytest.approx(12.0, abs=1e-14)
    assert j.grad[1] == pytest.approx(4.0, abs=1e-14)
    # d2/dxdy of x^2 y is 2x = 4 at this point
    expected = [[6.0, 4.0], [4.0, 0.0]]
    assert np.allclose(np.array(j.hess, float), expected, atol=1e-14)


def test_tuple_valued_field_lifts_from_one_register():
    j, c = lift(lambda x, y: (x * x * y, 2.0), (2.0, 3.0))
    assert j.level == c.level
    assert c.value == 2.0
    assert c.grad == (0.0, 0.0)
    assert np.array_equal(np.array(c.hess, float), np.zeros((2, 2)))
    # the first component is the field of test_polynomial_by_hand
    assert (j.value, j.grad) == (12.0, (12.0, 4.0))
    assert np.array_equal(np.array(j.hess, float), [[6.0, 4.0], [4.0, 0.0]])


def test_euclidean_norm_at_axis_point():
    j = lift(lambda u, v: sqrt(u * u + v * v), (1.0, 0.0))
    assert j.value == pytest.approx(1.0)
    assert np.allclose(np.array(j.grad, float), [1.0, 0.0], atol=1e-14)
    assert np.allclose(np.array(j.hess, float), [[0.0, 0.0], [0.0, 1.0]], atol=1e-14)


def test_exponential_single_variable():
    j = lift(lambda x: exp(-2.0 * x), (0.0,))
    assert j.value == pytest.approx(1.0)
    assert j.grad[0] == pytest.approx(-2.0)
    assert j.hess[0][0] == pytest.approx(4.0)


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
            for b in range(2):
                dd = d.diff(b)
                assert abs(j.hess[a][b] - dd(x0, y0)) <= 1e-12 * (abs(dd(x0, y0)) + 1.0)


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
        for k in range(i, 2):
            fd2 = central_diff2(fn, point, i, k, 1e-4)
            assert abs(j.hess[i][k] - fd2) <= 1e-6


@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=-2, max_value=2),
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_hessian_symmetric_exactly(x, y, z):
    j = lift(
        lambda a, b, c: (a * b - c) * exp(0.3 * a) + arctan(b * c) * a,
        (x, y, z),
    )
    for i in range(3):
        for k in range(3):
            assert j.hess[i][k] == j.hess[k][i]


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
    assert j.hess[0][0] == 0.0


def test_nested_registers_give_higher_derivatives():
    # derivative field of x**4: lifting it again sees 12 x^2 and 24 x
    def deriv_field(x):
        inner = lift(lambda t: t**4, (x,))
        return inner.grad[0]

    outer = lift(deriv_field, (1.5,))
    assert outer.value == pytest.approx(4 * 1.5**3)
    assert outer.grad[0] == pytest.approx(12 * 1.5**2)
    assert outer.hess[0][0] == pytest.approx(24 * 1.5)


def test_first_order_jets_skip_hessian():
    (s,) = seed_jets((0.3,), order=1)
    out = exp(s * s)
    assert out.hess is None
    assert out.grad[0] == pytest.approx(2 * 0.3 * math.exp(0.09))


def test_packed_hessian_of_a_three_variable_product():
    a, b, c = seed_jets((2.0, 3.0, 5.0))
    j = a * a * b * c
    # f = a^2 b c: f_aa = 2bc, f_ab = 2ac, f_ac = 2ab, f_bb = 0, f_bc = a^2, f_cc = 0
    assert j.hess_packed == (30.0, 20.0, 12.0, 0.0, 4.0, 0.0)
    assert j.hess == ((30.0, 20.0, 12.0), (20.0, 0.0, 4.0), (12.0, 4.0, 0.0))
    for i in range(3):
        for k in range(3):
            assert j.hess[i][k] == j.hess[k][i]


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
    assert j.hess is None


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


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


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
    (older_seed,) = seed_jets((0.0,))
    (newer_seed,) = seed_jets((0.0,))

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
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_order1_kernels_match_the_loop_formulas_bit_for_bit(n, nested):
    for got, want in _kernel_cases(n, nested, order=1):
        assert got.hess_packed is None
        assert _floats(got) == _floats(want)
