import math

import mpmath
import numpy as np
import pytest
import sympy

from projspray.catalog import metric_entry, spray_entry
from projspray.classify import liouville_candidate
from projspray.finsler import Rectangle, fundamental_tensor, projective_residual
from projspray.jets import EvaluationError, lift
from projspray.randers import (
    CurveSample,
    LorentzOperator,
    MetricField,
    area_form,
    beta_for,
    christoffel,
    constant_curvature_metric,
    covariant_acceleration,
    geodesic_curvature,
    magnetic_residual,
    magnetic_rhs,
    one_form_norm,
    randers_metric,
)
from projspray.symmetry import projective_field_residual
from projspray.trace import GeodesicTrace, unit_speed_resample


def test_constant_curvature_values():
    assert np.allclose(constant_curvature_metric("euclidean").matrix(0.7, -0.3), np.eye(2))
    assert np.allclose(constant_curvature_metric("sphere").matrix(0.0, 0.0), np.eye(2))
    m = constant_curvature_metric("hyperbolic").matrix(0.5, 0.0)
    assert np.allclose(m, (16.0 / 9.0) * np.eye(2), rtol=1e-14)


def test_hyperbolic_outside_disk_raises():
    with pytest.raises(EvaluationError):
        constant_curvature_metric("hyperbolic").matrix(1.2, 0.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: constant_curvature_metric("hyperbolic").entries(1.2, -0.3),
        lambda: lift(constant_curvature_metric("hyperbolic").entries, (1.2, -0.3), order=1),
        lambda: spray_entry("bk-").spray.pair(1.2, -0.3, 1.0, 0.0),
        lambda: lift(spray_entry("bk-").spray.pair, (1.2, -0.3, 1.0, 0.0), order=2),
        lambda: metric_entry("c+").alpha.entries(-1.2, -0.3),
        lambda: lift(metric_entry("c+").alpha.entries, (-1.2, -0.3), order=1),
        lambda: MetricField(lambda x, y: (1.0, 0.0, -1.0), Rectangle(-2, 2, -2, 2)).norm(1.2, -0.3, (0.0, 1.0)),
        lambda: constant_curvature_metric("hyperbolic").entries(np.array([0.1, 1.2]), np.array([0.2, -0.3])),
        lambda: metric_entry("c+").alpha.entries(np.array([0.1, -1.2]), np.array([0.2, -0.3])),
        lambda: MetricField(lambda x, y: (1.0, 0.0, -1.0), Rectangle(-2, 2, -2, 2)).norm(
            np.array([0.1, 1.2]), np.array([0.2, -0.3]), (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        ),
    ],
    ids=[
        "hyperbolic", "hyperbolic-jet", "bk-", "bk--jet", "c+", "c+-jet", "norm",
        "hyperbolic-array", "c+-array", "norm-array",
    ],
)
def test_domain_guards_name_the_point(call):
    with pytest.raises(EvaluationError, match=r"at \(-?1\.2, -0\.3\)"):
        call()


def _vanishing_velocity_trace():
    """A trace whose velocity is zero at node 4, the point (0.4, -0.5)."""
    t = np.linspace(0.0, 1.0, 11)
    uv = np.column_stack([np.ones_like(t), np.zeros_like(t)])
    uv[4] = 0.0
    return GeodesicTrace(t=t, xy=np.column_stack([t, np.full_like(t, -0.5)]), uv=uv, acc=np.zeros_like(uv))


@pytest.mark.parametrize(
    "call",
    [
        lambda: fundamental_tensor(metric_entry("a").metric, (0.4, -0.5, 0.0, 0.0)),
        lambda: projective_residual(spray_entry("a").spray, spray_entry("flat").spray, (0.4, -0.5, 0.0, 0.0)),
        lambda: projective_field_residual(
            metric_entry("a").projective_basis[0], spray_entry("a").spray, (0.4, -0.5, 0.0, 0.0)
        ),
        lambda: magnetic_residual(
            constant_curvature_metric("euclidean"),
            area_form(constant_curvature_metric("euclidean"), 1.0),
            CurveSample((0.4, -0.5), (0.0, 0.0), (0.0, 0.0)),
        ),
        lambda: unit_speed_resample(_vanishing_velocity_trace(), constant_curvature_metric("euclidean")),
        lambda: geodesic_curvature(
            constant_curvature_metric("euclidean"), CurveSample((0.4, -0.5), (0.0, 0.0), (0.0, 0.0))
        ),
    ],
    ids=[
        "fundamental_tensor", "projective_residual", "projective_field_residual", "magnetic_residual", "trace",
        "geodesic_curvature",
    ],
)
def test_zero_vector_guards_name_the_point(call):
    with pytest.raises(EvaluationError, match=r"at \(0\.4, -0\.5\)"):
        call()


_NORM_FIELDS = {
    **{m: lambda m=m: constant_curvature_metric(m) for m in ("euclidean", "sphere", "hyperbolic")},
    "c+": lambda: metric_entry("c+").alpha,
    "c-": lambda: metric_entry("c-").alpha,
    "liouville[c+]": lambda: liouville_candidate(metric_entry("c+").alpha),
    "sheared": lambda: _sheared_metric(),
}


@pytest.mark.parametrize("name", list(_NORM_FIELDS))
def test_norm_on_arrays_matches_the_scalar_path_within_one_ulp(name):
    alpha = _NORM_FIELDS[name]()
    r = alpha.domain.shrunk(0.95)
    rng = np.random.default_rng(11)
    xs, ys = rng.uniform(r.x0, r.x1, 20000), rng.uniform(r.y0, r.y1, 20000)
    us, vs = rng.normal(size=20000), rng.normal(size=20000)
    got = alpha.norm(xs, ys, (us, vs))
    want = np.array([alpha.norm(*map(float, p), (float(u), float(v))) for *p, u, v in zip(xs, ys, us, vs)])
    assert got.shape == want.shape and got.dtype == np.float64
    assert np.array_equal(got, want), name


def test_beta_values():
    b = beta_for("euclidean", 1.0)
    assert b(0.0, 1.0) == (pytest.approx(0.5), pytest.approx(0.0, abs=1e-15))
    b2 = beta_for("sphere", 2.0)
    assert b2(0.0, 0.0) == (0.0, pytest.approx(0.0, abs=1e-15))
    with pytest.raises(ValueError):
        beta_for("euclidean", 0.0)


def test_area_form_values():
    e = constant_curvature_metric("euclidean")
    assert float(area_form(e, 1.0)(0.3, 0.4)) == pytest.approx(-1.0)
    h = constant_curvature_metric("hyperbolic")
    assert float(area_form(h, 1.0)(0.5, 0.0)) == pytest.approx(-16.0 / 9.0, rel=1e-13)
    s = constant_curvature_metric("sphere")
    assert float(area_form(s, 2.5)(0.0, 0.0)) == pytest.approx(-2.5)
    # lifted: Omega_12 = -1/w^2 with w = 1 - x^2 - y^2, so d_x Omega_12 = -4x/w^3
    j = lift(area_form(h, 1.0), (0.5, 0.0), order=1)
    assert float(j.value) == pytest.approx(-16.0 / 9.0, rel=1e-13)
    assert float(j.grad[0]) == pytest.approx(-2.0 / 0.75**3, rel=1e-13)


@pytest.mark.parametrize("model", ["euclidean", "sphere", "hyperbolic"])
@pytest.mark.parametrize("k", [0.5, 1.0, 2.0])
def test_exterior_derivative_matches_area_form(model, k):
    alpha = constant_curvature_metric(model)
    beta = beta_for(model, k)
    om = area_form(alpha, k)
    rng = np.random.default_rng(7)
    lim = 0.55 if model == "hyperbolic" else 1.5
    for _ in range(25):
        x, y = rng.uniform(-lim, lim, size=2)
        j1, j2 = lift(beta, (x, y), order=1)
        assert abs(float(j2.grad[0] - j1.grad[1]) - float(om(x, y))) <= 1e-10


def test_lorentz_euclidean_rotation():
    alpha = constant_curvature_metric("euclidean")
    J = LorentzOperator(alpha, area_form(alpha, 1.0))
    w = J(0.2, -0.4, (1.0, 0.0))
    assert np.allclose(w, [0.0, 1.0], atol=1e-14)
    w = J(0.2, -0.4, (0.3, 0.8))
    assert np.allclose(w, [-0.8, 0.3], atol=1e-14)
    m = J.matrix(0.0, 0.0)
    assert np.allclose(m @ m, -np.eye(2), atol=1e-14)


def test_lorentz_sphere_scaled_rotation():
    alpha = constant_curvature_metric("sphere")
    J = LorentzOperator(alpha, area_form(alpha, 3.0))
    m = J.matrix(0.0, 0.0)
    assert np.allclose(m, 3.0 * np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-13)
    assert np.allclose(m @ m, -9.0 * np.eye(2), atol=1e-12)


def test_randers_reduces_to_riemannian_for_zero_form():
    alpha = constant_curvature_metric("euclidean")
    F = randers_metric(alpha, lambda x, y: (0.0, 0.0), domain=Rectangle(-1, 1, -1, 1))
    assert F(0.3, 0.2, 0.6, -0.8) == pytest.approx(1.0)


def test_randers_a_formula():
    alpha = constant_curvature_metric("euclidean")
    beta = beta_for("euclidean", 1.0)
    F = randers_metric(alpha, beta, domain=Rectangle(-0.5, 0.5, -0.5, 0.5))
    x, y, u, v = 0.2, -0.4, 0.3, 0.9
    want = math.hypot(u, v) + 0.5 * (y * u - x * v)
    assert F(x, y, u, v) == pytest.approx(want, rel=1e-14)


def test_randers_positivity_guard():
    alpha = constant_curvature_metric("euclidean")
    big = lambda x, y: (2.0 * y, -2.0 * x)
    with pytest.raises(EvaluationError, match="positivity"):
        randers_metric(alpha, big, domain=Rectangle(0.6, 1.4, -0.4, 0.4))


def test_one_form_norm_values():
    alpha = constant_curvature_metric("hyperbolic")
    beta = beta_for("hyperbolic", 2.0)
    # |beta|^2 = (k^2/4) r^2 for this construction
    assert one_form_norm(alpha, beta, 0.3, 0.0) == pytest.approx(0.3, rel=1e-12)


def test_christoffel_euclidean_zero():
    g = christoffel(constant_curvature_metric("euclidean"), 0.4, -0.2)
    assert np.allclose(g, 0.0, atol=1e-14)


def test_christoffel_conformal_factor():
    # for alpha = phi * I with phi = e^{2 psi}: Gamma^x_xx = psi_x, Gamma^x_yy = -psi_x
    x, y = 0.3, -0.2
    g = christoffel(constant_curvature_metric("sphere"), x, y)
    r2 = x * x + y * y
    psi_x = -2.0 * x / (1.0 + r2)
    psi_y = -2.0 * y / (1.0 + r2)
    assert g[0][0][0] == pytest.approx(psi_x, rel=1e-12)
    assert g[0][1][1] == pytest.approx(-psi_x, rel=1e-12)
    assert g[0][0][1] == pytest.approx(psi_y, rel=1e-12)
    assert g[1][0][0] == pytest.approx(-psi_y, rel=1e-12)


def test_magnetic_residual_circle_solution():
    alpha = constant_curvature_metric("euclidean")
    om = area_form(alpha, 1.0)
    t = 0.0
    sample = CurveSample(
        pos=(math.sin(t), 1.0 - math.cos(t)),
        vel=(math.cos(t), math.sin(t)),
        acc=(-math.sin(t), math.cos(t)),
    )
    assert magnetic_residual(alpha, om, sample) == pytest.approx(0.0, abs=1e-14)


def test_magnetic_residual_straight_line():
    alpha = constant_curvature_metric("euclidean")
    om = area_form(alpha, 1.0)
    sample = CurveSample(pos=(0.7, 0.0), vel=(1.0, 0.0), acc=(0.0, 0.0))
    assert magnetic_residual(alpha, om, sample) == pytest.approx(1.0)


def test_geodesic_curvature_line_and_circle():
    alpha = constant_curvature_metric("euclidean")
    line = CurveSample(pos=(0.3, 0.1), vel=(1.0, 0.0), acc=(0.0, 0.0))
    assert geodesic_curvature(alpha, line) == 0.0
    t = 0.8
    circ = CurveSample(
        pos=(math.cos(t), math.sin(t)),
        vel=(-math.sin(t), math.cos(t)),
        acc=(-math.cos(t), -math.sin(t)),
    )
    assert geodesic_curvature(alpha, circ) == pytest.approx(1.0, rel=1e-12)


def test_geodesic_curvature_requires_unit_speed():
    alpha = constant_curvature_metric("euclidean")
    fast = CurveSample(pos=(0.0, 0.0), vel=(2.0, 0.0), acc=(0.0, 0.0))
    with pytest.raises(EvaluationError, match="reparametrize"):
        geodesic_curvature(alpha, fast)


def test_singular_metric_raises_and_names_the_point():
    alpha = MetricField(lambda x, y: (1.0, 1.0, 1.0), Rectangle(-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(EvaluationError, match=r"\(0\.1, 0\.2\)"):
        christoffel(alpha, 0.1, 0.2)
    sample = CurveSample(pos=(0.1, 0.2), vel=(1.0, 0.0), acc=(0.0, 0.0))
    with pytest.raises(EvaluationError, match="singular"):
        geodesic_curvature(alpha, sample)


def _sheared_metric():
    """A metric with an off-diagonal entry, which the three backgrounds lack."""
    return MetricField(
        lambda x, y: (2.0 + x * x, 0.2 + 0.3 * x * y, 1.5 + y * y), Rectangle(-1.0, 1.0, -1.0, 1.0)
    )


def _symbolic_christoffel(alpha):
    """Gamma(x, y) from sympy's derivatives of alpha's entries, solved in
    mpmath at 30 digits: an oracle that no jet enters."""
    x, y = sympy.symbols("x y")
    e11, e12, e22 = alpha.entries(x, y)
    a = sympy.Matrix([[e11, e12], [e12, e22]])
    d = (x, y)
    # first[l][j][k] = d_j a_lk + d_k a_lj - d_l a_jk
    first = [
        [[sympy.diff(a[l, k], d[j]) + sympy.diff(a[l, j], d[k]) - sympy.diff(a[j, k], d[l]) for k in (0, 1)]
         for j in (0, 1)]
        for l in (0, 1)
    ]
    fn = sympy.lambdify((x, y), (a, first), "mpmath")

    def gamma(px, py):
        with mpmath.workdps(30):
            m, f = fn(mpmath.mpf(px), mpmath.mpf(py))
            inv = mpmath.inverse(mpmath.matrix(m))
            return np.array(
                [[[float((inv[i, 0] * f[0][j][k] + inv[i, 1] * f[1][j][k]) / 2) for k in (0, 1)] for j in (0, 1)]
                 for i in (0, 1)]
            )

    return gamma


@pytest.mark.parametrize("model", ["sphere", "sheared"])
def test_connection_matches_a_symbolic_oracle(model):
    alpha = _sheared_metric() if model == "sheared" else constant_curvature_metric(model)
    gamma = _symbolic_christoffel(alpha)
    acc = np.array([0.25, -0.5])
    for x, y in alpha.domain.grid(3, 3):
        want = gamma(x, y)
        assert np.abs(np.array(christoffel(alpha, x, y)) - want).max() <= 1e-13 * np.abs(want).max(), (x, y)
        for vel in ((1.0, 0.0), (0.6, -0.8), (-1.3, 0.4)):
            want_acc = acc + np.einsum("ijk,j,k->i", want, vel, vel)
            got = np.array(covariant_acceleration(alpha, CurveSample((x, y), vel, tuple(acc))))
            assert np.abs(got - want_acc).max() <= 1e-13 * np.abs(want_acc).max(), (x, y, vel)


@pytest.mark.parametrize("model", ["euclidean", "sphere", "hyperbolic", "sheared"])
@pytest.mark.parametrize("k", [0.5, 2.0])
def test_magnetic_rhs_matches_its_definition(model, k):
    # (u, v)' = J (u, v) - Gamma((u, v), (u, v)), built with numpy
    alpha = _sheared_metric() if model == "sheared" else constant_curvature_metric(model)
    om = area_form(alpha, k)
    rhs = magnetic_rhs(alpha, om)
    for x, y in alpha.domain.grid(3, 3):
        gamma = christoffel(alpha, x, y)
        om12 = float(om(x, y))
        J = np.linalg.solve(alpha.matrix(x, y), [[0.0, om12], [-om12, 0.0]])
        for vel in ((1.0, 0.0), (0.0, -0.7), (0.6, 0.8), (-1.3, 0.4)):
            w = np.array(vel)
            want = np.concatenate([w, J @ w - np.einsum("ijk,j,k->i", gamma, w, w)])
            got = np.array(rhs((x, y, *vel)))
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max()), (x, y, vel)


def test_magnetic_rhs_of_a_singular_metric_raises_and_names_the_point():
    alpha = MetricField(lambda x, y: (1.0, 1.0, 1.0), Rectangle(-1.0, 1.0, -1.0, 1.0))
    rhs = magnetic_rhs(alpha, area_form(alpha, 1.0))
    with pytest.raises(EvaluationError, match=r"singular metric field at \(0\.1, 0\.2\)"):
        rhs((0.1, 0.2, 1.0, 0.0))


@pytest.mark.parametrize("k", [0.5, 2.0])
def test_lorentz_of_a_sheared_metric_matches_a_numpy_solve(k):
    alpha = _sheared_metric()
    om = area_form(alpha, k)
    J = LorentzOperator(alpha, om)
    for x, y in alpha.domain.grid(3, 3):
        om12 = float(om(x, y))
        want = np.linalg.solve(alpha.matrix(x, y), [[0.0, om12], [-om12, 0.0]])
        assert np.abs(J.matrix(x, y) - want).max() <= 1e-14 * np.abs(want).max(), (x, y)


def test_one_form_norm_of_a_sheared_metric_matches_a_numpy_solve():
    alpha = _sheared_metric()
    beta = lambda x, y: (0.3 - 0.2 * y, 0.1 + 0.4 * x)
    for x, y in alpha.domain.grid(3, 3):
        b = np.array(beta(x, y))
        want = math.sqrt(b @ np.linalg.solve(alpha.matrix(x, y), b))
        assert one_form_norm(alpha, beta, x, y) == pytest.approx(want, rel=1e-14), (x, y)


@pytest.mark.parametrize("entries", [(1.0, 0.0, -1.0), (-1.0, 0.0, -1.0)], ids=["indefinite", "negative"])
def test_one_form_norm_rejects_a_metric_that_is_not_positive_definite(entries):
    alpha = MetricField(lambda x, y: entries, Rectangle(-1.0, 1.0, -1.0, 1.0))
    beta = lambda x, y: (0.3, 0.1)
    with pytest.raises(EvaluationError, match=r"not positive definite at \(0\.1, 0\.2\)"):
        one_form_norm(alpha, beta, 0.1, 0.2)
    with pytest.raises(EvaluationError, match="not positive definite"):
        randers_metric(alpha, beta, domain=Rectangle(-0.5, 0.5, -0.5, 0.5))


@pytest.mark.parametrize("entries", [(1.0, 0.0, -1.0), (-1.0, 0.0, -1.0)], ids=["indefinite", "negative"])
@pytest.mark.parametrize(
    "call",
    [
        lambda alpha, om: om(0.1, 0.2),
        lambda alpha, om: lift(om, (0.1, 0.2)),
        lambda alpha, om: magnetic_rhs(alpha, om)((0.1, 0.2, 1.0, 0.0)),
    ],
    ids=["area_form", "area_form_lifted", "magnetic_rhs"],
)
def test_area_form_and_magnetic_rhs_reject_a_metric_that_is_not_positive_definite(entries, call):
    alpha = MetricField(lambda x, y: entries, Rectangle(-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(EvaluationError, match=r"not positive definite at \(0\.1, 0\.2\)"):
        call(alpha, area_form(alpha, 1.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda alpha, om: one_form_norm(alpha, beta_for("euclidean", 1.0), 0.1, 0.2),
        lambda alpha, om: LorentzOperator(alpha, om)(0.1, 0.2, (1.0, 0.0)),
        lambda alpha, om: magnetic_residual(alpha, om, CurveSample((0.1, 0.2), (1.0, 0.0), (0.0, 0.0))),
        lambda alpha, om: om(0.1, 0.2),
    ],
    ids=["one_form_norm", "lorentz_operator", "magnetic_residual", "area_form"],
)
def test_pointwise_algebra_of_a_singular_metric_names_the_point(call):
    alpha = MetricField(lambda x, y: (1.0, 1.0, 1.0), Rectangle(-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(EvaluationError, match=r"singular metric field at \(0\.1, 0\.2\)"):
        call(alpha, area_form(alpha, 1.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda alpha, om: christoffel(alpha, 0.1, 0.2),
        lambda alpha, om: LorentzOperator(alpha, om)(0.1, 0.2, (1.0, 0.0)),
        lambda alpha, om: one_form_norm(alpha, beta_for("euclidean", 1.0), 0.1, 0.2),
        lambda alpha, om: magnetic_rhs(alpha, om)((0.1, 0.2, 1.0, 0.0)),
    ],
    ids=["christoffel", "lorentz_operator", "one_form_norm", "magnetic_rhs"],
)
def test_numerically_singular_metric_names_the_point(call):
    # det = 3 * (1/3) - (1 + 2^-52)^2 rounds to -2^-51, not to 0
    alpha = MetricField(lambda x, y: (3.0, 1.0 + 2.0**-52, 1.0 / 3.0), Rectangle(-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(EvaluationError, match=r"singular metric field at \(0\.1, 0\.2\)"):
        call(alpha, area_form(alpha, 1.0))
