import math

import numpy as np
import pytest

from projspray.finsler import Rectangle
from projspray.jets import EvaluationError, ScalarField
from projspray.randers import (
    CurveSample,
    MetricField,
    area_form,
    beta_for,
    christoffel,
    constant_curvature_metric,
    exterior_derivative,
    geodesic_curvature,
    lorentz,
    magnetic_residual,
    one_form_norm,
    randers_metric,
)


def test_constant_curvature_values():
    assert np.allclose(constant_curvature_metric("euclidean").matrix(0.7, -0.3), np.eye(2))
    assert np.allclose(constant_curvature_metric("sphere").matrix(0.0, 0.0), np.eye(2))
    m = constant_curvature_metric("hyperbolic").matrix(0.5, 0.0)
    assert np.allclose(m, (16.0 / 9.0) * np.eye(2), rtol=1e-14)


def test_hyperbolic_outside_disk_raises():
    with pytest.raises(EvaluationError):
        constant_curvature_metric("hyperbolic").matrix(1.2, 0.0)


def test_beta_values():
    b = beta_for("euclidean", 1.0)
    assert b.at(0.0, 1.0) == (pytest.approx(0.5), pytest.approx(0.0, abs=1e-15))
    b2 = beta_for("sphere", 2.0)
    assert b2.at(0.0, 0.0) == (0.0, pytest.approx(0.0, abs=1e-15))
    with pytest.raises(ValueError):
        beta_for("euclidean", 0.0)


def test_area_form_values():
    e = constant_curvature_metric("euclidean")
    assert float(area_form(e, 1.0).omega12(0.3, 0.4)) == pytest.approx(-1.0)
    h = constant_curvature_metric("hyperbolic")
    assert float(area_form(h, 1.0).omega12(0.5, 0.0)) == pytest.approx(-16.0 / 9.0, rel=1e-13)
    s = constant_curvature_metric("sphere")
    assert float(area_form(s, 2.5).omega12(0.0, 0.0)) == pytest.approx(-2.5)


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
        assert abs(exterior_derivative(beta, (x, y)) - float(om.omega12(x, y))) <= 1e-10


def test_lorentz_euclidean_rotation():
    alpha = constant_curvature_metric("euclidean")
    J = lorentz(alpha, area_form(alpha, 1.0))
    w = J(0.2, -0.4, (1.0, 0.0))
    assert np.allclose(w, [0.0, 1.0], atol=1e-14)
    w = J(0.2, -0.4, (0.3, 0.8))
    assert np.allclose(w, [-0.8, 0.3], atol=1e-14)
    m = J.matrix(0.0, 0.0)
    assert np.allclose(m @ m, -np.eye(2), atol=1e-14)


def test_lorentz_sphere_scaled_rotation():
    alpha = constant_curvature_metric("sphere")
    J = lorentz(alpha, area_form(alpha, 3.0))
    m = J.matrix(0.0, 0.0)
    assert np.allclose(m, 3.0 * np.array([[0.0, -1.0], [1.0, 0.0]]), atol=1e-13)
    assert np.allclose(m @ m, -9.0 * np.eye(2), atol=1e-12)


def test_randers_reduces_to_riemannian_for_zero_form():
    alpha = constant_curvature_metric("euclidean")
    zero = beta_for("euclidean", 1.0)
    zero = type(zero)(
        ScalarField(2, lambda x, y: 0.0), ScalarField(2, lambda x, y: 0.0)
    )
    F = randers_metric(alpha, zero, domain=Rectangle(-1, 1, -1, 1))
    assert F(0.3, 0.2, 0.6, -0.8) == pytest.approx(1.0)


def test_randers_a_formula():
    alpha = constant_curvature_metric("euclidean")
    beta = beta_for("euclidean", 1.0)
    F = randers_metric(alpha, beta, domain=Rectangle(-0.5, 0.5, -0.5, 0.5))
    x, y, u, v = 0.2, -0.4, 0.3, 0.9
    want = math.hypot(u, v) + 0.5 * (y * u - x * v)
    assert F(x, y, u, v) == pytest.approx(want, rel=1e-14)
    assert F.kind == "randers"


def test_randers_positivity_guard():
    alpha = constant_curvature_metric("euclidean")
    big = beta_for("euclidean", 1.0)
    big = type(big)(
        ScalarField(2, lambda x, y: 2.0 * y), ScalarField(2, lambda x, y: -2.0 * x)
    )
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
    assert g[0, 0, 0] == pytest.approx(psi_x, rel=1e-12)
    assert g[0, 1, 1] == pytest.approx(-psi_x, rel=1e-12)
    assert g[0, 0, 1] == pytest.approx(psi_y, rel=1e-12)
    assert g[1, 0, 0] == pytest.approx(-psi_y, rel=1e-12)


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
    one = ScalarField(2, lambda x, y: 1.0)
    alpha = MetricField(one, one, one, Rectangle(-1.0, 1.0, -1.0, 1.0))
    with pytest.raises(EvaluationError, match=r"\(0\.1, 0\.2\)"):
        christoffel(alpha, 0.1, 0.2)
    sample = CurveSample(pos=(0.1, 0.2), vel=(1.0, 0.0), acc=(0.0, 0.0))
    with pytest.raises(EvaluationError, match="singular"):
        geodesic_curvature(alpha, sample)
