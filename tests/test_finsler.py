import math

import numpy as np
import pytest

from projspray.finsler import (
    FinslerMetric,
    OdePair,
    Rectangle,
    Spray,
    fundamental_tensor,
    geodesic_spray,
    induced_ode_direct,
    induced_odes,
    is_strongly_convex,
    projective_residual,
    smoothness_at_zero,
    transpose_odes,
)
from projspray.jets import EvaluationError, ScalarField, exp, sqrt

BOX = Rectangle(-0.5, 0.5, -0.5, 0.5)


def euclidean_metric():
    return FinslerMetric(
        ScalarField(4, lambda x, y, u, v: sqrt(u * u + v * v)), "riemannian", BOX, "euclidean"
    )


def randers_a_metric():
    def F(x, y, u, v):
        return sqrt(u * u + v * v) + 0.5 * (y * u - x * v)

    return FinslerMetric(ScalarField(4, F), "randers", BOX, "a")


def metric_c_minus():
    def F(x, y, u, v):
        return sqrt(exp(3.0 * x) * u * u + exp(x) * v * v)

    return FinslerMetric(ScalarField(4, F), "riemannian", BOX, "c-")


def spray_a():
    def pair(x, y, u, v):
        r = sqrt(u * u + v * v)
        return 0.5 * r * v, -0.5 * r * u

    return Spray(pair, BOX, "a")


def spray_c_minus():
    def pair(x, y, u, v):
        return 0.25 * (3.0 * u * u - exp(-2.0 * x) * v * v), 0.5 * u * v

    return Spray(pair, BOX, "c-")


def flat_spray():
    return Spray(lambda *a: (0.0, 0.0), Rectangle(-3, 3, -3, 3), "flat")


# --- fundamental tensor -------------------------------------------------


def test_fundamental_tensor_euclidean_identity():
    g = fundamental_tensor(euclidean_metric(), (0.3, -0.2, 0.7, 0.4))
    assert np.allclose(g, np.eye(2), atol=1e-12)


def test_fundamental_tensor_randers_at_origin():
    g = fundamental_tensor(randers_a_metric(), (0.0, 0.0, 1.0, 0.0))
    assert np.allclose(g, np.eye(2), atol=1e-12)


def test_fundamental_tensor_c_minus_at_x0():
    g = fundamental_tensor(metric_c_minus(), (0.0, 0.0, 1.0, 1.0))
    assert np.allclose(g, np.eye(2), atol=1e-12)


# --- homogeneity --------------------------------------------------------


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.3])
def test_metric_positively_1_homogeneous(lam):
    for m in (euclidean_metric(), randers_a_metric(), metric_c_minus()):
        for (u, v) in [(1.0, 0.3), (-0.4, 0.9), (0.2, -1.1)]:
            a = m(0.1, -0.2, lam * u, lam * v)
            b = lam * m(0.1, -0.2, u, v)
            assert abs(a - b) <= 1e-12 * abs(b)


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.3])
def test_spray_positively_2_homogeneous(lam):
    for s in (spray_a(), spray_c_minus()):
        for (u, v) in [(1.0, 0.3), (-0.4, 0.9)]:
            g1a, g2a = s.coefficients(0.1, -0.2, lam * u, lam * v)
            g1b, g2b = s.coefficients(0.1, -0.2, u, v)
            assert abs(g1a - lam * lam * g1b) <= 1e-12 * (abs(g1a) + 1e-30)
            assert abs(g2a - lam * lam * g2b) <= 1e-12 * (abs(g2a) + 1e-30)


# --- sprays and induced equations ----------------------------------------


def test_geodesic_spray_of_euclidean_vanishes():
    s = geodesic_spray(euclidean_metric())
    for (u, v) in [(1.0, 0.0), (0.3, -0.8)]:
        g1, g2 = s.coefficients(0.2, 0.1, u, v)
        assert abs(g1) < 1e-14 and abs(g2) < 1e-14


def test_induced_odes_of_flat_spray_vanish():
    p = induced_odes(flat_spray())
    assert p.fplus(0.1, 0.2, 0.7) == 0.0
    assert p.fminus(0.1, 0.2, 0.7) == 0.0


def test_induced_odes_spray_a():
    p = induced_odes(spray_a())
    for z in (-1.5, 0.0, 0.4, 2.0):
        want = (1.0 + z * z) ** 1.5
        assert p.fplus(0.3, -0.1, z) == pytest.approx(want, rel=1e-13)
        assert p.fminus(0.3, -0.1, z) == pytest.approx(-want, rel=1e-13)


def test_induced_odes_spray_c_minus():
    p = induced_odes(spray_c_minus())
    for (x, z) in [(0.0, 2.0), (0.2, -1.0), (-0.3, 0.5)]:
        want = 0.5 * z - 0.5 * math.exp(-2.0 * x) * z**3
        assert p.fplus(x, 0.1, z) == pytest.approx(want, rel=1e-13, abs=1e-15)
    assert p.fplus(0.0, 0.0, 2.0) == pytest.approx(-3.0, rel=1e-13)


def test_direct_equation_euclidean_zero():
    p = induced_ode_direct(euclidean_metric())
    assert p.fplus(0.1, 0.2, 0.5) == pytest.approx(0.0, abs=1e-14)


def test_direct_equation_randers_a():
    # F_y = u/2, F_xv = -1/2, F_yv = 0, F_vv = u^2/|xi|^3 at u=1
    p = induced_ode_direct(randers_a_metric())
    for z in (-2.0, -0.3, 0.0, 1.0, 2.0):
        want = (1.0 + z * z) ** 1.5
        assert p.fplus(0.2, -0.4, z) == pytest.approx(want, rel=1e-12)


def test_pipelines_agree_on_grid():
    for metric, spray in [
        (metric_c_minus(), None),
        (randers_a_metric(), None),
        (euclidean_metric(), None),
    ]:
        direct = induced_ode_direct(metric)
        via_spray = induced_odes(geodesic_spray(metric))
        for (x, y) in metric.domain.grid(3, 3):
            for z in np.linspace(-2, 2, 5):
                a = direct.fplus(x, y, float(z))
                b = via_spray.fplus(x, y, float(z))
                assert abs(a - b) <= 1e-9
                am = direct.fminus(x, y, float(z))
                bm = via_spray.fminus(x, y, float(z))
                assert abs(am - bm) <= 1e-9


def test_direct_matches_catalog_c_minus():
    p = induced_ode_direct(metric_c_minus())
    for (x, z) in [(0.0, 2.0), (0.25, -1.2)]:
        want = 0.5 * z - 0.5 * math.exp(-2.0 * x) * z**3
        assert p.fplus(x, 0.0, z) == pytest.approx(want, rel=1e-11, abs=1e-12)


def test_degenerate_fiber_direction_raises():
    m = FinslerMetric(ScalarField(4, lambda x, y, u, v: u), "general", BOX, "deg")
    p = induced_ode_direct(m)
    with pytest.raises(EvaluationError):
        p.fplus(0.0, 0.0, 0.5)


def test_singular_fundamental_tensor_names_point():
    m = FinslerMetric(ScalarField(4, lambda x, y, u, v: u), "general", BOX, "deg")
    s = geodesic_spray(m)
    with pytest.raises(EvaluationError, match="singular"):
        s.coefficients(0.0, 0.0, 1.0, 0.5)


# --- reversibility -------------------------------------------------------


def test_reversibility_witness():
    pc = induced_odes(spray_c_minus())
    pa = induced_odes(spray_a())
    for (x, y, z) in [(0.1, 0.2, 0.5), (-0.2, 0.3, -1.5)]:
        assert pc.fminus(x, y, z) == pytest.approx(pc.fplus(x, y, z), rel=1e-13, abs=1e-15)
        assert pa.fminus(x, y, z) == pytest.approx(-pa.fplus(x, y, z), rel=1e-13)
        assert pa.fminus(x, y, z) != pytest.approx(pa.fplus(x, y, z), rel=1e-3)


# --- transposed equations ------------------------------------------------


def test_transpose_of_zero_pair():
    zero = ScalarField(3, lambda x, y, z: 0.0)
    t = transpose_odes(OdePair(zero, zero))
    assert t.gplus(0.1, 0.2, 0.7) == 0.0
    assert t.gplus(0.1, 0.2, -0.7) == 0.0


def test_transpose_spray_a_closed_form():
    t = transpose_odes(induced_odes(spray_a()))
    for z in (-1.4, -0.3, 0.6, 2.0):
        assert t.gplus(0.1, 0.0, z) == pytest.approx(-((1.0 + z * z) ** 1.5), rel=1e-12)
    # the z = 0 value is the extrapolated limit of the same expression
    assert t.gplus(0.1, 0.0, 0.0) == pytest.approx(-1.0, abs=1e-5)


def test_transpose_quartic_power_is_singular():
    C = 0.7
    f = ScalarField(3, lambda x, y, z: C * z**4)
    t = transpose_odes(OdePair(f, f))
    assert t.gplus(0.0, 0.0, 0.5) == pytest.approx(-C / 0.5, rel=1e-13)
    assert abs(t.gplus(0.0, 0.0, 1e-3)) > 1e2  # blows up toward z = 0


def test_smoothness_spray_a():
    t = transpose_odes(induced_odes(spray_a()))
    rep = smoothness_at_zero(t, (0.1, -0.2))
    assert rep.smooth


def test_smoothness_c_plus_pair():
    f = ScalarField(3, lambda x, y, z: 0.5 * z + 0.5 * exp(-2.0 * x) * z**3)
    rep = smoothness_at_zero(transpose_odes(OdePair(f, f)), (0.2, 0.1))
    assert rep.smooth


def test_smoothness_mismatch_for_unmatched_constants():
    import projspray.jets as J

    def c1(x, y, z):
        return (z * z + 1.0) ** 1.5 * J.exp(-1.0 * J.arctan(z))

    f = ScalarField(3, c1)
    rep = smoothness_at_zero(transpose_odes(OdePair(f, f)), (0.0, 0.0))
    assert not rep.smooth
    orders = [m[0] for m in rep.mismatches]
    assert 0 in orders
    lim_above = -math.exp(-math.pi / 2)
    lim_below = math.exp(math.pi / 2)
    m0 = rep.mismatches[orders.index(0)]
    assert m0[1] == pytest.approx(lim_above, abs=1e-4)
    assert m0[2] == pytest.approx(lim_below, abs=1e-4)


# --- projective residual -------------------------------------------------


def test_projective_residual_identical_sprays():
    s = spray_a()
    assert projective_residual(s, s, (0.1, 0.2, 0.7, -0.3)) == 0.0


def test_projective_residual_radial_perturbation():
    s = spray_a()

    def pair(x, y, u, v):
        g1, g2 = s.coefficients(x, y, u, v)
        rho = 1.5 * sqrt(u * u + v * v)
        return g1 - 0.5 * rho * u, g2 - 0.5 * rho * v

    perturbed = Spray(pair, BOX)
    for at in [(0.1, 0.2, 1.0, 0.3), (0.0, 0.0, -0.5, 0.8)]:
        assert projective_residual(s, perturbed, at) <= 1e-13


def test_geodesic_spray_matches_catalog_a():
    s_metric = geodesic_spray(randers_a_metric())
    s_cat = spray_a()
    for (x, y) in BOX.grid(3, 3):
        for (u, v) in [(1.0, 0.2), (-0.6, 0.8), (0.1, -1.0)]:
            assert projective_residual(s_metric, s_cat, (x, y, u, v)) <= 1e-9


# --- convexity -----------------------------------------------------------


def test_euclidean_strong_convexity():
    rep = is_strongly_convex(euclidean_metric())
    assert rep.ok
    assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-12)


def test_randers_a_strongly_convex_near_origin():
    rep = is_strongly_convex(randers_a_metric(), ndirs=16)
    assert rep.ok


def test_randers_with_large_one_form_fails_convexity():
    def F(x, y, u, v):
        return sqrt(u * u + v * v) + 2.0 * (y * u - x * v)

    m = FinslerMetric(ScalarField(4, F), "general", Rectangle(0.6, 1.4, -0.4, 0.4), "bad")
    rep = is_strongly_convex(m)
    assert not rep.ok
    assert rep.min_eigenvalue < 0.0
