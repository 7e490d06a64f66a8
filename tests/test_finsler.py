import math

import mpmath
import numpy as np
import pytest
import sympy

from projspray.finsler import (
    FinslerMetric,
    Rectangle,
    Spray,
    checked_det,
    fundamental_tensor,
    geodesic_spray,
    induced_ode_direct,
    induced_odes,
    is_strongly_convex,
    levi_civita,
    min_eigenvalue_2x2,
    projective_residual,
)
from projspray.catalog import METRIC_KEYS, metric_entry
from projspray.jets import EvaluationError, exp, jet_value, lift, seed_jets, sqrt

BOX = Rectangle(-0.5, 0.5, -0.5, 0.5)


def euclidean_metric():
    return FinslerMetric(lambda x, y, u, v: sqrt(u * u + v * v), BOX)


def randers_a_metric():
    def F(x, y, u, v):
        return sqrt(u * u + v * v) + 0.5 * (y * u - x * v)

    return FinslerMetric(F, BOX)


def metric_c_minus():
    def F(x, y, u, v):
        return sqrt(exp(3.0 * x) * u * u + exp(x) * v * v)

    return FinslerMetric(F, BOX)


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


@pytest.mark.parametrize(
    "key, k",
    [(key, k) for key in METRIC_KEYS for k in ((0.5, 1.0, 2.0) if key in ("bk+", "bk-") else (1.0,))],
)
def test_fundamental_tensor_is_half_the_hessian_of_the_lifted_square(key, k):
    metric = metric_entry(key, k=k).metric
    box = metric.domain.shrunk(0.9)
    rng = np.random.default_rng(25)
    for _ in range(8):
        x, y = rng.uniform(box.x0, box.x1), rng.uniform(box.y0, box.y1)
        t, r = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 1.5)
        u, v = r * math.cos(t), r * math.sin(t)
        h11, h12, h22 = lift(lambda uf, vf: metric.F(x, y, uf, vf) ** 2, (u, v)).hess_packed
        g11, g12, g22 = 0.5 * h11, 0.5 * h12, 0.5 * h22
        assert fundamental_tensor(metric, (x, y, u, v)) == ((g11, g12), (g12, g22)), (x, y, u, v)


def _spray_from_the_lifted_square(metric):
    """The geodesic spray as it was formed from a lift of F^2 in (x, y)."""
    F = metric.F

    def pair(x, y, u, v):
        def base_jet(uf, vf):
            j = lift(lambda xb, yb: F(xb, yb, uf, vf) ** 2, (x, y), order=1)
            return j.value, *j.grad

        h, h_x, h_y = (j.hess_packed for j in lift(base_jet, (u, v)))
        k1, k2 = levi_civita(h, h_x, h_y, (u, v), "fundamental tensor", (x, y, u, v))
        return 0.25 * k1, 0.25 * k2

    return pair


@pytest.mark.parametrize(
    "key, k",
    [(key, k) for key in METRIC_KEYS for k in ((0.5, 1.0, 2.0) if key in ("bk+", "bk-") else (1.0,))],
)
def test_geodesic_spray_equals_the_spray_of_the_lifted_square_bit_for_bit(key, k):
    metric = metric_entry(key, k=k).metric
    spray, reference = geodesic_spray(metric).pair, _spray_from_the_lifted_square(metric)
    box = metric.domain.shrunk(0.9)
    rng = np.random.default_rng(26)
    for _ in range(6):
        x, y = rng.uniform(box.x0, box.x1), rng.uniform(box.y0, box.y1)
        t, r = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 1.5)
        at = (x, y, r * math.cos(t), r * math.sin(t))
        assert spray(*at) == reference(*at), at
        # one order-1 t-lift along a direction, as projective_field_residual lifts the spray
        d = rng.uniform(-1.0, 1.0, 4)

        def along(pair):
            return lift(lambda s: pair(*(c + dc * s for c, dc in zip(at, d))), (0.0,), order=1)

        for got, want in zip(along(spray), along(reference)):
            assert (got.value, got.grad) == (want.value, want.grad), at


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
    m = FinslerMetric(lambda x, y, u, v: u, BOX)
    p = induced_ode_direct(m)
    with pytest.raises(EvaluationError):
        p.fplus(0.0, 0.0, 0.5)


def test_singular_fundamental_tensor_names_point():
    m = FinslerMetric(lambda x, y, u, v: u, BOX)
    s = geodesic_spray(m)
    with pytest.raises(EvaluationError, match="singular"):
        s.coefficients(0.0, 0.0, 1.0, 0.5)


def _symbolic_bk_spray(s, k):
    """G(x, y, u, v) of F = (|xi| + k (y u - x v)/2) / (1 + s (x^2 + y^2)),
    written out here, from sympy's derivatives of F^2 solved in mpmath at 30
    digits: G = 1/2 h^{-1} (M xi - grad_x F^2), with h the fiber Hessian of
    F^2 and M_lk = d^2 F^2 / d xi_l d x_k.  An oracle that no jet enters."""
    x, y, u, v = sympy.symbols("x y u v", real=True)
    F = (sympy.sqrt(u * u + v * v) + sympy.Rational(k) * (y * u - x * v) / 2) / (1 + s * (x * x + y * y))
    L = F * F
    fiber, base = (u, v), (x, y)
    h = [[sympy.diff(L, a, b) for b in fiber] for a in fiber]
    m = [[sympy.diff(L, a, b) for b in base] for a in fiber]
    grad = [sympy.diff(L, b) for b in base]
    fn = sympy.lambdify((x, y, u, v), (F, h, m, grad), "mpmath")

    def spray(*at):
        with mpmath.workdps(30):
            p = [mpmath.mpf(c) for c in at]
            f, hv, mv, gv = fn(*p)
            rhs = mpmath.matrix([mv[i][0] * p[2] + mv[i][1] * p[3] - gv[i] for i in (0, 1)])
            G = mpmath.lu_solve(mpmath.matrix(hv), rhs) / 2
            return float(f), np.array([float(G[0]), float(G[1])])

    return spray


@pytest.mark.parametrize("key", ["bk+", "bk-"])
def test_geodesic_spray_matches_a_symbolic_oracle(key):
    entry = metric_entry(key, k=0.5)
    oracle = _symbolic_bk_spray(1 if key == "bk+" else -1, 0.5)
    spray = geodesic_spray(entry.metric)
    rng = np.random.default_rng(16)
    for _ in range(10):
        x, y = rng.uniform(-0.4, 0.4, 2)
        t, r = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.5, 1.5)
        at = (x, y, r * math.cos(t), r * math.sin(t))
        F, want = oracle(*at)
        assert entry.metric(*at) == pytest.approx(F, rel=1e-14), at
        got = np.array(spray.coefficients(*at))
        assert np.abs(got - want).max() <= 2e-14 * np.abs(want).max(), at


def test_checked_det_on_arrays_matches_floats_and_names_the_first_singular_point():
    xs, ys = np.array([0.1, 0.2, 0.3]), np.array([0.4, 0.5, 0.6])
    h11, h12, h22 = np.array([2.0, 1.5, 3.0]), np.array([0.5, -0.2, 0.2]), np.array([1.0, 1.0, 2.0])
    det = checked_det(h11, h12, h22, "metric field", (xs, ys))
    assert det.tolist() == [checked_det(*e, "metric field", (0.0, 0.0)) for e in zip(h11, h12, h22)]
    h12[1:] = np.sqrt(h11[1:] * h22[1:])
    with pytest.raises(EvaluationError, match=r"singular metric field at \(0\.2, 0\.5\)"):
        checked_det(h11, h12, h22, "metric field", (xs, ys))


def test_geodesic_spray_of_fiber_constant_metric_raises():
    m = FinslerMetric(lambda x, y, u, v: 1.0 + x * x, BOX)
    s = geodesic_spray(m)
    with pytest.raises(EvaluationError, match="singular"):
        s.coefficients(0.1, 0.2, 1.0, 0.5)


# --- reversibility -------------------------------------------------------


def test_reversibility_witness():
    pc = induced_odes(spray_c_minus())
    pa = induced_odes(spray_a())
    for (x, y, z) in [(0.1, 0.2, 0.5), (-0.2, 0.3, -1.5)]:
        assert pc.fminus(x, y, z) == pytest.approx(pc.fplus(x, y, z), rel=1e-13, abs=1e-15)
        assert pa.fminus(x, y, z) == pytest.approx(-pa.fplus(x, y, z), rel=1e-13)
        assert pa.fminus(x, y, z) != pytest.approx(pa.fplus(x, y, z), rel=1e-3)


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
    rep = is_strongly_convex(euclidean_metric(), BOX)
    assert rep.ok
    assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-12)


def test_randers_a_strongly_convex_near_origin():
    rep = is_strongly_convex(randers_a_metric(), BOX, ndirs=16)
    assert rep.ok


def test_randers_with_large_one_form_fails_convexity():
    def F(x, y, u, v):
        return sqrt(u * u + v * v) + 2.0 * (y * u - x * v)

    m = FinslerMetric(F, Rectangle(0.6, 1.4, -0.4, 0.4))
    rep = is_strongly_convex(m, m.domain)
    assert not rep.ok
    assert rep.min_eigenvalue < 0.0


@pytest.mark.parametrize(
    "nan_from_x, first",
    [(-math.inf, r"-0\.45, -0\.45"), (0.0, r"0\.225\d*, -0\.45")],
    ids=["everywhere", "where x > 0"],
)
def test_convexity_refuses_a_metric_that_is_nan_at_a_sample(nan_from_x, first):
    # NaN compares false with the running minimum, so only its own check can catch it
    def F(x, y, u, v):
        return sqrt(u * u + v * v) * (math.nan if x > nan_from_x else 1.0)

    with pytest.raises(EvaluationError, match=rf"eigenvalue nan at \({first}, "):
        is_strongly_convex(FinslerMetric(F, BOX), BOX)


def test_geodesic_spray_of_a_metric_that_is_nan_names_the_point():
    def F(x, y, u, v):
        return sqrt(u * u + v * v) * (math.nan if jet_value(x) > 0.2 else 1.0)

    spray = geodesic_spray(FinslerMetric(F, BOX))
    assert spray.pair(0.1, 0.1, 1.0, 0.5) == (0.0, 0.0)
    with pytest.raises(EvaluationError, match=r"singular fundamental tensor at \(0\.3, 0\.1, 1\.0, 0\.5\)"):
        spray.pair(0.3, 0.1, 1.0, 0.5)


@pytest.mark.parametrize(
    "g",
    [
        [[1.0, 1.0 - 1e-9], [1.0 - 1e-9, 1.0]],  # nearly singular
        [[1.0, 0.0], [0.0, 1.0]],
        [[1.0, 2.0], [2.0, -3.0]],  # indefinite
    ],
)
def test_closed_form_min_eigenvalue_matches_eigvalsh(g):
    expected = float(np.linalg.eigvalsh(np.array(g))[0])
    lo = min_eigenvalue_2x2(g[0][0], g[0][1], g[1][1])
    assert abs(lo - expected) <= 1e-14 * abs(expected)
    assert math.copysign(1.0, lo) == math.copysign(1.0, expected)


@pytest.mark.parametrize("key", METRIC_KEYS)
def test_convexity_min_eigenvalue_matches_eigvalsh_at_witness(key):
    entry = metric_entry(key)
    rep = is_strongly_convex(entry.metric, entry.domain)
    assert rep.ok
    expected = float(np.linalg.eigvalsh(fundamental_tensor(entry.metric, rep.witness))[0])
    assert abs(rep.min_eigenvalue - expected) <= 1e-14 * abs(expected)


@pytest.mark.parametrize(
    "a, b, c",
    [
        (4.0, 1.0, 0.25 + 1e-10),  # m - r cancels
        (3.0, 1.7, 1.7 * 1.7 / 3.0 + 1e-12),  # a*c - b*b rounded cancels
    ],
)
def test_closed_form_min_eigenvalue_keeps_relative_accuracy(a, b, c):
    # nearly singular with a != c, against the exact eigenvalue of the rounded entries
    with mpmath.workdps(50):
        ma, mb, mc = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        exact = float((ma + mc) / 2 - mpmath.sqrt(((ma - mc) / 2) ** 2 + mb * mb))
    assert abs(min_eigenvalue_2x2(a, b, c) - exact) <= 1e-14 * exact


def test_checked_det_of_a_singular_float_triple_names_the_field_and_the_point():
    assert checked_det(2.0, 0.5, 1.0, "metric field", (0.1, 0.2)) == 2.0 * 1.0 - 0.5 * 0.5
    at = (0.1, 0.2, 1.0, -0.5)
    # det = 3 * (1/3) - (1 + 2^-52)^2 rounds to -2^-51, not to 0
    for h in ((1.0, 1.0, 1.0), (3.0, 1.0 + 2.0**-52, 1.0 / 3.0), (0.0, 0.0, 0.0), (1e-20, 0.0, 1.0)):
        with pytest.raises(EvaluationError, match=r"singular fundamental tensor at \(0\.1, 0\.2, 1\.0, -0\.5\)"):
            checked_det(*h, "fundamental tensor", at)
    # a jet coordinate is named by its value
    with pytest.raises(EvaluationError, match=r"singular metric field at \(0\.1, 0\.2\)"):
        checked_det(1.0, 1.0, 1.0, "metric field", seed_jets((0.1, 0.2)))


def test_checked_det_of_nan_and_numpy_scalars():
    # NaN fails every comparison, so the guard asks det to pass rather than to fail
    singular = r"singular metric field at \(0\.1, 0\.2\)"
    for h in ((math.nan, 0.0, 1.0), (1.0, math.nan, 1.0), (1.0, 0.0, math.nan)):
        for entries in (h, tuple(map(np.float64, h)), (seed_jets((h[0],))[0], *h[1:])):
            with pytest.raises(EvaluationError, match=singular):
                checked_det(*entries, "metric field", (0.1, 0.2))
    with pytest.raises(EvaluationError, match=r"singular metric field at \(0\.2, 0\.5\)"):
        checked_det(np.array([1.0, math.nan, 2.0]), 0.0, 1.0, "metric field", (np.array([0.1, 0.2, 0.3]), 0.5))
    det = checked_det(np.float64(2.0), np.float64(0.5), np.float64(1.0), "metric field", (0.1, 0.2))
    assert type(det) is np.float64 and det == 1.75
    with pytest.raises(EvaluationError, match=r"singular metric field at \(0\.1, 0\.2\)"):
        checked_det(np.float64(1.0), np.float64(1.0), np.float64(1.0), "metric field", (0.1, 0.2))
