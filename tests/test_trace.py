import dataclasses
import math

import numpy as np
import pytest

from projspray.catalog import SPRAY_KEYS, metric_entry, spray_entry
from projspray.finsler import Rectangle, Spray, geodesic_spray, induced_odes
from projspray.jets import EvaluationError, ScalarField
from projspray.randers import (
    CurveSample,
    area_form,
    constant_curvature_metric,
    geodesic_curvature,
    magnetic_rhs,
)
from projspray.trace import (
    DegenerateFitError,
    DomainError,
    GeodesicTrace,
    _rk4,
    circle_fit,
    curve_samples,
    integrate_flow,
    integrate_ode,
    integrate_spray,
    unit_speed_resample,
)
from test_randers import magnetic_defect


def test_flat_spray_straight_line():
    tr = integrate_spray(spray_entry("flat").spray, (0.0, 0.0, 1.0, 0.0), 1.0, 1e-2)
    assert not tr.domain_exit
    assert np.allclose((*tr.xy[-1], *tr.uv[-1]), (1.0, 0.0, 1.0, 0.0), atol=1e-12)


def test_spray_a_unit_circle():
    tr = integrate_spray(spray_entry("a").spray, (0.0, 0.0, 1.0, 0.0), 2 * math.pi, 1e-3)
    assert not tr.domain_exit
    # the step is an upper bound: ceil(2 pi / h) equal steps end at 2 pi
    assert len(tr) == math.ceil(2 * math.pi / 1e-3) + 1
    assert tr.t[-1] == 2 * math.pi
    assert float(np.diff(tr.t).max()) <= 1e-3
    # exact solution (sin t, 1 - cos t): closes after one period
    assert np.hypot(*tr.xy[-1]) <= 1e-6
    fit = circle_fit(tr)
    # leaving (0, 0) along +x, the centre (0, 1) to the left: positively oriented
    assert fit.center[0] == pytest.approx(0.0, abs=1e-6)
    assert fit.center[1] == pytest.approx(1.0, abs=1e-6)
    assert fit.radius == pytest.approx(1.0, abs=1e-6)
    assert fit.rms <= 1e-9


def test_spray_c_plus_domain_handling():
    s = spray_entry("c+").spray
    with pytest.raises(DomainError):
        integrate_spray(s, (-5.0, 0.0, 1.0, 0.0), 1.0, 1e-3)
    tr = integrate_spray(s, (-0.3, 0.0, -1.0, 0.0), 3.0, 1e-3)
    # moving toward the domain wall: either still inside or flagged exit
    assert tr.domain_exit or s.domain.contains(*tr.xy[-1])


def test_zero_fiber_vector_rejected():
    with pytest.raises(DomainError):
        integrate_spray(spray_entry("flat").spray, (0.0, 0.0, 0.0, 0.0), 1.0, 1e-2)


def test_integrate_ode_linear():
    c = integrate_ode(induced_odes(spray_entry("flat").spray).fplus, (0.0, 0.0, 1.0), 1.0, 1e-2)
    # y'' = 0 with slope 1 through the origin: y = x (the flat spray induces f = 0)
    assert c.y[-1] == pytest.approx(1.0, abs=1e-12)


def test_integrate_ode_circle_branch():
    pair = induced_odes(spray_entry("a").spray)
    c = integrate_ode(pair.fplus, (0.0, 0.0, 0.0), 0.5, 1e-3)
    want = 1.0 - np.sqrt(1.0 - c.x**2)
    assert float(np.abs(c.y - want).max()) <= 1e-8
    assert not c.blown_up


def test_integrate_ode_matches_spray_trace_c_minus():
    s = spray_entry("c-").spray
    tr = integrate_spray(s, (0.0, 0.0, 1.0, 0.2), 0.6, 1e-3)
    assert not tr.domain_exit
    pair = induced_odes(s)
    curve = integrate_ode(pair.fplus, (0.0, 0.0, 0.2), float(tr.xy[-1, 0]), 1e-3)
    yi = np.interp(tr.xy[:, 0], curve.x, curve.y)
    assert float(np.abs(yi - tr.xy[:, 1]).max()) <= 1e-7


def test_integrators_end_at_tmax_with_step_as_upper_bound():
    # tmax / step is not an integer: 4 steps of 0.25; a span far below the
    # step still takes one step to its end
    for tmax, step, n in ((1.0, 0.3, 5), (1e-12, 1e-2, 2)):
        tr = integrate_spray(spray_entry("flat").spray, (0.0, 0.0, 1.0, 0.0), tmax, step)
        times, _, stopped = integrate_flow(lambda s: np.array([s[2], s[3], 0.0, 0.0]), (0.0, 0.0, 1.0, 0.0), tmax, step)
        c = integrate_ode(induced_odes(spray_entry("flat").spray).fplus, (0.5, 0.0, 1.0), 0.5 + tmax, step)
        assert not (tr.domain_exit or stopped or c.blown_up)
        for t in (tr.t, times, c.x):
            assert len(t) == n
            assert t[-1] == t[0] + tmax
            assert float(np.diff(t).max()) <= step


def test_integrators_reject_an_end_before_the_start_or_a_bad_step():
    flat = spray_entry("flat").spray
    f = induced_odes(flat).fplus
    with pytest.raises(ValueError, match="end -1.0 precedes"):
        integrate_spray(flat, (0.0, 0.0, 1.0, 0.0), -1.0, 1e-2)
    with pytest.raises(ValueError, match="end 0.2 precedes"):
        integrate_ode(f, (0.5, 0.0, 1.0), 0.2, 1e-2)
    for step in (0.0, -1e-2, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"step {step} "):
            integrate_ode(f, (0.0, 0.0, 1.0), 1.0, step)
        with pytest.raises(ValueError, match=f"step {step} "):
            integrate_flow(lambda s: s, (1.0,), 1.0, step)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"ends 0.0 and {bad} must be finite"):
            integrate_spray(flat, (0.0, 0.0, 1.0, 0.0), bad, 1e-2)
        with pytest.raises(ValueError, match=f"ends 0.0 and {bad} must be finite"):
            integrate_flow(lambda s: s, (0.0, 0.0, 1.0, 0.0), bad, 1e-2)
        with pytest.raises(ValueError, match=f"ends 0.0 and {bad} must be finite"):
            integrate_ode(f, (0.0, 0.0, 1.0), bad, 1e-2)
        with pytest.raises(ValueError, match=f"ends {bad} and 1.0 must be finite"):
            integrate_ode(f, (bad, 0.0, 1.0), 1.0, 1e-2)
    tr = integrate_spray(flat, (0.0, 0.0, 1.0, 0.0), 0.0, 1e-2)
    assert len(tr) == 1 and not tr.domain_exit


def _numpy_rk4(f, init, times):
    """Textbook RK4 on numpy arrays over the given equally spaced times."""
    h = (times[-1] - times[0]) / (len(times) - 1)
    s = np.array(init, dtype=float)
    states, derivs = [s], [f(times[0], s)]
    for t, t_next in zip(times[:-1], times[1:]):
        k1 = derivs[-1]
        k2 = f(t + 0.5 * h, s + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, s + 0.5 * h * k2)
        k4 = f(t_next, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(s)
        derivs.append(f(t_next, s))
    return np.array(states), np.array(derivs)


def test_rk4_core_matches_a_textbook_numpy_rk4():
    spray = spray_entry("a").spray

    def spray_rhs(t, s):
        g1, g2 = spray.coefficients(*(float(c) for c in s))
        return np.array([s[2], s[3], -2.0 * float(g1), -2.0 * float(g2)])

    init = (0.1, -0.2, 0.8, 0.5)
    tr = integrate_spray(spray, init, 5e-2, 1e-2)
    assert len(tr) == 6
    states, derivs = _numpy_rk4(spray_rhs, init, tr.t)
    assert np.array_equal(np.hstack([tr.xy, tr.uv]), states)
    assert np.array_equal(tr.acc, derivs[:, 2:])

    f = induced_odes(spray_entry("c+").spray).fplus

    def ode_rhs(x, s):
        return np.array([s[1], float(f(float(x), float(s[0]), float(s[1])))])

    c = integrate_ode(f, (0.1, 0.05, 0.3), 0.15, 1e-2)
    assert len(c.x) == 6
    states, _ = _numpy_rk4(ode_rhs, (0.05, 0.3), c.x)
    assert np.array_equal(np.column_stack([c.y, c.z]), states)

    alpha = constant_curvature_metric("sphere")
    flow = magnetic_rhs(alpha, area_form(alpha, 1.0))

    def flow_rhs(t, s):
        return np.array(flow(tuple(float(c) for c in s)))

    times, got, stopped = integrate_flow(flow, (0.0, 0.0, 1.0, 0.0), 5e-2, 1e-2)
    assert len(times) == 6 and not stopped
    states, _ = _numpy_rk4(flow_rhs, (0.0, 0.0, 1.0, 0.0), times)
    assert np.array_equal(got, states)


def test_rk4_core_stops_at_a_non_finite_state():
    # the third step's first stage sits at x = 0.025, where rhs is NaN
    times, states, stopped = integrate_flow(
        lambda s: (math.nan if s[0] >= 0.025 else 1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0), 0.1, 1e-2
    )
    assert stopped
    assert len(times) == len(states) == 3
    assert np.all(np.isfinite(states))
    assert states[-1, 0] == pytest.approx(0.02, abs=1e-15)


def test_rk4_core_rejects_an_rhs_of_another_length():
    with pytest.raises(ValueError, match="rhs returned 2 components for a state of 4"):
        integrate_flow(lambda s: (1.0, 2.0), (0.0, 0.0, 1.0, 0.0), 1.0, 1e-1)
    with pytest.raises(ValueError, match="rhs returned 3 components for a state of 4"):
        integrate_flow(lambda s: s[:3], (0.0, 0.0, 1.0, 0.0), 1.0, 1e-1)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_rk4_core_refuses_a_state_of_another_length(d):
    def rhs(s):
        raise AssertionError("rhs called on a refused state")

    with pytest.raises(ValueError, match=f"state of {d} components"):
        integrate_flow(rhs, (0.0,) * d, 1.0, 1e-1)


@pytest.mark.parametrize("moving", [2, 4])
@pytest.mark.parametrize(
    "t1,stop,m",
    [(0.1, lambda s: True, 1), (0.0, None, 1), (0.1, None, 6)],
    ids=["stops-at-first-step", "t1-equals-t0", "full-run"],
)
def test_rk4_core_returns_float_arrays_of_one_row_per_state(moving, t1, stop, m):
    # rhs decays the first ``moving`` components and holds the others, as
    # the lift (x, y, 1, y') of a scalar equation holds its third
    def rhs(t, s):
        return [-c for c in s[:moving]] + [0.0] * (4 - moving)

    times, states, stopped = _rk4(rhs, range(1, 5), 0.0, t1, 0.02, stop)
    assert stopped == (stop is not None)
    assert times.shape == (m,) and states.shape == (m, 4)
    assert times.dtype == states.dtype == np.float64
    assert np.array_equal(states[0], np.arange(1.0, 5.0))
    assert np.all(states[:, moving:] == states[0, moving:])


def test_integrate_spray_evaluates_the_spray_through_coefficients(monkeypatch):
    # n steps take 4 evaluations each, plus one at the initial state;
    # perfbench's tracer counts spray evaluations by wrapping this method
    calls = []
    coefficients = Spray.coefficients

    def counted(self, x, y, u, v):
        calls.append((x, y, u, v))
        return coefficients(self, x, y, u, v)

    monkeypatch.setattr(Spray, "coefficients", counted)
    tr = integrate_spray(spray_entry("a").spray, (0.0, 0.0, 1.0, 0.0), 0.1, 1e-2)
    assert len(tr) == 11 and not tr.domain_exit
    assert len(calls) == 4 * 10 + 1


def _spray_by_rk4(spray, init, tmax, step):
    """``integrate_spray``'s run through ``_rk4``, on the first-order system
    (u, v, -2 G1, -2 G2) with the same stop rule, and its accelerations
    -2 G at the kept states."""
    contains = spray.domain.contains

    def rhs(t, s):
        g1, g2 = spray.coefficients(*s)
        return s[2], s[3], -2.0 * g1, -2.0 * g2

    def stop(s):
        x, y, u, v = s
        return (not contains(x, y)) or (u * u + v * v < 1e-24)

    times, states, stopped = _rk4(rhs, init, 0.0, tmax, step, stop)
    acc = np.array([[-2.0 * g for g in spray.coefficients(*s)] for s in states.tolist()])
    return GeodesicTrace(t=times, xy=states[:, :2], uv=states[:, 2:], acc=acc, domain_exit=stopped)


def _assert_spray_loop_equals_rk4(spray, init, tmax, step):
    want = _spray_by_rk4(spray, init, tmax, step)
    got = integrate_spray(spray, init, tmax, step)
    for field in ("t", "xy", "uv", "acc"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.domain_exit == want.domain_exit
    return want


_LOOP_SPRAYS = [(key, 1.0) for key in SPRAY_KEYS if key not in ("bk+", "bk-")]
_LOOP_SPRAYS += [(key, k) for key in ("bk+", "bk-") for k in (0.5, 1.0, 2.0)]


@pytest.mark.parametrize("key,k", [*_LOOP_SPRAYS, ("geodesic a", None)])
def test_spray_loop_equals_rk4_on_the_first_order_system(key, k):
    spray = geodesic_spray(metric_entry("a").metric) if k is None else spray_entry(key, k).spray
    d = spray.domain
    cx, cy = 0.5 * (d.x0 + d.x1), 0.5 * (d.y0 + d.y1)
    full = _assert_spray_loop_equals_rk4(spray, (cx, cy, 0.6, 0.3), 0.2, 1e-2)
    assert len(full) == 21 and not full.domain_exit
    assert len(_assert_spray_loop_equals_rk4(spray, (cx, cy, 0.6, 0.3), 0.0, 1e-2)) == 1
    # heading out through the right edge
    leaves = _assert_spray_loop_equals_rk4(spray, (d.x1 - 0.05, cy, 1.0, 0.0), 1.0, 2e-2)
    assert leaves.domain_exit and 1 < len(leaves) < 51


_pair_a = spray_entry("a").spray.pair


def _raises_beyond(x, y, u, v):
    if x >= 0.3:
        raise EvaluationError(f"outside the domain at ({x}, {y})")
    return _pair_a(x, y, u, v)


def _nan_beyond(x, y, u, v):
    return (math.nan, 0.0) if x >= 0.3 else _pair_a(x, y, u, v)


@pytest.mark.parametrize(
    "pair,tmax,step,m",
    [
        (_raises_beyond, 1.0, 1e-2, 31),
        (_nan_beyond, 1.0, 1e-2, 31),
        # x'' = -1: RK4 is exact on it, and the velocity (1 - t, 0) is zero at t = 1
        (lambda x, y, u, v: (0.5, 0.0), 2.0, 0.25, 4),
    ],
    ids=["evaluation-error", "non-finite", "fiber-collapse"],
)
def test_spray_loop_equals_rk4_where_a_run_stops(pair, tmax, step, m):
    spray = Spray(pair, Rectangle(-3.0, 3.0, -3.0, 3.0), "test")
    stopped = _assert_spray_loop_equals_rk4(spray, (0.0, 0.0, 1.0, 0.0), tmax, step)
    assert stopped.domain_exit and len(stopped) == m


def test_integrate_ode_blowup_guard():
    from projspray.jets import ScalarField

    f = ScalarField(3, lambda x, y, z: 1e4 * (1.0 + z * z))
    c = integrate_ode(f, (0.0, 0.0, 0.0), 2.0, 1e-3)
    assert c.blown_up


def test_circle_fit_exact_samples():
    t = np.linspace(0, 2 * math.pi, 100, endpoint=False)
    xy = np.column_stack([np.cos(t), np.sin(t)])
    fit = circle_fit(xy)
    assert fit.center == (pytest.approx(0.0, abs=1e-12), pytest.approx(0.0, abs=1e-12))
    assert fit.radius == pytest.approx(1.0, abs=1e-12)
    assert fit.rms <= 1e-12


# the last circle is smaller than any absolute collinearity floor would allow
@pytest.mark.parametrize("center,radius", [((3.0, 4.0), 1e-6), ((1e4, -1e4), 1e-5), ((0.0, 0.0), 1e-10)])
def test_circle_fit_keeps_a_small_circle_far_from_the_origin(center, radius):
    t = np.linspace(0, 2 * math.pi, 40, endpoint=False)
    xy = np.column_stack([center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)])
    fit = circle_fit(xy)
    assert abs(fit.radius - radius) <= 1e-7 * radius
    assert fit.rms <= 1e-12
    assert math.dist(fit.center, center) <= 1e-6 * radius


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e6])
def test_circle_fit_rejects_collinear_samples_at_every_scale(scale):
    s = np.linspace(-1.0, 1.0, 10)
    with pytest.raises(DegenerateFitError, match="collinear"):
        circle_fit(scale * np.column_stack([0.3 + s, 0.7 - 2.0 * s]))


def test_circle_fit_degenerate_cases():
    line = np.column_stack([np.linspace(0, 1, 50), np.zeros(50)])
    with pytest.raises(DegenerateFitError):
        circle_fit(line)
    with pytest.raises(DegenerateFitError):
        circle_fit(np.zeros((5, 2)))


def test_unit_speed_resample_fixed_point():
    t = np.linspace(0.0, 1.0, 101)
    tr = GeodesicTrace(t=t, xy=np.column_stack([t, np.zeros_like(t)]),
                       uv=np.column_stack([np.ones_like(t), np.zeros_like(t)]), acc=np.zeros((len(t), 2)))
    alpha = constant_curvature_metric("euclidean")
    out = unit_speed_resample(tr, alpha)
    assert np.abs(out.xy - tr.xy).max() <= 1e-12
    speeds = [alpha.norm(x, y, (u, v)) for (x, y), (u, v) in zip(out.xy, out.uv)]
    assert max(abs(s - 1.0) for s in speeds) <= 1e-9


def test_curve_samples_needs_an_interior_state():
    s = spray_entry("a").spray
    for tmax, n in ((0.0, 1), (1e-3, 2)):
        tr = integrate_spray(s, (0.0, 0.0, 1.0, 0.0), tmax, 1e-3)
        assert len(tr) == n
        with pytest.raises(ValueError, match=f"trace of {n} states"):
            curve_samples(tr)
    tr = integrate_spray(s, (0.0, 0.0, 1.0, 0.0), 2e-3, 1e-3)
    assert [smp.pos for smp in curve_samples(tr)] == [tuple(tr.xy[1])]


def test_unit_speed_resample_spray_a():
    tr = integrate_spray(spray_entry("a").spray, (0.0, 0.0, 1.0, 0.0), 4.0, 1e-3)
    alpha = constant_curvature_metric("euclidean")
    out = unit_speed_resample(tr, alpha)
    speeds = [alpha.norm(x, y, (u, v)) for (x, y), (u, v) in zip(out.xy, out.uv)]
    inner = speeds[2:-2]
    assert max(abs(s - 1.0) for s in inner) <= 1e-9
    assert np.all(np.diff(out.t) > 0)


def test_unit_speed_resample_keeps_the_domain_exit_flag():
    tr = integrate_spray(spray_entry("a").spray, (2.4, 0.0, 1.0, 0.5), 1.0, 1e-2)
    assert tr.domain_exit
    assert unit_speed_resample(tr, constant_curvature_metric("euclidean")).domain_exit


def _euclidean_trace(t, speed, rate):
    """A trace along the x-axis with speed sigma(t) and acceleration sigma'(t)."""
    zero = np.zeros_like(t)
    return GeodesicTrace(t=t, xy=np.column_stack([t, zero]),
                         uv=np.column_stack([speed, zero]), acc=np.column_stack([rate, zero]))


def test_unit_speed_resample_matches_closed_form_arc_length():
    # sigma = e^t: arc length e^t - 1, and the unit-speed acceleration is 0
    t = np.linspace(0.0, 1.0, 101)
    out = unit_speed_resample(_euclidean_trace(t, np.exp(t), np.exp(t)), constant_curvature_metric("euclidean"))
    assert np.abs(out.t - np.expm1(t)).max() <= 1e-10
    assert np.abs(out.acc).max() <= 1e-10


def test_unit_speed_resample_is_exact_for_polynomial_speeds():
    # sigma' comes from the polynomial through all n < 8 nodes: exact for
    # degree n - 1; the Hermite rule integrates cubics exactly
    alpha = constant_curvature_metric("euclidean")
    for n in range(2, 8):
        t = np.linspace(0.2, 0.2 + 0.1 * (n - 1), n)
        for degree in range(n):
            c = np.arange(1.0, degree + 2.0)
            speed, rate = np.polyval(c, t), np.polyval(np.polyder(c), t)
            out = unit_speed_resample(_euclidean_trace(t, speed, rate), alpha)
            assert np.abs(out.acc).max() <= 1e-11, (n, degree)
            if degree <= 3:
                arc = np.polyval(np.polyint(c), t) - np.polyval(np.polyint(c), t[0])
                assert np.abs(out.t - arc).max() <= 1e-13, (n, degree)


def test_unit_speed_resample_rejects_one_state_and_unequal_steps():
    alpha = constant_curvature_metric("euclidean")
    t = np.array([0.0])
    with pytest.raises(ValueError, match="trace of 1 states"):
        unit_speed_resample(_euclidean_trace(t, np.ones(1), np.zeros(1)), alpha)
    t = np.linspace(0.0, 1.0, 11)
    t[5] += 1e-6
    with pytest.raises(ValueError, match="equal steps"):
        unit_speed_resample(_euclidean_trace(t, np.ones(11), np.zeros(11)), alpha)


@pytest.mark.parametrize("key,k,tmax", [("bk+", 1.0, 5.0), ("bk-", 2.0, 1.2)])
def test_magnetic_residual_at_every_node_of_resampled_b_trace(key, k, tmax):
    tr = integrate_spray(spray_entry(key, k=k).spray, (0.0, 0.0, 1.0, 0.0), tmax, 1e-3)
    alpha = constant_curvature_metric("sphere" if key == "bk+" else "hyperbolic")
    om = area_form(alpha, k)
    out = unit_speed_resample(tr, alpha)
    res = [
        magnetic_defect(alpha, om, CurveSample(tuple(p), tuple(v), tuple(a)))
        for p, v, a in zip(out.xy, out.uv, out.acc)
    ]
    assert len(res) == len(tr) and max(res) <= 1e-10


def test_rk4_convergence_ratio_on_spray_a():
    s = spray_entry("a").spray
    tmax = 2.0
    exact = np.array([math.sin(tmax), 1.0 - math.cos(tmax)])

    def final_err(h):
        tr = integrate_spray(s, (0.0, 0.0, 1.0, 0.0), tmax, h)
        return float(np.hypot(*(tr.xy[-1] - exact)))

    ratio = final_err(4e-3) / final_err(2e-3)
    assert 12.0 <= ratio <= 20.0


def test_rk4_exact_on_flat_spray():
    s = spray_entry("flat").spray

    def final_err(h):
        tr = integrate_spray(s, (0.0, 0.0, 0.7, -0.4), 1.0, h)
        return float(np.hypot(*(tr.xy[-1] - np.array([0.7, -0.4]))))

    assert final_err(4e-3) <= 1e-13 and final_err(2e-3) <= 1e-13


def test_energy_first_integral_along_metric_spray():
    entry = metric_entry("a")
    s = geodesic_spray(entry.metric)
    F = entry.metric
    # the geodesic is a Euclidean unit circle; it leaves the +-0.5 box at t ~ 0.59
    tr = integrate_spray(s, (0.0, 0.0, 0.9, 0.1), 0.5, 5e-3)
    assert not tr.domain_exit
    vals = [float(F(x, y, u, v)) for (x, y), (u, v) in zip(tr.xy, tr.uv)]
    assert max(vals) - min(vals) <= 1e-7
    # a longer run stops at the box with every stored state still evaluable
    tr = integrate_spray(s, (0.0, 0.0, 0.9, 0.1), 10.0, 5e-3)
    assert tr.domain_exit
    vals = [float(F(x, y, u, v)) for (x, y), (u, v) in zip(tr.xy, tr.uv)]
    assert np.all(np.isfinite(vals))


def test_magnetic_flow_constant_speed():
    alpha = constant_curvature_metric("sphere")
    om = area_form(alpha, 1.0)
    rhs = magnetic_rhs(alpha, om)
    times, states, exited = integrate_flow(rhs, (0.0, 0.0, 1.0, 0.0), 10.0, 1e-3)
    assert not exited
    speeds = np.array(
        [alpha.norm(x, y, (u, v)) for (x, y, u, v) in states[::100]]
    )
    assert float(np.abs(speeds - speeds[0]).max()) < 1e-7


@pytest.mark.parametrize("key,k,tmax", [("bk+", 0.5, 5.0), ("bk+", 2.0, 5.0), ("bk-", 2.0, 1.2)])
def test_constant_geodesic_curvature_of_b_traces(key, k, tmax):
    entry = spray_entry(key, k=k)
    tr = integrate_spray(entry.spray, (0.0, 0.0, 1.0, 0.0), tmax, 1e-3)
    model = "sphere" if key == "bk+" else "hyperbolic"
    alpha = constant_curvature_metric(model)
    resampled = unit_speed_resample(tr, alpha)
    kappas = [geodesic_curvature(alpha, s, speed_tol=1e-6) for s in curve_samples(resampled, 25)]
    assert max(abs(kap - k) for kap in kappas) <= 1e-5, (key, k)


def test_magnetic_residual_along_resampled_b_trace():
    k = 1.0
    entry = spray_entry("bk+", k=k)
    tr = integrate_spray(entry.spray, (0.0, 0.0, 1.0, 0.0), 5.0, 1e-3)
    alpha = constant_curvature_metric("sphere")
    om = area_form(alpha, k)
    resampled = unit_speed_resample(tr, alpha)
    res = [magnetic_defect(alpha, om, s) for s in curve_samples(resampled, 25)]
    assert max(res) <= 1e-6


def test_rk4_core_stops_where_rhs_raises_mid_run():
    # the third step's second stage sits at x = 0.025, outside rhs's domain
    def rhs(t, s):
        if s[0] >= 0.025:
            raise EvaluationError(f"outside the domain at ({s[0]}, {s[1]})")
        return 1.0, 0.5, 0.0, 0.0

    times, states, stopped = _rk4(rhs, (0.0, 0.0, 1.0, 0.5), 0.0, 0.1, 1e-2)
    assert stopped
    assert np.array_equal(times, np.linspace(0.0, 0.1, 11)[:3])
    assert states.shape == (3, 4)
    assert states[-1, :2] == pytest.approx((0.02, 0.01), abs=1e-15)


def test_integrate_ode_evaluates_its_field_through_fn():
    # n steps take 4 evaluations each, plus one at the initial state;
    # perfbench's tracer counts induced-equation evaluations by wrapping fn
    f = induced_odes(spray_entry("c-").spray).fplus
    calls = []

    def counted(x, y, z):
        calls.append((x, y, z))
        return f.fn(x, y, z)

    c = integrate_ode(dataclasses.replace(f, fn=counted), (0.0, 0.0, 0.2), 0.1, 1e-2)
    assert len(c.x) == 11 and not c.blown_up
    assert len(calls) == 4 * 10 + 1
    plain = integrate_ode(f, (0.0, 0.0, 0.2), 0.1, 1e-2)
    assert np.array_equal(c.y, plain.y) and np.array_equal(c.z, plain.z)


@pytest.mark.parametrize("arity", [2, 4])
def test_integrate_ode_checks_the_fields_arity_before_any_step(arity):
    def fn(*args):
        raise AssertionError("field evaluated")

    with pytest.raises(TypeError, match=f"field 'f' takes {arity} arguments, got 3"):
        integrate_ode(ScalarField(arity, fn, name="f"), (0.0, 0.0, 0.0), 1.0, 1e-2)
