"""Workload ``trajectories``: each operation traces one curve and checks it.

The work is sequential RK4 (``trace``) over closed-form sprays, which never
touch ``jets``, over derived sprays, whose every evaluation depends on the one
before, and over magnetic flows, which call ``christoffel`` (``randers``) at
every stage.  Initial data, ``tmax`` and the spray or flow are seeded draws;
``tmax`` is stratified so that the total number of steps hardly depends on the
seed.  Steps and tolerances are the test suite's; traces are shorter
(``TMAX``).
"""

from __future__ import annotations

import math

import numpy as np

from projspray import catalog, finsler, randers, trace
from projspray.jets import EvaluationError

from common import ENDPOINT_SHORTFALL, SPLINE_RESAMPLE, Op, Verdict, at_most, balanced, stratified

END_TOL = 1e-6  # distance to the exact endpoint (closure of the a-circle)
CIRCLE_RMS = 1e-9
CONSERVED_TOL = 1e-7  # F, alpha-speed and v e^x along a trace
KAPPA_TOL, SPEED_TOL, KAPPA_SAMPLES = 1e-5, 1e-6, 25
ODE_TOL = 1e-7

KS = (0.5, 1.0, 2.0)

# kind -> (operations per round, step); each step is the test suite's for
# the same kind of trace.
PLAN = {
    "exact": (20, None),  # step per spray below
    "circle": (16, 1e-3),
    "first_integral": (18, 1e-3),
    "geodesic": (9, 5e-3),
    "magnetic": (9, 1e-3),
    "curvature": (10, 1e-3),
    "ode": (21, 1e-3),
}
EXACT_STEP = {"flat": 1e-2, "a": 1e-3}
# Ranges of tmax.  The suite runs tmax 1 to 10; shorter traces keep a round
# near a second, so each operation is timed often enough in a run for its
# median to be steady.  The curvature traces are as long as the suite's
# bk-.
TMAX = {
    "flat": (0.5, 2.0),
    "a": (0.2, 0.5),
    "circle": (0.15, 0.3),
    "circle-": (0.1, 0.2),
    "first_integral": (0.1, 0.25),
    "geodesic": (0.05, 0.1),
    "magnetic": (0.05, 0.1),
    "curvature": (1.0, 2.0),
    "curvature-": (0.8, 1.2),
    "ode": (0.1, 0.2),
}
MODELS = {"bk+": "sphere", "bk-": "hyperbolic"}


def build():
    sprays = {key: catalog.spray_entry(key).spray for key in ("flat", "a", "c+", "c-")}
    for key in ("bk+", "bk-"):
        for k in KS:
            sprays[key, k] = catalog.spray_entry(key, k=k).spray
    return {
        "sprays": sprays,
        "metrics": {key: catalog.metric_entry(key) for key in ("a", "bk+", "c-")},
        "alphas": {m: randers.constant_curvature_metric(m) for m in ("sphere", "hyperbolic", "euclidean")},
    }


def _exact_flat(init):
    x0, y0, u, v = init
    return lambda t: np.array([x0 + u * t, y0 + v * t])


def _exact_a(init):
    x0, y0, u, v = init
    r, th = math.hypot(u, v), math.atan2(v, u)
    return lambda t: np.array(
        [x0 + math.sin(th + r * t) - math.sin(th), y0 - math.cos(th + r * t) + math.cos(th)]
    )


def _exact(spray, init, tmax, step, exact):
    def run(w):
        tr = trace.integrate_spray(spray, init, tmax, step)
        w.rk4(tr.t, tmax, step, tr.domain_exit)
        err = float(np.hypot(*(tr.xy[-1] - exact(tmax))))
        if tr.domain_exit:
            return Verdict(False, err, END_TOL)
        at_end = float(np.hypot(*(tr.xy[-1] - exact(float(tr.t[-1])))))
        return at_most(err, END_TOL, ENDPOINT_SHORTFALL if at_end <= END_TOL else None)

    return run


def _circle(spray, init, tmax, step):
    def run(w):
        tr = trace.integrate_spray(spray, init, tmax, step)
        w.rk4(tr.t, tmax, step, tr.domain_exit)
        return at_most(trace.circle_fit(tr).rms, CIRCLE_RMS)

    return run


def _first_integral(spray, init, tmax, step):
    # v' = -u v for both c-sprays, so v e^x is constant along every trace.
    def run(w):
        tr = trace.integrate_spray(spray, init, tmax, step)
        w.rk4(tr.t, tmax, step, tr.domain_exit)
        inv = tr.uv[:, 1] * np.exp(tr.xy[:, 0])
        return at_most(float(np.abs(inv - inv[0]).max()), CONSERVED_TOL)

    return run


def _geodesic(metric, init, tmax, step):
    def run(w):
        tr = trace.integrate_spray(finsler.geodesic_spray(metric), init, tmax, step)
        w.rk4(tr.t, tmax, step, tr.domain_exit)
        F = [float(metric(x, y, u, v)) for (x, y), (u, v) in zip(tr.xy, tr.uv)]
        return at_most(max(F) - min(F), CONSERVED_TOL)

    return run


def _magnetic(alpha, k, init, tmax, step):
    def run(w):
        rhs = randers.magnetic_rhs(alpha, randers.area_form(alpha, k))
        times, states, exited = trace.integrate_flow(rhs, init, tmax, step)
        w.rk4(times, tmax, step, exited)
        speeds = np.array([alpha.norm(x, y, (u, v)) for (x, y, u, v) in states])
        return at_most(float(np.abs(speeds - speeds[0]).max()), CONSERVED_TOL)

    return run


def _curvature(spray, alpha, k, init, tmax, step):
    def run(w):
        tr = trace.integrate_spray(spray, init, tmax, step)
        w.rk4(tr.t, tmax, step, tr.domain_exit)
        try:
            samples = trace.curve_samples(trace.unit_speed_resample(tr, alpha), KAPPA_SAMPLES)
            worst = max(
                abs(randers.geodesic_curvature(alpha, s, speed_tol=SPEED_TOL) - k) for s in samples
            )
        except EvaluationError:  # a resampled velocity missed unit speed
            worst = math.inf
        if worst <= KAPPA_TOL:
            return Verdict(True, worst, KAPPA_TOL)
        # The resampling is at fault when the trace is a circle and the
        # curvature taken from its own states is right.
        circle_ok = trace.circle_fit(tr).rms <= CIRCLE_RMS
        state_ok = max(abs(kappa - k) for kappa in _state_kappas(spray, alpha, tr)) <= KAPPA_TOL
        return Verdict(False, worst, KAPPA_TOL, SPLINE_RESAMPLE if circle_ok and state_ok else None)

    return run


def _state_kappas(spray, alpha, tr):
    """Geodesic curvature at trace states, with no spline or resampling.

    Position and velocity are the trace's; the acceleration is the spray's,
    -2G.  Scaling the velocity to unit alpha-speed and removing the
    acceleration's tangential part reparametrises by arc length at each state.
    """
    kappas = []
    for i in np.linspace(0, len(tr.t) - 1, KAPPA_SAMPLES).astype(int):
        (x, y), uv = tr.xy[i], tr.uv[i]
        speed = alpha.norm(x, y, uv)
        tangent = uv / speed
        acc = -2.0 * np.array(spray.coefficients(x, y, *uv), dtype=float) / speed**2
        cov = randers.covariant_acceleration(alpha, randers.CurveSample((x, y), tuple(tangent), tuple(acc)))
        acc = acc - float(tangent @ alpha.matrix(x, y) @ cov) * tangent
        sample = randers.CurveSample((float(x), float(y)), tuple(tangent), tuple(acc))
        kappas.append(randers.geodesic_curvature(alpha, sample, speed_tol=SPEED_TOL))
    return kappas


def _hermite(xs, ys, dys, xq):
    """Cubic Hermite interpolation of nodes with known values and slopes."""
    i = np.clip(np.searchsorted(xs, xq) - 1, 0, len(xs) - 2)
    h = xs[i + 1] - xs[i]
    t = (xq - xs[i]) / h
    t2, t3 = t * t, t * t * t
    return (
        (2 * t3 - 3 * t2 + 1) * ys[i]
        + (t3 - 2 * t2 + t) * h * dys[i]
        + (-2 * t3 + 3 * t2) * ys[i + 1]
        + (t3 - t2) * h * dys[i + 1]
    )


def _ode(spray, init, tmax, step):
    def run(w):
        x0, y0, _, slope = init
        tr = trace.integrate_spray(spray, init, tmax, step)
        w.rk4(tr.t, tmax, step, tr.domain_exit)
        xmax = float(tr.xy[-1, 0])
        curve = trace.integrate_ode(finsler.induced_odes(spray).fplus, (x0, y0, slope), xmax, step)
        w.rk4(curve.x - x0, xmax - x0, step, curve.blown_up)
        covered = tr.xy[:, 0] <= curve.x[-1]
        yi = _hermite(curve.x, curve.y, curve.z, tr.xy[covered, 0])
        worst = float(np.abs(yi - tr.xy[covered, 1]).max())
        gap = xmax - float(curve.x[-1])
        if gap > 1e-12:  # the equation's curve stops short of the trace
            return Verdict(False, max(worst, gap), ODE_TOL, ENDPOINT_SHORTFALL if worst <= ODE_TOL else None)
        return at_most(worst, ODE_TOL)

    return run


def _init(rng, box, speed):
    """(x, y, u, v): base point in ``box`` = (x0, x1, y0, y1), random direction."""
    x = float(rng.uniform(box[0], box[1]))
    y = float(rng.uniform(box[2], box[3]))
    t = float(rng.uniform(0.0, 2.0 * math.pi))
    s = float(rng.uniform(*speed))
    return (x, y, s * math.cos(t), s * math.sin(t))


def ops(entries, rng: np.random.Generator) -> list[Op]:
    sprays, metrics, alphas = entries["sprays"], entries["metrics"], entries["alphas"]
    out = []

    def tmaxes(kind, n):
        return list(stratified(rng, *TMAX[kind], n))

    n = PLAN["exact"][0] // 2
    for key, exact, box in (("flat", _exact_flat, (-0.5, 0.5, -0.5, 0.5)), ("a", _exact_a, (-0.3, 0.3, 0.7, 1.3))):
        step = EXACT_STEP[key]
        for tmax in tmaxes(key, n):
            init = _init(rng, box, (0.5, 1.0) if key == "flat" else (0.5, 1.5))
            out.append(Op("exact", key, _exact(sprays[key], init, float(tmax), step, exact(init))))

    n, step = PLAN["circle"]
    for sign in ("bk+", "bk-"):
        for k, tmax in zip(balanced(rng, KS, n // 2), tmaxes("circle" if sign == "bk+" else "circle-", n // 2)):
            init = _init(rng, (-0.2, 0.2, -0.2, 0.2), (0.5, 1.0))
            out.append(Op("circle", f"{sign}(k={k:g})", _circle(sprays[sign, k], init, float(tmax), step)))

    n, step = PLAN["first_integral"]
    for key, tmax in zip(balanced(rng, ("c+", "c-"), n), tmaxes("first_integral", n)):
        init = _init(rng, (-0.2, 0.3, -0.5, 0.5), (0.5, 1.0))
        out.append(Op("first_integral", key, _first_integral(sprays[key], init, float(tmax), step)))

    n, step = PLAN["geodesic"]
    for key, tmax in zip(balanced(rng, tuple(metrics), n), tmaxes("geodesic", n)):
        r = metrics[key].domain.shrunk(0.5)
        init = _init(rng, (r.x0, r.x1, r.y0, r.y1), (0.5, 1.0))
        out.append(Op("geodesic", key, _geodesic(metrics[key].metric, init, float(tmax), step)))

    n, step = PLAN["magnetic"]
    combos = [(m, k) for m in alphas for k in KS]
    for (model, k), tmax in zip(balanced(rng, combos, n), tmaxes("magnetic", n)):
        init = _init(rng, (-0.3, 0.3, -0.3, 0.3), (0.5, 1.0))
        out.append(Op("magnetic", f"{model}(k={k:g})", _magnetic(alphas[model], k, init, float(tmax), step)))

    n, step = PLAN["curvature"]
    for sign in ("bk+", "bk-"):
        kind = "curvature" if sign == "bk+" else "curvature-"
        for k, tmax in zip(balanced(rng, KS, n // 2), tmaxes(kind, n // 2)):
            init = _init(rng, (-0.1, 0.1, -0.1, 0.1), (1.0, 1.0))
            spray, alpha = sprays[sign, k], alphas[MODELS[sign]]
            out.append(Op("curvature", f"{sign}(k={k:g})", _curvature(spray, alpha, k, init, float(tmax), step)))

    n, step = PLAN["ode"]
    keys = ("a", "c+", "c-", ("bk+", 1.0), ("bk-", 1.0))
    for key, tmax in zip(balanced(rng, keys, n), tmaxes("ode", n)):
        x0, y0 = (float(c) for c in rng.uniform(-0.2, 0.2, size=2))
        init = (x0, y0, 1.0, float(rng.uniform(-0.5, 0.5)))
        label = key if isinstance(key, str) else f"{key[0]}(k={key[1]:g})"
        out.append(Op("ode", label, _ode(sprays[key], init, float(tmax), step)))

    return [out[i] for i in rng.permutation(len(out))]
