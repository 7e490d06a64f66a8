"""Fixed-step integration of sprays and scalar equations, plus trace
post-processing: circle fitting, arc-length reparametrization, curvature
sampling from the stored states.

Classical RK4 throughout; trajectories here are short and smooth, and the
fixed step keeps convergence-order measurements clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicSpline

from .finsler import Spray
from .jets import EvaluationError, ScalarField
from .randers import CurveSample, MetricField

__all__ = [
    "CircleFit",
    "DegenerateFitError",
    "DomainError",
    "GeodesicTrace",
    "OdeCurve",
    "circle_fit",
    "curve_samples",
    "integrate_flow",
    "integrate_ode",
    "integrate_spray",
    "unit_speed_resample",
    "winding_orientation",
]


class DomainError(ValueError):
    """Initial data outside the declared domain."""


class DegenerateFitError(ValueError):
    """Samples do not determine a circle."""


@dataclass(frozen=True)
class GeodesicTrace:
    t: np.ndarray
    xy: np.ndarray  # shape (n, 2)
    uv: np.ndarray  # shape (n, 2)
    domain_exit: bool = False
    acc: np.ndarray | None = None  # shape (n, 2): -2 G at each state; None if unknown

    def __len__(self):
        return len(self.t)

    def state(self, i: int):
        return (*self.xy[i], *self.uv[i])


@dataclass(frozen=True)
class OdeCurve:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    blown_up: bool = False


def _rk4(rhs, init, t0: float, t1: float, step: float, stop=None):
    """Classical RK4 of s' = rhs(t, s) from t0 to t1.

    Takes n = ceil((t1 - t0) / step) equal steps (``step`` is an upper bound,
    up to a relative 1e-9), with times t0 + i (t1 - t0) / n, so the last time
    is t1 exactly.  A state is kept only if it is finite, ``stop`` does not
    fire on it and rhs evaluates there; otherwise the run ends early.  An
    ``EvaluationError`` at ``init`` propagates.  Returns (times, states,
    derivatives at the states, stopped early).  The derivative at a kept
    state is the next step's first stage, so a run makes one evaluation more
    than 4 n.
    """
    n = max(math.ceil((t1 - t0) / step - 1e-9), 0)
    times = np.linspace(t0, t1, n + 1)
    h = (t1 - t0) / n if n else 0.0
    state = np.asarray(init, dtype=float)
    k1 = rhs(t0, state)
    states, derivs = [state], [k1]
    stopped = False
    for t, t_next in zip(times[:-1], times[1:]):
        try:
            k2 = rhs(t + 0.5 * h, state + 0.5 * h * k1)
            k3 = rhs(t + 0.5 * h, state + 0.5 * h * k2)
            k4 = rhs(t_next, state + h * k3)
            nxt = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(nxt)) or (stop is not None and stop(nxt)):
                stopped = True
                break
            k1 = rhs(t_next, nxt)
        except EvaluationError:
            stopped = True
            break
        state = nxt
        states.append(state)
        derivs.append(k1)
    return times[: len(states)], np.array(states), np.array(derivs), stopped


def integrate_flow(rhs, init, tmax: float, step: float, stop=None):
    """Fixed-step RK4 of the autonomous flow s' = rhs(s) from t = 0 to ``tmax``.

    ``step`` is an upper bound: the run takes ceil(tmax / step) equal steps
    and, unless it stops early, ends at ``tmax`` exactly.  It stops early when
    ``stop`` fires, a state is not finite or rhs raises ``EvaluationError``.
    Returns (times, states, stopped early).
    """
    times, states, _, stopped = _rk4(lambda t, s: rhs(s), init, 0.0, tmax, step, stop)
    return times, states, stopped


def integrate_spray(
    spray: Spray, init: Sequence[float], tmax: float, step: float
) -> GeodesicTrace:
    """Integrate (x, y, u, v)' = (u, v, -2 G1, -2 G2) from ``init``.

    Steps and times are those of ``integrate_flow``.  The trace stores the
    acceleration -2G at every state.  Halts with the domain-exit flag when
    the base point leaves the spray's rectangle or the fiber norm collapses
    below 1e-12.
    """
    x0, y0, u0, v0 = (float(c) for c in init)
    if not spray.domain.contains(x0, y0):
        raise DomainError(f"initial base point ({x0}, {y0}) outside the spray domain")
    if u0 * u0 + v0 * v0 <= 1e-24:
        raise DomainError("initial fiber vector is (numerically) zero")

    def rhs(t, state):
        x, y, u, v = state
        g1, g2 = spray.coefficients(float(x), float(y), float(u), float(v))
        return np.array([u, v, -2.0 * float(g1), -2.0 * float(g2)])

    def stop(state):
        x, y, u, v = state
        return (not spray.domain.contains(x, y)) or (u * u + v * v < 1e-24)

    times, states, derivs, exited = _rk4(rhs, (x0, y0, u0, v0), 0.0, tmax, step, stop)
    return GeodesicTrace(
        t=times,
        xy=states[:, :2],
        uv=states[:, 2:],
        domain_exit=exited,
        acc=derivs[:, 2:],
    )


def integrate_ode(
    f: ScalarField, init: Sequence[float], xmax: float, step: float, zmax: float = 1e6
) -> OdeCurve:
    """Integrate y'' = f(x, y, y') from (x0, y0, z0) up to xmax.

    Steps and abscissae are those of ``integrate_flow``, from x0: the curve
    ends at ``xmax`` exactly unless it blows up first, that is unless |y'|
    exceeds ``zmax``, a value is not finite or f raises ``EvaluationError``.
    """
    x0, y0, z0 = (float(c) for c in init)

    def rhs(x, s):
        return np.array([s[1], float(f(float(x), float(s[0]), float(s[1])))])

    xs, states, _, blown = _rk4(rhs, (y0, z0), x0, xmax, step, lambda s: abs(s[1]) > zmax)
    return OdeCurve(xs, states[:, 0], states[:, 1], blown_up=blown)


@dataclass(frozen=True)
class CircleFit:
    center: tuple
    radius: float
    rms: float


def circle_fit(trace) -> CircleFit:
    """Algebraic least-squares circle through the base points of a trace.

    Minimizes sum (x^2 + y^2 + D x + E y + F)^2, then reports the rms of
    the geometric radius defect.  Collinear input raises.
    """
    xy = trace.xy if isinstance(trace, GeodesicTrace) else np.asarray(trace, dtype=float)
    if len(xy) < 10:
        raise DegenerateFitError("need at least 10 samples for a circle fit")
    centered = xy - xy.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] <= 1e-9 * max(svals[0], 1.0):
        raise DegenerateFitError("samples are collinear")
    A = np.column_stack([xy[:, 0], xy[:, 1], np.ones(len(xy))])
    b = -(xy[:, 0] ** 2 + xy[:, 1] ** 2)
    (D, E, F), *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy = -D / 2.0, -E / 2.0
    r2 = cx * cx + cy * cy - F
    if r2 <= 0.0:
        raise DegenerateFitError("fit does not define a positive radius")
    radius = math.sqrt(r2)
    dist = np.hypot(xy[:, 0] - cx, xy[:, 1] - cy)
    rms = float(np.sqrt(np.mean((dist - radius) ** 2)))
    return CircleFit(center=(float(cx), float(cy)), radius=float(radius), rms=rms)


def winding_orientation(trace: GeodesicTrace) -> int:
    """+1 for counterclockwise velocity winding, -1 for clockwise."""
    u, v = trace.uv[:, 0], trace.uv[:, 1]
    dtheta = np.diff(np.unwrap(np.arctan2(v, u)))
    total = float(np.sum(dtheta))
    return 1 if total > 0 else -1


def _alpha_speeds(trace: GeodesicTrace, alpha: MetricField) -> np.ndarray:
    return np.array(
        [alpha.norm(x, y, (u, v)) for (x, y), (u, v) in zip(trace.xy, trace.uv)]
    )


def unit_speed_resample(trace: GeodesicTrace, alpha: MetricField) -> GeodesicTrace:
    """Reparametrize a trace by its alpha-arc-length, at the trace's own nodes.

    With sigma the alpha-speed, the velocity becomes u / sigma, which has
    alpha-norm 1 up to rounding, and the acceleration (a - (sigma' / sigma) u)
    / sigma^2; the acceleration is None when the trace carries none.  Arc
    length, the new parameter, is the integral of a cubic spline of sigma,
    and sigma' is that spline's derivative.
    """
    speeds = _alpha_speeds(trace, alpha)
    if np.any(speeds <= 0):
        raise EvaluationError("trace has a vanishing velocity sample")
    spline = CubicSpline(trace.t, speeds)
    uv = trace.uv / speeds[:, None]
    acc = None
    if trace.acc is not None:
        rate = spline(trace.t, 1) / speeds
        acc = (trace.acc - rate[:, None] * trace.uv) / speeds[:, None] ** 2
    return GeodesicTrace(t=spline.antiderivative()(trace.t), xy=trace.xy, uv=uv, acc=acc)


def curve_samples(trace: GeodesicTrace, interior: int = 50) -> list[CurveSample]:
    """Position/velocity/acceleration samples at up to ``interior`` nodes.

    The samples are the trace's stored states at nodes spread evenly between
    its two ends, which are left out.  Raises ``ValueError`` when the trace
    carries no acceleration (``integrate_spray`` stores it).
    """
    if trace.acc is None:
        raise ValueError("trace carries no acceleration; trace it with integrate_spray")
    last = len(trace) - 1
    nodes = np.linspace(0, last, interior + 2)[1:-1].round().astype(int)
    return [
        CurveSample(
            pos=tuple(float(c) for c in trace.xy[i]),
            vel=tuple(float(c) for c in trace.uv[i]),
            acc=tuple(float(c) for c in trace.acc[i]),
        )
        for i in np.unique(np.clip(nodes, 1, last - 1))
    ]
