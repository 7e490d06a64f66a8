"""Fixed-step integration of sprays and scalar equations, plus trace
post-processing: circle fitting, arc-length reparametrization, curvature
sampling from the stored states.

Classical RK4 throughout; trajectories here are short and smooth, and the
fixed step keeps convergence-order measurements clean.  The state is a point
of the tangent bundle (x, y, u, v) held in plain floats; each step is
written out component by component, and the states become arrays once, in
one pass, when the run ends.  Two loops share one time grid.  ``_rk4``
calls a right-hand side on the state as a tuple of four floats, refuses a
state of any other length and returns the states alone; ``integrate_flow``
(magnetic flows) and ``integrate_ode`` run on it, the latter on the lift
(x, y, 1, y') of y'' = f(x, y, y'), with x read from the time grid.
``integrate_spray`` has its own second-order loop for x'' = -2 G(x, x'),
whose stages call ``Spray.coefficients`` directly and take the stage
velocities as position slopes; it rounds every float as ``_rk4`` would on
(u, v, -2 G1, -2 G2), and it keeps the acceleration at each state.
Because every trace advances in equal steps, reparametrization needs no
interpolant: the alpha-speeds at all nodes come from one array evaluation
of the metric, their derivative from a seven-node differentiation stencil
on them, and arc length from the Hermite (corrected trapezoidal) rule,
which is O(h^4) like the RK4 states it starts from.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    acc: np.ndarray  # shape (n, 2): the acceleration at each state, -2 G for a spray
    domain_exit: bool = False

    def __len__(self):
        return len(self.t)


@dataclass(frozen=True)
class OdeCurve:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    blown_up: bool = False


def _grid(t0: float, t1: float, step: float) -> tuple:
    """The times and the step h of a fixed-step run from t0 to t1.

    Takes n = ceil((t1 - t0) / step) equal steps (``step`` is an upper
    bound, up to a relative 1e-9), at least one when t1 > t0, with times
    t0 + i (t1 - t0) / n as a list of floats, so the last time is t1
    exactly; t1 == t0 gives the one time t0 and h = 0.  Raises
    ``ValueError``, checked in this order, when t0 or t1 is not finite, when
    t1 precedes t0, or when ``step`` is not finite and positive.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"integration ends {t0} and {t1} must be finite")
    if t1 < t0:
        raise ValueError(f"integration end {t1} precedes its start {t0}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step {step} is not finite and positive")
    n = max(math.ceil((t1 - t0) / step - 1e-9), 1) if t1 > t0 else 0
    return np.linspace(t0, t1, n + 1).tolist(), (t1 - t0) / n if n else 0.0


def _rk4(rhs, init, t0: float, t1: float, step: float, stop=None):
    """Classical RK4 of s' = rhs(t, s) on the state s = (x, y, u, v) from t0 to t1.

    The loop of ``integrate_flow`` and ``integrate_ode``; sprays have their
    own, in ``integrate_spray``.  rhs receives the state as a tuple of four
    floats and returns four numbers; the stages and the update are written
    out component by component on floats.  The times are those of
    ``_grid``.  A state is kept only if it is finite, ``stop`` does not fire
    on it and rhs evaluates there; otherwise the run ends early.  An
    ``EvaluationError`` at ``init`` propagates.  Returns (times, states of
    shape (m, 4), stopped early), the first two as arrays.  rhs at a kept
    state is the next step's first stage, so a run makes one evaluation
    more than 4 n.  Raises ``ValueError``, checked in this order, for
    ``_grid``'s three reasons, when ``init`` does not have four components,
    or when rhs at ``init`` returns a number of components other than four.
    """
    times, h = _grid(t0, t1, step)
    state = tuple([float(c) for c in init])
    if len(state) != 4:
        raise ValueError(f"state of {len(state)} components; RK4 integrates (x, y, u, v)")
    h2, h6 = 0.5 * h, h / 6.0
    x, y, u, v = state
    k1 = rhs(t0, state)
    if len(k1) != 4:
        raise ValueError(f"rhs returned {len(k1)} components for a state of 4")
    states = [state]
    stopped = False
    isfinite = math.isfinite
    for t, t_next in zip(times, times[1:]):
        a1, b1, c1, d1 = k1
        tm = t + h2
        try:
            a2, b2, c2, d2 = rhs(tm, (x + h2 * a1, y + h2 * b1, u + h2 * c1, v + h2 * d1))
            a3, b3, c3, d3 = rhs(tm, (x + h2 * a2, y + h2 * b2, u + h2 * c2, v + h2 * d2))
            a4, b4, c4, d4 = rhs(t_next, (x + h * a3, y + h * b3, u + h * c3, v + h * d3))
            x1 = x + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            y1 = y + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            u1 = u + h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
            v1 = v + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
            state = (x1, y1, u1, v1)
            if not (isfinite(x1) and isfinite(y1) and isfinite(u1) and isfinite(v1)) or (
                stop is not None and stop(state)
            ):
                stopped = True
                break
            k1 = rhs(t_next, state)
        except EvaluationError:
            stopped = True
            break
        x, y, u, v = state
        states.append(state)
    return np.array(times[: len(states)]), _rows(states, 4), stopped


def _rows(rows, width: int) -> np.ndarray:
    """The (m, width) float array of a list of m rows of ``width`` numbers, filled in one pass."""
    return np.fromiter(itertools.chain.from_iterable(rows), float, width * len(rows)).reshape(-1, width)


def integrate_flow(rhs, init, tmax: float, step: float):
    """Fixed-step RK4 of an autonomous flow on the tangent bundle from t = 0 to ``tmax``.

    The state is (x, y, u, v): rhs receives it as a tuple of four floats
    and returns four numbers (``randers.magnetic_rhs`` is such a flow).
    ``step`` is an upper bound: the run takes ceil(tmax / step) equal steps
    and, unless it stops early, ends at ``tmax`` exactly.  It stops early
    when a state is not finite or rhs raises ``EvaluationError``.  Returns
    (times, states of shape (m, 4), stopped early) as arrays.  Raises
    ``ValueError`` when ``init`` or rhs at ``init`` has other than four
    components.
    """
    return _rk4(lambda t, s: rhs(s), init, 0.0, tmax, step)


def integrate_spray(
    spray: Spray, init: Sequence[float], tmax: float, step: float
) -> GeodesicTrace:
    """Integrate x'' = -2 G(x, x') from ``init`` = (x, y, u, v) over [0, tmax].

    RK4 written for the second-order system: the position slopes of the
    stages are the stage velocities, and the velocity slopes are
    -2.0 times the pair that ``spray.coefficients`` returns at the stage,
    4 n + 1 calls for n steps.  Every float rounds as in ``_rk4`` on
    (x, y, u, v)' = (u, v, -2 G1, -2 G2), on the times of ``_grid``
    (``integrate_flow``'s steps).  The trace stores the acceleration -2G at
    every state.  Raises ``DomainError`` when ``init`` lies outside the
    spray's rectangle or its fiber vector is (numerically) zero, then
    ``_grid``'s ``ValueError``; an ``EvaluationError`` at ``init``
    propagates.  The run halts with the domain-exit flag at a state that is
    not finite, whose base point leaves the rectangle or whose fiber norm
    collapses below 1e-12, or where the spray raises ``EvaluationError``;
    that state is not kept.
    """
    x, y, u, v = (float(c) for c in init)
    if not spray.domain.contains(x, y):
        raise DomainError(f"initial base point ({x}, {y}) outside the spray domain")
    if u * u + v * v <= 1e-24:
        raise DomainError("initial fiber vector is (numerically) zero")
    times, h = _grid(0.0, tmax, step)
    h2, h6 = 0.5 * h, h / 6.0
    coefficients, contains = spray.coefficients, spray.domain.contains
    g1, g2 = coefficients(x, y, u, v)
    a, b = -2.0 * g1, -2.0 * g2
    states, accs = [(x, y, u, v)], [(a, b)]
    exited = False
    isfinite = math.isfinite
    for _ in times[1:]:
        try:
            u2, v2 = u + h2 * a, v + h2 * b
            g1, g2 = coefficients(x + h2 * u, y + h2 * v, u2, v2)
            a2, b2 = -2.0 * g1, -2.0 * g2
            u3, v3 = u + h2 * a2, v + h2 * b2
            g1, g2 = coefficients(x + h2 * u2, y + h2 * v2, u3, v3)
            a3, b3 = -2.0 * g1, -2.0 * g2
            u4, v4 = u + h * a3, v + h * b3
            g1, g2 = coefficients(x + h * u3, y + h * v3, u4, v4)
            a4, b4 = -2.0 * g1, -2.0 * g2
            x1 = x + h6 * (u + 2.0 * u2 + 2.0 * u3 + u4)
            y1 = y + h6 * (v + 2.0 * v2 + 2.0 * v3 + v4)
            u1 = u + h6 * (a + 2.0 * a2 + 2.0 * a3 + a4)
            v1 = v + h6 * (b + 2.0 * b2 + 2.0 * b3 + b4)
            if not (isfinite(x1) and isfinite(y1) and isfinite(u1) and isfinite(v1)) or (
                not contains(x1, y1) or u1 * u1 + v1 * v1 < 1e-24
            ):
                exited = True
                break
            g1, g2 = coefficients(x1, y1, u1, v1)
        except EvaluationError:
            exited = True
            break
        x, y, u, v = x1, y1, u1, v1
        a, b = -2.0 * g1, -2.0 * g2
        states.append((x, y, u, v))
        accs.append((a, b))
    states = _rows(states, 4)
    return GeodesicTrace(
        t=np.array(times[: len(states)]),
        xy=states[:, :2],
        uv=states[:, 2:],
        acc=_rows(accs, 2),
        domain_exit=exited,
    )


def integrate_ode(
    f: ScalarField, init: Sequence[float], xmax: float, step: float
) -> OdeCurve:
    """Integrate y'' = f(x, y, y') from (x0, y0, z0) up to xmax.

    The equation is integrated as its lift to the tangent bundle, the state
    (x, y, 1, y') with (x, y, 1, y')' = (1, y', 0, f), from (x0, y0, 1, z0).
    x is read from the time grid, not from the state, so the abscissae are
    those of ``integrate_flow`` from x0 exactly, and y and y' round as a
    two-component RK4 of (y, y') would.  The curve ends at ``xmax`` exactly
    unless it blows up first, that is unless |y'| exceeds 1e6, a value is
    not finite or f raises ``EvaluationError``.  A field whose arity is not
    3 raises the ``TypeError`` of ``ScalarField`` before any step; each
    stage then calls ``f.fn``.
    """
    if f.arity != 3:
        raise f.arity_error(3)
    x0, y0, z0 = (float(c) for c in init)
    fn = f.fn

    def rhs(x, s):
        return 1.0, s[3], 0.0, fn(x, s[1], s[3])

    xs, states, blown = _rk4(rhs, (x0, y0, 1.0, z0), x0, xmax, step, lambda s: abs(s[3]) > 1e6)
    return OdeCurve(xs, states[:, 1], states[:, 3], blown_up=blown)


@dataclass(frozen=True)
class CircleFit:
    center: tuple
    radius: float
    rms: float


def circle_fit(trace) -> CircleFit:
    """Algebraic least-squares circle through the base points of a trace.

    Minimizes sum (x^2 + y^2 + D x + E y + F)^2 in coordinates centred on
    the sample mean, so that a small circle far from the origin keeps its
    digits, then reports the rms of the geometric radius defect.  Collinear
    input raises.
    """
    xy = trace.xy if isinstance(trace, GeodesicTrace) else np.asarray(trace, dtype=float)
    if len(xy) < 10:
        raise DegenerateFitError("need at least 10 samples for a circle fit")
    mean = xy.mean(axis=0)
    centered = xy - mean
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[1] <= 1e-9 * svals[0]:
        raise DegenerateFitError("samples are collinear")
    A = np.column_stack([centered[:, 0], centered[:, 1], np.ones(len(xy))])
    b = -(centered[:, 0] ** 2 + centered[:, 1] ** 2)
    (D, E, F), *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy = -D / 2.0, -E / 2.0
    # the centred columns are orthogonal to the ones column, so F = -mean(x^2 + y^2)
    # and the radicand is at least mean(x^2 + y^2), which the collinearity guard keeps positive
    radius = math.sqrt(cx * cx + cy * cy - F)
    dist = np.hypot(centered[:, 0] - cx, centered[:, 1] - cy)
    rms = float(np.sqrt(np.mean((dist - radius) ** 2)))
    return CircleFit(center=(float(cx + mean[0]), float(cy + mean[1])), radius=float(radius), rms=rms)


def _diff_weights(m: int) -> np.ndarray:
    """Row p: the weights that give, from values at m nodes one step apart,
    the derivative per step at node p of the polynomial through them."""
    nodes = np.linspace(-1.0, 1.0, m)  # [-1, 1] keeps the Vandermonde solve well conditioned
    powers = np.vander(nodes, increasing=True)
    slopes = np.array([[k * z ** (k - 1) if k else 0.0 for k in range(m)] for z in nodes])
    return np.linalg.solve(powers.T, slopes.T).T * (2.0 / (m - 1))


_DIFF_WEIGHTS = {m: _diff_weights(m) for m in range(2, 8)}


def unit_speed_resample(trace: GeodesicTrace, alpha: MetricField) -> GeodesicTrace:
    """Reparametrize a trace by its alpha-arc-length, at the trace's own nodes.

    The alpha-speeds sigma at all nodes come from one ``alpha.norm`` call on
    the trace's arrays.  The velocity becomes u / sigma, which has
    alpha-norm 1 up to rounding, and the acceleration (a - (sigma' / sigma) u)
    / sigma^2.  sigma' at each node is the derivative of the polynomial
    through the 7 nearest nodes: the central stencil (-1, 9, -45, 0, 45, -9,
    1) / 60h inside, one-sided seven-node rows at the 3 nodes of each end,
    and all nodes when the trace has fewer than 7.  Arc length, the new
    parameter, starts at 0 and advances by the Hermite rule s+ = s + h/2
    (sigma + sigma+) + h^2/12 (sigma' - sigma'+).  Raises ``ValueError`` for a trace of one state
    or one whose times do not advance in equal steps (``integrate_spray``
    traces always do).  The result keeps the trace's ``domain_exit``.
    """
    n = len(trace)
    if n < 2:
        raise ValueError(f"trace of {n} states has no step to reparametrize")
    h = (trace.t[-1] - trace.t[0]) / (n - 1)
    if not (h > 0.0 and np.abs(np.diff(trace.t) - h).max() <= 1e-9 * h):
        raise ValueError(f"trace times do not advance in equal steps of {h}")
    xs, ys = trace.xy.T
    speeds = alpha.norm(xs, ys, trace.uv.T)
    zero = np.flatnonzero(speeds <= 0.0)
    if zero.size:
        i = zero[0]
        raise EvaluationError(f"trace has a vanishing velocity sample at node {i}, at ({xs[i]}, {ys[i]})")
    m = min(n, 7)
    starts = np.clip(np.arange(n) - m // 2, 0, n - m)
    rows = _DIFF_WEIGHTS[m][np.arange(n) - starts]
    rates = np.einsum("ij,ij->i", rows, sliding_window_view(speeds, m)[starts]) / h
    steps = 0.5 * h * (speeds[:-1] + speeds[1:]) + h * h / 12.0 * (rates[:-1] - rates[1:])
    uv = trace.uv / speeds[:, None]
    acc = (trace.acc - (rates / speeds)[:, None] * trace.uv) / speeds[:, None] ** 2
    return GeodesicTrace(t=np.concatenate(([0.0], np.cumsum(steps))), xy=trace.xy, uv=uv, acc=acc,
                         domain_exit=trace.domain_exit)


def curve_samples(trace: GeodesicTrace, interior: int = 50) -> list[CurveSample]:
    """Position/velocity/acceleration samples at up to ``interior`` nodes.

    The samples are the trace's stored states at nodes spread evenly between
    its two ends, which are left out.  Raises ``ValueError`` when ``interior``
    is below 1 or the trace has no state between its ends.
    """
    if interior < 1:
        raise ValueError(f"need at least one interior sample, not {interior}")
    if len(trace) < 3:
        raise ValueError(f"trace of {len(trace)} states has no interior state")
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
