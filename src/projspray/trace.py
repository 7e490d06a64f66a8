"""Fixed-step integration of sprays and scalar equations, plus trace
post-processing: circle fitting, arc-length reparametrization, curvature
sampling from the stored states.

Classical RK4 throughout; trajectories here are short and smooth, and the
fixed step keeps convergence-order measurements clean.  The integrator
works on plain floats: a right-hand side receives the state as a tuple of
floats and returns a sequence of the same length, and the states become
arrays once, in one pass, when the run ends.  Because every trace
advances in equal steps, reparametrization needs no interpolant: the
alpha-speeds at all nodes come from one array evaluation of the metric,
their derivative from a seven-node differentiation stencil on them, and
arc length from the Hermite (corrected trapezoidal) rule, which is O(h^4)
like the RK4 states it starts from.
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

    rhs receives the state as a tuple of floats and returns a sequence of
    as many components; the stages and the update are computed on floats,
    component by component.  Takes n = ceil((t1 - t0) / step) equal steps
    (``step`` is an upper bound, up to a relative 1e-9), at least one when
    t1 > t0, with times t0 + i (t1 - t0) / n, so the last time is t1
    exactly.  A state is kept only if it is finite, ``stop`` does not fire on
    it and rhs evaluates there; otherwise the run ends early.  An
    ``EvaluationError`` at ``init`` propagates.  Returns (times, states,
    derivatives at the states, stopped early) as arrays.  The derivative at
    a kept state is the next step's first stage, so a run makes one
    evaluation more than 4 n.  Raises ``ValueError`` when t1 precedes t0,
    ``step`` is not finite and positive, or rhs at ``init`` returns a number
    of components other than the state's; t1 == t0 gives the initial state
    alone.
    """
    if t1 < t0:
        raise ValueError(f"integration end {t1} precedes its start {t0}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step {step} is not finite and positive")
    n = max(math.ceil((t1 - t0) / step - 1e-9), 1) if t1 > t0 else 0
    times = np.linspace(t0, t1, n + 1).tolist()
    h = (t1 - t0) / n if n else 0.0
    h2, h6 = 0.5 * h, h / 6.0
    state = tuple([float(c) for c in init])
    k1 = rhs(t0, state)
    if len(k1) != len(state):
        raise ValueError(f"rhs returned {len(k1)} components for a state of {len(state)}")
    states, derivs = [state], [k1]
    stopped = False
    for t, t_next in zip(times, times[1:]):
        try:
            k2 = rhs(t + h2, tuple([s + h2 * k for s, k in zip(state, k1)]))
            k3 = rhs(t + h2, tuple([s + h2 * k for s, k in zip(state, k2)]))
            k4 = rhs(t_next, tuple([s + h * k for s, k in zip(state, k3)]))
            nxt = tuple(
                [s + h6 * (a + 2.0 * b + 2.0 * c + d) for s, a, b, c, d in zip(state, k1, k2, k3, k4)]
            )
            if not all(map(math.isfinite, nxt)) or (stop is not None and stop(nxt)):
                stopped = True
                break
            k1 = rhs(t_next, nxt)
        except EvaluationError:
            stopped = True
            break
        state = nxt
        states.append(state)
        derivs.append(k1)
    m, d = len(states), len(state)
    return np.array(times[:m]), _rows(states, m, d), _rows(derivs, m, d), stopped


def _rows(rows, m: int, d: int) -> np.ndarray:
    """The (m, d) float array of m rows of d numbers, filled in one pass."""
    return np.fromiter(itertools.chain.from_iterable(rows), float, m * d).reshape(m, d)


def integrate_flow(rhs, init, tmax: float, step: float, stop=None):
    """Fixed-step RK4 of the autonomous flow s' = rhs(s) from t = 0 to ``tmax``.

    rhs receives the state as a tuple of floats and returns a sequence of
    the same length; ``stop`` receives the same tuples.  ``step`` is an
    upper bound: the run takes ceil(tmax / step) equal steps and, unless it
    stops early, ends at ``tmax`` exactly.  It stops early when ``stop``
    fires, a state is not finite or rhs raises ``EvaluationError``.
    Returns (times, states, stopped early) as arrays.
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

    coefficients, contains = spray.coefficients, spray.domain.contains

    def rhs(t, state):
        x, y, u, v = state
        g1, g2 = coefficients(x, y, u, v)
        return u, v, -2.0 * float(g1), -2.0 * float(g2)

    def stop(state):
        x, y, u, v = state
        return (not contains(x, y)) or (u * u + v * v < 1e-24)

    times, states, derivs, exited = _rk4(rhs, (x0, y0, u0, v0), 0.0, tmax, step, stop)
    return GeodesicTrace(
        t=times,
        xy=states[:, :2],
        uv=states[:, 2:],
        domain_exit=exited,
        acc=derivs[:, 2:],
    )


def integrate_ode(
    f: ScalarField, init: Sequence[float], xmax: float, step: float
) -> OdeCurve:
    """Integrate y'' = f(x, y, y') from (x0, y0, z0) up to xmax.

    Steps and abscissae are those of ``integrate_flow``, from x0: the curve
    ends at ``xmax`` exactly unless it blows up first, that is unless |y'|
    exceeds 1e6, a value is not finite or f raises ``EvaluationError``.
    """
    x0, y0, z0 = (float(c) for c in init)

    def rhs(x, s):
        return s[1], float(f(x, s[0], s[1]))

    xs, states, _, blown = _rk4(rhs, (y0, z0), x0, xmax, step, lambda s: abs(s[1]) > 1e6)
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
    / sigma^2; the acceleration is None when the trace carries none.  sigma'
    at each node is the derivative of the polynomial through the 7 nearest
    nodes: the central stencil (-1, 9, -45, 0, 45, -9, 1) / 60h inside,
    one-sided seven-node rows at the 3 nodes of each end, and all nodes when
    the trace has fewer than 7.  Arc length, the new parameter, starts at 0
    and advances by the Hermite rule s+ = s + h/2 (sigma + sigma+) +
    h^2/12 (sigma' - sigma'+).  Raises ``ValueError`` for a trace of one state
    or one whose times do not advance in equal steps (``integrate_spray``
    traces always do).
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
    acc = None
    if trace.acc is not None:
        acc = (trace.acc - (rates / speeds)[:, None] * trace.uv) / speeds[:, None] ** 2
    return GeodesicTrace(t=np.concatenate(([0.0], np.cumsum(steps))), xy=trace.xy, uv=uv, acc=acc)


def curve_samples(trace: GeodesicTrace, interior: int = 50) -> list[CurveSample]:
    """Position/velocity/acceleration samples at up to ``interior`` nodes.

    The samples are the trace's stored states at nodes spread evenly between
    its two ends, which are left out.  Raises ``ValueError`` when the trace
    carries no acceleration (``integrate_spray`` stores it) or has no state
    between its ends.
    """
    if trace.acc is None:
        raise ValueError("trace carries no acceleration; trace it with integrate_spray")
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
