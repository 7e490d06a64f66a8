"""Pieces the workloads share: operations, verdicts, work records, seeded draws."""

from __future__ import annotations

import importlib
import math
import pkgutil
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("catalog", "probes", "trajectories")

# Failures the parent program is known to produce (ROADMAP item 0).  A failed
# verdict tagged with one of these is expected at the seed; any other failure
# makes the run incorrect.
ENDPOINT_SHORTFALL = "endpoint_shortfall"  # round(T/h) steps of size h miss T
SPLINE_RESAMPLE = "spline_resample"  # trapezoid arc length, spline derivatives
KNOWN_DEFECTS = (ENDPOINT_SHORTFALL, SPLINE_RESAMPLE)


def import_package():
    """Import every module of projspray; return the package."""
    import projspray

    for mod in pkgutil.iter_modules(projspray.__path__):
        importlib.import_module(f"projspray.{mod.name}")
    return projspray


def workload(name: str):
    """The module that defines workload ``name`` (``build`` and ``ops``)."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return importlib.import_module(f"wl_{name}")


class GateError(RuntimeError):
    """The work a run did differs from the workload definition."""


@dataclass(frozen=True)
class Verdict:
    """Outcome of one claim: ``ok`` when it holds; ``defect`` names a known
    seed defect that explains a failure."""

    ok: bool
    worst: float
    tol: float
    defect: str | None = None


def at_most(worst: float, tol: float, defect: str | None = None) -> Verdict:
    ok = worst <= tol
    return Verdict(ok, worst, tol, None if ok else defect)


@dataclass(frozen=True)
class Op:
    """One operation: a claim or a call, with the work its definition asks for."""

    kind: str
    key: str
    fn: Callable[["Work"], Verdict]
    points: int = 0
    fiber_dirs: int = 0


class Work:
    """Work one operation did, as seen where the program is called.

    ``points`` and ``fiber_dirs`` count the distinct sample points and fiber
    directions the program was evaluated at; ``due`` overrides the defined
    point count when the program legitimately ended a sweep at its witness.
    """

    __slots__ = ("_points", "_dirs", "due", "rk4_steps", "rk4_requested")

    def __init__(self):
        self._points = set()
        self._dirs = set()
        self.due = None
        self.rk4_steps = 0
        self.rk4_requested = 0

    def at(self, point, direction=None) -> None:
        """Record one evaluation of the program at ``point`` (and ``direction``)."""
        self._points.add(tuple(point))
        if direction is not None:
            self._dirs.add(tuple(direction))

    @property
    def points(self) -> int:
        return len(self._points)

    @property
    def fiber_dirs(self) -> int:
        return len(self._dirs)

    def rk4(self, times, tmax: float, step: float, stopped: bool) -> None:
        """Record the steps of one trace; refuse a coarser step or a short run.

        ``times`` are the trace's parameter values from its start.  A trace
        that was not stopped early must take at least floor(tmax/step) steps,
        none longer than ``step``.
        """
        steps = len(times) - 1
        if steps and float(np.max(np.diff(times))) > step * (1.0 + 1e-9):
            raise GateError(f"trace used a step above the requested {step}")
        if not stopped and steps < math.floor(tmax / step + 1e-9):
            raise GateError(f"trace took {steps} steps, fewer than tmax/step = {tmax / step:.3f}")
        self.rk4_steps += steps
        self.rk4_requested += math.ceil(tmax / step - 1e-9)


@contextmanager
def observe(module, name: str, record: Callable) -> None:
    """Call ``record`` with the arguments of every call of ``module.name``
    made through the module (as the module's own sweeps make them)."""
    original = getattr(module, name)

    def observed(*args, **kwargs):
        record(*args, **kwargs)
        return original(*args, **kwargs)

    setattr(module, name, observed)
    try:
        yield
    finally:
        setattr(module, name, original)


def stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """``n`` draws from [lo, hi), one in each of ``n`` equal strata, shuffled.

    Cost-driving parameters (trace lengths) are drawn this way so that the
    total work of a workload hardly moves from one seed to the next.
    """
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return lo + (hi - lo) * u


def balanced(rng: np.random.Generator, items, n: int) -> list:
    """``n`` picks from ``items``, each used equally often (up to one), shuffled."""
    picks = [items[i % len(items)] for i in range(n)]
    order = rng.permutation(n)
    return [picks[i] for i in order]


def unit_dirs(n: int, offset: float):
    """``n`` equally spaced unit fiber directions, rotated by ``offset``."""
    return [
        (math.cos(offset + 2.0 * math.pi * i / n), math.sin(offset + 2.0 * math.pi * i / n))
        for i in range(n)
    ]


def uniform_in(rng: np.random.Generator, rect, shrink: float = 1.0):
    """A uniform point of a ``Rectangle`` shrunk about its centre."""
    r = rect.shrunk(shrink)
    return float(rng.uniform(r.x0, r.x1)), float(rng.uniform(r.y0, r.y1))
