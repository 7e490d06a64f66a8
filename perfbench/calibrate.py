"""A fixed reference computation that measures how fast the host runs now.

Other tenants of a shared host slow this process by up to 2x, for periods
from well under a second to several minutes.  The reference computation is
plain Python and numpy of the kind projspray runs (RK4 on 4-vectors,
operator-overloaded arithmetic on small objects) and calls nothing of
projspray, so no change to the program moves its time; a change of the
host's speed moves both.  Timings divided by it are steady across such
periods.
"""

import gc
import math
from time import perf_counter

import numpy as np

# The reference computation's time on a 2-CPU Intel Xeon host with Python
# 3.11 and numpy 2.4 when nothing else runs on it.  Timings are reported as
# ``measured * REFERENCE_S / reference time measured beside them``: the time
# the work would take on that host at that speed.
REFERENCE_S = 0.0042


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, o):
        return _Dual(self.a + o.a, self.b + o.b)

    def __mul__(self, o):
        return _Dual(self.a * o.a, self.a * o.b + self.b * o.a)


def _rhs(s):
    x, y, u, v = s
    return np.array([u, v, -math.sin(x) - 0.1 * u, -math.sin(y) - 0.1 * v])


def _kernel():
    s = np.array([0.3, -0.2, 0.5, 0.1])
    h = 1e-3
    for _ in range(200):
        k1 = _rhs(s)
        k2 = _rhs(s + 0.5 * h * k1)
        k3 = _rhs(s + 0.5 * h * k2)
        k4 = _rhs(s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    d, acc = _Dual(1.0, 1.0), _Dual(0.0, 0.0)
    for i in range(1300):
        acc = acc + d * _Dual(float(i), 1.0)
    return float(s[0]) + acc.a


def reference_time() -> float:
    """Time of one run of the reference computation, in s.

    The collector is off while it runs, so that objects the program left
    alive do not slow it.
    """
    gc.disable()
    try:
        t0 = perf_counter()
        _kernel()
        return perf_counter() - t0
    finally:
        gc.enable()
