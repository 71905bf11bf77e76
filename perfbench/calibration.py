"""A fixed slice of work that tells how fast the machine runs right now.

The slice mixes the three kinds of work payoffcontrol does (interpreter
work on small objects, 8x8 linear algebra, one small HiGHS LP) in code
that does not touch payoffcontrol.  Dividing a latency by the slice's
time measured at the same moment cancels minutes in which a shared
machine runs everything slower.
"""

import statistics
import time

# The slice's time on an unloaded core of the reference machine; scales
# a calibrated figure back to seconds.
REFERENCE_SLICE_S = 0.010


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def calibrate() -> float:
    """Wall seconds of one calibration slice."""
    import numpy as np
    from scipy.optimize import linprog

    rng = np.random.default_rng(0)
    lp_a = rng.random((60, 10))
    start = time.perf_counter()
    table = {}
    acc = 0.0
    eye = np.eye(8)
    for i in range(300):
        cell = _Cell(i & 31, float(i))
        table[cell.key] = cell
        acc += sum(c.value for c in table.values()) * 1e-9
        m = np.full((8, 8), 0.125) + (i % 7) * 1e-3
        a = (eye - m / m.sum(axis=1, keepdims=True)).T
        a[-1, :] = 1.0
        acc += float(np.linalg.solve(a, eye[-1])[0])
    linprog(-lp_a[0], A_ub=lp_a, b_ub=lp_a.sum(axis=1) * 0.5 + 1.0,
            bounds=[(0.0, 1.0)] * 10, method="highs")
    return time.perf_counter() - start


def reference_seconds(wall: float, slices: int = 5) -> float:
    """``wall`` seconds just measured, rescaled to the reference speed by
    the median of ``slices`` calibration slices run now."""
    now = statistics.median(calibrate() for _ in range(slices))
    return wall * REFERENCE_SLICE_S / now
