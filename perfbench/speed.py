"""Host-speed normalisation of measured times.

On a host with shared vCPUs the per-instruction speed drifts, by up to 2x
within minutes, with the load of other tenants; back-to-back identical runs
then differ by far more than any bound worth keeping. So a fixed pure-Python
reference loop is timed at marks: one at each end of a measured stretch and
one every ``PERIOD_S`` in between, from a SIGALRM handler. The time between
two consecutive marks is scaled by ``REFERENCE_S`` over the mean of the two
reference timings; time spent inside marks is left out. A scaled time reads
as seconds on a host where the reference loop takes ``REFERENCE_S``. Raw
times are reported beside it.

This assumes the program runs on one core. Work that runs in other
processes or threads while the reference loop runs would slow the loop and
so make the program read faster than it is.
"""

from __future__ import annotations

import signal
import time

# Time of reference_loop() on an uncontended 2.0 GHz Xeon vCPU, Python 3.11.
REFERENCE_S = 0.0015
PERIOD_S = 0.05


def reference_loop() -> int:
    """Fixed interpreter-bound work, shaped like sinksim's: float compares and
    updates over a list, then %.17g formatting of rows into a string."""
    energy = [1.0] * 64
    spent = 0.0
    for _ in range(100):
        for i in range(64):
            cost = 1e-7 * (i % 7 + 1)
            if energy[i] >= cost:
                energy[i] -= cost
                spent += cost
    rows = []
    for r in range(600):
        spent += 1e-7
        rows.append(f"{r},{r % 100},{spent:.17g},{r * 3}\n")
    return len("".join(rows))


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


class SpeedMarks:
    """Reference-loop timings at marks, and times scaled between them."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (start, end) of each loop
        self._in_mark = False

    def mark(self, *_signal) -> None:
        if self._in_mark:  # an alarm arrived during a mark
            return
        self._in_mark = True
        t0 = time.perf_counter()
        reference_loop()
        self.marks.append((t0, time.perf_counter()))
        self._in_mark = False

    def start(self) -> None:
        """Clear the marks, mark now and then every PERIOD_S until stop()."""
        self.marks.clear()
        self.mark()
        signal.signal(signal.SIGALRM, self.mark)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.mark()

    def span(self, a, b):
        """Raw and reference-speed seconds of [a, b], time inside marks excluded.

        ``a`` and ``b`` are perf_counter() readings, scalars or arrays. Both
        clocks are cumulative and piecewise linear between the mark ends, so
        a span is the difference of two interpolations.
        """
        import numpy as np  # not at module level: setup_s children import this module

        knots = np.asarray(self.marks).ravel()  # start0, end0, start1, end1, ...
        loop = knots[1::2] - knots[0::2]
        gap = knots[2::2] - knots[1:-1:2]
        raw = np.zeros(len(knots))
        scaled = np.zeros(len(knots))
        raw[2::2] = np.cumsum(gap)
        scaled[2::2] = np.cumsum(gap * 2 * REFERENCE_S / (loop[:-1] + loop[1:]))
        raw[3::2] = raw[2::2]
        scaled[3::2] = scaled[2::2]
        return (np.interp(b, knots, raw) - np.interp(a, knots, raw),
                np.interp(b, knots, scaled) - np.interp(a, knots, scaled))
