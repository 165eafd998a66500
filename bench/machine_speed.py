"""Machine speed, measured next to every timing, to scale times to one speed.

The machine this benchmark was defined on is a 2-core virtual machine on a
shared host.  Its speed for pure-Python work drifts by up to 40% within a
minute, on both cores, and slow spells often outlast a whole run, so raw
wall times of identical runs spread by 20-40%, far beyond any useful
regression bound.  The drift is common to all CPU-bound work: a fixed
pure-Python loop timed alongside an operation slows down by the same
factor, and the operation's time multiplied by ``REFERENCE_S / loop time``
spreads two to four times less.

Every end-to-end time is therefore reported in *reference seconds*: wall
seconds scaled to the speed at which ``speed_loop_s()`` takes
``REFERENCE_S``.  The factor depends only on the machine, never on the
program, so a change to selink moves a scaled time exactly as much as the
wall time it comes from.  Raw wall times are kept in the run details.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter

LOOP_ITERATIONS = 30_000
# Roughly the loop's time on an unloaded machine of the kind the benchmark
# was defined on (2 cores, Python 3.11); only the ratio to it matters.
REFERENCE_S = 0.003


def speed_loop_s() -> float:
    """Wall time of a fixed pure-Python integer loop (about 3 ms)."""
    t0 = perf_counter()
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return perf_counter() - t0


def scale(loop_times) -> float:
    """Factor turning wall seconds into reference seconds.

    The median resists the odd loop that a scheduler event stretched.
    """
    return REFERENCE_S / statistics.median(loop_times)


class SpeedSampler:
    """Times the speed loop every ``period_s`` in a thread while a child runs.

    The thread is busy about 3% of the time, on whichever core is free,
    and samples once more on entry and on exit so that short children get
    at least two samples.  Loops timed before and after a child, without
    the thread, tracked its speed worse than the unscaled wall time did.
    """

    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(self.period_s):
            self.samples.append(speed_loop_s())

    def __enter__(self):
        self.samples.append(speed_loop_s())
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._stop.set()
        self._thread.join()
        self.samples.append(speed_loop_s())
        return False

    def factor(self) -> float:
        return scale(self.samples)
