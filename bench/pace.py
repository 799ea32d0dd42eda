"""Host-speed probe for the untraced runs.

The benchmark runs on a shared host whose speed, for one single-threaded
process, drifts by 20-30 % over minutes as other tenants load it.  A run of
the same items reads that drift directly, and the spread over runs of the
same code hides changes smaller than the drift.

While the items run, ``Pacer`` times a fixed computation that uses nothing
from the package (a short interpreted loop and a few operations on a small
numpy array, the two kinds of work the package does) every ``PERIOD_S``
seconds, from a ``SIGALRM`` handler in the measuring process.  The probe's
duration tracks how fast the host runs this process at that moment.  An
item's corrected latency is its wall time, less the time the probe itself
took during the item, times ``NOMINAL_S`` over the median probe duration
around the item: its wall time at the probe speed of a quiet host.  Only
the host's speed cancels; a change to the package moves the corrected
latency as much as the wall time.  The probe allocates no container, so it
never triggers the garbage collector, and the package's heap cannot slow
it.
"""

import signal
import statistics
import time

import numpy as np

# probe interval; the probe itself takes about 0.5 ms, some 2.5 % of it
PERIOD_S = 0.02
# the probe's median duration on a quiet 2-core Xeon box of the kind the
# baseline comes from; it only sets the scale of the corrected times
NOMINAL_S = 0.55e-3
# samples within this many seconds of an item also describe its host speed
# (an item shorter than the interval holds none of its own)
PAD_S = 1.0

_X = np.linspace(0.0, 1.0, 64)


def probe():
    s = 0
    f = 0.0
    for i in range(1, 2000):
        s += i * i % 7
        f += (i & 15) * 0.5
    x = _X
    for _ in range(60):
        x = np.sin(x) * 0.5 + 0.25
    return s + f + float(x[0])


class Pacer:
    """Times ``probe`` every ``PERIOD_S`` seconds of wall time while running.

    ``at`` and ``took`` hold each sample's start and duration, from
    ``time.perf_counter``.  ``spent`` is the probes' total duration, so a
    caller can take it out of an interval it timed."""

    def __init__(self):
        self.at, self.took = [], []
        self.spent = 0.0
        self._old = None

    def _tick(self, _signum, _frame):
        t = time.perf_counter()
        probe()
        d = time.perf_counter() - t
        self.at.append(t)
        self.took.append(d)
        self.spent += d

    def start(self):
        probe()  # warm the code paths once
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, spans):
        """For each (start, end) interval, NOMINAL_S over the median probe
        duration of the samples within PAD_S of it, or of all samples where
        none is that close."""
        at = np.asarray(self.at)
        took = np.asarray(self.took)
        out = []
        for t0, t1 in spans:
            lo = np.searchsorted(at, t0 - PAD_S)
            hi = np.searchsorted(at, t1 + PAD_S)
            out.append(NOMINAL_S / statistics.median(took[lo:hi] if hi > lo
                                                     else took))
        return out
