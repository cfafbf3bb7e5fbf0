"""Host-speed calibration.

The benchmark shares its host with other work, and the host's speed drifts
by tens of percent over seconds. ``sample()`` times a fixed piece of pure
Python, written here and never in the package, so a change to the package
cannot change it: exact ``Fraction`` elimination plus tuple and dict churn,
the same kind of work the package does.

During set-up and the timed phase a ``Sampler`` takes a sample every 50 ms
from a timer signal, so samples land inside long calls too. An op's
time is its wall time minus the samples taken during it, divided by the
host factor around it: the mean over the samples taken during the op when
there are at least ``NEIGHBOURS`` of them, else the median of the
``NEIGHBOURS`` samples nearest to it in time. The factor is a sample's
time over ``NOMINAL_S``, its time at the seed commit on an undisturbed
host, so calibrated times are wall times rescaled to that host speed.
"""

import signal
from fractions import Fraction
from statistics import mean, median
from time import perf_counter

NOMINAL_S = 0.0015
SETUP_SAMPLES = 15
NEIGHBOURS = 5


def kernel():
    n = 6
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] += 7
    for c in range(n):
        pivot = a[c][c]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c] / pivot
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    table = {}
    for i in range(3000):
        table[(i & 63, i >> 6)] = table.get((i & 63, (i >> 6) - 1), 0) ^ i
    return a, table


def sample():
    """Seconds one kernel run takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def factor(samples):
    """How much slower than nominal the host ran over ``samples``: the
    median, robust to a sample the scheduler cut into."""
    return median(samples) / NOMINAL_S


def mean_factor(samples):
    """The host's average slow-down over ``samples`` spread through one call."""
    return mean(samples) / NOMINAL_S


def host_factor_now():
    return factor([sample() for _ in range(SETUP_SAMPLES)])


class Sampler:
    """Takes a ``sample()`` every ``every`` seconds from ``SIGALRM``, between
    two bytecodes of whatever runs in the main thread. ``samples`` holds
    ``(start, kernel seconds, handler seconds)`` in time order."""

    def __init__(self, every):
        self.every = every
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        seconds = sample()
        self.samples.append((start, seconds, perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
