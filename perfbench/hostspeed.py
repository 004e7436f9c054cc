"""Host speed probe: rescales the CPU time of a pass to a reference speed.

On a shared host a fixed amount of work takes a varying time for two
reasons: the hypervisor takes the virtual core away (steal), and the core
runs slower while its neighbours are busy.  Process CPU time leaves out the
first on Linux guests with paravirtual steal accounting.  For the second, a
:class:`SpeedProbe` runs a short fixed kernel every ``INTERVAL`` seconds of
wall time while a pass runs and times it in CPU time.  The mean kernel time,
the slowest and fastest ``TRIM`` share left out, over ``KERNEL_REF_S`` is
the slow-down factor of the pass.  A pass's CPU time divided by that factor
is its time at the reference speed.

The kernel mixes interpreted Python with many numpy calls on a small array,
as the workloads do.  Under contention its CPU time grew with the
workloads' (fitted exponent 0.97-1.11 on three job types); numpy on a large
array grew only half as fast and was left out.  ``KERNEL_REF_S`` is about
its CPU time on a quiet core of the 2-core Xeon the benchmark was written
on, so rescaled times read as seconds on that core.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL = 0.05  # seconds of wall time between kernel samples
KERNEL_REF_S = 0.0005
TRIM = 0.1  # share of samples dropped at each end before averaging
_ARRAY = np.linspace(0.0, 1.0, 1 << 10)
_OUT = np.empty_like(_ARRAY)


def kernel():
    """A fixed amount of mixed work, about half a millisecond."""
    s = 0.0
    d = {}
    for i in range(1500):
        s += math.sin(i * 0.001) * 0.5
        d[i & 63] = s
    for _ in range(60):
        np.multiply(_ARRAY, 1.000001, out=_OUT)
        np.add(_OUT, _ARRAY, out=_OUT)
    return s


def _factor(samples):
    """Slow-down factor from kernel times: their mean, less the ``TRIM``
    share at each end, over the reference time."""
    ordered = sorted(samples)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut]) / KERNEL_REF_S


def _timed_kernel():
    t0 = time.process_time()
    kernel()
    return time.process_time() - t0


class SpeedProbe:
    """Samples the kernel on a wall-clock timer while the block runs.

    ``spent`` is the CPU time the samples took, to be taken off the block's
    own CPU time.  The samples run in a signal handler, so only between
    Python bytecodes of the main thread; the program's state is untouched.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        dt = _timed_kernel()
        self.samples.append(dt)
        self.spent += dt

    def factor(self):
        """Slow-down of the block against the reference speed."""
        if not self.samples:  # a block shorter than one interval
            self.samples.append(_timed_kernel())
        return _factor(self.samples)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def speed_factor(samples=40):
    """Slow-down factor from back-to-back kernel runs, for work that runs in
    another process."""
    return _factor([_timed_kernel() for _ in range(samples)])
