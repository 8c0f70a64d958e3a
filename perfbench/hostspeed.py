"""Correct operation wall times for the speed of a shared host.

On a host whose cores are shared with other tenants, the same code runs
up to 1.7 times slower for stretches of seconds to tens of seconds, and
process CPU time slows with it. Timing a fixed reference computation next
to the program tracks that speed. The reference is a short integration of
a harmonic oscillator with scipy's RK45 and a Python right-hand side: the
same interpreter-bound mix as plaplace's solvers, and none of plaplace's
code, so a change to plaplace does not move it.

`HostSpeed` times the reference between operations and, from a SIGALRM
timer, every INTERVAL seconds inside them (untraced runs only: in a
traced run the samples would fall inside the spans). An operation's
corrected time is its wall time (minus the time spent in the reference)
scaled by REFERENCE_S over the mean reference time sampled at its two
ends and inside it: the time it would have taken at the host speed where
the reference takes REFERENCE_S.
"""

import signal
import statistics
import time

from scipy.integrate import solve_ivp

# the reference's time in the fast state of the 2-vCPU host the bounds were
# set on; a constant, so it rescales every commit alike
REFERENCE_S = 0.0033
INTERVAL = 0.5


def _oscillator(t, y):
    return [y[1], -y[0]]


def reference():
    """Time of the reference computation: the median of three short runs,
    so that one interruption of the process does not count as slowness."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        solve_ivp(_oscillator, (0.0, 4.0), [1.0, 0.0], method="RK45",
                  rtol=1e-9, atol=1e-12)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Reference samples around and, every `interval` seconds, inside timed
    operations; interval None samples only around them."""

    def __init__(self, interval=INTERVAL):
        reference()  # first call pays scipy's lazy set-up
        self.interval = interval
        self.samples = []
        self._inside = []
        self._paused = 0.0
        self._last = reference()

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self._inside.append(reference())
        self._paused += time.perf_counter() - start

    def measure(self, fn):
        """Run fn(); returns (result, error, wall seconds, corrected seconds).

        error is the exception fn raised (result is then None), else None.
        """
        before = self._last
        self._inside = []
        self._paused = 0.0
        result = error = None
        if self.interval:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            error = exc
        finally:
            wall = time.perf_counter() - start
            if self.interval:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
        wall -= self._paused
        self._last = reference()
        refs = [before] + self._inside + [self._last]
        self.samples.extend(refs[1:])
        return result, error, wall, wall * REFERENCE_S / statistics.fmean(refs)
