"""The machine's speed during a run, from a fixed loop that does not use freedec.

The benchmark shares its cores with other machines' work, and their speed
drifts by a quarter or more over minutes: a slow phase can outlast a whole
run, so no median over one run's rounds removes it.  ``Calibration`` times a
fixed mix of Python and numpy work every ``PERIOD_S`` seconds while the
operations run, and ``scale`` turns the run's seconds into seconds at one
fixed speed of the machine: a slow phase slows the samples and the
operations alike, and cancels.  A change to freedec cannot move the
calibration.

The samples are spaced in time, not taken between operations: an
operation of several seconds sees the machine's speed over those seconds,
and samples taken only at its ends missed about half of that drift.
"""

import contextlib
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25  # wall time between samples, so a sample costs about 4% of a run
# The calibration's median time on one core of a 2.1 GHz Intel Xeon
# (Python 3.11, numpy 2.4, one BLAS thread), so that scaled times read
# close to that machine's wall seconds.
REFERENCE_S = 0.010


class Calibration:
    """Times of the fixed loop, and the seconds spent taking them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        self._large = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        self._matrix = rng.standard_normal((64, 64))
        self.samples = []
        self.spent = 0.0  # operations' timings subtract this

    def sample(self):
        """Time the loop once; the returned sum keeps every result in use."""
        start = time.perf_counter()
        total = 0.0
        for i in range(20000):
            total += (i % 7) * 0.5
        for z in [self._small] * 300 + [self._large] * 20:
            w = np.sqrt(z * z - 4.0)
            total += float(np.abs(np.where(w.imag < 0, -w, w)).sum())
        for _ in range(5):
            total += float(np.linalg.eigvalsh(self._matrix)[0])
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        return total

    @contextlib.contextmanager
    def running(self):
        """Take a sample now and then every ``PERIOD_S`` seconds until the block ends.

        The later samples run from a SIGALRM handler, between the bytecodes
        of whatever the main thread is doing; the timer is re-armed after
        each sample, so samples never overlap.
        """

        def on_alarm(signum, frame):
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

        self.sample()
        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self):
        """The factor that turns this run's seconds into seconds at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
