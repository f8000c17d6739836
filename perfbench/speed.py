"""Machine speed, gauged by a fixed reference kernel between operations.

The benchmark shares its host with other work, and the host's speed drifts:
the same operation can take 1.7 times as long for a minute at a time.  A
fixed kernel that uses nothing from bellowkin is timed between operations;
each operation's wall time is divided by the kernel's time around it and
multiplied by the kernel's nominal time.  The gated timings are therefore
times at the nominal machine speed: a change to bellowkin moves them as it
moves wall time, while the host's drift largely cancels (README.md,
"End-to-end metrics" and "Steadiness").

There are two kernels, one for each kind of timed work: an in-process loop
for operations inside this process, and a fresh interpreter for work done
by fresh processes (the stage processes and the set-up), which follows
the in-process kernel poorly.
"""

import bisect
import functools
import statistics
import subprocess
import sys
import time

import numpy as np

# Wall times of the two kernels on the 2-core host the benchmark was
# written on, in its fast state; they only set the scale of the results.
NOMINAL_S = 0.003
NOMINAL_FRESH_S = 0.2
MIN_INTERVAL_S = 0.25   # sample at most this often (short operations)
MIN_REPEATS = 3
SHARE = 0.05            # kernel time per sample, as a share of the last op


def reference_kernel() -> float:
    """Interpreter-bound loop plus small numpy ops, like bellowkin's mix."""
    s = 0.0
    for k in range(20000):
        s += (k % 7) * 0.5
    a = np.linspace(0.0, 1.0, 500)
    for _ in range(300):
        a = np.cos(a) * 0.999 + 0.001
    return s + float(a.sum())


def fresh_interpreter(env=None):
    """A fresh interpreter that imports numpy: process start and imports,
    nothing from bellowkin."""
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   timeout=60, stdout=subprocess.DEVNULL)


class SpeedGauge:
    """Reference-kernel samples of one run, and normalization by them."""

    def __init__(self, kernel=reference_kernel, nominal_s=NOMINAL_S,
                 min_repeats=MIN_REPEATS):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.min_repeats = min_repeats
        self.times = []     # perf_counter at each sample
        self.refs = []      # median kernel seconds of each sample

    def sample(self, budget_s: float = 0.0):
        """Median of at least min_repeats kernel runs, more while their
        total stays under `budget_s`."""
        runs = []
        start = time.perf_counter()
        while len(runs) < self.min_repeats or time.perf_counter() - start < budget_s:
            t0 = time.perf_counter()
            self.kernel()
            runs.append(time.perf_counter() - t0)
        self.times.append(time.perf_counter())
        self.refs.append(statistics.median(runs))

    def sample_after(self, last_op_s: float):
        """A sample lasting SHARE of the operation just finished."""
        self.sample(SHARE * last_op_s)

    def sample_if_due(self, last_op_s: float = 0.0):
        """sample_after, unless a sample was taken in the last MIN_INTERVAL_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= MIN_INTERVAL_S:
            self.sample_after(last_op_s)

    def reference_s(self, start: float, end: float) -> float:
        """Mean kernel time of the last sample before `start` and the first
        after `end` (either alone at the edges of the run)."""
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        picks = [self.refs[k] for k in (before, after) if 0 <= k < len(self.refs)]
        return statistics.fmean(picks)

    def normalize(self, seconds: float, start: float, end: float) -> float:
        return seconds * self.nominal_s / self.reference_s(start, end)

    def median_ref_ms(self) -> float:
        return 1e3 * statistics.median(self.refs)


def fresh_gauge(env=None) -> SpeedGauge:
    """A gauge for work done by fresh processes: one fresh interpreter per
    sample."""
    return SpeedGauge(functools.partial(fresh_interpreter, env), NOMINAL_FRESH_S,
                      min_repeats=1)
