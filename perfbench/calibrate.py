"""A fixed reference job that measures how fast this core is right now,
and the host-speed adjustment of the benchmark's times.

On a host shared with other tenants, their load can make the same code run
tens of percent slower for stretches of seconds to tens of seconds, often as
long as a whole benchmark run, so a median over the passes of one run does
not hold still from run to run.  The reference job is run between the timed
passes, in the same process and on the same core, and ``adjust`` corrects
the median pass time by the median reference-job time.  A fresh
interpreter's import of the program, part of the set-up time, runs in a
child process that may sit on another core, so the child runs the job
itself right after the import and adjusts by that.  (The in-process part of
set-up is left unadjusted: over ten runs the adjustment did not narrow it.)

The correction is half of a full rescaling, in ratio: the geometric mean of
the raw time and the time rescaled to a core on which the job takes
``NOMINAL_S``.  On a 2-vCPU Xeon VM with OpenBLAS pinned to 1 thread, the
workloads' pass times moved, in log terms, 0.3-0.6 times as much as the
job's time did (regressing the log of each pass time on the log of the
neighbouring job times), so a full rescaling over-corrects about as much as
no rescaling under-corrects.  Over ten runs of ``experiment`` made while the
host's load changed, the spread of the median pass time between the first
and third quartile was 22% of the median unadjusted, 16% fully rescaled
and 8% with the half correction; over nine runs of ``greedy-large``, 13%,
12% and 8%.  The correction scales with the program: a pass twice as fast
reads half.

The job mixes the kinds of work the program spends its time in: interpreted
Python, BLAS factorizations and products, and some streaming through an
array larger than the core's private caches.  (Thousands of tiny numpy
calls were tried too and left out: their time jumps by a factor of two for
reasons of their own and followed the program worst.)  It never calls the
program, so no change to the program moves it; a change to how numpy or
BLAS is set up in the process would.  Its buffers (16 MB) are allocated
once and count towards ``peak_rss_mb`` on every commit alike.
"""

import math
import time

import numpy as np

# About the job's fastest duration on one core of the machine the benchmark
# was tuned on (2-vCPU Xeon VM, OpenBLAS pinned to 1 thread).
NOMINAL_S = 0.055


def adjust(seconds, reference_s):
    """``seconds`` measured while the reference job took ``reference_s``,
    corrected halfway (in ratio) to a core on which it takes NOMINAL_S."""
    return seconds * math.sqrt(NOMINAL_S / reference_s)


class ReferenceJob:
    """Same inputs and same work on every call; ``__call__`` returns its
    wall time in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 200))
        self.spd = a @ a.T + 200.0 * np.eye(200)
        self.stream = np.ones(2_000_000)

    def _python(self):
        s = 0
        for i in range(400_000):
            s += i * i
        return s

    def _blas(self):
        for _ in range(20):
            np.linalg.cholesky(self.spd)
            self.spd @ self.spd

    def _stream(self):
        for _ in range(8):
            np.multiply(self.stream, 1.0, out=self.stream)

    def __call__(self):
        started = time.perf_counter()
        self._python()
        self._blas()
        self._stream()
        return time.perf_counter() - started
