"""How fast the host's cores run, sampled while a repetition runs.

The benchmark shares a few cores of a host with other tenants.  Their
load takes core throughput from it in swings that last from seconds
to minutes: a fixed pure-Python loop has been seen to take anywhere
from 1x to 2x its usual time, with process CPU time following wall
time, so the loss is slower execution, not waiting.  A repetition of
an orbit workload lasts about 30 s, so medians inside one run cannot
average out such a swing, and timings taken before and after a
repetition miss what happened during it.

So the child that runs a repetition samples the core's speed while it
runs: every SAMPLE_EVERY_S a timer signal interrupts the program
between two bytecodes and times a short fixed loop (sample()).  The
loop keeps its few hundred bytes of data in L1 cache, so it measures
the core's speed and not the program's memory traffic, and the program
finds its caches nearly as it left them.  run.py scales the
repetition's wall time, less the time spent sampling, by
REFERENCE_S / (the mean sample): the result reads as seconds on the
host at its usual speed.  The mean, not the median, because the wall
time adds up the slow stretches as they come; with the median, a
repetition that spent a third of its time in a slow stretch was
barely corrected.  The loop is independent of charquo, so a
change to the program moves the scaled time exactly as it moves the
wall time.
"""

from __future__ import annotations

import signal
import time

# One sample's median time on a 2-vCPU VM (Python 3.11) at the host's
# usual speed; the scale is arbitrary, only ratios matter.
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.25


_TABLE = [0] * 256


def sample() -> float:
    """Wall time of a fixed loop of integer arithmetic and list stores.

    It allocates no container, so it does not move the garbage
    collector's schedule: a dict made per sample shifted when the
    program's cycles were collected, and with it the program's peak
    memory, by up to 4 %."""
    t = time.perf_counter()
    x = 12345
    for _ in range(12000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        _TABLE[x & 255] = x
    return time.perf_counter() - t


class Sampler:
    """Takes a sample on every SIGALRM between start() and stop()."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0  # wall time spent inside the handler

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append(sample())
        self.spent_s += time.perf_counter() - t

    def start(self):
        sample()  # first run pays for the loop's set-up; not kept
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
