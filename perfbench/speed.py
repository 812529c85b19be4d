"""Host-speed sampling: wall times on a shared host turned into seconds at a
fixed reference speed.

On a shared host the same work runs up to twice as slowly while a neighbour
is busy, in stretches from tens of milliseconds to minutes (NOTES.md), and
the two vCPUs of a machine slow down independently of each other.  So while
a run measures, a SIGALRM timer interrupts it every ``PERIOD_S`` seconds and
times the second of two runs of a small fixed kernel made of the same kinds
of work as the workload (``PARTS``; each workload picks its parts in
workloads.py).  The first run refills the caches that the interrupted work
evicted, so the timed run sees the host's pace and not the work's memory
footprint.  The kernel touches no library code, so no change to the library
moves it.

A stretch of wall time is scaled by ``reference_s / t`` for the kernel time
``t`` sampled in it, after the sampler's own time is taken out.  The result
reads in seconds on the host at the speed where the kernel takes
``reference_s``; only ratios between runs of one workload on one machine
mean anything.  The whole process tree must stay on one CPU
(``pin_to_one_cpu``) so that the samples see the CPU that runs the work,
child processes included.
"""

import mmap
import os
import signal
import time

import numpy as np

PERIOD_S = 0.04
WARM_UP_RUNS = 20
FAULT_PAGES = 64

# Each part's median time, run on its own in a loop on one CPU of the 2.1 GHz
# Xeon the bounds in BENCHMARK.json were set on: constants, so that runs
# compare.
PARTS = {
    "fft1": 1.25e-4,   # 1-D FFT pair of 8192 points
    "fft2": 1.7e-4,    # 2-D FFT pair of 128 x 128 points
    "arith": 2.2e-5,   # element-wise arithmetic on 16384 values
    "loop": 1.0e-5,    # 200-step interpreter loop
    "faults": 1.1e-4,  # page faults on a freshly mapped region
    "stream": 1.9e-4,  # sum of a 4 MB array, twice the L2 cache
}
DEFAULT_PARTS = ("fft1", "fft2", "arith", "loop", "faults")
# Shape of the input array of each part that takes one.
SHAPES = {"fft1": (8192,), "fft2": (128, 128), "arith": (16384,), "stream": (2 ** 19,)}


def pin_to_one_cpu():
    """Keep this process and every child it starts on one CPU."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class SpeedSampler:
    """Samples the kernel time while entered; ``scale`` converts a timed
    stretch between two ``mark`` calls."""

    def __init__(self, parts=DEFAULT_PARTS):
        rng = np.random.default_rng(0)
        self._parts = [(getattr(self, "_" + name),
                        rng.standard_normal(SHAPES[name]) if name in SHAPES else None)
                       for name in parts]
        self.reference_s = sum(PARTS[name] for name in parts)
        self.samples = []  # (start, start of the timed run, end) of each sample

    @staticmethod
    def _fft1(x):
        np.fft.irfft(np.fft.rfft(x), n=x.size)

    @staticmethod
    def _fft2(x):
        np.fft.irfft2(np.fft.rfft2(x), s=x.shape)

    @staticmethod
    def _arith(x):
        float(np.sum(x * 1.5 + x))

    @staticmethod
    def _loop(_):
        total = 0
        for i in range(200):
            total += i * i

    @staticmethod
    def _faults(_):
        with mmap.mmap(-1, FAULT_PAGES * mmap.PAGESIZE) as fresh:
            fresh[::mmap.PAGESIZE] = b"\1" * FAULT_PAGES

    @staticmethod
    def _stream(x):
        float(x.sum())

    def _kernel(self):
        for part, data in self._parts:
            part(data)

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self._kernel()
        timed = time.perf_counter()
        self._kernel()
        self.samples.append((start, timed, time.perf_counter()))

    def __enter__(self):
        for _ in range(WARM_UP_RUNS):
            self._kernel()
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return len(self.samples)

    def scale(self, lo, hi, seconds):
        """``seconds`` of wall or CPU time, timed between ``mark()`` calls
        that returned ``lo`` and ``hi``, at the reference speed.

        The samples taken inside the stretch are subtracted, and their
        timed kernel runs, with the one just before the stretch, give its
        speed as the mean of ``reference_s / t``.
        """
        own = sum(end - start for start, _, end in self.samples[lo:hi])
        speeds = [self.reference_s / (end - timed)
                  for _, timed, end in self.samples[max(lo - 1, 0):hi]]
        return (seconds - own) * sum(speeds) / len(speeds)
