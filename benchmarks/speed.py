"""Host speed: a fixed reference kernel timed around and during operations.

A shared host runs fast or slow for seconds to minutes at a time, which
moves the wall time of a whole run, or of one long command, by up to a
fifth. The benchmark therefore reports each timed operation scaled to a
reference speed: the kernel, which does not use bvcouple, runs right
before and right after the operation and, from a SIGALRM handler, every
INTERVAL_S of wall time during it, in the operation's own process and
thread. The operation's wall time less the kernel's own time during it is
scaled by REFERENCE_S over the kernel's mean time. A change to bvcouple
moves the wall time and not the kernel, so it moves the scaled time by the
same share.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 2.0e-3  # about the kernel's median on the shared 2-vCPU Xeon host the benchmark was tuned on
INTERVAL_S = 0.2  # the kernel then takes about 1% of the time of a probed operation

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((20_000, 3))
_IDX = _RNG.integers(0, 500, 20_000)
_B = np.empty(20_000)
_ACC = np.zeros(500)


def reference_kernel() -> float:
    """Wall time of a fixed mix of small numpy calls and a Python loop, the
    two kinds of work bvcouple does. It allocates nothing, so the state of
    the process's heap does not move it."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.einsum("ij,ij->i", _X, _X, out=_B)
        np.add.at(_ACC, _IDX, _B)
        _B.sort()
        s = 0.0
        for i in range(3000):
            s += i * 0.5
    return time.perf_counter() - t0


def reference_time() -> float:
    """The median of three runs of the kernel, so that one interrupted run
    does not move a scaled time."""
    return statistics.median(reference_kernel() for _ in range(3))


class Probe:
    """While entered, runs the kernel every INTERVAL_S of wall time in this
    process's main thread and keeps its times in ``samples``."""

    def __enter__(self) -> Probe:
        self.samples: list[float] = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference_kernel())


def scaled(wall: float, before: float, during: list[float], after: float) -> float:
    """``wall`` less the kernel's time ``during`` it, at reference speed."""
    return (wall - sum(during)) * REFERENCE_S / statistics.fmean([before, *during, after])


def bracketed(fn, *args, **kwargs):
    """fn's result, its wall time, and that time scaled to reference speed."""
    before = reference_time()
    with Probe() as probe:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
    return out, wall, scaled(wall, before, probe.samples, reference_time())


reference_kernel()  # the first run pays for lazy set-up in numpy
