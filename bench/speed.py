"""Host-speed probe: fixed kernels timed around and during every unit.

On a shared host the speed of this process drifts by tens of percent over
seconds to minutes, as neighbours load the cores and the shared cache. Two
kernels that do not touch msulab measure that drift: one is
interpreter-bound (a Python loop around small numpy calls, like msulab's
per-point work), one is cache- and memory-bound (arithmetic and a bincount
over 8 MB arrays, like its large-m work). Each kernel's time over its
nominal time is a slowdown factor, and a workload weighs the two by the
kind of work it does. The kernels run right before and right after each
unit, and every `INTERVAL` seconds during it from a timer signal, so long
units are tracked too. A unit's wall time, less the time spent sampling,
divided by the mean slowdown of those samples reads as its wall time on an
unloaded host of this kind.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_SMALL = np.arange(200, dtype=np.int64) % 4
INTERVAL = 0.25


def _interpreter_kernel() -> int:
    total = 0
    for i in range(3000):
        total += int(np.bincount(_SMALL, minlength=4)[i % 4]) + i * i % 7
    return total


_LARGE: list[np.ndarray] = []  # (codes, keys), made on first use: 16 MB resident from then on


def _memory_kernel() -> int:
    # No allocation per call, so a probe during a unit cannot raise its peak RSS.
    if not _LARGE:
        _LARGE.extend([np.arange(1_000_000, dtype=np.int64) % 16, np.empty(1_000_000, np.int64)])
    codes, keys = _LARGE
    np.multiply(codes, 16, out=keys)
    np.add(keys, codes[::-1], out=keys)
    return int(np.bincount(keys, minlength=256)[3])


# (kernel, its time in seconds on an unloaded 2-vCPU Xeon host with
# Python 3.11 and numpy 2.4)
KERNELS = ((_interpreter_kernel, 0.003), (_memory_kernel, 0.003))


def _median_time(kernel, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe(weights: tuple[float, float], repeats: int = 3) -> float:
    """The host's current slowdown (1.0 when unloaded), weighting the
    (interpreter, memory) kernels by `weights`."""
    return sum(
        weight * _median_time(kernel, repeats) / nominal
        for weight, (kernel, nominal) in zip(weights, KERNELS)
        if weight
    )


# Set-up is imports and Python-level input writing.
SETUP_WEIGHTS = (1.0, 0.0)


class Sampler:
    """Context that probes the host every `INTERVAL` seconds of the block.

    The probes run in a SIGALRM handler, between bytecodes of whatever the
    block is doing; `spent` is their total time, to subtract from the
    block's wall time.
    """

    def __init__(self, weights: tuple[float, float]) -> None:
        self.weights = weights
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe(self.weights, repeats=1))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(wall: float, slowdowns: list[float]) -> float:
    """`wall` as seconds on an unloaded host, given the slowdowns sampled
    around and during it."""
    return wall / statistics.fmean(slowdowns)
