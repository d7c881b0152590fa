"""How fast the host is right now: a fixed kernel sampled while a repetition runs.

The sandbox is a few vCPUs of a shared host whose speed moves by 30-100 %
for the same instructions, both in bursts of 0.1-1 s and in drifts over
minutes, with no steal time reported (README.md, "Host speed").  A timed
repetition cannot tell a slow host from slow code, so the worker runs
:func:`kernel` — a fixed millisecond of interpreter and small-NumPy-call
work, independent of ``src/`` — on a 25 ms interval timer *inside* the
repetition, in the same thread.  The samples taken between a repetition's
start and end give

* ``probe_s``: the time the samples themselves took, which is taken out of
  the repetition's wall time, and
* ``slowdown``: their median duration over :data:`NOMINAL`, the kernel's
  duration on this sandbox when the host is quiet.  The median, because a
  stall of tens of milliseconds that happens to land in one sample would
  move a mean by far more than it moved the repetition.

``run.py`` reports wall time divided by ``slowdown``: seconds as the quiet
host would have taken.  The raw seconds and the slowdown are kept in the
result files beside them.  Set-up is mostly imports, which nothing can
sample from inside, so it is divided by :func:`spot_slowdown`, taken the
moment set-up is done.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["HostProbe", "kernel", "slowdown", "spot_slowdown", "INTERVAL", "NOMINAL"]

#: Seconds between samples.
INTERVAL = 0.025
#: Seconds one :func:`kernel` call takes on the 2-vCPU sandbox in a quiet
#: spell: sampled inside a repetition (median over the five workloads), and
#: back to back with warm caches.  Only scales: they make normalised
#: seconds read like seconds.
NOMINAL = 0.00055
NOMINAL_SPOT = 0.00046

_F64 = np.linspace(0.0, 1.0, 200)
_I64 = np.arange(200) % 17
_U8 = np.arange(64, dtype=np.uint8)
_M8 = np.eye(8) + 0.1
_RNG = np.random.default_rng(0)


def kernel() -> int:
    """About a millisecond of fixed work shaped like the library's hot
    paths: an interpreter loop and many small NumPy calls."""
    acc = 0
    for i in range(10_000):
        acc += i & 3
    for _ in range(8):
        order = np.argsort(_F64)
        picked = _F64[_I64]
        kept = np.where(_F64 > 0.5, _F64, 0.0)
        both = np.concatenate([picked, kept]).astype(np.float32).reshape(20, 20)
        acc += int(np.cumsum(_I64)[-1]) + int(order[0]) + int(both[0, 0])
        acc += int((_M8 @ _M8)[0, 0]) + int(_RNG.integers(0, 4, size=32)[0])
    for _ in range(60):
        acc += int(np.bitwise_xor(_U8, _U8).sum())
    return acc


def slowdown(durations: Sequence[float], nominal: float = NOMINAL) -> float:
    """Median kernel duration as a multiple of the quiet host's."""
    return statistics.median(durations) / nominal


def spot_slowdown(samples: int = 20) -> float:
    """The slowdown right now, from ``samples`` back-to-back kernel calls."""
    kernel()
    durations = []
    for _ in range(samples):
        start = time.perf_counter()
        kernel()
        durations.append(time.perf_counter() - start)
    return slowdown(durations, NOMINAL_SPOT)


class HostProbe:
    """Samples :func:`kernel` every :data:`INTERVAL` seconds while open."""

    def __init__(self) -> None:
        self._samples: List[Tuple[float, float]] = []
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside the previous sample
            return
        self._busy = True
        start = time.perf_counter()
        kernel()
        self._samples.append((start, time.perf_counter() - start))
        self._busy = False

    def __enter__(self) -> "HostProbe":
        kernel()  # lazy imports and caches, outside any sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> List[Tuple[float, float]]:
        """The (start, duration) samples since the last call."""
        samples, self._samples = self._samples, []
        return samples
