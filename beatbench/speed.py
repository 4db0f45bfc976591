"""Machine-speed reference for the host-time metrics.

The machine a run lands on may share its cores with other work, so its
speed can drift by 20% or more within seconds, which alone would move a
host-time metric by more than any useful bound. While a run measures, a
timer therefore interrupts it every few tens of kernel times to time a
short fixed kernel. Each measured stretch of work is then reported at
reference speed: its time, minus the time the kernel took inside it,
multiplied by the profile's reference kernel time over the harmonic mean
of the kernel times sampled within WINDOW_NS of it. Samples come at even
intervals, so that mean weighs each part of the stretch by its own speed.
The kernel does the kind of work the simulator does and calls no
beatstream code, so a change to the program moves the scaled times while
a change in machine speed mostly does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

WARMUP_S = 0.3
WINDOW_NS = 500_000_000

_rng = np.random.default_rng(20250214)
_SMALL = _rng.standard_normal((16, 512)).astype(np.float16)
_LARGE = _rng.standard_normal((4096, 512)).astype(np.float16)
_VEC = _rng.standard_normal(512).astype(np.float16)


def _dot_like(rows: np.ndarray) -> None:
    p = rows.astype(np.float32) * _VEC.astype(np.float32)
    b = p.reshape(rows.shape[0], 4, 128)
    while b.shape[-1] > 1:
        b = b[..., 0::2] + b[..., 1::2]
    np.cumsum(p[0], dtype=np.float32)


def _cache() -> None:
    """Small cache-resident numpy calls with Python between them."""
    for _ in range(16):
        _dot_like(_SMALL)
        kinds: list[int] = []
        for _ in range(8):
            kinds.append(0)
            kinds.extend([2] * 32)


def _memory() -> None:
    """The cache work, then one call on a matrix whose float32 copy
    outgrows the caches, like the weight matrices of `weights_mid`."""
    _cache()
    _dot_like(_LARGE)


def _python() -> None:
    """Python lists built word by word, then converted to numpy."""
    for _ in range(3):
        kinds: list[int] = []
        for _ in range(64):
            kinds.append(0)
            for _ in range(4):
                kinds.append(1)
                kinds.extend([2] * 32)
        np.array(kinds, dtype=np.uint8)


# Each profile's kernel, its median time on a 2-core Xeon VM with
# Python 3.11 and numpy 2.4 (scaled times there read close to wall clock),
# and the seconds between samples, which keep sampling to 2-5% of a run.
PROFILES = {
    "cache": (_cache, 1_000_000, 0.05),
    "memory": (_memory, 9_000_000, 0.2),
    "python": (_python, 1_100_000, 0.05),
}


class SpeedMeter:
    """Kernel samples taken on a timer while the benchmark measures.

    The profile matches the kernel to what slows the measured work: small
    numpy calls ("cache"), matrices that overflow the caches ("memory"),
    or pure Python list building ("python"). `clock()` is a nanosecond
    clock that stands still while a sample runs; time every measured
    stretch with it.
    """

    def __init__(self, profile: str) -> None:
        self._kernel, self.ref_ns, self._interval_s = PROFILES[profile]
        self.stamps: list[int] = []   # clock() when each sample started
        self.took: list[int] = []     # kernel ns of each sample
        self._sampling_ns = 0
        self._busy = False

    def clock(self) -> int:
        while True:
            spent = self._sampling_ns
            now = time.perf_counter_ns()
            if spent == self._sampling_ns:
                return now - spent

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            at = self.clock()
            t0 = time.perf_counter_ns()
            self._kernel()
            took = time.perf_counter_ns() - t0
            self.stamps.append(at)
            self.took.append(took)
            self._sampling_ns += time.perf_counter_ns() - t0
        finally:
            self._busy = False

    @contextmanager
    def sampling(self):
        """Sample on a SIGALRM timer inside the block; restore it after."""
        warm_until = time.perf_counter() + WARMUP_S
        while time.perf_counter() < warm_until:   # wake the core, warm the caches
            self._kernel()
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, self._interval_s, self._interval_s)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: int, end: int) -> float:
        """Multiplier to reference speed for work timed from clock() stamp
        `start` to `end`, from the harmonic mean of the samples taken
        within WINDOW_NS of it."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_NS)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_NS)
        if lo == hi:
            raise ValueError("no speed sample near the stretch; time it inside sampling()")
        return self.ref_ns / statistics.harmonic_mean(self.took[lo:hi])

    def speed(self) -> float:
        """Machine speed over the run relative to the reference (higher: faster)."""
        return self.ref_ns / statistics.harmonic_mean(self.took)
