"""Machine-speed calibration, sampled by a timer while the work runs.

The benchmark shares its machine, and the speed of one core drifts by tens
of per cent from one minute to the next, and within seconds.  While a worker
runs, an interval timer interrupts it every ``INTERVAL_S`` seconds of wall
time to time a fixed slice of pure-Python work that is unrelated to the
library.  A timed item's factor is the mean time of the slices that ran
during it (at least the ``NEAREST`` slices closest to it) over
``REFERENCE_SLICE_S``, the slice time on the reference machine (a 2-vCPU
2.0 GHz Xeon with Python 3.11, lightly loaded).  The benchmark reports every
time net of the slices inside it and divided by its factor, in reference
seconds; raw times are reported as well.

The mean, not the median: a burst of contention slows the measured work for
as long as it lasts, and the mean keeps that share.  The slice runs with the
cyclic garbage collector off and allocates little, so a library change that
grows the worker's heap does not slow it.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time
from dataclasses import dataclass

REFERENCE_SLICE_S = 0.0040
INTERVAL_S = 0.1
NEAREST = 10
BURST = 5
SLICE_STEPS = 500
# Objects in the table a slice reads from: a few MB, more than a core's own
# caches hold, so that a neighbour's cache and memory traffic slows it too.
TABLE_SIZE = 30000
TABLE_READS = 1500


@dataclass(frozen=True)
class _Point:
    seg: int
    pos: int

    def __post_init__(self) -> None:
        if self.seg < 0 or self.pos < -1:
            raise ValueError("negative point")

    def key(self) -> tuple[int, int]:
        return (self.seg, self.pos)


def _build_work() -> int:
    """Frozen dataclasses, tuple splicing, dict updates and a sort, like the library."""
    seen: dict[tuple[_Point, _Point], int] = {}
    for i in range(SLICE_STEPS):
        p = _Point(i % 11, i % 3 - 1)
        q = _Point((i * 7) % 11, i % 5)
        pair = (p, q) if p.key() < q.key() else (q, p)
        word = tuple(("a", k) for k in range(i % 6)) + (("d", i % 4),)
        word = word[1:] + word[:1]
        seen[pair] = seen.get(pair, 0) + len(word)
    return sum(v for _, v in sorted(seen.items(), key=lambda kv: (kv[1], kv[0][0].key())))


class Calibration:
    """Timer-driven slice times and the timed items of one worker.

    Times are ``time.perf_counter`` readings.  A slice runs between two
    bytecodes of the interrupted code, so it lies wholly inside or wholly
    outside any item.
    """

    def __init__(self) -> None:
        self.slice_starts: list[float] = []
        self.slice_ends: list[float] = []
        self.items: list[tuple[float, float]] = []
        rng = random.Random(0)
        self._points = [_Point(i % 11, i % 5) for i in range(TABLE_SIZE)]
        self._table = {(p, i): i for i, p in enumerate(self._points[: TABLE_SIZE // 2])}
        self._reads = rng.sample(range(TABLE_SIZE), TABLE_READS)

    def _read_work(self) -> int:
        """Scattered reads of a table larger than the core's own caches."""
        total = 0
        for j in self._reads:
            p = self._points[j]
            total += self._table.get((p, j), 1) + p.seg
        return total

    def tick(self, *_signal_args) -> None:
        # Held back until the slice ends, a timer signal cannot nest a slice.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _build_work()
            self._read_work()
            self.slice_starts.append(start)
            self.slice_ends.append(time.perf_counter())
        finally:
            if enabled:
                gc.enable()
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def burst(self) -> None:
        for _ in range(BURST):
            self.tick()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def record(self, start: float, end: float) -> None:
        """One timed item of the measured work, from two perf_counter readings."""
        self.items.append((start, end))

    def _inside(self, start: float, end: float) -> range:
        return range(
            bisect.bisect_left(self.slice_starts, start), bisect.bisect_right(self.slice_ends, end)
        )

    def net(self, start: float, end: float) -> float:
        """Time from start to end, less the slices that ran in between."""
        inside = self._inside(start, end)
        return end - start - sum(self.slice_ends[k] - self.slice_starts[k] for k in inside)

    def factor(self, start: float, end: float) -> float:
        """How much slower than the reference machine the worker ran from start to end."""
        chosen = list(self._inside(start, end))
        if len(chosen) < NEAREST:
            middle = (start + end) / 2
            k = bisect.bisect_left(self.slice_starts, middle)
            lo = max(0, min(k - NEAREST // 2, len(self.slice_starts) - NEAREST))
            chosen = range(lo, min(lo + NEAREST, len(self.slice_starts)))
        spent = sum(self.slice_ends[k] - self.slice_starts[k] for k in chosen)
        return spent / len(chosen) / REFERENCE_SLICE_S

    def items_s(self) -> list[float]:
        return [self.net(s, e) for s, e in self.items]

    def item_factors(self) -> list[float]:
        return [self.factor(s, e) for s, e in self.items]
