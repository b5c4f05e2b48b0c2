"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared 2-vCPU host the same pure-Python code runs up to twice as
slowly for a fraction of a second up to minutes at a time.  Unscaled, ten
runs of one workload spread by up to 40 % (interquartile range over
median).  The benchmark therefore samples this kernel between ops and
scales every op's time by (REFERENCE_MS / the kernel's time around that
op) ** SCALE_POWER: timings are reported as milliseconds on a machine where
the kernel takes REFERENCE_MS.  The raw, unscaled figures are printed and
recorded beside them.  Process CPU time is scaled the same way by the
kernel's own CPU time, since a host that takes the CPU away lengthens wall
time but not CPU time.

The kernel slows down more than opencospan's ops do when the host is busy:
over 48 runs (12 seeds of each workload) in which the kernel took 2.0 to
4.1 ms, op times grew as about the 0.7th to 0.8th power of the kernel's
time.  With SCALE_POWER = 1 the scaled figures of one workload still
spread by up to 10 %, since ops timed while the host is busy then read
faster than in a quiet phase; with 0.7 by at most 7 %.  A change to
opencospan moves the scaled figures in the same proportion as the raw
ones, whatever the power.

The kernel never changes and shares no code with opencospan.  It does the
kinds of work opencospan does: frozen dataclasses validated on
construction, tuples built from generators, dict grouping, and float
products of powers.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from dataclasses import dataclass

# the kernel's time in ms on the machine the scaled figures refer to
REFERENCE_MS = 5.0
# how strongly op times follow the kernel's time; see above
SCALE_POWER = 0.7
SAMPLE_EVERY_S = 0.25


@dataclass(frozen=True)
class _Cell:
    key: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        if len(self.counts) != 6 or any(k < 0 for k in self.counts):
            raise ValueError("a cell has six nonnegative counts")


def kernel() -> float:
    cells = [_Cell(i, tuple((i * j) % 4 for j in range(6))) for i in range(800)]
    groups: dict[tuple[int, ...], list[int]] = {}
    for cell in cells:
        groups.setdefault(cell.counts, []).append(cell.key)
    point = (0.5, 1.5, 0.25, 2.0, 0.75, 1.25)
    total = 0.0
    for cell in cells:
        value = 1.0
        for x, k in zip(point, cell.counts):
            if k:
                value *= x**k
        total += value
    return total + len(groups)


class Speed:
    """Reference samples taken through a run, and the scale they imply."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self.cpu_seconds: list[float] = []

    def sample(self) -> None:
        """The median wall and CPU time of three kernel runs, with the cyclic
        garbage collector off so that the size of the workload's heap does
        not count."""
        start = time.perf_counter()
        walls, cpus = [], []
        gc.disable()
        try:
            for _ in range(3):
                begin, cpu_begin = time.perf_counter(), time.process_time()
                kernel()
                walls.append(time.perf_counter() - begin)
                cpus.append(time.process_time() - cpu_begin)
        finally:
            gc.enable()
        self.starts.append(start)
        self.seconds.append(statistics.median(walls))
        self.cpu_seconds.append(statistics.median(cpus))

    def sample_if_due(self) -> None:
        if not self.starts or time.perf_counter() - self.starts[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, at: float, cpu: bool = False) -> float:
        """REFERENCE_MS over the mean of the samples just before and just
        after `at`, the start of an op, to the power SCALE_POWER; every op
        lies between two samples.  With `cpu`, the samples are the kernel's
        CPU times."""
        i = bisect.bisect_right(self.starts, at)
        samples = self.cpu_seconds if cpu else self.seconds
        near = samples[max(0, i - 1):i + 1]
        return (REFERENCE_MS / 1e3 / statistics.mean(near)) ** SCALE_POWER

    def median_ms(self) -> float:
        return statistics.median(self.seconds) * 1e3
