"""Host speed calibration.

The benchmark shares its machine, and the machine's speed drifts: the same
task was measured at 0.041 s and at 0.080 s a few minutes apart, on the same
seed, with nothing else of ours running. The ratio of a task's time to the
time of a fixed standard-library kernel run next to it stayed within a few
percent across those swings. So the runner times this kernel before every
task and reports each task's time scaled to a host on which the kernel takes
REFERENCE_S: "reference seconds". The kernel uses no upse code, so a change to
upse cannot move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# the kernel's time on the 2-CPU machine the benchmark was defined on, in its fast phase
REFERENCE_S = 0.0017


def kernel():
    """Rational additions, big-integer products, tuple-keyed dict updates and
    small-integer calls: the operations upse's hot paths are made of. Of the
    mixes tried, this one's time tracked verify_upse, gen_gadget and
    decide_upse most closely across the host's speed changes."""
    acc = Fraction(0)
    big = 3 ** 150
    mod = 7 ** 220
    counts: dict = {}
    table = list(range(64))
    mixed = 0

    def mix(a: int, b: int) -> int:
        return (a * b) ^ (a + b)

    for i in range(1, 400):
        acc += Fraction(i * 7919 % 1009, i + 3)
        big = big * (i | 1) % mod
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        for j in range(8):
            mixed += mix(table[(i + j) & 63], j)
    return acc, big, len(counts), mixed


def sample() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def factors(samples: list[float]) -> list[float]:
    """Scale factor for the task between samples[i] and samples[i + 1]: the
    reference time over the median of the four samples around the task."""
    return [REFERENCE_S / statistics.median(samples[max(0, i - 1):i + 3])
            for i in range(len(samples) - 1)]
