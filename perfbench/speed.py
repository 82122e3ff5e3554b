"""Machine-speed probe, so timings can be read at a reference speed.

On a shared machine the speed of one CPU swings by 15-40 % within
milliseconds to tens of seconds, and CPU time swings with it (measured
on a 2-vCPU guest).  The probe samples that speed while a block runs: a
timer signal interrupts it every ``interval`` seconds and times a fixed
pure-Python kernel in ucgkit's style of work.  The kernel's own time is
excluded from measured durations.  A factor converts a measured duration
into seconds at the reference speed, the speed at which one kernel run
takes ``REFERENCE_KERNEL_S``.
"""

from __future__ import annotations

import signal
import time
from itertools import product

#: Seconds between speed samples during a timed pass.
INTERVAL = 0.05
#: Samples an op's factor is averaged over, at least.
MIN_OP_SAMPLES = 10
#: A block that ran for fewer samples is topped up with samples taken
#: right after it.
MIN_BLOCK_SAMPLES = MIN_OP_SAMPLES
#: Kernel time that defines the reference speed: a round figure near the
#: kernel's median, 0.8-1.1 ms on an Intel Xeon vCPU with Python 3.11.7.
REFERENCE_KERNEL_S = 1.0e-3

# a fixed 24-vertex graph: a ring with chords, as adjacency bitmasks
_N = 24
_ADJ = [(1 << (v + 1) % _N) | (1 << (v - 1) % _N) | (1 << (v + 7) % _N)
        | (1 << (v - 7) % _N) for v in range(_N)]


def kernel() -> int:
    """About 1 ms of work in ucgkit's two styles: bitmask BFS from every
    vertex of the fixed graph, four times over, then building tuples,
    frozensets and a dict and sorting it."""
    total = 0
    for src in list(range(_N)) * 4:
        seen = frontier = 1 << src
        while True:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= _ADJ[low.bit_length() - 1]
                m ^= low
            nxt &= ~seen
            if not nxt:
                break
            total += 1
            seen |= nxt
            frontier = nxt
    blocks = {}
    for i in range(300):
        t = tuple((i * 7 + j) % 23 for j in range(6))
        blocks[t] = frozenset(t)
    for pat in product((1, 2, 3), repeat=5):
        total += pat[0]
    return total + len(sorted(blocks, key=lambda t: t[::-1]))


class SpeedProbe:
    """Context manager sampling machine speed while its block runs.

    ``spent`` is the time the samples took, to subtract from any
    duration measured inside the block.  Calling ``begin_op`` as each op
    starts lets ``op_factors`` scale each op by the speed of its own time.
    """

    def __init__(self, interval: float = INTERVAL):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self.op_starts: list[int] = []
        self._old = None

    def begin_op(self):
        self.op_starts.append(len(self.samples))

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        while len(self.samples) < MIN_BLOCK_SAMPLES:
            self._sample()
        return False

    @property
    def factor(self) -> float:
        """Reference seconds per measured second, averaged over the
        block: the mean of REFERENCE_KERNEL_S / sample."""
        return sum(REFERENCE_KERNEL_S / s for s in self.samples) / len(self.samples)

    def op_factors(self) -> list[float]:
        """Per op, the factor over the samples taken while it ran; an op
        that ran for fewer than MIN_OP_SAMPLES samples takes the
        MIN_OP_SAMPLES samples nearest its start instead."""
        prefix = [0.0]
        for s in self.samples:
            prefix.append(prefix[-1] + REFERENCE_KERNEL_S / s)
        n = len(self.samples)
        out = []
        for a, b in zip(self.op_starts, self.op_starts[1:] + [n]):
            if b - a < MIN_OP_SAMPLES:
                a = max(0, min(a - MIN_OP_SAMPLES // 2, n - MIN_OP_SAMPLES))
                b = a + MIN_OP_SAMPLES
            out.append((prefix[b] - prefix[a]) / (b - a))
        return out
