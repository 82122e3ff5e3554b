"""The speed probe samples while its block runs and disarms after it."""

import signal
import time

from speed import (INTERVAL, MIN_BLOCK_SAMPLES, MIN_OP_SAMPLES,
                   REFERENCE_KERNEL_S, SpeedProbe)


def busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_probe_samples_long_ops_on_their_own():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        probe.begin_op()
        busy(INTERVAL * (MIN_OP_SAMPLES + 4))
        probe.begin_op()
        busy(INTERVAL / 10)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert probe.op_starts[1] >= MIN_OP_SAMPLES
    assert abs(probe.spent - sum(probe.samples)) < 1e-9
    long_op, short_op = probe.op_factors()
    n = len(probe.samples)
    assert long_op > 0 and short_op > 0
    # the short op borrows the samples nearest its start
    nearest = probe.samples[n - MIN_OP_SAMPLES:]
    assert abs(short_op - sum(REFERENCE_KERNEL_S / s for s in nearest) / MIN_OP_SAMPLES) < 1e-9


def test_short_block_is_topped_up_with_samples():
    with SpeedProbe() as probe:
        pass
    assert len(probe.samples) == MIN_BLOCK_SAMPLES and probe.factor > 0
