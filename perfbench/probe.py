"""Host-speed probes, so that timings can be put on one scale.

The machines this benchmark runs on are shared: the same pass of commands,
run back to back in fresh processes, took 2.9 s to 5.2 s, and a fixed
Fraction loop swung between two speeds 1.8x apart for stretches of tens of
seconds. Raw wall times therefore measure the neighbours as much as bernray.

A probe is a fixed ~0.25 ms loop of small-Fraction additions. When the host
slowed, the `enumerate`, `solve` and `sample` commands slowed about as much
as the probe. Frank-Wolfe on 256-bit iterates (`project`) slowed less, so
its scaled times still move with the host, by up to about 20%. A probe that
mixes in 600-bit arithmetic tracked `project` better but `enumerate` and
`solve` worse.

`Sampler` runs probes in blocks between commands and, via SIGALRM, every
PROBE_EVERY_S during them, so each command's time can be divided by the
probe times measured around and inside it. The benchmark reports
time * REF_PROBE_S / probe: the time the command would take at the speed at
which a probe takes REF_PROBE_S.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# A typical probe time inside passes on the host the benchmark was defined
# on (2-vCPU Intel Xeon VM at 2.0 GHz, Python 3.11.7), where probes took
# 0.14 ms to 0.30 ms. Only ratios against it matter.
REF_PROBE_S = 0.00025
PROBE_EVERY_S = 0.02
BLOCK = 8
# probes this close to a command's start or end belong to it
MARGIN_S = 0.01


def probe() -> float:
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


class Sampler:
    """Probe samples (perf_counter at start, duration) over one process."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def take(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def block(self) -> None:
        for _ in range(BLOCK):
            self.take()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def around(self, start: float, end: float) -> float:
        """Median probe time within MARGIN_S of [start, end]."""
        return statistics.median(
            d for t, d in self.samples if start - MARGIN_S <= t <= end + MARGIN_S
        )


def scaled(seconds: float, probe_s: float) -> float:
    """A time measured while probes took probe_s, on the reference scale."""
    return seconds * REF_PROBE_S / probe_s
