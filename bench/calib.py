"""Host-speed calibration of the export time: a fixed dump timed around it.

A shared host changes speed under its neighbours' load. On the 2-core
machine the benchmark was defined on, the median time of a fixed loop over
25-second windows spread 16% between windows (quartile distance ÷ median),
in CPU time as much as in wall time, so no clock removes it. Each export is
therefore timed between runs of `loop`, which does the export's own kind of
work, `json.dumps(indent=2)`, on a fixed report-shaped document. A run's
median export time is scaled by

    REFERENCE_S / (median time of every loop timed in the run)

so it reads in seconds at the host speed at which one `loop` takes
`REFERENCE_S`. One factor per run follows the drift between runs; the loop's
own jitter averages out over the run's many loops. `loop` does not touch
mpqsim, so a change to the program moves the normalised time as much as the
raw one.

Only the export is normalised; measured on that machine:
- Across 61 fresh processes, the log of the export time followed the log of
  the loop time with slope 0.56 (correlation 0.65), and normalising cut the
  spread of the export time from 0.31 to 0.17. In two sets of ten runs per
  workload, `export_s` spread 0.07-0.41 raw and 0.02-0.14 normalised.
- The simulation time barely followed the loop (slope 0.24, correlation
  0.44), and normalising widened its spread from 0.16 to 0.30, so `wall_s`
  and the per-layer times stay raw. `setup_s` stays raw too: its samples run
  in their own interpreters, away from the exports.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

# Scale only: the normalised time is seconds at the host speed at which one
# `loop` takes this long. On the machine the benchmark was defined on (Intel
# Xeon, 2 vCPUs, Python 3.11) it took 0.016-0.035 s after a simulation.
REFERENCE_S = 0.02
CHUNKS = 3  # loops timed on each side of a sample


def _reference_report(size: int = 3500) -> dict:
    """A fixed document shaped like a MetricsReport dict: float samples per
    path, packet numbers and (count, time) pairs. The same on every run."""
    rng = random.Random("calibration")
    return {
        "rtt_samples_ms": {str(p): [rng.uniform(20.0, 200.0) for _ in range(size)] for p in (0, 1)},
        "received_pn": [rng.randrange(30_000) for _ in range(size)],
        "hole_count": [[rng.randrange(64), rng.uniform(0.0, 10.0)] for _ in range(size)],
    }


_REFERENCE_REPORT = _reference_report()


def loop() -> int:
    """The export's own kind of work on a fixed document: `json.dumps(indent=2)`."""
    return len(json.dumps(_REFERENCE_REPORT, indent=2))


def loop_times(chunks: int = CHUNKS) -> list[float]:
    """Seconds taken by each of `chunks` runs of `loop`."""
    times = []
    for _ in range(chunks):
        start = time.perf_counter()
        loop()
        times.append(time.perf_counter() - start)
    return times


class Calibration:
    """Loop timings gathered around the samples of one process."""

    def __init__(self) -> None:
        loop()  # the first run pays for warming the encoder's code
        self.loop_s: list[float] = []

    def timed(self, fn: Callable[[], T]) -> tuple[T, float]:
        """Run `fn` between loop timings; returns its result and seconds."""
        self.loop_s += loop_times()
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        self.loop_s += loop_times()
        return result, seconds


def factor(loop_s: list[float]) -> float:
    """REFERENCE_S ÷ the median of the loop timings `loop_s`."""
    return REFERENCE_S / statistics.median(loop_s)
