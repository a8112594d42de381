"""Machine-speed probe: a fixed piece of work, timed over and over.

The sandbox this benchmark is sized on is a 2-vCPU guest whose vCPUs
switch, for seconds to minutes at a time, between a quiet state and
contended states up to 1.9x slower (a fixed numpy loop reads 2.2 or
4.1 us an iteration; nothing in the guest changes).  A run of any
affordable length lands in one state or a mix, so raw wall-clock medians
of *identical* runs differ by 20-30 %.

This process is the witness.  Pinned to the CPU the measured engine is
pinned to, it wakes every :data:`INTERVAL_S`, does :data:`ITERATIONS`
rounds of small-array numpy arithmetic and records the **CPU time** that
took (not wall time: being scheduled out behind the workload must not
count).  ``perf.child`` reads the samples back (:class:`ProbeLog`) and
multiplies every duration it clocked by ``PROBE_REF_S / probe`` over the
same interval, i.e. states it in seconds of the quiet machine.  On ten
16-second runs of each batch workload that took the spread of the run
medians from 24-39 % (as clocked) to 2-3 %; a plain proportional scaling
is enough because probe and engine share one CPU.

    python -m perf.probe CPU OUTFILE        # runs until terminated
"""

from __future__ import annotations

import bisect
import os
import sys
import time
from statistics import median

import numpy as np

ITERATIONS = 700
INTERVAL_S = 0.05
#: CPU seconds one probe takes on this box's vCPU in its quiet state.
PROBE_REF_S = 0.00175


def probe_once(block: np.ndarray) -> float:
    """CPU seconds for the fixed work (about 1.5 ms when quiet)."""
    start = time.thread_time()
    for _ in range(ITERATIONS):
        block[:7, :7] * 2 + 1
    return time.thread_time() - start


class ProbeLog:
    """The samples one probe process wrote, as a scale for durations."""

    def __init__(self, path: str):
        self.times = []
        self.values = []
        with open(path) as handle:
            for line in handle:
                if not line.endswith("\n"):
                    break  # the probe is mid-write on its last line
                when, value = line.split()
                self.times.append(float(when))
                self.values.append(float(value))

    def scale(self, start: float, end: float) -> float:
        """Factor that states a duration clocked over ``[start, end]``
        (``time.monotonic()``) at the reference speed: the reference
        probe time over the mean probe time of the samples in the
        interval and the one on either side of it."""
        first = max(0, bisect.bisect_left(self.times, start) - 1)
        last = bisect.bisect_right(self.times, end) + 1
        near = self.values[first:last]
        if not near:
            return 1.0
        return PROBE_REF_S / (sum(near) / len(near))

    def summary(self) -> dict:
        return {
            "samples": len(self.values),
            "median_s": median(self.values) if self.values else 0.0,
            "ref_s": PROBE_REF_S,
        }


def main(argv) -> int:
    cpu, path = int(argv[0]), argv[1]
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        pass  # unpinned: a weaker witness, still a witness
    block = np.arange(40000, dtype=np.int64).reshape(200, 200)
    with open(path, "w", buffering=1) as out:
        while True:
            out.write("%.6f %.9f\n" % (time.monotonic(), probe_once(block)))
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
