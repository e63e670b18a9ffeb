"""Item timing, corrected for the speed of the host.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.6x within a minute, with no steal time visible to the guest.  A raw wall
time therefore moves with the neighbours as much as with the program.  The
meter runs a fixed reference between items, at most every interval, and
scales each stretch of workload time by the reference's nominal duration
over its local duration.  A corrected second is a second on a host that
runs the reference in its nominal time.  Reference time is never counted as
workload time, and no reference imports the package, so a change to the
program cannot move one.

Two references exist, one per kind of work.  LOOP does in process what the
package does (rows read from a Cayley table, small tuples built, dict
inserts); it corrects the sweeps.  CHILD starts a bare interpreter and
waits for it; it corrects work that starts processes (the CLI children and
the fresh set-up processes), whose cost follows the host differently.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_right
from typing import Callable, NamedTuple

WINDOW = 3  # reference samples on each side of a stretch that set its speed

_TABLE = tuple(tuple(max(a, b) for b in range(8)) for a in range(8))


def _loop():
    out = {}
    t = _TABLE
    for r in range(300):
        for a in range(8):
            ra = t[a]
            out[r, a] = tuple(ra[(b + r) % 8] for b in range(8))
    return len(out)


def _child():
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)


class Reference(NamedTuple):
    run: Callable[[], object]
    nominal_s: float  # its duration on an idle 2-vCPU VM, Python 3.11
    interval_s: float  # least workload time between two samples


LOOP = Reference(_loop, 0.0025, 0.1)
CHILD = Reference(_child, 0.010, 0.25)


class Meter:
    """Records item intervals and reference samples, in nanoseconds."""

    def __init__(self, reference: Reference = LOOP):
        self.reference = reference
        self.items = array("q")  # start, end of each item, flattened
        self.ref_start = array("q")
        self.ref_end = array("q")
        self._next = 0
        self._interval = int(reference.interval_s * 1e9)

    def start(self) -> int:
        return time.perf_counter_ns()

    def stop(self, t0: int):
        """End the item that began at t0, then maybe sample the host."""
        self.items.append(t0)
        self.items.append(time.perf_counter_ns())
        self.tick()

    def tick(self, force: bool = False):
        """Sample the reference if its interval has passed (or if forced)."""
        now = time.perf_counter_ns()
        if not force and now < self._next:
            return
        self.reference.run()
        end = time.perf_counter_ns()
        self.ref_start.append(now)
        self.ref_end.append(end)
        self._next = end + self._interval

    # -- corrected durations ------------------------------------------------

    def scales(self):
        """Correction factor for the workload stretch after each reference
        sample: the nominal duration over the median of the WINDOW samples
        on each side."""
        refs = [e - s for s, e in zip(self.ref_start, self.ref_end)]
        nominal = self.reference.nominal_s * 1e9
        return [
            nominal / statistics.median(refs[max(0, i - WINDOW + 1):i + WINDOW + 1])
            for i in range(len(refs))
        ]

    def corrected(self, t0: int, t1: int, scales) -> float:
        """Corrected seconds of the workload time in [t0, t1]."""
        total = 0
        i = max(0, bisect_right(self.ref_end, t0) - 1)
        while i < len(self.ref_end) and self.ref_end[i] < t1:
            a = max(t0, self.ref_end[i])
            b = min(t1, self.ref_start[i + 1]) if i + 1 < len(self.ref_start) else t1
            total += max(0, b - a) * scales[i]
            i += 1
        return total / 1e9

    def scale_at(self, t: int, scales) -> float:
        """The factor of the stretch that holds time t."""
        return scales[max(0, bisect_right(self.ref_end, t) - 1)]

    def item_seconds(self, scales):
        """Corrected seconds of every item."""
        items = self.items
        return [
            (items[k + 1] - items[k]) * self.scale_at(items[k], scales) / 1e9
            for k in range(0, len(items), 2)
        ]
