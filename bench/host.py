"""Host speed, measured by a fixed reference slice timed next to the calls.

The shared 2-vCPU host the benchmark was built on runs pure-Python code
1.4-1.8x faster or slower from one spell to the next, for seconds to minutes,
and a probe loop shows the same swing in CPU time as in wall time.  A 30 s
run often lies wholly in one spell, so raw times of the same code spread
over ten runs by more than any useful regression bound.

The slice is the benchmark's own exact arithmetic (``oracle``: pullbacks and
Ricci tensors on fixed rational models), never the program's code, so no
change to the program can change it.  It is timed between calls, about every
``EVERY_NS`` of call time, so its samples fall through the run as the calls
do.  ``Scaler`` puts each call's time on a host on which one slice takes
``NOMINAL_NS``, by the slices timed within ``WINDOW_NS`` of the call.  On
seven windows of 32 s of ``verify`` calls, the calls' summed time over the
slices' summed time stayed within 5% of its mean while the calls' own times
moved by up to 1.8x.
"""

from __future__ import annotations

import bisect
import collections
import math
import random
import time

import gen
import oracle

NOMINAL_NS = 4_000_000
EVERY_NS = 50_000_000
WINDOW_NS = 3_000_000_000

_rng = random.Random("affinestrata-bench:reference")
_MODELS = [(tuple(gen.rat(_rng, 12) for _ in range(6)), gen.invertible(_rng, 12)) for _ in range(60)]


def reference() -> int:
    """Time one slice, in ns."""
    t0 = time.perf_counter_ns()
    for coeffs, t in _MODELS:
        oracle.ricci_a(oracle.pullback(coeffs, t))
    return time.perf_counter_ns() - t0


class Scaler:
    """Sums call times per key, each scaled to the nominal host speed by the
    mean of the reference slices timed within ``WINDOW_NS`` of the call.  A
    call is scaled, and dropped, once the slices up to ``WINDOW_NS`` after it
    are timed, so memory does not grow with the number of calls."""

    def __init__(self):
        self.ref_at: list[int] = []
        self.prefix = [0]  # running sums of the slice times
        self.raw: dict = {}
        self.scaled: dict = {}
        self._pending: collections.deque = collections.deque()  # (key, start ns, end ns)
        self.mark()

    def add(self, key, start: int, end: int) -> None:
        self._pending.append((key, start, end))

    def mark(self) -> None:
        """Time a reference slice."""
        at = time.perf_counter_ns()
        self.prefix.append(self.prefix[-1] + reference())
        self.ref_at.append(at)
        self._settle(at - WINDOW_NS)

    def sums(self) -> tuple[dict, dict]:
        """Summed time per key in ns: (raw, scaled)."""
        self._settle(math.inf)
        return self.raw, self.scaled

    def _settle(self, before) -> None:
        while self._pending and self._pending[0][2] < before:
            key, start, end = self._pending.popleft()
            lo = bisect.bisect_left(self.ref_at, start - WINDOW_NS)
            hi = bisect.bisect_right(self.ref_at, end + WINDOW_NS)
            ref = (self.prefix[hi] - self.prefix[lo]) / (hi - lo)
            self.raw[key] = self.raw.get(key, 0) + end - start
            self.scaled[key] = self.scaled.get(key, 0) + (end - start) * NOMINAL_NS / ref
