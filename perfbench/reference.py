"""A fixed pure-Python reference job that measures how fast the host runs now.

The host these figures come from is shared, and its speed drifts by 20-50%
over seconds to minutes (one pass of ``components``, same input and
labelling: 2.0 s in one process, 1.1 s in the next).  Raw times of a 20 s
run then spread 10-28% from run to run.  So each pass is timed
together with this job, run between cases, and every reported time is
scaled to the speed at which the job takes REF_NOMINAL_S.  The job is the
benchmark's own code, never homtopo's, so no change to the program under
test can change it; it runs warm and with the garbage collector off, so the
program's heap and cache footprint do not leak into it either.

It does the two things the pipeline spends its time on in pure Python:
GF(2) elimination of big-int columns with a dict of pivots, and hashing of
vertex maps with one coordinate wildcarded.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# about the job's time on the machine the benchmark was tuned on, at a
# quiet moment; it only sets the unit, every scaled time moves with it
REF_NOMINAL_S = 0.0105


class Reference:
    def __init__(self):
        rng = random.Random(12345)
        self.cols = [rng.getrandbits(200) for _ in range(400)]
        self.maps = [tuple(rng.randrange(8) for _ in range(7))
                     for _ in range(2000)]

    def _job(self):
        pivots: dict[int, int] = {}
        for col in self.cols:
            while col:
                low = col & -col
                other = pivots.get(low)
                if other is None:
                    pivots[low] = col
                    break
                col ^= other
        for x in range(7):
            seen: dict[tuple, int] = {}
            for i, f in enumerate(self.maps):
                seen.setdefault(f[:x] + (-1,) + f[x + 1:], i)

    def time(self) -> float:
        """Seconds for one warm run of the job (a first run warms it)."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._job()
            t0 = time.perf_counter()
            self._job()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def scale(self, samples: list[float]) -> float:
        """Factor that turns times taken alongside `samples` into times at
        the nominal speed."""
        return REF_NOMINAL_S / statistics.median(samples)
