"""Host-speed calibration: a reference kernel timed around every op.

The sandbox this ledger was sized on is a 2-vCPU VM whose CPUs each flip
between two speeds about 1.4x apart every 2-20 s (a fixed batched ``eigh``
takes 16.5 ms or 23 ms), the two CPUs mostly in opposite states.  A
single-threaded workload sits on one CPU and sees every flip: the *raw* median
op time of identical code repeats only to 10-18 % between 8 s runs — too
coarse for the changes this ledger exists to show.

The slowdown is multiplicative and measurable from the same thread: a small
fixed dense-algebra kernel run right before and after an op slows down with
the op (correlation 0.85-0.9).  The single-threaded workloads therefore
divide every timed quantity by

    factor = (reference kernel seconds around the op) / NOMINAL_S

so their seconds read "seconds at this box's undisturbed speed".  Measured on
ten 8 s runs each: cold_water64 11 % raw -> 6 % calibrated, ns_water128
14 % -> 9 %, md_water128 14 % -> 6 %; on 90 s of back-to-back gc_water128 ops,
medians of 8-op chunks spread 25 % raw and 2.4 % calibrated.

The two workloads that keep both CPUs busy (``sharded_water128_r2``,
``served_water32``) are *not* calibrated: a kernel on one thread cannot see
what two CPUs do, dividing by it made them worse (6 % raw -> 11 %), and they
are steady without it because one fast and one slow CPU average out.  Their
factor is the constant 1.

Raw seconds and the factors are kept in every record file.  The kernel is the
harness's own and calls nothing in ``src/``, so an engine change cannot move
it.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds the reference kernel takes on the sizing sandbox when undisturbed
#: (its 1st percentile over a minute).  A constant scale: changing it rescales
#: every calibrated second by the same ratio.
NOMINAL_S = 0.0172


class HostSpeed:
    """Times the reference kernel around intervals.

    ``start()`` samples the host before an interval, ``factor()`` samples it
    after and returns the interval's slowdown factor (the mean of the two);
    that sample also starts the next interval, so back-to-back ops cost one
    sample each.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._last = 1.0
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(20, 120, 120))
        self._stack = stack + stack.transpose(0, 2, 1)
        self._square = rng.normal(size=(300, 300))

    def _kernel_seconds(self) -> float:
        start = time.perf_counter()
        np.linalg.eigh(self._stack)
        self._square @ self._square
        return time.perf_counter() - start

    def sample(self, repeats: int = 2) -> float:
        """Current slowdown factor (>= ~1); the minimum of ``repeats`` timings
        drops scheduling blips, which only ever add time.  A disabled sampler
        reports 1 without running the kernel."""
        if not self.enabled:
            return 1.0
        return min(self._kernel_seconds() for _ in range(repeats)) / NOMINAL_S

    def start(self) -> None:
        self._last = self.sample()

    def factor(self) -> float:
        before, self._last = self._last, self.sample()
        return 0.5 * (before + self._last)
