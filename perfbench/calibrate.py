"""Host-speed calibration for the benchmark's timings.

The benchmark runs on virtual machines that share their host, and there the
speed of the same instructions drifts: on a 2-core x86-64 machine one
training step ran 1.8 times slower for 80 seconds at a stretch, then
recovered, with nothing else of the benchmark running. A run of tens of
seconds falls wholly or partly into such a state, so raw times of two runs
of the same code differ by more than any useful bound.

A fixed reference kernel (a Python loop over dicts, strings and integers,
and small numpy products: the mix the program runs) is timed between the
operations of a workload. It does not call the program, so no change to
the program moves it; the host's state moves it as it moves the program.
Each stretch of an operation is scaled by ``NOMINAL_S`` over the median
of the reference times from ``WINDOW_S`` seconds before it to as long
after it, raised to the power ``ALPHA``. That gives the operation's time
on a host where the kernel takes ``NOMINAL_S``: seconds at reference
speed. The host's states last seconds to minutes, while a single kernel
time also carries the jitter of one call, which the median over the
window takes out. The kernel slows more than the program does in a slow
state, and by how much depends on the work: against the kernel's time, a
training fit moves with about its 0.8th power, a cold backfill with
about its 0.6th. So the scale is raised to the power ``ALPHA``, fitted on
45 recorded runs in two or three sets of five or ten seeds per workload,
the host's median kernel time ranging 0.74-1.37 times ``NOMINAL_S``. At
0.7 every timing's set medians stayed within 9% of each other (raw: up
to 43%; at 0.6 the fit's were 13% apart), and the IQR/median of every
operation timing but the backfill rate stayed within 0.08 in each set.

Operations longer than a second (a training fit) are cut into stretches at
every ``CHECKPOINT_STEPS``-th optimizer step, by a wrapper around
``learner._adam_step`` that is in place only while a ``Clock`` is used. If
a later change renames that function, the wrapper is not installed and a
fit is calibrated by the kernel times around it alone.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import time

import numpy as np

# The reference kernel's time on the 2-core x86-64 machine the benchmark
# was written on, in its fast state. It only scales the calibrated times.
NOMINAL_S = 0.007
ALPHA = 0.7
CHECKPOINT_STEPS = 8
WINDOW_S = 2.0

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((64, 48))
_B = _RNG.standard_normal((48, 48))
_WORDS = [f"w{i % 97}-{i % 13}" for i in range(400)]


def reference_kernel() -> float:
    """A fixed amount of work independent of the program under test."""
    counts: dict[str, int] = {}
    total = 0
    for repeat in range(30):
        for word in _WORDS:
            key = word.upper() if repeat % 2 else word
            counts[key] = counts.get(key, 0) + len(key)
            total += hash(key) & 0xFF
    m = _A
    for _ in range(200):
        m = np.tanh(m @ _B) + _A
    return total + float(m[0, 0])


class Clock:
    """Times operations, with the reference kernel between them.

    ``with clock.op("drop"): ...`` times one operation; ``calibrated`` and
    ``raw`` give its samples in seconds. A disabled clock (the traced
    replay, whose spans must not hold kernel time) runs no kernel and
    reports raw times as calibrated ones.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.ref: list[float] = []
        self._ref_at: list[float] = []
        self.raw: dict[str, list[float]] = {}
        # kind -> the stretches of each operation: [(start, end)]
        self._ops: dict[str, list[list[tuple[float, float]]]] = {}
        self._open: list[tuple[float, float]] | None = None
        self._segment_start = 0.0
        self._steps = 0

    def tick(self) -> None:
        if self.enabled:
            t0 = time.perf_counter()
            reference_kernel()
            self.ref.append(time.perf_counter() - t0)
            self._ref_at.append(t0)

    def _close_segment(self) -> None:
        self._open.append((self._segment_start, time.perf_counter()))
        self.tick()
        self._segment_start = time.perf_counter()

    def checkpoint(self) -> None:
        """Cut the running operation here and time the kernel."""
        if self._open is not None and self.enabled:
            self._close_segment()

    @contextlib.contextmanager
    def op(self, kind: str):
        if not self.ref:
            self.tick()
        self._open = []
        self._segment_start = time.perf_counter()
        try:
            yield
        finally:
            self._close_segment()
            self._ops.setdefault(kind, []).append(self._open)
            self.raw.setdefault(kind, []).append(sum(end - start for start, end in self._open))
            self._open = None

    def _scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self._ref_at, start - WINDOW_S)
        hi = bisect.bisect_right(self._ref_at, end + WINDOW_S)
        return (NOMINAL_S / statistics.median(self.ref[lo:hi])) ** ALPHA

    def calibrated(self, kind: str) -> list[float]:
        """The operations of ``kind`` in seconds at reference speed."""
        if not self.enabled:
            return list(self.raw.get(kind, []))
        return [
            sum((end - start) * self._scale(start, end) for start, end in stretches)
            for stretches in self._ops.get(kind, [])
        ]

    def speed(self) -> float:
        """Median kernel time over ``NOMINAL_S``: above 1 on a slow host."""
        return statistics.median(self.ref) / NOMINAL_S if self.ref else 1.0

    @contextlib.contextmanager
    def optimizer_checkpoints(self):
        """Checkpoint every ``CHECKPOINT_STEPS`` optimizer steps while open."""
        from supercell import learner

        original = getattr(learner, "_adam_step", None)
        if original is None or not self.enabled:
            yield
            return

        def stepped(*args, **kwargs):
            result = original(*args, **kwargs)
            self._steps += 1
            if self._steps % CHECKPOINT_STEPS == 0:
                self.checkpoint()
            return result

        learner._adam_step = stepped
        try:
            yield
        finally:
            learner._adam_step = original
