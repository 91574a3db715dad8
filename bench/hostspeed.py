"""The host's speed while something is measured, and times at a reference speed.

The benchmark's host is a shared VM whose processor flips, every few seconds
to minutes, between a quiet state and one about 1.45 times slower, whatever
the guest does (bench/README.md, "This host is noisy").  A CPU-bound workload
therefore reads 30-45 % apart in two runs of the same code, which no bound
could tell from a regression.  ``HostSpeed`` measures that state from inside:
the workload times one small fixed kernel between its operations (``mark``),
and ``factors`` turns the readings into the share by which each operation's
time must shrink (or grow) to read as it would on a host that ran the kernel
in ``REFERENCE_SECONDS`` throughout.  Only processor time is rescaled; time
spent waiting (timers, sockets, fsync) is kept as measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

__all__ = ["MARK_EVERY", "REFERENCE_SECONDS", "HostSpeed"]

#: What the probe takes on the host the first numbers were recorded on (a
#: 2.1 GHz Xeon vCPU, NumPy 2.4 on OpenBLAS, one thread) while it is quiet.
#: Any constant keeps comparisons valid; this one keeps the unit honest.
REFERENCE_SECONDS = 1.75e-3
#: Seconds between two marks where a workload has to choose (an idle thread marks).
MARK_EVERY = 0.25
#: A mark's speed is the median reading of this many marks around it.
WINDOW = 5

clock = time.perf_counter


class HostSpeed:
    """Marks ``(time, process CPU seconds, probe seconds)``: one on entering the
    ``with`` block, one on leaving it, and one wherever the block calls ``mark``."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._rows = rng.standard_normal((512, 64))
        self._queries = rng.standard_normal((8, 64))
        self.marks: list[tuple[float, float, float]] = []

    def _probe(self) -> float:
        """One reading: 40 small GEMMs and selections, the program's own kind of work."""
        rows, queries = self._rows, self._queries
        start = clock()
        for _ in range(40):
            np.argpartition(queries @ rows.T, 10, axis=1)
        return clock() - start

    def mark(self) -> None:
        # The fastest of three: a preemption, or another thread holding the
        # interpreter lock between the probe's calls, only ever adds time.
        reading = min(self._probe(), self._probe(), self._probe())
        self.marks.append((clock(), time.process_time(), reading))

    def __enter__(self) -> "HostSpeed":
        self.mark()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.mark()

    def speed(self) -> float:
        """The host's speed over the whole block, as a share of the reference speed."""
        return REFERENCE_SECONDS / statistics.median(reading for _, _, reading in self.marks)

    def factor(self, callers: int = 1) -> float:
        """``factors`` for one operation that lasted the whole block."""
        (start, cpu_start, _), (end, cpu_end, _) = self.marks[0], self.marks[-1]
        share = min(1.0, (cpu_end - cpu_start) / (callers * (end - start)))
        return 1.0 - share * (1.0 - self.speed())

    def factors(self, ends: list[float], callers: int = 1) -> np.ndarray:
        """Per operation ending at ``ends``: its time at reference speed / its time as measured.

        Between two marks, ``callers`` closed-loop callers spent a share of
        their time on the processor (process CPU seconds over ``callers`` times
        wall seconds; the rest they waited) while the host ran at some speed
        (reference over the median reading of the ``WINDOW`` marks around).
        That share of an operation's time scales with the speed, the rest does
        not.  Queueing behind another caller's processor time counts as
        waiting, so a saturated server is corrected too little, never too much.
        """
        times, cpu, readings = (np.array(column) for column in zip(*self.marks))
        padded = np.pad(readings, WINDOW // 2, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, WINDOW), axis=1)
        speed = REFERENCE_SECONDS / ((smooth[:-1] + smooth[1:]) / 2.0)
        share = np.minimum(1.0, np.diff(cpu) / (callers * np.diff(times)))
        factor = 1.0 - share * (1.0 - speed)
        return factor[np.clip(np.searchsorted(times, ends) - 1, 0, factor.shape[0] - 1)]
