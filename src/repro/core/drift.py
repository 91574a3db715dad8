"""Workload-drift detection from observed performance residuals.

The online tuning loop serves the incumbent configuration between re-tuning
episodes and watches its observed ``(speed, recall)``.  Drift shows up as a
sustained shift of those observations away from the reference level
established right after the last re-tune — a textbook change-point problem,
handled here with a two-sided CUSUM on standardized residuals:

* the first ``warmup`` observations after a (re)start form the reference
  window (mean and standard deviation per metric);
* every later observation is standardized against the reference and folded
  into an upper and a lower cumulative sum per metric,
  ``S+ = max(0, S+ + z - drift)`` and ``S- = max(0, S- - z - drift)``;
* the detector fires when any cumulative sum exceeds ``threshold``.

The ``drift`` slack absorbs small persistent offsets (measurement noise, a
new incumbent measuring slightly differently), while a genuine workload shift
accumulates linearly and crosses the threshold within a few observations —
faster the larger the shift.  The simulated replayer is deterministic, so the
reference standard deviation is floored to keep the standardization finite.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CusumDriftDetector"]

#: Floor of the reference standard deviation, relative to the absolute
#: reference mean (the deterministic replayer often yields identical repeated
#: observations, whose raw standard deviation is zero).
_MIN_RELATIVE_STD = 0.02


class CusumDriftDetector:
    """Two-sided multivariate CUSUM detector on performance observations.

    Parameters
    ----------
    threshold:
        Alarm level of the cumulative sums, in reference standard deviations
        (larger = less sensitive, slower to fire).
    drift:
        Per-update slack subtracted from the standardized residual before it
        is accumulated; shifts smaller than ``drift`` sigmas never alarm.
    warmup:
        Observations used to build the reference window after each
        :meth:`reset`.

    Examples
    --------
    >>> from repro.core.drift import CusumDriftDetector
    >>> detector = CusumDriftDetector(threshold=4.0, warmup=3)
    >>> for _ in range(3):  # reference window: no alarms during warmup
    ...     _ = detector.update([100.0, 0.95])
    >>> detector.is_warm
    True
    >>> detector.update([100.0, 0.95])  # on-reference observation
    False
    >>> any(detector.update([60.0, 0.70]) for _ in range(5))  # sustained shift
    True
    """

    def __init__(
        self,
        *,
        threshold: float = 6.0,
        drift: float = 0.5,
        warmup: int = 4,
    ) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        if drift < 0:
            raise ValueError("drift must be >= 0")
        if warmup < 1:
            raise ValueError("warmup must be >= 1")
        self.threshold = float(threshold)
        self.drift = float(drift)
        self.warmup = int(warmup)
        self._reference: list[np.ndarray] = []
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._upper: np.ndarray | None = None
        self._lower: np.ndarray | None = None

    # -- state -------------------------------------------------------------------------

    @property
    def is_warm(self) -> bool:
        """Whether the reference window is complete and monitoring is active."""
        return self._mean is not None

    @property
    def statistic(self) -> float:
        """Largest current cumulative sum across metrics and directions."""
        if self._upper is None or self._lower is None:
            return 0.0
        return float(max(self._upper.max(), self._lower.max()))

    def reset(self) -> None:
        """Forget the reference window and all cumulative sums.

        Call after every re-tune: the new incumbent defines a new reference
        level, and pre-drift residuals must not leak into the next alarm.
        """
        self._reference = []
        self._mean = None
        self._std = None
        self._upper = None
        self._lower = None

    # -- monitoring --------------------------------------------------------------------

    def update(self, values) -> bool:
        """Fold one observation vector in; returns ``True`` when drift is detected.

        During warmup the observation extends the reference window and the
        detector never fires.  Once warm, the observation updates the
        cumulative sums.  The caller decides what to do on an alarm
        (typically: re-tune, then :meth:`reset`).
        """
        observation = np.atleast_1d(np.asarray(values, dtype=float))
        if self._mean is None:
            self._reference.append(observation)
            if len(self._reference) >= self.warmup:
                window = np.vstack(self._reference)
                self._mean = window.mean(axis=0)
                floor = np.maximum(_MIN_RELATIVE_STD * np.abs(self._mean), 1e-9)
                self._std = np.maximum(window.std(axis=0), floor)
                self._upper = np.zeros_like(self._mean)
                self._lower = np.zeros_like(self._mean)
            return False
        if observation.shape != self._mean.shape:
            raise ValueError("observation dimensionality changed between updates")
        z = (observation - self._mean) / self._std
        self._upper = np.maximum(0.0, self._upper + z - self.drift)
        self._lower = np.maximum(0.0, self._lower - z - self.drift)
        return bool(self.statistic > self.threshold)
