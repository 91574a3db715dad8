"""Typed tunable parameters.

Each parameter knows how to validate a value, clip it into range, sample it
uniformly, and map it to and from a normalized ``[0, 1]`` coordinate.  The
normalized representation is what the Gaussian-process surrogate models and
the numerical optimizers work with; the raw representation is what the VDMS
substrate consumes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

__all__ = [
    "Parameter",
    "FloatParameter",
    "IntParameter",
    "CategoricalParameter",
]


def _unit_interval(units: np.ndarray) -> np.ndarray:
    """``min(1.0, max(0.0, u))`` per element, as ``from_unit`` clamps (NaN to 0.0)."""
    return np.minimum(1.0, np.fmax(0.0, np.asarray(units, dtype=float)))


def _snap_interval(units: np.ndarray, low, high, log_scale: bool, *, integral: bool) -> np.ndarray:
    """``snap_units`` of a (log-)interval parameter: its ``from_unit`` then
    ``to_unit`` over many units, each expression as the scalar methods write
    it.  ``round`` and ``np.rint`` both round half to even; the logarithmic
    transforms run per value through ``math``."""
    units = _unit_interval(units)
    if log_scale:
        log_low, log_span = math.log(low), math.log(high) - math.log(low)
        values = np.array([math.exp(log_low + unit * log_span) for unit in units.tolist()], dtype=float)
    else:
        values = low + units * (high - low)
    values = np.clip(np.rint(values) if integral else values, low, high)
    if log_scale:
        return np.array([(math.log(value) - log_low) / log_span for value in values.tolist()], dtype=float)
    return (values - low) / (high - low)


class Parameter(ABC):
    """Abstract base class for a single tunable parameter."""

    name: str
    default: Any

    @abstractmethod
    def validate(self, value: Any) -> bool:
        """Return ``True`` if ``value`` is a legal value for this parameter."""

    @abstractmethod
    def clip(self, value: Any) -> Any:
        """Coerce ``value`` into the legal range, returning the nearest legal value."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniform random legal value."""

    @abstractmethod
    def to_unit(self, value: Any) -> float:
        """Map a legal value to a coordinate in ``[0, 1]``."""

    @abstractmethod
    def from_unit(self, unit: float) -> Any:
        """Map a ``[0, 1]`` coordinate back to a legal value."""

    def snap_units(self, units: np.ndarray) -> np.ndarray:
        """The coordinates of the values that ``units`` decode to.

        Equal, bit for bit, to ``[to_unit(from_unit(u)) for u in units]``.
        Subclasses vectorise the IEEE-exact transforms (clip, round, floor,
        ``+ - * /``); logarithmic ones stay ``math.exp``/``math.log`` per value,
        because a vectorised transcendental may differ in the last place.
        """
        return np.array([self.to_unit(self.from_unit(unit)) for unit in units], dtype=float)

    def grid(self, resolution: int) -> list[Any]:
        """Return up to ``resolution`` representative values spanning the range."""
        resolution = max(2, int(resolution))
        points = np.linspace(0.0, 1.0, resolution)
        values = []
        for point in points:
            value = self.from_unit(float(point))
            if value not in values:
                values.append(value)
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r}, default={self.default!r})"


@dataclass(repr=False)
class FloatParameter(Parameter):
    """A continuous parameter on a closed interval.

    Parameters
    ----------
    name:
        Parameter identifier, unique within a space.
    low, high:
        Inclusive bounds.
    default:
        Default value; must lie within the bounds.
    log_scale:
        If true, the unit-interval mapping is logarithmic, which is the
        appropriate encoding for parameters whose effect is multiplicative
        (for example buffer sizes).

    Examples
    --------
    >>> p = FloatParameter("segment_seal_proportion", low=0.1, high=1.0, default=0.25)
    >>> p.validate(0.5), p.clip(2.0)
    (True, 1.0)
    >>> round(p.to_unit(0.55), 2)
    0.5
    """

    name: str
    low: float
    high: float
    default: float
    log_scale: bool = False

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"{self.name}: low ({self.low}) must be < high ({self.high})")
        if self.log_scale and self.low <= 0:
            raise ValueError(f"{self.name}: log-scale parameters require a positive lower bound")
        if not self.validate(self.default):
            raise ValueError(f"{self.name}: default {self.default} outside [{self.low}, {self.high}]")

    def validate(self, value: Any) -> bool:
        if not isinstance(value, (int, float, np.integer, np.floating)):
            return False
        return self.low <= float(value) <= self.high and math.isfinite(float(value))

    def clip(self, value: Any) -> float:
        return float(min(self.high, max(self.low, float(value))))

    def sample(self, rng: np.random.Generator) -> float:
        return self.from_unit(float(rng.random()))

    def to_unit(self, value: Any) -> float:
        value = self.clip(value)
        if self.log_scale:
            return (math.log(value) - math.log(self.low)) / (math.log(self.high) - math.log(self.low))
        return (value - self.low) / (self.high - self.low)

    def from_unit(self, unit: float) -> float:
        unit = min(1.0, max(0.0, float(unit)))
        if self.log_scale:
            return float(math.exp(math.log(self.low) + unit * (math.log(self.high) - math.log(self.low))))
        return float(self.low + unit * (self.high - self.low))

    def snap_units(self, units: np.ndarray) -> np.ndarray:
        return _snap_interval(units, self.low, self.high, self.log_scale, integral=False)


@dataclass(repr=False)
class IntParameter(Parameter):
    """An integer parameter on a closed interval.

    Examples
    --------
    >>> p = IntParameter("nlist", low=16, high=4096, default=128, log_scale=True)
    >>> p.validate(1024), p.validate(5000)
    (True, False)
    >>> p.from_unit(0.0), p.from_unit(1.0)
    (16, 4096)
    """

    name: str
    low: int
    high: int
    default: int
    log_scale: bool = False

    def __post_init__(self) -> None:
        if not self.low < self.high:
            raise ValueError(f"{self.name}: low ({self.low}) must be < high ({self.high})")
        if self.log_scale and self.low <= 0:
            raise ValueError(f"{self.name}: log-scale parameters require a positive lower bound")
        if not self.validate(self.default):
            raise ValueError(f"{self.name}: default {self.default} outside [{self.low}, {self.high}]")

    def validate(self, value: Any) -> bool:
        if isinstance(value, bool):
            return False
        if not isinstance(value, (int, np.integer)):
            return False
        return self.low <= int(value) <= self.high

    def clip(self, value: Any) -> int:
        return int(min(self.high, max(self.low, int(round(float(value))))))

    def sample(self, rng: np.random.Generator) -> int:
        return self.from_unit(float(rng.random()))

    def to_unit(self, value: Any) -> float:
        value = self.clip(value)
        if self.log_scale:
            return (math.log(value) - math.log(self.low)) / (math.log(self.high) - math.log(self.low))
        if self.high == self.low:
            return 0.0
        return (value - self.low) / (self.high - self.low)

    def from_unit(self, unit: float) -> int:
        unit = min(1.0, max(0.0, float(unit)))
        if self.log_scale:
            raw = math.exp(math.log(self.low) + unit * (math.log(self.high) - math.log(self.low)))
        else:
            raw = self.low + unit * (self.high - self.low)
        return int(min(self.high, max(self.low, int(round(raw)))))

    def snap_units(self, units: np.ndarray) -> np.ndarray:
        return _snap_interval(units, self.low, self.high, self.log_scale, integral=True)


@dataclass(repr=False)
class CategoricalParameter(Parameter):
    """A parameter drawn from a finite, ordered set of choices.

    The unit-interval encoding places each choice at the centre of an equal
    sub-interval, which keeps encode/decode round trips exact.

    Examples
    --------
    >>> p = CategoricalParameter("index_type", choices=["FLAT", "HNSW"], default="HNSW")
    >>> p.validate("HNSW"), p.clip("IVF_PQ")
    (True, 'HNSW')
    >>> p.from_unit(p.to_unit("FLAT"))
    'FLAT'
    """

    name: str
    choices: Sequence[Any]
    default: Any = field(default=None)

    def __post_init__(self) -> None:
        self.choices = list(self.choices)
        if len(self.choices) < 2:
            raise ValueError(f"{self.name}: need at least two choices")
        if len(set(map(str, self.choices))) != len(self.choices):
            raise ValueError(f"{self.name}: choices must be unique")
        if self.default is None:
            self.default = self.choices[0]
        if not self.validate(self.default):
            raise ValueError(f"{self.name}: default {self.default!r} not among choices")

    def validate(self, value: Any) -> bool:
        return value in self.choices

    def clip(self, value: Any) -> Any:
        if value in self.choices:
            return value
        return self.default

    def sample(self, rng: np.random.Generator) -> Any:
        return self.choices[int(rng.integers(0, len(self.choices)))]

    def index_of(self, value: Any) -> int:
        """Return the position of ``value`` within the choice list."""
        return self.choices.index(value)

    def to_unit(self, value: Any) -> float:
        idx = self.index_of(self.clip(value))
        return (idx + 0.5) / len(self.choices)

    def from_unit(self, unit: float) -> Any:
        unit = min(1.0, max(0.0, float(unit)))
        idx = min(len(self.choices) - 1, int(unit * len(self.choices)))
        return self.choices[idx]

    def snap_units(self, units: np.ndarray) -> np.ndarray:
        count = len(self.choices)
        positions = np.minimum(count - 1, np.floor(_unit_interval(units) * count))
        return (positions + 0.5) / count

    def grid(self, resolution: int) -> list[Any]:
        return list(self.choices)
