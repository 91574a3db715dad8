"""Configuration spaces and configurations.

A :class:`ConfigurationSpace` is an ordered collection of named parameters
(see :mod:`repro.config.parameters`).  A :class:`Configuration` is one point
of the space: a read-only mapping from parameter name to value.

The space provides the two encodings used across the repository:

* the *raw* encoding (a dict of native values) consumed by the VDMS
  substrate, and
* the *unit-hypercube* encoding (a ``numpy`` vector in ``[0, 1]^d``) consumed
  by the Gaussian-process surrogates and the numerical optimizers.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from typing import Any, Iterable, Sequence

import numpy as np

from repro.config.parameters import Parameter

__all__ = ["Configuration", "ConfigurationSpace"]


class Configuration(Mapping):
    """An immutable assignment of values to every parameter of a space.

    Examples
    --------
    >>> from repro import build_milvus_space
    >>> space = build_milvus_space()
    >>> configuration = space.configuration({"index_type": "HNSW"}, complete=False)
    >>> configuration["index_type"]
    'HNSW'
    >>> configuration.replace(hnsw_m=32)["hnsw_m"]
    32
    >>> configuration.to_unit_vector().shape
    (16,)
    """

    __slots__ = ("_space", "_values", "_unit")

    def __init__(self, space: "ConfigurationSpace", values: Mapping[str, Any]):
        self._space = space
        missing = [name for name in space.names if name not in values]
        if missing:
            raise KeyError(f"configuration missing parameters: {missing}")
        unknown = [name for name in values if name not in space]
        if unknown:
            raise KeyError(f"configuration has unknown parameters: {unknown}")
        frozen = {}
        for name in space.names:
            parameter = space[name]
            value = values[name]
            if not parameter.validate(value):
                raise ValueError(f"invalid value {value!r} for parameter {name!r}")
            frozen[name] = value
        self._values = frozen
        #: The unit-hypercube encoding, filled on first use (see ``ConfigurationSpace.encode``).
        self._unit: np.ndarray | None = None

    def __getstate__(self) -> tuple:
        return self._space, self._values, self._unit

    def __setstate__(self, state: tuple) -> None:
        self._space, self._values, self._unit = state
        if self._unit is not None:
            self._unit.flags.writeable = False  # a pickled array comes back writeable

    @property
    def space(self) -> "ConfigurationSpace":
        """The space this configuration belongs to."""
        return self._space

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, str(v)) for k, v in self._values.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        body = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"Configuration({body})"

    def to_dict(self) -> dict[str, Any]:
        """Return a plain mutable dict copy of the assignment."""
        return dict(self._values)

    def replace(self, **updates: Any) -> "Configuration":
        """Return a new configuration with some values replaced."""
        merged = dict(self._values)
        merged.update(updates)
        return Configuration(self._space, merged)

    def replace_units(self, names: Sequence[str], units: Sequence[float]) -> "Configuration":
        """Return a new configuration with the named parameters decoded from unit coordinates.

        Only those parameters are decoded, validated and encoded; the others
        keep the values and coordinates they have here.
        """
        space = self._space
        values = dict(self._values)
        vector = space.encode(self)
        for name, unit in zip(names, units):
            parameter = space[name]
            value = parameter.from_unit(unit)
            if not parameter.validate(value):
                raise ValueError(f"invalid value {value!r} for parameter {name!r}")
            values[name] = value
            vector[space.index_of(name)] = parameter.to_unit(value)
        replaced = object.__new__(Configuration)
        replaced.__setstate__((space, values, vector))
        return replaced

    def to_unit_vector(self) -> np.ndarray:
        """Encode this configuration into the unit hypercube."""
        return self._space.encode(self)


class ConfigurationSpace:
    """An ordered set of parameters defining a search space.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import ConfigurationSpace, IntParameter, FloatParameter
    >>> space = ConfigurationSpace([
    ...     IntParameter("ef_search", low=8, high=512, default=64, log_scale=True),
    ...     FloatParameter("seal_proportion", low=0.1, high=1.0, default=0.25),
    ... ])
    >>> space.dimension
    2
    >>> vector = space.encode(space.default_configuration())
    >>> space.decode(vector)["ef_search"]
    64
    >>> space.sample_configuration(np.random.default_rng(0))["seal_proportion"] <= 1.0
    True
    """

    def __init__(self, parameters: Iterable[Parameter], name: str = "space"):
        self.name = name
        self._parameters: dict[str, Parameter] = {}
        for parameter in parameters:
            if parameter.name in self._parameters:
                raise ValueError(f"duplicate parameter name {parameter.name!r}")
            self._parameters[parameter.name] = parameter
        if not self._parameters:
            raise ValueError("a configuration space needs at least one parameter")
        self._names = tuple(self._parameters)
        self._ordered = tuple(self._parameters.values())
        self._positions = {name: position for position, name in enumerate(self._names)}

    # -- container protocol -------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        """Parameter names in definition order."""
        return self._names

    @property
    def parameters(self) -> tuple[Parameter, ...]:
        """Parameters in definition order."""
        return self._ordered

    @property
    def dimension(self) -> int:
        """Number of parameters (the dimension of the unit hypercube)."""
        return len(self._parameters)

    def __contains__(self, name: object) -> bool:
        return name in self._parameters

    def __getitem__(self, name: str) -> Parameter:
        return self._parameters[name]

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._parameters)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ConfigurationSpace(name={self.name!r}, dimension={self.dimension})"

    # -- construction of configurations -------------------------------------

    def default_configuration(self) -> Configuration:
        """Return the configuration made of every parameter's default."""
        return Configuration(self, {p.name: p.default for p in self.parameters})

    def configuration(self, values: Mapping[str, Any], *, complete: bool = True) -> Configuration:
        """Build a configuration from ``values``.

        If ``complete`` is false, parameters absent from ``values`` fall back
        to their defaults — the usual way callers specify only the parameters
        they care about.
        """
        if complete:
            return Configuration(self, values)
        merged = {p.name: p.default for p in self.parameters}
        for key, value in values.items():
            if key not in self._parameters:
                raise KeyError(f"unknown parameter {key!r}")
            merged[key] = value
        return Configuration(self, merged)

    def sample_configuration(self, rng: np.random.Generator) -> Configuration:
        """Draw one uniform random configuration."""
        return Configuration(self, {p.name: p.sample(rng) for p in self.parameters})

    def sample_configurations(self, count: int, rng: np.random.Generator) -> list[Configuration]:
        """Draw ``count`` independent uniform random configurations."""
        return [self.sample_configuration(rng) for _ in range(int(count))]

    # -- encodings -----------------------------------------------------------

    def _unit_row(self, configuration: Mapping[str, Any]) -> np.ndarray:
        """The encoding of ``configuration``; a :class:`Configuration` of this
        space is immutable, so it is encoded once and keeps the (read-only) row."""
        own = isinstance(configuration, Configuration) and configuration._space is self
        if own and configuration._unit is not None:
            return configuration._unit
        vector = np.empty(self.dimension, dtype=float)
        for position, parameter in enumerate(self._ordered):
            vector[position] = parameter.to_unit(configuration[parameter.name])
        if own:
            vector.flags.writeable = False
            configuration._unit = vector
        return vector

    def encode(self, configuration: Mapping[str, Any]) -> np.ndarray:
        """Encode a configuration (or plain mapping) into ``[0, 1]^d``."""
        return np.array(self._unit_row(configuration))

    def encode_many(self, configurations: Sequence[Mapping[str, Any]]) -> np.ndarray:
        """Encode a sequence of configurations into an ``(n, d)`` array."""
        if not configurations:
            return np.empty((0, self.dimension), dtype=float)
        return np.vstack([self._unit_row(c) for c in configurations])

    def decode(self, vector: np.ndarray) -> Configuration:
        """Decode a point of the unit hypercube into a configuration."""
        vector = np.asarray(vector, dtype=float).reshape(-1)
        if vector.shape[0] != self.dimension:
            raise ValueError(
                f"expected a vector of dimension {self.dimension}, got {vector.shape[0]}"
            )
        values = {
            parameter.name: parameter.from_unit(float(vector[position]))
            for position, parameter in enumerate(self._ordered)
        }
        return Configuration(self, values)

    def index_of(self, name: str) -> int:
        """Return the position of a parameter within the encoding vector."""
        return self._positions[name]
