"""Parameter and configuration-space machinery for VDMS tuning.

The tuners in this repository all operate on a :class:`ConfigurationSpace`,
which is an ordered collection of typed parameters.  A point in the space is
a :class:`Configuration` (an immutable mapping from parameter name to value).
Spaces know how to encode configurations into the unit hypercube (the
representation used by the Gaussian-process models) and decode them back.

The concrete space used throughout the paper reproduction — index type,
eight index parameters, seven system parameters and three serving-topology
parameters of a Milvus-like VDMS —
is built by :func:`build_milvus_space`.
"""

from repro.config.parameters import (
    CategoricalParameter,
    FloatParameter,
    IntParameter,
    Parameter,
)
from repro.config.space import Configuration, ConfigurationSpace
from repro.config.milvus_space import (
    INDEX_PARAMETERS,
    INDEX_TYPES,
    SYSTEM_PARAMETERS,
    build_milvus_space,
    default_configuration,
    parameters_for_index,
)

__all__ = [
    "CategoricalParameter",
    "Configuration",
    "ConfigurationSpace",
    "FloatParameter",
    "INDEX_PARAMETERS",
    "INDEX_TYPES",
    "IntParameter",
    "Parameter",
    "SYSTEM_PARAMETERS",
    "build_milvus_space",
    "default_configuration",
    "parameters_for_index",
]
