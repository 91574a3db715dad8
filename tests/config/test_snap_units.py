"""``Parameter.snap_units`` against the scalar round trip it vectorises."""

import math

import numpy as np
import pytest

from repro.config.milvus_space import build_milvus_space
from repro.config.parameters import CategoricalParameter, IntParameter


def edge_units(parameter):
    """Units on the edges where a decoded value changes: the coordinates whose
    raw value is an integer half-point (rounding ties), the categorical bin
    edges, and the floats on either side of each."""
    if isinstance(parameter, CategoricalParameter):
        edges = [i / len(parameter.choices) for i in range(len(parameter.choices) + 1)]
    elif isinstance(parameter, IntParameter):
        halves = np.arange(parameter.low, parameter.high) + 0.5
        if parameter.log_scale:
            span = math.log(parameter.high) - math.log(parameter.low)
            edges = [(math.log(h) - math.log(parameter.low)) / span for h in halves]
        else:
            edges = list((halves - parameter.low) / (parameter.high - parameter.low))
    else:
        edges = list(np.linspace(0.0, 1.0, 33))
    edges = np.array(edges, dtype=float)
    return np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])


@pytest.mark.parametrize("name", build_milvus_space().names)
def test_snap_units_equals_the_scalar_round_trip(name):
    parameter = build_milvus_space()[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    units = np.concatenate([rng.random(4000), [0.0, 1.0, -0.0, -0.3, 1.7, np.nan], edge_units(parameter)])
    expected = np.array([parameter.to_unit(parameter.from_unit(float(u))) for u in units], dtype=float)
    snapped = parameter.snap_units(units)
    assert snapped.dtype == np.float64 and snapped.shape == units.shape
    assert snapped.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["pq_m", "hnsw_m", "graceful_time", "query_node_threads", "search_threads"])
def test_half_point_units_exercise_rounding_ties(name):
    """The edge units do land on ties: some of a linear integer parameter's
    half-point coordinates decode exactly to ``k + 0.5``, which rounds to even."""
    parameter = build_milvus_space()[name]
    raw = [parameter.low + u * (parameter.high - parameter.low) for u in edge_units(parameter)]
    ties = [value for value in raw if value % 1 == 0.5]
    assert ties
    assert all(round(value) % 2 == 0 for value in ties)
