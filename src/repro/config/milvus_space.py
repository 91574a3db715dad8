"""The holistic Milvus-like tuning space: the paper 16 dimensions plus serving topology.

The paper tunes Milvus 2.3.1 with 16 dimensions: the index type, eight index
parameters (Table I of the paper) and seven system parameters recommended by
the Milvus configuration documentation.  This module builds the equivalent
space for the simulated VDMS in :mod:`repro.vdms`, extended by the three
serving-topology parameters of the sharded engine, the two
background-maintenance parameters of the compaction subsystem, the two
hybrid-search parameters of the filtered query planner, the two
query-cache parameters of the tiered result/plan cache and the two
durability parameters of the WAL/checkpoint tier (27 dimensions in
total).

Index parameters (Table I)::

    FLAT        -- (none)
    IVF_FLAT    -- nlist ; nprobe
    IVF_SQ8     -- nlist ; nprobe
    IVF_PQ      -- nlist, m, nbits ; nprobe
    HNSW        -- M, efConstruction ; ef
    SCANN       -- nlist ; nprobe, reorder_k
    AUTOINDEX   -- (none)

System parameters (shared by every index type)::

    segment_max_size        -- maximum segment size in MB
    segment_seal_proportion -- growing segments are sealed at this fill ratio
    graceful_time           -- bounded-consistency tolerance in milliseconds
    insert_buf_size         -- per-node insert buffer size in MB
    chunk_rows              -- rows per chunk inside a sealed segment
    query_node_threads      -- intra-query thread parallelism of a query node
    replica_number          -- number of in-memory replicas of the collection

Serving-topology parameters (added by the sharded serving engine of
:mod:`repro.vdms.sharding`; shared by every index type as well)::

    shard_num               -- horizontal partitions of the collection
    routing_policy          -- row-to-shard routing: hash or range
    search_threads          -- query execution pool driving concurrent requests

Maintenance parameters (added by the background-maintenance subsystem of
:mod:`repro.vdms.maintenance`; they govern how delete-churned collections
heal)::

    compaction_trigger_ratio -- tombstone fraction that makes a sealed
                                segment a compaction candidate
    maintenance_mode         -- off / inline / background scheduling of
                                compaction + incremental re-indexing

Hybrid-search parameters (added by the filtered query planner of
:mod:`repro.vdms.request`; they govern how attribute-filtered searches
execute)::

    filter_strategy          -- auto / pre / post filter execution
    overfetch_factor         -- post-filter over-fetch multiplier

Query-cache parameters (added by the tiered query cache of
:mod:`repro.vdms.cache`; they govern whether repeated requests are served
from memoized results and how many entries stay resident)::

    cache_policy             -- none / lru result+plan caching
    cache_capacity           -- entries kept per cache tier

Durability parameters (added by the WAL/checkpoint tier of
:mod:`repro.vdms.durability`; they trade mutation throughput against what
a crash can lose and how long recovery takes)::

    durability_mode          -- off / wal / wal+checkpoint persistence
    wal_sync_policy          -- always / batch fsync of WAL appends
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.config.parameters import CategoricalParameter, FloatParameter, IntParameter, Parameter
from repro.config.space import Configuration, ConfigurationSpace

__all__ = [
    "INDEX_TYPES",
    "INDEX_PARAMETERS",
    "SYSTEM_PARAMETERS",
    "build_milvus_space",
    "parameters_for_index",
    "default_configuration",
]

#: Index types supported by the simulated VDMS, in the order used everywhere.
INDEX_TYPES: tuple[str, ...] = (
    "FLAT",
    "IVF_FLAT",
    "IVF_SQ8",
    "IVF_PQ",
    "HNSW",
    "SCANN",
    "AUTOINDEX",
)

#: Index parameters relevant to each index type (building + searching).
INDEX_PARAMETERS: dict[str, tuple[str, ...]] = {
    "FLAT": (),
    "IVF_FLAT": ("nlist", "nprobe"),
    "IVF_SQ8": ("nlist", "nprobe"),
    "IVF_PQ": ("nlist", "nprobe", "pq_m", "pq_nbits"),
    "HNSW": ("hnsw_m", "ef_construction", "ef_search"),
    "SCANN": ("nlist", "nprobe", "reorder_k"),
    "AUTOINDEX": (),
}

#: The system parameters shared by all index types: the paper seven plus
#: the serving topology (shard count, routing policy, execution threads)
#: plus the maintenance policy (compaction trigger, scheduling mode) plus
#: the hybrid-search planner and the tiered query cache.
SYSTEM_PARAMETERS: tuple[str, ...] = (
    "segment_max_size",
    "segment_seal_proportion",
    "graceful_time",
    "insert_buf_size",
    "chunk_rows",
    "query_node_threads",
    "replica_number",
    "shard_num",
    "routing_policy",
    "search_threads",
    "compaction_trigger_ratio",
    "maintenance_mode",
    "filter_strategy",
    "overfetch_factor",
    "cache_policy",
    "cache_capacity",
    "durability_mode",
    "wal_sync_policy",
)


def _index_parameter_specs() -> list[Parameter]:
    """Specs for the eight index parameters of Table I."""
    return [
        IntParameter("nlist", low=16, high=1024, default=128, log_scale=True),
        IntParameter("nprobe", low=1, high=512, default=16, log_scale=True),
        IntParameter("pq_m", low=2, high=16, default=8),
        IntParameter("pq_nbits", low=4, high=8, default=8),
        IntParameter("hnsw_m", low=4, high=64, default=16),
        IntParameter("ef_construction", low=16, high=512, default=128, log_scale=True),
        IntParameter("ef_search", low=10, high=512, default=64, log_scale=True),
        IntParameter("reorder_k", low=100, high=1000, default=200, log_scale=True),
    ]


def _system_parameter_specs() -> list[Parameter]:
    """Specs for the shared system parameters (incl. the serving topology)."""
    return [
        IntParameter("segment_max_size", low=64, high=2048, default=512, log_scale=True),
        FloatParameter("segment_seal_proportion", low=0.05, high=1.0, default=0.25),
        IntParameter("graceful_time", low=0, high=10_000, default=5_000),
        IntParameter("insert_buf_size", low=64, high=2048, default=512, log_scale=True),
        IntParameter("chunk_rows", low=512, high=65_536, default=8_192, log_scale=True),
        IntParameter("query_node_threads", low=1, high=16, default=4),
        IntParameter("replica_number", low=1, high=4, default=1),
        IntParameter("shard_num", low=1, high=8, default=1),
        CategoricalParameter("routing_policy", choices=["hash", "range"], default="hash"),
        IntParameter("search_threads", low=1, high=16, default=1),
        FloatParameter("compaction_trigger_ratio", low=0.05, high=0.95, default=0.2),
        CategoricalParameter(
            "maintenance_mode", choices=["off", "inline", "background"], default="off"
        ),
        CategoricalParameter(
            "filter_strategy", choices=["auto", "pre", "post"], default="auto"
        ),
        FloatParameter("overfetch_factor", low=1.0, high=8.0, default=2.0, log_scale=True),
        CategoricalParameter("cache_policy", choices=["none", "lru"], default="none"),
        IntParameter("cache_capacity", low=16, high=65_536, default=1_024, log_scale=True),
        CategoricalParameter(
            "durability_mode", choices=["off", "wal", "wal+checkpoint"], default="off"
        ),
        CategoricalParameter(
            "wal_sync_policy", choices=["always", "batch"], default="always"
        ),
    ]


def build_milvus_space(index_types: tuple[str, ...] = INDEX_TYPES) -> ConfigurationSpace:
    """Build the holistic tuning space (index type + index params + system params).

    Parameters
    ----------
    index_types:
        The index types to expose as choices.  The default exposes every
        index type of Table I; restricting the tuple is how the
        "per-index-type tuning" ablation builds its smaller spaces.

    Examples
    --------
    >>> from repro import build_milvus_space
    >>> space = build_milvus_space()
    >>> space.dimension
    27
    >>> space.default_configuration()["index_type"]
    'AUTOINDEX'
    >>> smaller = build_milvus_space(index_types=("HNSW", "IVF_FLAT"))
    >>> smaller["index_type"].choices
    ['HNSW', 'IVF_FLAT']
    """
    unknown = [t for t in index_types if t not in INDEX_TYPES]
    if unknown:
        raise ValueError(f"unknown index types: {unknown}")
    if len(index_types) == 1:
        # A one-choice categorical is not allowed; model it with a fixed
        # two-choice categorical whose default is the single index type.
        index_parameter: Parameter = CategoricalParameter(
            "index_type", choices=[index_types[0], index_types[0] + "_"], default=index_types[0]
        )
    else:
        index_parameter = CategoricalParameter(
            "index_type", choices=list(index_types), default="AUTOINDEX" if "AUTOINDEX" in index_types else index_types[0]
        )
    parameters: list[Parameter] = [index_parameter]
    parameters.extend(_index_parameter_specs())
    parameters.extend(_system_parameter_specs())
    return ConfigurationSpace(parameters, name="milvus-27d")


def parameters_for_index(index_type: str) -> tuple[str, ...]:
    """Return the names of the tunable parameters relevant to ``index_type``.

    This always includes the shared system parameters (the paper's seven
    plus the serving topology), since they apply to every index type, plus
    the index-specific parameters of Table I.
    """
    if index_type not in INDEX_PARAMETERS:
        raise KeyError(f"unknown index type {index_type!r}")
    return INDEX_PARAMETERS[index_type] + SYSTEM_PARAMETERS


def default_configuration(
    space: ConfigurationSpace | None = None,
    *,
    index_type: str | None = None,
    overrides: Mapping[str, Any] | None = None,
) -> Configuration:
    """Build the default configuration, optionally pinned to an index type.

    Parameters
    ----------
    space:
        The space to build the configuration in.  ``None`` builds the full
        27-dimensional space first.
    index_type:
        If given, the returned configuration uses this index type instead of
        the space default.
    overrides:
        Additional parameter values overriding the defaults.
    """
    if space is None:
        space = build_milvus_space()
    values = {p.name: p.default for p in space.parameters}
    if index_type is not None:
        if not space["index_type"].validate(index_type):
            raise ValueError(f"index type {index_type!r} not available in this space")
        values["index_type"] = index_type
    if overrides:
        values.update(overrides)
    return space.configuration(values)
