"""Milvus-like server facade.

:class:`VectorDBServer` is the entry point applications use: it manages named
collections and applies system configurations (which, as in the real system,
requires reloading collections because segment layout depends on them).
Collections share nothing: a built index belongs to the segment it was built
from and is reachable only through its collection.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.vdms.collection import Collection, checked_spec
from repro.vdms.cost_model import CostModel
from repro.vdms.durability import DurabilityManager, FileSystem, OsFileSystem
from repro.vdms.errors import CollectionNotFoundError, DurabilityError
from repro.vdms.system_config import SystemConfig

__all__ = ["VectorDBServer"]


class VectorDBServer:
    """An in-process, Milvus-like vector database server.

    Examples
    --------
    >>> from repro import VectorDBServer, load_dataset
    >>> dataset = load_dataset("glove-small")
    >>> server = VectorDBServer()
    >>> collection = server.create_collection("docs", dataset.dimension, metric=dataset.metric)
    >>> _ = collection.insert(dataset.vectors)
    >>> _ = collection.flush()
    >>> _ = collection.create_index("HNSW", {"hnsw_m": 16, "ef_search": 64})
    >>> result = collection.search(dataset.queries[:3], top_k=5)
    >>> result.ids.shape
    (3, 5)
    """

    def __init__(
        self,
        system_config: SystemConfig | None = None,
        *,
        data_dir: str | None = None,
        filesystem: FileSystem | None = None,
    ) -> None:
        self._system_config = system_config or SystemConfig()
        #: Per-tenant configuration overrides; tenants absent here inherit
        #: the server-wide default.  Keyed by collection (tenant) name.
        self._tenant_configs: dict[str, SystemConfig] = {}
        self._collections: dict[str, Collection] = {}
        #: Root of the per-collection data directories, or ``None`` for a
        #: purely in-memory server.  Collections live at ``data_dir/<name>``.
        self.data_dir = str(data_dir) if data_dir is not None else None
        self._fs = filesystem or OsFileSystem()
        if self.data_dir is not None:
            if self._system_config.durability_mode == "off":
                raise DurabilityError(
                    "a data directory requires durability_mode 'wal' or "
                    "'wal+checkpoint'; it is 'off'"
                )
            self._fs.makedirs(self.data_dir)

    # -- system configuration ---------------------------------------------------

    @property
    def system_config(self) -> SystemConfig:
        """The server-wide default system configuration."""
        return self._system_config

    def system_config_for(self, tenant: str) -> SystemConfig:
        """The configuration a tenant's collection is (re)built with.

        A tenant with a per-tenant override (``apply_system_config(config,
        tenant=name)``) gets that override; everyone else inherits the
        server-wide default.
        """
        return self._tenant_configs.get(tenant, self._system_config)

    def tenant_config_overrides(self) -> dict[str, SystemConfig]:
        """The per-tenant configuration overrides currently registered."""
        return dict(self._tenant_configs)

    def apply_system_config(
        self,
        config: SystemConfig | Mapping[str, Any],
        *,
        tenant: str | None = None,
    ) -> SystemConfig:
        """Apply a new system configuration, server-wide or for one tenant.

        With ``tenant=None`` the server-wide default changes and *every*
        existing collection is dropped (segment layout depends on the system
        parameters); callers re-create and re-load them, which is what the
        workload replayer does for every evaluated configuration.  Naming a
        tenant registers a per-tenant override and drops only that tenant's
        collection — the other tenants keep serving untouched, which is the
        point of per-tenant configuration.
        """
        if not isinstance(config, SystemConfig):
            config = SystemConfig.from_mapping(config)
        if tenant is not None:
            if self.data_dir is not None and config.durability_mode == "off":
                raise DurabilityError(
                    f"tenant {tenant!r} on a durable server requires durability_mode "
                    "'wal' or 'wal+checkpoint'; it is 'off'"
                )
            self._tenant_configs[tenant] = config
            collection = self._collections.pop(tenant, None)
            if collection is not None:
                collection.close()
            return config
        self._system_config = config
        # Discarding a collection must stop its background maintenance
        # worker first: the worker holds only a weak reference, but until
        # the garbage collector runs it keeps polling (and can interleave a
        # final pass with the reload) — deterministic teardown, not GC luck.
        # Durable collections also release their WAL handles; their data
        # directories stay on disk and remain recoverable.
        for collection in self._collections.values():
            collection.close()
        self._collections.clear()
        return config

    def cost_model(self, tenant: str | None = None) -> CostModel:
        """A cost model bound to a tenant's (or the default) configuration."""
        config = self._system_config if tenant is None else self.system_config_for(tenant)
        return CostModel(config)

    # -- collection management -----------------------------------------------------

    def create_collection(
        self,
        name: str,
        dimension: int,
        metric: str = "angular",
        *,
        auto_maintenance: bool = True,
    ) -> Collection:
        """Create (or replace) a collection.

        ``auto_maintenance=False`` detaches the collection from automatic
        maintenance scheduling (``maintenance_mode``); callers then invoke
        :meth:`~repro.vdms.collection.Collection.run_maintenance` themselves
        — the deterministic discipline the workload replayer uses.

        On a durable server (``data_dir``), the collection persists to
        ``data_dir/<name>``; create-or-replace semantics extend to disk, so
        any previous durable state under that name is destroyed first (use
        :meth:`recover_collection` to load existing state instead).
        """
        checked_spec(dimension, metric)  # refuse a bad spec before destroying anything
        collection_dir: str | None = None
        if self.data_dir is not None:
            collection_dir = self._fs.join(self.data_dir, name)
            if DurabilityManager.has_state(self._fs, collection_dir):
                DurabilityManager.destroy_state(self._fs, collection_dir)
        collection = Collection(
            name,
            dimension,
            metric=metric,
            system_config=self.system_config_for(name),
            auto_maintenance=auto_maintenance,
            data_dir=collection_dir,
            filesystem=self._fs if collection_dir is not None else None,
        )
        replaced = self._collections.get(name)
        if replaced is not None:
            replaced.close()
        self._collections[name] = collection
        return collection

    def recover_collection(self, name: str) -> Collection:
        """Recover ``data_dir/<name>`` into a served collection.

        Raises :class:`~repro.vdms.errors.RecoveryError` when the directory
        holds nothing recoverable and :class:`DurabilityError` on an
        in-memory server.
        """
        if self.data_dir is None:
            raise DurabilityError("this server has no data directory to recover from")
        collection = Collection.recover(
            self._fs.join(self.data_dir, name),
            filesystem=self._fs,
        )
        replaced = self._collections.get(name)
        if replaced is not None:
            replaced.close()
        self._collections[collection.name] = collection
        return collection

    def recover_all(self) -> list[str]:
        """Recover every collection found under the data directory.

        Returns the recovered names (sorted).  Directories without durable
        state are skipped, so a partially initialized subdirectory never
        blocks startup.
        """
        if self.data_dir is None:
            raise DurabilityError("this server has no data directory to recover from")
        recovered = []
        for name in self._fs.listdir(self.data_dir):
            if DurabilityManager.has_state(self._fs, self._fs.join(self.data_dir, name)):
                self.recover_collection(name)
                recovered.append(name)
        return sorted(recovered)

    def drop_collection(self, name: str) -> None:
        """Drop a collection if it exists, destroying its durable state too.

        The tenant's configuration override (if any) goes with it: drop
        means gone, and a future collection under the same name starts from
        the server-wide default.
        """
        self._tenant_configs.pop(name, None)
        collection = self._collections.pop(name, None)
        if collection is not None:
            collection.stop_maintenance()
            if collection.durability is not None:
                collection.durability.destroy()
        elif self.data_dir is not None:
            # Durable state without a served collection (e.g. not yet
            # recovered) is still dropped — drop means gone.
            DurabilityManager.destroy_state(
                self._fs, self._fs.join(self.data_dir, name)
            )

    def has_collection(self, name: str) -> bool:
        """Whether a collection with this name exists."""
        return name in self._collections

    def list_collections(self) -> list[str]:
        """Names of all collections."""
        return sorted(self._collections)

    def get_collection(self, name: str) -> Collection:
        """Fetch a collection, raising if it does not exist."""
        try:
            return self._collections[name]
        except KeyError:
            raise CollectionNotFoundError(f"collection {name!r} does not exist") from None

    # -- convenience passthroughs -----------------------------------------------------

    def insert(self, name: str, vectors: np.ndarray, ids: np.ndarray | None = None) -> int:
        """Insert vectors into a collection."""
        return self.get_collection(name).insert(vectors, ids)

    def flush(self, name: str) -> int:
        """Flush a collection's insert buffer."""
        return self.get_collection(name).flush()

    def create_index(self, name: str, index_type: str, params: Mapping[str, Any] | None = None):
        """Build an index over a collection."""
        return self.get_collection(name).create_index(index_type, params)

    def search(self, name: str, queries, top_k: int | None = None, **kwargs: Any):
        """Search a collection (scatter-gather across its shards).

        ``queries`` is either a plain query array (with ``top_k``) or a
        :class:`~repro.vdms.request.SearchRequest` carrying an attribute
        filter and its execution-strategy knobs.  Keyword arguments are
        forwarded verbatim to :meth:`Collection.search
        <repro.vdms.collection.Collection.search>`, so facade callers keep
        the full search surface — ``use_cache=False`` bypasses the tiered
        query cache exactly as it does on the collection.
        """
        return self.get_collection(name).search(queries, top_k, **kwargs)

    # -- lifecycle ----------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop every background resource deterministically.

        Stops the maintenance worker of every collection and releases
        durable collections' WAL handles (their data directories stay
        recoverable).  The facade owns no threads of its own: serving
        concurrency is the :class:`~repro.serving.admission.AdmissionController`
        pool in front of it.  In-memory collections remain usable afterwards;
        this is the hook the network serving front-end's graceful drain calls
        last.
        """
        for collection in self._collections.values():
            collection.close()
