"""Digest of search results over a layout matrix, to compare two commits.

    PYTHONPATH=<checkout>/src python benchmarks/digest_search_matrix.py

Not a pytest file.  It uses only the public ``Collection`` API, so the same
file runs on any two checkouts: copy it next to an older one and diff the
output.  It hashes ids, distances (bytes and dtype), ``stats`` and
``shard_stats`` of searches over {angular, l2, ip} x {1, 3 shards} x {auto,
permuted ids} x {distinct, duplicated rows straddling segments} x q in {1, 33,
70} x k in {1, 10, 37, > rows}, on snapshots holding built, tombstoned,
freshly sealed and growing segments — once per index type in ``INDEX_TYPES``:
the exact scan, the two graph indexes and the inverted-file family.  The
family's cells also hash filtered requests (an ``eq`` filter under
``filter_strategy`` pre and post) and, at three requests per (q, k), run a
thinner matrix to keep the script short: ``FAMILY_AXES``, permuted ids only.
``AUTO_ID_TYPES`` are then hashed once more with auto-assigned ids — for
IVF_FLAT, whose segments break ties by stored position, that is the layout
where position and id tie-breaks coincide — in a section of their own after
every other line, so adding it moved no earlier line.  A last section,
``FILTERED_TYPES`` over ``FAMILY_AXES``, hashes filtered requests of the types
the family's cells leave out (``cat == 1`` under pre, post and auto) and a
filter no row matches (``cat == CATEGORIES``: every view all-false, answered
by float64 padding) for all seven types.  A section after that,
``TOTAL IVF_FLAT shard runs``, hashes the shape a served read meets: two
shards of 20 full IVF_FLAT segments of ``RUN_SEGMENT_ROWS`` rows each
(``nlist=16``, ``nprobe=4``, ``angular``), one more sealed segment per shard —
in one shard smaller than ``nlist`` —, a growing tail, copied rows across
segments, and ``q = 8``, ``top_k = 10`` requests unfiltered and
``cat == c`` (about a tenth of the rows), before and after a delete
tombstones rows.  It prints one digest
per cell and a ``TOTAL <index type>`` line over each type's cells; a change
to a query path that claims bit-identity (the fused scan of a run of
FLAT-served segments did, the array-walking HNSW search did, the
tile-at-a-time IVF scoring did, the fused run of IVF_FLAT segments did, one
``search_run`` per index type did, a run's one probe, listing and placement
per shard did) must
print the same lines as its parent.  ``digest_search_matrix.expected`` holds
them, and CI diffs the output against it.
"""

import hashlib
from dataclasses import astuple

import numpy as np

from repro.vdms import AttributeFilter, Collection, SearchRequest, SystemConfig

DIMENSION = 16
ROWS = 710  # 600 indexed, then 110: four freshly sealed segments and a 10-row growing tail
SEGMENTS = {"segment_max_size": 16, "segment_seal_proportion": 0.1, "insert_buf_size": 16}
#: Index type -> build parameters.  The inverted-file family gets a few lists
#: per 16-row segment and probes half of them; SCANN's shortlist is shorter
#: than most candidate lists, so its re-rank sees a real cut.
IVF = {"nlist": 4, "nprobe": 2}
INDEX_TYPES = {
    "FLAT": {},
    "HNSW": {},
    "AUTOINDEX": {},
    "IVF_FLAT": IVF,
    "IVF_SQ8": IVF,
    "IVF_PQ": {**IVF, "pq_m": 4, "pq_nbits": 2},
    "SCANN": {**IVF, "reorder_k": 5},
}
#: The inverted-file family: its cells also hash filtered requests.
FAMILY = ("IVF_FLAT", "IVF_SQ8", "IVF_PQ", "SCANN")
#: (permuted ids, q, k) per cell.  The family's: q = 70 alone spans two tiles
#: of queries, and a 16-row segment returns the same rows for k = 37 as 1000.
AXES = ((False, True), (1, 33, 70), (1, 10, 37, 1000))
FAMILY_AXES = ((True,), (1, 70), (1, 10, 1000))
#: Family members hashed again with auto-assigned ids, after everything else.
AUTO_ID_TYPES = ("IVF_FLAT",)
CATEGORIES = 3  # the filtered requests ask for ``cat == 1``: a third of the rows
#: Types whose ``cat == 1`` requests the last section hashes (the family's
#: cells above hash theirs); its no-match filter covers every type.
FILTERED_TYPES = ("FLAT", "HNSW", "AUTOINDEX")


def corpus(duplicates: bool, permuted: bool, seed: int = 11):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(ROWS, DIMENSION)).astype(np.float32)
    if duplicates:
        # Copies of 60 rows, scattered so most pairs land in different segments.
        sources = rng.choice(ROWS // 2, size=60, replace=False)
        targets = rng.choice(np.arange(ROWS // 2, ROWS), size=60, replace=False)
        vectors[targets] = vectors[sources]
        vectors[5] = 0.0  # a zero row: zero-snap / zero-norm handling
    ids = rng.permutation(ROWS * 3)[:ROWS].astype(np.int64) if permuted else None
    return vectors, ids


def build(index_type: str, metric: str, shards: int, duplicates: bool, permuted: bool):
    vectors, ids = corpus(duplicates, permuted)
    categories = np.random.default_rng(12).integers(0, CATEGORIES, size=ROWS)
    config = SystemConfig(shard_num=shards, **SEGMENTS)
    collection = Collection("m", DIMENSION, metric=metric, system_config=config,
                            auto_maintenance=False)
    collection.insert(vectors[:600], ids=None if ids is None else ids[:600],
                      attributes={"cat": categories[:600]})
    collection.flush()
    collection.create_index(index_type, INDEX_TYPES[index_type])
    all_ids = np.arange(600) if ids is None else ids[:600]
    collection.delete(all_ids[100:140])       # tombstoned (delete-invalidated) segments
    collection.insert(vectors[600:], ids=None if ids is None else ids[600:],
                      attributes={"cat": categories[600:]})
    collection.flush()                         # freshly sealed + growing tail
    return collection, vectors


def requests(index_type: str, queries: np.ndarray, top_k: int):
    """The unfiltered request, and for the inverted-file family the filtered two."""
    yield SearchRequest(queries, top_k)
    if index_type in FAMILY:
        for strategy in ("pre", "post"):
            yield SearchRequest(queries, top_k, filter=AttributeFilter("cat", "eq", 1),
                                filter_strategy=strategy)


def filtered_requests(index_type: str, queries: np.ndarray, top_k: int):
    """The last section's requests: ``cat == 1`` under every strategy for
    ``FILTERED_TYPES``, then, for every type, a filter no row matches."""
    if index_type in FILTERED_TYPES:
        for strategy in ("pre", "post", "auto"):
            yield SearchRequest(queries, top_k, filter=AttributeFilter("cat", "eq", 1),
                                filter_strategy=strategy)
    yield SearchRequest(queries, top_k, filter=AttributeFilter("cat", "eq", CATEGORIES))


def digest_index_type(index_type: str, auto_ids: bool = False, filtered: bool = False) -> str:
    rng = np.random.default_rng(5)
    total = hashlib.sha256()
    thin = index_type in FAMILY or filtered
    id_layouts, batch_sizes, widths = FAMILY_AXES if thin else AXES
    cell_requests = filtered_requests if filtered else requests
    if auto_ids:
        id_layouts = (False,)
    for metric in ("angular", "l2", "ip"):
        for shards in (1, 3):
            for permuted in id_layouts:
                for duplicates in (False, True):
                    collection, vectors = build(index_type, metric, shards, duplicates, permuted)
                    cell = hashlib.sha256()
                    for q in batch_sizes:
                        queries = rng.normal(size=(q, DIMENSION)).astype(np.float32)
                        if duplicates:
                            # Query exactly at stored (duplicated) rows: exact-zero ties.
                            queries[: min(q, 8)] = vectors[:8][: min(q, 8)]
                        for top_k in widths:
                            for request in cell_requests(index_type, queries, top_k):
                                result = collection.search(request)
                                cell.update(np.ascontiguousarray(result.ids).tobytes())
                                cell.update(str(result.ids.dtype).encode())
                                cell.update(np.ascontiguousarray(result.distances).tobytes())
                                cell.update(str(result.distances.dtype).encode())
                                cell.update(repr(astuple(result.stats)).encode())
                                cell.update(repr([astuple(s) for s in result.shard_stats]).encode())
                    digest = cell.hexdigest()
                    total.update(digest.encode())
                    views = [len(shard.snapshot(metric)) for shard in collection.shards]
                    print(f"{metric:8s} shards={shards} permuted={int(permuted)} "
                          f"dups={int(duplicates)} views={views} {digest[:16]}")
    return total.hexdigest()


#: The shard-runs section: 2 shards of 20 full 512-row segments, one partial
#: sealed segment each (6 rows in one shard: fewer than ``nlist``) and a
#: 256-row growing tail; ``SystemConfig.sealed_segment_rows`` is 512 at 64
#: dimensions and the insert buffer holds 256 rows.
RUN_DIMENSION = 64
RUN_ROWS = 21_060
RUN_SEGMENT_ROWS = 512
RUN_CONFIG = {"shard_num": 2, "segment_max_size": 512, "segment_seal_proportion": 0.25,
              "insert_buf_size": 128}
RUN_CATEGORIES = 10


def digest_shard_runs() -> str:
    """The ``TOTAL IVF_FLAT shard runs`` section (see the module docstring)."""
    rng = np.random.default_rng(23)
    vectors = rng.normal(size=(RUN_ROWS, RUN_DIMENSION)).astype(np.float32)
    # Copies of 40 early rows scattered over later segments: ties across segments.
    sources = np.arange(40)
    vectors[rng.choice(np.arange(RUN_SEGMENT_ROWS * 4, RUN_ROWS), size=40, replace=False)] = vectors[sources]
    categories = rng.integers(0, RUN_CATEGORIES, size=RUN_ROWS)
    collection = Collection("runs", RUN_DIMENSION, metric="angular",
                            system_config=SystemConfig(**RUN_CONFIG), auto_maintenance=False)
    collection.insert(vectors, attributes={"cat": categories})
    collection.flush()
    collection.create_index("IVF_FLAT", {"nlist": 16, "nprobe": 4})
    total = hashlib.sha256()
    for phase in ("fresh", "tombstoned"):
        if phase == "tombstoned":
            collection.delete(np.arange(0, 1536, 3))  # the first segments of each shard
        cell = hashlib.sha256()
        for batch in range(6):
            queries = rng.normal(size=(8, RUN_DIMENSION)).astype(np.float32)
            queries[:3] = vectors[sources[3 * batch : 3 * batch + 3]]  # on copied rows
            cell_requests = [SearchRequest(queries, 10)] + [
                SearchRequest(queries, 10, filter=AttributeFilter("cat", "eq", batch % RUN_CATEGORIES),
                              filter_strategy=strategy)
                for strategy in ("pre", "auto")
            ]
            for request in cell_requests:
                result = collection.search(request)
                cell.update(np.ascontiguousarray(result.ids).tobytes())
                cell.update(str(result.ids.dtype).encode())
                cell.update(np.ascontiguousarray(result.distances).tobytes())
                cell.update(str(result.distances.dtype).encode())
                cell.update(repr(astuple(result.stats)).encode())
                cell.update(repr([astuple(s) for s in result.shard_stats]).encode())
        digest = cell.hexdigest()
        total.update(digest.encode())
        views = [len(shard.snapshot("angular")) for shard in collection.shards]
        print(f"angular  shards=2 {phase} views={views} {digest[:16]}")
    return total.hexdigest()


def main() -> None:
    for index_type in INDEX_TYPES:
        print("TOTAL", index_type, digest_index_type(index_type))
    for index_type in AUTO_ID_TYPES:
        print("TOTAL", index_type, "auto-ids", digest_index_type(index_type, auto_ids=True))
    for index_type in INDEX_TYPES:
        print("TOTAL", index_type, "filtered", digest_index_type(index_type, filtered=True))
    print("TOTAL IVF_FLAT shard runs", digest_shard_runs())


if __name__ == "__main__":
    main()
