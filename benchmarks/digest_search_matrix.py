"""Digest of search results over a layout matrix, to compare two commits.

    PYTHONPATH=<checkout>/src python benchmarks/digest_search_matrix.py

Not a pytest file.  It uses only the public ``Collection`` API, so the same
file runs on any two checkouts: copy it next to an older one and diff the
output.  It hashes ids, distances (bytes and dtype), ``stats`` and
``shard_stats`` of unfiltered searches over {angular, l2, ip} x {1, 3
shards} x {auto, permuted ids} x {distinct, duplicated rows straddling
segments} x q in {1, 33, 70} x k in {1, 10, 37, > rows}, on snapshots holding
built, tombstoned, freshly sealed and growing segments — once per index type
in ``INDEX_TYPES``: the exact scan and the two graph indexes.  It prints one
digest per cell and a ``TOTAL <index type>`` line over each type's cells; a
change to the scan or graph query path that claims bit-identity (the fused
scan of a run of FLAT-served segments did, the array-walking HNSW search did)
must print the same lines as its parent.  ``digest_search_matrix.expected``
holds them, and CI diffs the output against it.
"""

import hashlib
from dataclasses import astuple

import numpy as np

from repro.vdms import Collection, SystemConfig

DIMENSION = 16
ROWS = 710  # 600 indexed, then 110: four freshly sealed segments and a 10-row growing tail
SEGMENTS = {"segment_max_size": 16, "segment_seal_proportion": 0.1, "insert_buf_size": 16}
INDEX_TYPES = ("FLAT", "HNSW", "AUTOINDEX")


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
    config = SystemConfig(shard_num=shards, **SEGMENTS)
    collection = Collection("m", DIMENSION, metric=metric, system_config=config,
                            auto_maintenance=False)
    assigned = collection.insert(vectors[:600], ids=None if ids is None else ids[:600])
    collection.flush()
    collection.create_index(index_type, {})
    all_ids = np.arange(600) if ids is None else ids[:600]
    collection.delete(all_ids[100:140])       # tombstoned (delete-invalidated) segments
    collection.insert(vectors[600:], ids=None if ids is None else ids[600:])
    collection.flush()                         # freshly sealed + growing tail
    return collection, vectors


def digest_index_type(index_type: str) -> str:
    rng = np.random.default_rng(5)
    total = hashlib.sha256()
    for metric in ("angular", "l2", "ip"):
        for shards in (1, 3):
            for permuted in (False, True):
                for duplicates in (False, True):
                    collection, vectors = build(index_type, metric, shards, duplicates, permuted)
                    cell = hashlib.sha256()
                    for q in (1, 33, 70):
                        queries = rng.normal(size=(q, DIMENSION)).astype(np.float32)
                        if duplicates:
                            # Query exactly at stored (duplicated) rows: exact-zero ties.
                            queries[: min(q, 8)] = vectors[:8][: min(q, 8)]
                        for top_k in (1, 10, 37, 1000):
                            result = collection.search(queries, top_k)
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


def main() -> None:
    for index_type in INDEX_TYPES:
        print("TOTAL", index_type, digest_index_type(index_type))


if __name__ == "__main__":
    main()
