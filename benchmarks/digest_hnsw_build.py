"""Digest of HNSW / AUTOINDEX builds and searches, to compare two commits.

    PYTHONPATH=<checkout>/src python benchmarks/digest_hnsw_build.py

Not a pytest file.  ``digest_search_matrix.py`` indexes 16-row segments, so
the graph builds it hashes never leave the all-pairs branch of
``HNSWIndex._layer_graph``.  This one builds whole indexes through the public
index API only (``create_index``, ``build``, ``search``; it runs on any two
checkouts) at sizes where the bottom layer takes the cell-accelerated branch
(every cell here), where an upper layer takes it too (``hnsw_m`` 3 at 1100 and
3000 rows) and where the probe covers every cell, so a cell's own members sit
in its pool twice (``ef_construction`` 361 at 300 rows).  A walk admits a
node's neighbours in their stored order, so the ids, distance bytes + dtype and
work counters of q in {1, 70} (one query; a block of 64 and a short one) x k
in {1, 10, 100} depend on the neighbour arrays' values *and order*;
``build_stats`` and ``memory_bytes()`` are hashed beside them.  It prints one
digest per (index, metric, rows) cell and a ``TOTAL`` line per index; a change
to the graph build or the graph search that claims bit-identity must print the
lines of ``digest_hnsw_build.expected``, which were recorded on the commit
before the build and the search went array-at-a-time.  CI diffs against it.
"""

import hashlib
from dataclasses import astuple

import numpy as np

from repro.vdms.index import create_index

DIMENSION = 24
ROW_COUNTS = (300, 1100, 3000)
#: Label -> (index type, parameters).
INDEXES = {
    "HNSW": ("HNSW", {}),
    "HNSW-m3": ("HNSW", {"hnsw_m": 3, "ef_construction": 64, "ef_search": 32}),
    "HNSW-m24": ("HNSW", {"hnsw_m": 24, "ef_construction": 361, "ef_search": 250}),
    "AUTOINDEX": ("AUTOINDEX", {}),
}


def corpus(rows: int, seed: int = 29):
    """Stored rows with a tenth of them copied and one zeroed (exact-zero
    distances, ties, a zero norm), and 70 queries, 8 of them on stored rows."""
    rng = np.random.default_rng(seed + rows)
    vectors = rng.normal(size=(rows, DIMENSION)).astype(np.float32)
    copies = rows // 10
    vectors[rows - copies :] = vectors[:copies]
    vectors[rows // 3] = 0.0
    queries = rng.normal(size=(70, DIMENSION)).astype(np.float32)
    queries[:8] = vectors[rng.integers(0, rows, size=8)]
    return vectors, queries


def digest_cell(index_type: str, parameters: dict, metric: str, rows: int) -> str:
    vectors, queries = corpus(rows)
    index = create_index(index_type, metric, **parameters)
    cell = hashlib.sha256()
    index.build(vectors)
    cell.update(repr(astuple(index.build_stats)).encode())
    cell.update(repr(index.memory_bytes()).encode())
    for q in (1, 70):
        for top_k in (1, 10, 100):
            ids, distances, stats = index.search(queries[:q], top_k)
            cell.update(np.ascontiguousarray(ids).tobytes())
            cell.update(str(ids.dtype).encode())
            cell.update(np.ascontiguousarray(distances).tobytes())
            cell.update(str(distances.dtype).encode())
            cell.update(repr(astuple(stats)).encode())
    return cell.hexdigest()


def main() -> None:
    for label, (index_type, parameters) in INDEXES.items():
        total = hashlib.sha256()
        for metric in ("angular", "l2", "ip"):
            for rows in ROW_COUNTS:
                digest = digest_cell(index_type, parameters, metric, rows)
                total.update(digest.encode())
                print(f"{label:9s} {metric:8s} rows={rows:<5d} {digest[:16]}")
        print("TOTAL", label, total.hexdigest())


if __name__ == "__main__":
    main()
