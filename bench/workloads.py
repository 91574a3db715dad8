"""The four workloads: set-up, timed region, correctness gates, metrics.

Every workload drives the program through its public API only and checks its
outputs against oracles the benchmark computes itself.  ``run_workload`` is
the one entry point; ``bench/run.py`` wraps it in a command line.

Load model (stated in the output too): every loop is **closed** — a caller
sends its next operation only after the previous reply — with at most
``nproc`` (2) client threads, because two connections cannot hold an
open-loop backlog and a closed loop adjusts itself to the host's speed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import itertools
import json
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
from scipy.stats.mstats import hdquantiles

from bench.hostspeed import MARK_EVERY, HostSpeed
from bench.metrics import END_TO_END, PER_LAYER, all_metrics
from bench.trace import SpanTotals, Tracer, aggregate

from repro.bo.pareto import hypervolume_2d
from repro.core.tuner import VDTuner, VDTunerSettings
from repro.serving.server import ServingConfig, ServingFrontend
from repro.vdms.distance import ScanOperand, pairwise_distances_blocked, top_k_select
from repro.vdms.request import AttributeFilter, SearchRequest
from repro.vdms.server import VectorDBServer
from repro.vdms.system_config import SystemConfig
from repro.workloads.environment import VDMSTuningEnvironment

__all__ = ["FULL", "SMOKE", "Scale", "WORKLOAD_CLASSES", "run_workload"]

OUT_DIR = Path(__file__).resolve().parent / "out"
COLLECTION = "bench"
TOP_K = 10
METRIC = "angular"
#: Seed of the Zipf access patterns, which no ``--seed`` changes.
SCHEDULE_SEED = 2024
clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale; ``FULL`` is what BENCHMARK.json records."""

    dimension: int = 64
    clients: int = 2
    # serve_scan / serve_hot
    corpus_rows: int = 48_000
    scan_pool: int = 2_048
    hot_pool: int = 128
    warmup_requests: int = 32
    # embed_mixed_rw: one cycle = insert_batches inserts, flush, delete, searches
    embed_rows: int = 24_576
    embed_cycles_per_second: float = 5.0
    embed_insert_batches: int = 8
    embed_batch_rows: int = 256
    embed_searches: int = 8
    embed_query_rows: int = 8
    embed_query_batches: int = 16
    # tune_loop: 32 iterations in a 15 s region, so both abandonments (20, 30) fire
    tune_iterations_per_second: float = 32 / 15
    tune_dataset_scale: float = 1.0


FULL = Scale()
#: Seconds-scale runs for bench/test_bench_smoke.py; the numbers mean nothing.
SMOKE = Scale(
    corpus_rows=4_096,
    scan_pool=64,
    hot_pool=16,
    warmup_requests=4,
    embed_rows=4_096,
    embed_cycles_per_second=6.0,
    embed_insert_batches=2,
    embed_searches=4,
    tune_iterations_per_second=18.0,
    tune_dataset_scale=0.1,
)


# -- oracles ---------------------------------------------------------------------


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return matrix / norms


def oracle_recall(
    vectors: np.ndarray,
    ids: np.ndarray,
    queries: np.ndarray,
    returned_ids: np.ndarray,
    allowed: np.ndarray | None = None,
) -> tuple[float, bool]:
    """Recall@k of ``returned_ids`` against a float64 NumPy brute force.

    ``ids`` ascend and name the rows of ``vectors``; ``allowed`` masks the
    rows a filter admits.  A returned id counts when its exact distance is
    within 1e-6 (relative) of the k-th best, so two rows the program's
    float32 distances cannot tell apart are both right.  The second value
    is whether every returned id was a distinct allowed row (padding ``-1``
    is legal only when fewer than ``k`` rows are allowed).
    """
    corpus = _unit_rows(vectors)
    found = 0
    wanted = 0
    valid = True
    for start in range(0, queries.shape[0], 256):
        block = _unit_rows(queries[start : start + 256])
        distances = 2.0 - 2.0 * (block @ corpus.T)
        if allowed is not None:
            distances[:, ~allowed] = np.inf
        finite = int(np.isfinite(distances[0]).sum())
        k = min(returned_ids.shape[1], finite)
        if k == 0:
            valid = valid and bool((returned_ids[start : start + 256] < 0).all())
            continue
        kth = np.partition(distances, k - 1, axis=1)[:, k - 1]
        for row, answer in enumerate(returned_ids[start : start + 256]):
            answer = answer[answer >= 0]
            positions = np.searchsorted(ids, answer)
            known = (positions < ids.shape[0]) & (ids[np.minimum(positions, ids.shape[0] - 1)] == answer)
            if not known.all() or np.unique(answer).shape[0] != answer.shape[0] or answer.shape[0] < k:
                valid = False
            exact = distances[row, positions[known]]
            valid = valid and bool(np.isfinite(exact).all())
            found += int((exact <= kth[row] * (1.0 + 1e-6) + 1e-9).sum())
            wanted += k
    return (found / wanted if wanted else 1.0), valid


def _percentile(values, q: float) -> float:
    """The Harrell-Davis estimate of a percentile: every order statistic
    weighted by how near it lies.  Over a thousand requests it is the plain
    percentile; over tune_loop's 32 iterations, whose plain p90 is the 29th
    value alone and whose p50 sits in a gap, it moves half as much run to run."""
    return float(hdquantiles(np.asarray(values, dtype=np.float64), [q / 100.0])[0])


def _cache_counters(collection) -> tuple[int, int, int, int]:
    """``(result hits, result misses, plan hits, plan misses)`` so far; zeros without a cache."""
    cache = collection.query_cache
    if cache is None:
        return (0, 0, 0, 0)
    stats = cache.stats
    return (stats.result_hits, stats.result_misses, stats.plan_hits, stats.plan_misses)


def _floor_ms(corpus: np.ndarray, query_batches) -> float:
    """The kernel floor: one operand over the whole corpus, then per query
    batch one blocked scan and one top-k (median over the batches, ms)."""
    operand = ScanOperand.prepare(corpus, METRIC).materialize()
    samples = []
    for batch in query_batches:
        start = clock()
        top_k_select(pairwise_distances_blocked(batch, operand, METRIC), TOP_K)
        samples.append(clock() - start)
    return statistics.median(samples) * 1e3


def _zipf(size: int, exponent: float = 1.1) -> np.ndarray:
    weights = 1.0 / np.arange(1, size + 1) ** exponent
    return weights / weights.sum()


# -- the workload protocol ---------------------------------------------------------


class Workload:
    """One workload: ``setup`` → ``measure`` → ``check`` → ``metrics`` → ``teardown``."""

    name = ""
    #: What one operation is (the unit of ``ops_per_s`` and of per-op times).
    operation = ""
    #: Set-ups per run; ``setup_s`` is their median.
    setup_repeats = 3
    #: Metrics that must repeat exactly between two runs of one seed (one
    #: caller and no timers); a name the run did not compute is skipped.
    exact_names: tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float, scale: Scale) -> None:
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.scale = scale
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.origin = 0.0
        #: ``(end, caller-observed latency, is the read operation)`` of every
        #: operation of the timed region, seconds on ``clock``.
        self.ops: list[tuple[float, float, bool]] = []
        #: Rows the write operations moved (embed_mixed_rw).
        self.rows_written = 0
        #: Seconds the harness itself spent in the timed region, all drivers summed.
        self.driver_seconds = 0.0
        self.callers = 1
        #: ``(SearchStats, FilterStats)`` per search the workload saw itself;
        #: ``None`` when only the traced run can see them (HTTP, replays).
        self.search_results: list[tuple] | None = None
        #: Digest of the outputs, where the outputs are a trace (tune_loop).
        self.digest: str | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, host: HostSpeed) -> None:
        """The timed region; calls ``host.mark()`` between operations, about ``MARK_EVERY`` apart."""
        raise NotImplementedError

    def check(self) -> dict[str, bool]:
        raise NotImplementedError

    def metrics(self, totals: dict[str, SpanTotals] | None, tracer: Tracer | None) -> dict[str, float]:
        """Workload-specific metrics; ``totals`` is ``None`` on an untraced run."""
        raise NotImplementedError

    def busy_seconds(self) -> float:
        """Seconds the callers spent inside operations, all callers summed."""
        return sum(latency for _, latency, _ in self.ops)

    def teardown(self) -> None:
        pass


# -- serve_scan / serve_hot ----------------------------------------------------------


class _ClientLog:
    def __init__(self) -> None:
        #: ``(completion time, latency, answered 200)`` of every request.
        self.requests: list[tuple[float, float, bool]] = []
        self.request_bytes = 0
        self.response_bytes = 0
        self.last_response: dict[int, bytes] = {}
        self.started = 0.0
        self.ended = 0.0


class _ServeWorkload(Workload):
    operation = "HTTP search (q=1, top_k=10) over a keep-alive connection"
    use_cache = False

    def system_config(self) -> SystemConfig:
        return SystemConfig()

    def pool_size(self) -> int:
        raise NotImplementedError

    def schedules(self) -> list[list[int]]:
        """Per client, the pool indexes it asks for, in order (cycled)."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Fixed-count warm-up over HTTP, so ``setup_s`` tracks the code's speed."""
        for position in range(self.scale.warmup_requests):
            client = position % len(self.connections)
            schedule = self.schedule[client]
            self._request(self.connections[client], schedule[position % len(schedule)])

    def setup(self) -> None:
        scale = self.scale
        self.callers = scale.clients
        rng = np.random.default_rng([self.seed, 1])
        self.corpus = rng.standard_normal((scale.corpus_rows, scale.dimension), dtype=np.float32)
        self.pool = rng.standard_normal((self.pool_size(), scale.dimension), dtype=np.float32)
        self.schedule = self.schedules()
        self.backend = VectorDBServer(self.system_config())
        self.collection = self.backend.create_collection(COLLECTION, scale.dimension, metric=METRIC)
        self.collection.insert(self.corpus)
        self.collection.flush()
        self.collection.create_index("FLAT")
        self.frontend = ServingFrontend(
            self.backend, ServingConfig(workers=1, queue_depth=64)
        ).start()
        self.bodies = [
            json.dumps({"queries": [query.tolist()], "top_k": TOP_K, "use_cache": self.use_cache}).encode()
            for query in self.pool
        ]
        # Plain http.client sockets with default options: users set neither
        # TCP_NODELAY nor TCP_QUICKACK, so neither does the generator.
        self.connections = [
            http.client.HTTPConnection("127.0.0.1", self.frontend.port, timeout=60)
            for _ in range(scale.clients)
        ]
        self.warm_up()

    def _request(self, connection: http.client.HTTPConnection, index: int) -> tuple[int, bytes]:
        connection.request(
            "POST",
            f"/collections/{COLLECTION}/search",
            body=self.bodies[index],
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()

    def _client(self, client: int, barrier: threading.Barrier, log: _ClientLog) -> None:
        connection = self.connections[client]
        schedule = self.schedule[client]
        bodies = self.bodies
        barrier.wait()
        log.started = clock()
        deadline = log.started + self.seconds
        position = 0
        while True:
            start = clock()
            if start >= deadline:
                break
            index = schedule[position % len(schedule)]
            position += 1
            try:
                status, payload = self._request(connection, index)
            except (OSError, http.client.HTTPException):
                status, payload = 0, b""
                connection.close()
            end = clock()
            log.requests.append((end, end - start, status == 200))
            log.request_bytes += len(bodies[index])
            log.response_bytes += len(payload)
            if status == 200:
                log.last_response[index] = payload
        log.ended = start

    def measure(self, host: HostSpeed) -> None:
        self.cache_before = _cache_counters(self.collection)
        self.admission_before = self.frontend.admission.stats()
        logs = [_ClientLog() for _ in self.connections]
        barrier = threading.Barrier(len(logs) + 1)
        threads = [
            threading.Thread(target=self._client, args=(client, barrier, log), name=f"bench-client-{client}")
            for client, log in enumerate(logs)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        # This thread has nothing else to do, so it watches the host's speed.
        while any(thread.is_alive() for thread in threads):
            host.mark()
            time.sleep(MARK_EVERY)
        for thread in threads:
            thread.join()
        self.origin = min(log.started for log in logs)
        self.wall = max(log.ended for log in logs) - self.origin
        requests = sorted(request for log in logs for request in log.requests)
        self.ops = [(end, latency, True) for end, latency, _ in requests]
        self.attempted = len(requests)
        self.failed = sum(not ok for _, _, ok in requests)
        self.driver_seconds = sum(log.ended - log.started for log in logs) - self.busy_seconds()
        self.request_bytes = sum(log.request_bytes for log in logs)
        self.response_bytes = sum(log.response_bytes for log in logs)
        responses: dict[int, bytes] = {}
        for log in logs:
            responses.update(log.last_response)
        #: The last answer to each distinct query asked, by pool index.
        self.answers = {index: json.loads(responses[index]) for index in sorted(responses)}
        self.cache_after = _cache_counters(self.collection)
        self.admission_after = self.frontend.admission.stats()

    def check(self) -> dict[str, bool]:
        indexes = np.array(list(self.answers), dtype=np.int64)
        returned = np.array(
            [answer["ids"][0] for answer in self.answers.values()], dtype=np.int64
        ).reshape(-1, TOP_K)
        self.recall, valid = oracle_recall(
            self.corpus, np.arange(self.corpus.shape[0]), self.pool[indexes], returned
        )
        after = self.admission_after
        return {
            "answered": len(self.answers) > 0 and self.failed == 0,
            "recall_at_10_is_1": valid and self.recall == 1.0,
            "admission_balanced": (
                after.admitted == after.served
                and after.in_flight == 0
                and after.queue_depth == 0
                and after.shed == after.expired == after.failed == after.rejected == 0
            ),
        }

    def metrics(self, totals, tracer):
        before, after = self.admission_before, self.admission_after
        hits, misses, plan_hits, plan_misses = (
            b - a for a, b in zip(self.cache_before, self.cache_after)
        )
        cache = self.collection.query_cache
        values = {
            "e2e.recall_at_10": self.recall,
            "serving.server.req_bytes": self.request_bytes / self.attempted,
            "serving.server.resp_bytes": self.response_bytes / self.attempted,
            "serving.server.p99_ms": _percentile([latency for _, latency, _ in self.ops], 99) * 1e3,
            "serving.admission.admitted": after.admitted - before.admitted,
            "serving.admission.served": after.served - before.served,
            "serving.admission.shed": after.shed - before.shed,
            "serving.admission.expired": after.expired - before.expired,
            "serving.admission.failed": after.failed - before.failed,
            "serving.admission.queue_depth_max": after.max_queue_depth,
            "vdms.cache.result_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "vdms.cache.plan_hit_ratio": plan_hits / (plan_hits + plan_misses) if plan_hits + plan_misses else 0.0,
            "vdms.cache.entries": len(cache) if cache is not None else 0,
            "vdms.segment.sealed_segments": self.collection.num_sealed_segments,
        }
        if totals is not None:
            execute = totals.get("serving.admission:execute", SpanTotals())
            job = totals.get("serving.admission:job", SpanTotals())
            client_side = self.busy_seconds() - execute.total
            values["serving.server.self_ms"] = client_side * 1e3 / self.attempted
            values["serving.admission.self_ms"] = (execute.self_time + job.self_time) * 1e3 / self.attempted
            values["vdms.distance.floor_ms"] = _floor_ms(self.corpus, self.pool[:15, None, :])
            # Everything the server did hangs under an execute span when the
            # thread hop is linked; what the client saw beyond that is the
            # serving.server layer.  Unlinked spans would count twice here.
            server_side = sum(entry.self_time for entry in totals.values())
            values["bench.span_coverage"] = (server_side + client_side) / self.busy_seconds()
        return values

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.frontend.drain()


class ServeScan(_ServeWorkload):
    name = "serve_scan"

    def pool_size(self) -> int:
        return self.scale.scan_pool

    def schedules(self):
        clients = self.scale.clients
        return [list(range(client, self.pool_size(), clients)) for client in range(clients)]


class ServeHot(_ServeWorkload):
    name = "serve_hot"
    use_cache = True

    def system_config(self) -> SystemConfig:
        return SystemConfig(cache_policy="lru", cache_capacity=1024)

    def pool_size(self) -> int:
        return self.scale.hot_pool

    def schedules(self):
        weights = _zipf(self.pool_size())
        pattern = np.random.default_rng(SCHEDULE_SEED)
        return [
            pattern.choice(self.pool_size(), size=4096, p=weights).tolist()
            for _ in range(self.scale.clients)
        ]

    def warm_up(self) -> None:
        # Touch the whole pool once so the timed region is all result-tier hits.
        for query in self.pool:
            self.collection.search(query[None, :], TOP_K)
        super().warm_up()

    def check(self) -> dict[str, bool]:
        gates = super().check()
        fresh = True
        for index, answer in self.answers.items():
            result = self.collection.search(self.pool[index][None, :], TOP_K, use_cache=False)
            fresh = fresh and (
                answer["ids"] == result.ids.tolist()
                and answer["distances"] == result.distances.tolist()
                and answer["cache_hits"] == 1
            )
        hits, misses = (b - a for a, b in zip(self.cache_before[:2], self.cache_after[:2]))
        gates["no_stale_hits"] = fresh
        gates["all_result_hits"] = misses == 0 and hits == self.attempted
        return gates


# -- embed_mixed_rw -------------------------------------------------------------------


class EmbedMixedRW(Workload):
    name = "embed_mixed_rw"
    operation = "one embedded call: insert(256 rows) / flush / delete(2048 ids) / search(q=8, top_k=10)"
    exact_names = (
        "e2e.recall_at_10", "vdms.cache.result_hit_ratio", "vdms.cache.plan_hit_ratio",
        "vdms.cache.entries", "vdms.segment.sealed_segments", "vdms.durability.records",
        "vdms.durability.fsyncs", "vdms.durability.wal_bytes", "vdms.durability.recover_records",
        "vdms.collection.segments_per_query", "vdms.distance.distance_evals",
        "vdms.request.rows_scanned", "vdms.request.pre_segments", "vdms.request.post_segments",
        "vdms.maintenance.runs", "vdms.maintenance.segments_compacted",
        "vdms.maintenance.segments_reindexed", "vdms.segment.rows_rewritten",
        "vdms.distance.scan_calls", "vdms.index.build_calls", "vdms.sharding.merge_calls",
    )

    def setup(self) -> None:
        scale = self.scale
        rng = np.random.default_rng([self.seed, 2])
        self.cycles = max(2, round(self.seconds * scale.embed_cycles_per_second))
        per_cycle = scale.embed_insert_batches * scale.embed_batch_rows
        rows = scale.embed_rows + self.cycles * per_cycle
        self.vectors = rng.standard_normal((rows, scale.dimension), dtype=np.float32)
        self.categories = rng.integers(0, 10, size=rows)
        self.query_batches = [
            rng.standard_normal((scale.embed_query_rows, scale.dimension), dtype=np.float32)
            for _ in range(scale.embed_query_batches)
        ]
        # The access pattern is part of the workload, not of the seed: which
        # batch is asked when decides the hit ratio and the filtered share, and
        # a seed-drawn schedule moved latency_p50_ms by 20 % between seeds.
        self.schedule = np.random.default_rng(SCHEDULE_SEED).choice(
            scale.embed_query_batches,
            size=(self.cycles, scale.embed_searches),
            p=_zipf(scale.embed_query_batches),
        ).tolist()
        # Even-numbered batches are filtered cat == c (~10 % selectivity).
        self.requests = [
            SearchRequest(batch, TOP_K, filter=AttributeFilter("cat", "eq", number % 10))
            if number % 2 == 0
            else SearchRequest(batch, TOP_K)
            for number, batch in enumerate(self.query_batches)
        ]
        self.config = SystemConfig(
            durability_mode="wal",
            wal_sync_policy="always",
            cache_policy="lru",
            maintenance_mode="inline",
            shard_num=2,
        )
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.data_dir = tempfile.mkdtemp(prefix="embed-", dir=OUT_DIR)
        self.server = VectorDBServer(self.config, data_dir=self.data_dir)
        self.collection = self.server.create_collection(COLLECTION, scale.dimension, metric=METRIC)
        preload = scale.embed_rows
        self.collection.insert(
            self.vectors[:preload],
            ids=np.arange(preload),
            attributes={"cat": self.categories[:preload]},
        )
        self.collection.flush()
        self.collection.create_index("IVF_FLAT", {"nlist": 16, "nprobe": 4})
        self.oldest = 0
        self.next_id = preload
        for request in self.requests:
            self.collection.search(request, use_cache=False)

    def _timed(self, call, *args, **kwargs):
        self.attempted += 1
        start = clock()
        try:
            return call(*args, **kwargs)
        except Exception:  # noqa: BLE001 - a failed operation is counted, never fatal
            self.failed += 1
            return None
        finally:
            end = clock()
            self.ops.append((end, end - start, call == self.collection.search))

    def measure(self, host: HostSpeed) -> None:
        scale = self.scale
        collection = self.collection
        retired = scale.embed_insert_batches * scale.embed_batch_rows
        self.search_results = []
        self.cache_before = _cache_counters(self.collection)
        self.origin = clock()
        for cycle in range(self.cycles):
            for _ in range(scale.embed_insert_batches):
                stop = self.next_id + scale.embed_batch_rows
                self._timed(
                    collection.insert, self.vectors[self.next_id : stop],
                    ids=np.arange(self.next_id, stop),
                    attributes={"cat": self.categories[self.next_id : stop]},
                )
                self.next_id = stop
            self._timed(collection.flush)
            self._timed(collection.delete, np.arange(self.oldest, self.oldest + retired))
            self.oldest += retired
            for number in self.schedule[cycle]:
                result = self._timed(collection.search, self.requests[number])
                if result is not None:
                    self.search_results.append((result.stats, result.filter_stats))
            host.mark()
        self.wall = clock() - self.origin
        self.driver_seconds = self.wall - self.busy_seconds()
        self.cache_after = _cache_counters(self.collection)
        self.rows_written = 2 * retired * self.cycles

    def _final_answers(self, collection) -> list[tuple[np.ndarray, np.ndarray]]:
        answers = []
        for request in self.requests:
            result = collection.search(request, use_cache=False)
            answers.append((result.ids, result.distances))
        return answers

    def check(self) -> dict[str, bool]:
        collection = self.collection
        live = slice(self.oldest, self.next_id)
        ids = np.arange(self.oldest, self.next_id)
        answers = self._final_answers(collection)
        recalls = []
        valid = True
        for number, (request, (returned, _)) in enumerate(zip(self.requests, answers)):
            allowed = None
            if request.filter is not None:
                allowed = self.categories[live] == number % 10
            recall, ok = oracle_recall(self.vectors[live], ids, request.queries, returned, allowed)
            recalls.append(recall)
            valid = valid and ok
        self.recall = float(np.mean(recalls))
        self.rows = collection.num_rows
        self.sealed_segments = collection.num_sealed_segments
        self.cache_entries = len(collection.query_cache)
        durability = collection.durability.stats
        self.wal_records, self.wal_fsyncs = durability.records_appended, durability.fsyncs
        collection.close()
        self.wal_bytes = sum(
            path.stat().st_size for path in Path(self.data_dir, COLLECTION).glob("wal-*")
        )
        start = clock()
        recovered = VectorDBServer(self.config, data_dir=self.data_dir).recover_collection(COLLECTION)
        self.recover_seconds = clock() - start
        self.recover_records = recovered.recovery_report.wal_records_replayed
        same = recovered.num_rows == self.rows
        for (ids_a, distances_a), (ids_b, distances_b) in zip(answers, self._final_answers(recovered)):
            same = same and np.array_equal(ids_a, ids_b) and np.array_equal(distances_a, distances_b)
        recovered.close()
        return {
            "no_failed_calls": self.failed == 0,
            "live_rows_stationary": self.rows == self.scale.embed_rows,
            "answers_are_live_allowed_rows": valid,
            "recovery_is_bit_identical": bool(same),
        }

    def metrics(self, totals, tracer):
        hits, misses, plan_hits, plan_misses = (
            b - a for a, b in zip(self.cache_before, self.cache_after)
        )
        scale = self.scale
        moved = self.cycles * scale.embed_insert_batches * scale.embed_batch_rows
        user_bytes = (scale.embed_rows + moved) * (scale.dimension * 4 + 8 + 8) + moved * 8
        values = {
            "e2e.recall_at_10": self.recall,
            "vdms.cache.result_hit_ratio": hits / max(1, hits + misses),
            "vdms.cache.plan_hit_ratio": plan_hits / max(1, plan_hits + plan_misses),
            "vdms.cache.entries": self.cache_entries,
            "vdms.segment.sealed_segments": self.sealed_segments,
            "vdms.durability.records": self.wal_records,
            "vdms.durability.fsyncs": self.wal_fsyncs,
            "vdms.durability.wal_bytes": self.wal_bytes,
            # User bytes: vector + id + attribute per inserted row (preload
            # included, the WAL holds it too) and the id per deleted row.
            "vdms.durability.bytes_per_user_byte": self.wal_bytes / user_bytes,
            "vdms.durability.recover_ms": self.recover_seconds * 1e3,
            "vdms.durability.recover_records": self.recover_records,
        }
        if totals is not None:
            reports = tracer.kept["vdms.maintenance:run"]
            values["vdms.maintenance.segments_compacted"] = sum(r.segments_compacted for r in reports)
            values["vdms.maintenance.segments_reindexed"] = sum(r.segments_reindexed for r in reports)
            values["vdms.segment.rows_rewritten"] = sum(r.rows_rewritten for r in reports)
            values["vdms.maintenance.stall_max_ms"] = _stall_max(tracer.spans) * 1e3
            values["vdms.distance.floor_ms"] = _floor_ms(
                self.vectors[self.oldest : self.next_id], self.query_batches[:15]
            )
        return values

    def teardown(self) -> None:
        self.collection.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)


def _stall_max(spans: list[tuple]) -> float:
    """Longest flush/delete call (seconds) that contained a maintenance pass."""
    stalled = {parent for _, parent, name, _, _, _ in spans if name == "vdms.maintenance:run"}
    durations = [
        end - start
        for span_id, _, name, _, start, end in spans
        if span_id in stalled and name in ("vdms.collection:flush", "vdms.collection:delete")
    ]
    return max(durations, default=0.0)


# -- tune_loop ------------------------------------------------------------------------

#: The tuner's own seed is pinned: a Bayesian-optimisation trajectory is
#: chaotic in its seed (probe: 1.0-1.7 iterations/s across tuner seeds 0-9,
#: single iterations from 0.01 s to 9.7 s), so a seed-dependent trajectory
#: measures which configurations were drawn, not how fast the code is.
TUNER_SEED = 0
_UNCACHED = itertools.count(1)


class TuneLoop(Workload):
    name = "tune_loop"
    operation = "one VDTuner iteration (suggest + replay) on glove-small, sequential"
    #: One set-up is ~10 ms, so more of them cost nothing and steady the median.
    setup_repeats = 9
    exact_names = (
        "e2e.tune_hv", "e2e.tune_best_qps_r90", "workloads.environment.evaluations",
        "core.scoring.abandoned", "bo.gp.fit_calls", "bo.ehvi.ehvi_calls",
        "vdms.index.build_calls", "vdms.collection.segments_per_query",
        "vdms.distance.distance_evals",
    )

    def setup(self) -> None:
        scale = self.scale
        self.iterations = max(8, round(self.seconds * scale.tune_iterations_per_second))
        # load_dataset memoises per (name, scale); a scale a few parts in 1e9
        # off generates the same rows again, so every set-up repeat does the work.
        dataset_scale = scale.tune_dataset_scale * (1.0 + 1e-9 * next(_UNCACHED))
        # Serial replays: with the QueryScheduler's thread pool on, identical
        # trajectories took 12.4-17.5 s (threaded replays under the GIL are
        # bimodal on two cores), which would bury any change to the loop itself.
        self.environment = VDMSTuningEnvironment(
            "glove-small", seed=self.seed, dataset_scale=dataset_scale, use_query_scheduler=False
        )
        self.tuner = VDTuner(
            self.environment,
            VDTunerSettings(num_iterations=self.iterations, seed=TUNER_SEED),
        )

    def measure(self, host: HostSpeed) -> None:
        self.origin = clock()
        self.report = None
        for iteration in range(1, self.iterations + 1):
            self.attempted += 1
            start = clock()
            try:
                self.report = self.tuner.run(iteration)
            except Exception:  # noqa: BLE001 - counted, then the loop goes on
                self.failed += 1
            end = clock()
            self.ops.append((end, end - start, True))
            host.mark()
        self.wall = clock() - self.origin
        self.driver_seconds = self.wall - self.busy_seconds()

    def _digest(self) -> str:
        history = self.report.history if self.report is not None else []
        trace = [(o.index_type, float(o.speed), float(o.recall)) for o in history]
        return hashlib.sha256(repr(trace).encode()).hexdigest()[:16]

    def check(self) -> dict[str, bool]:
        history = list(self.report.history) if self.report is not None else []
        self.digest = self._digest()
        good = np.array([[o.speed, o.recall] for o in history if not o.failed], dtype=np.float64)
        self.hypervolume = float(hypervolume_2d(good, np.zeros(2))) if good.size else 0.0
        best = self.report.best_observation(recall_floor=0.9) if self.report is not None else None
        self.best_qps = float(best.speed) if best is not None else 0.0
        return {
            "no_failed_iterations": self.failed == 0,
            "history_complete": len(history) == self.iterations,
            "objectives_finite": bool(np.isfinite(good).all()) and good.shape[0] > 0,
            "found_recall_90": best is not None,
        }

    def metrics(self, totals, tracer):
        values = {
            "e2e.tune_hv": self.hypervolume,
            "e2e.tune_best_qps_r90": self.best_qps,
            "workloads.environment.evaluations": self.environment.num_evaluations,
            "core.scoring.abandoned": len(self.report.abandoned),
            "core.tuner.suggest_share": self.report.recommendation_seconds / self.busy_seconds(),
        }
        if totals is not None:
            suggests = tracer.durations("core.tuner:suggest")
            values["core.tuner.suggest_ms"] = _percentile(suggests, 50) * 1e3 if suggests else 0.0
        return values


WORKLOAD_CLASSES: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ServeScan, ServeHot, EmbedMixedRW, TuneLoop)
}


# -- metrics every workload shares ------------------------------------------------------

#: per-layer metric -> (span name, field of its SpanTotals); times and calls are per operation.
_SPAN_METRICS: dict[str, tuple[str, str]] = {
    "serving.admission.queue_wait_ms": ("serving.admission:queue_wait", "total"),
    "vdms.server.search_self_ms": ("vdms.server:search", "self"),
    "vdms.cache.key_ms": ("vdms.cache:key", "total"),
    "vdms.cache.lookup_ms": ("vdms.cache:lookup", "total"),
    "vdms.cache.store_ms": ("vdms.cache:store", "total"),
    "vdms.cache.lookup_calls": ("vdms.cache:lookup", "calls"),
    "vdms.collection.search_ms": ("vdms.collection:search", "total"),
    "vdms.collection.search_self_ms": ("vdms.collection:search", "self"),
    "vdms.collection.insert_ms": ("vdms.collection:insert", "total"),
    "vdms.collection.flush_ms": ("vdms.collection:flush", "total"),
    "vdms.collection.delete_ms": ("vdms.collection:delete", "total"),
    "vdms.collection.create_index_ms": ("vdms.collection:create_index", "total"),
    "vdms.request.mask_ms": ("vdms.request:mask", "total"),
    "vdms.request.mask_calls": ("vdms.request:mask", "calls"),
    "vdms.sharding.snapshot_ms": ("vdms.sharding:snapshot", "total"),
    "vdms.sharding.merge_ms": ("vdms.sharding:merge", "total"),
    "vdms.sharding.merge_calls": ("vdms.sharding:merge", "calls"),
    "vdms.sharding.scheduler_run_ms": ("vdms.sharding:scheduler_run", "total"),
    "vdms.index.search_ms": ("vdms.index:search", "total"),
    "vdms.index.search_self_ms": ("vdms.index:search", "self"),
    "vdms.index.search_calls": ("vdms.index:search", "calls"),
    "vdms.index.build_ms": ("vdms.index:build", "total"),
    "vdms.index.build_calls": ("vdms.index:build", "calls"),
    "vdms.distance.scan_ms": ("vdms.distance:scan", "total"),
    "vdms.distance.scan_calls": ("vdms.distance:scan", "calls"),
    "vdms.distance.topk_ms": ("vdms.distance:topk", "total"),
    "vdms.distance.prepare_ms": ("vdms.distance:prepare", "total"),
    "vdms.segment.insert_ms": ("vdms.segment:insert", "total"),
    "vdms.segment.flush_ms": ("vdms.segment:flush", "total"),
    "vdms.segment.delete_ms": ("vdms.segment:delete", "total"),
    "vdms.segment.compact_ms": ("vdms.segment:compact", "total"),
    "vdms.maintenance.run_ms": ("vdms.maintenance:run", "total"),
    "vdms.durability.log_ms": ("vdms.durability:log", "total"),
    "vdms.cost_model.evaluate_ms": ("vdms.cost_model:evaluate", "total"),
    "vdms.cost_model.concurrent_qps_ms": ("vdms.cost_model:concurrent_qps", "total"),
    "workloads.environment.evaluate_ms": ("workloads.environment:evaluate", "total"),
    "workloads.replay.replay_ms": ("workloads.replay:replay", "total"),
    "core.surrogate.fit_ms": ("core.surrogate:fit", "total"),
    "core.surrogate.predict_ms": ("core.surrogate:predict", "total"),
    "bo.gp.fit_ms": ("bo.gp:fit", "total"),
    "bo.gp.fit_calls": ("bo.gp:fit", "calls"),
    "bo.gp.predict_ms": ("bo.gp:predict", "total"),
    "core.acquisition.recommend_ms": ("core.acquisition:recommend", "total"),
    "core.acquisition.candidates_ms": ("core.acquisition:candidates", "total"),
    "bo.ehvi.ehvi_ms": ("bo.ehvi:ehvi", "total"),
    "bo.ehvi.ehvi_calls": ("bo.ehvi:ehvi", "calls"),
    "core.scoring.update_ms": ("core.scoring:update", "total"),
}


#: workloads.replay.<phase>_ms <- the spans whose parent is a replay span.
_REPLAY_PHASES = {
    "vdms.collection:insert": "load",
    "vdms.collection:flush": "load",
    "vdms.collection:create_index": "build",
    "vdms.collection:search": "search",
    "vdms.sharding:scheduler_run": "search",
}


def _replay_phases(spans: list[tuple]) -> dict[str, float]:
    """Seconds per replay phase: children of ``workloads.replay:replay`` spans."""
    replays = {span_id for span_id, _, name, _, _, _ in spans if name == "workloads.replay:replay"}
    seconds = dict.fromkeys(_REPLAY_PHASES.values(), 0.0)
    for _, parent, name, _, start, end in spans:
        if parent in replays and name in _REPLAY_PHASES:
            seconds[_REPLAY_PHASES[name]] += end - start
    return seconds


#: Metrics computed from spans outside ``_SPAN_METRICS`` -> the span names they need.
_ALSO_NEEDS: dict[str, tuple[str, ...]] = {
    "serving.server.self_ms": ("serving.admission:execute",),
    "serving.admission.self_ms": ("serving.admission:execute", "serving.admission:job"),
    "vdms.maintenance.runs": ("vdms.maintenance:run",),
    "vdms.maintenance.segments_compacted": ("vdms.maintenance:run",),
    "vdms.maintenance.segments_reindexed": ("vdms.maintenance:run",),
    "vdms.maintenance.stall_max_ms": ("vdms.maintenance:run",),
    "vdms.segment.rows_rewritten": ("vdms.maintenance:run",),
    "workloads.replay.load_ms": ("workloads.replay:replay",),
    "workloads.replay.build_ms": ("workloads.replay:replay",),
    "workloads.replay.search_ms": ("workloads.replay:replay",),
    "core.tuner.suggest_ms": ("core.tuner:suggest",),
}
#: What a traced run reads off the kept ``Collection.search`` results.
_FROM_SEARCH_RESULTS = (
    "vdms.collection.segments_per_query", "vdms.distance.distance_evals",
    "vdms.request.rows_scanned", "vdms.request.pre_segments", "vdms.request.post_segments",
)


def _common_metrics(
    workload: Workload,
    setups: list[tuple[float, float]],
    host: HostSpeed,
    rss_mib: float,
    tracer: Tracer | None,
    totals: dict[str, SpanTotals] | None,
) -> dict[str, float | None]:
    """Every metric of one run; ``None`` where a trace target is gone.

    ``setups`` holds ``(seconds, factor)`` per set-up; ``host`` watched the
    timed region.  The gated times are the measured ones times the host-speed
    factor of the moment (``bench/hostspeed.py``); the ``e2e.raw_*`` ones are
    the whole timed region exactly as the callers saw it.
    """
    operations = workload.attempted
    ends, latencies, reads = (np.array(column) for column in zip(*workload.ops))
    steady = latencies * host.factors(ends, workload.callers)
    steady_wall = workload.wall * steady.sum() / latencies.sum()
    completed = operations - workload.failed
    values: dict[str, float | None] = {
        "setup_s": statistics.median(seconds * factor for seconds, factor in setups),
        "ops_per_s": completed / steady_wall,
        "latency_p50_ms": _percentile(steady[reads], 50) * 1e3,
        "latency_p90_ms": _percentile(steady[reads], 90) * 1e3,
        "rss_peak_mib": rss_mib,
        "e2e.fail_share": workload.failed / operations,
        "e2e.raw_setup_s": statistics.median(seconds for seconds, _ in setups),
        "e2e.raw_ops_per_s": completed / workload.wall,
        "e2e.raw_latency_p50_ms": _percentile(latencies[reads], 50) * 1e3,
        "e2e.raw_latency_p90_ms": _percentile(latencies[reads], 90) * 1e3,
        "bench.host_speed": host.speed(),
        "bench.client_self_ms": workload.driver_seconds * 1e3 / operations,
    }
    if workload.rows_written:
        values["e2e.write_rows_per_s"] = workload.rows_written / steady[~reads].sum()
        values["e2e.raw_write_rows_per_s"] = workload.rows_written / latencies[~reads].sum()
    if tracer is not None:
        for metric, (span, field) in _SPAN_METRICS.items():
            entry = totals.get(span, SpanTotals())
            if field == "calls":
                values[metric] = entry.calls / operations
            else:
                seconds = entry.total if field == "total" else entry.self_time
                values[metric] = seconds * 1e3 / operations
        values["vdms.maintenance.runs"] = totals.get("vdms.maintenance:run", SpanTotals()).calls
        for phase, seconds in _replay_phases(tracer.spans).items():
            values[f"workloads.replay.{phase}_ms"] = seconds * 1e3 / operations
        values["bench.trace_missing"] = len(tracer.missing)
        # Serving workloads override this with the client-side view (see _ServeWorkload.metrics).
        values["bench.span_coverage"] = sum(e.self_time for e in totals.values()) / workload.busy_seconds()
    kept = tracer.kept["vdms.collection:search"] if tracer is not None else workload.search_results
    if kept is not None:
        stats = [pair[0] for pair in kept]
        filters = [pair[1] for pair in kept if pair[1] is not None]
        queries = sum(entry.num_queries for entry in stats)
        values["vdms.collection.segments_per_query"] = sum(e.segments_searched for e in stats) / max(1, queries)
        values["vdms.distance.distance_evals"] = sum(e.total_work() for e in stats) / operations
        values["vdms.request.rows_scanned"] = sum(f.rows_scanned for f in filters)
        values["vdms.request.pre_segments"] = sum(f.pre_segments for f in filters)
        values["vdms.request.post_segments"] = sum(f.post_segments for f in filters)
    values.update(workload.metrics(totals, tracer))
    if tracer is not None:
        # A span no target produced is unknown, not zero: a refactor that moved
        # the function must not read as a layer that got infinitely fast.
        needs = {metric: (span,) for metric, (span, _) in _SPAN_METRICS.items()} | _ALSO_NEEDS
        needs.update(dict.fromkeys(_FROM_SEARCH_RESULTS, ("vdms.collection:search",)))
        for metric, spans in needs.items():
            if metric in values and not tracer.installed.issuperset(spans):
                values[metric] = None
    return values


# -- the one entry point ----------------------------------------------------------------


def run_workload(
    name: str,
    *,
    seed: int = 0,
    seconds: float = 15.0,
    trace: bool = False,
    scale: Scale = FULL,
) -> dict[str, Any]:
    """Set up (``setup_repeats`` times), measure, check; returns the full result.

    ``metrics`` maps every name the run could compute to ``{"value", "unit"}``:
    the end-to-end metrics always, the per-layer ones that need spans only when
    ``trace`` is true.  ``exact`` holds what must repeat bit for bit between
    two runs of the same seed and trace flag.
    """
    workload_class = WORKLOAD_CLASSES[name]
    #: ``(seconds, host-speed factor)`` per set-up.
    setups: list[tuple[float, float]] = []
    workload: Workload | None = None
    for _ in range(workload_class.setup_repeats):
        if workload is not None:
            workload.teardown()
            workload = None
            gc.collect()
        workload = workload_class(seed, seconds, scale)
        with HostSpeed() as host:
            start = clock()
            workload.setup()
            elapsed = clock() - start
        setups.append((elapsed, host.factor()))
    tracer = Tracer() if trace else None
    try:
        with HostSpeed() as host, tracer or contextlib.nullcontext():
            workload.measure(host)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gates = workload.check()
        totals = aggregate(tracer.spans) if tracer is not None else None
        values = _common_metrics(workload, setups, host, rss_mib, tracer, totals)
    finally:
        workload.teardown()

    catalogue = all_metrics()
    unknown = sorted(set(values) - set(catalogue))
    if unknown:
        raise AssertionError(f"metrics missing from bench/metrics.py: {unknown}")
    exact: dict[str, Any] = {key: values[key] for key in workload.exact_names if key in values}
    if workload.digest is not None:
        exact["digest"] = workload.digest
    spans_file = None
    if tracer is not None:
        spans_file = OUT_DIR / f"{name}-seed{seed}.spans.json"
        tracer.write(
            spans_file,
            header={"workload": name, "seed": seed, "seconds": seconds, "operation": workload.operation},
            origin=workload.origin,
            totals=totals,
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": bool(trace),
        "operation": workload.operation,
        "load_model": f"closed loop, {workload.callers} caller(s)",
        "correct": all(gates.values()),
        "gates": gates,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "latency_samples": sum(is_read for _, _, is_read in workload.ops),
        "setup_runs_s": [seconds for seconds, _ in setups],
        "metrics": {
            key: {"value": None if value is None else float(value), "unit": catalogue[key].unit}
            for key, value in sorted(values.items())
        },
        "exact": exact,
        "trace_missing": list(tracer.missing) if tracer is not None else [],
        "spans_file": str(spans_file.relative_to(OUT_DIR.parent.parent)) if spans_file else None,
    }


def contract_metrics(result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """The metrics the driver's contract asks for: end-to-end untraced, per-layer traced.

    The driver wants a number under every name on every workload.  A layer the
    workload never enters reads a measured 0 (no calls, no time); a metric that
    has no meaning on the workload (``e2e.tune_hv`` on ``serve_scan``) reads 0
    here and is left out of the whole-set result.  The metrics of a trace
    target that no longer exists are ``null``: unknown, not zero.
    """
    names = PER_LAYER if result["trace"] else END_TO_END
    return {
        metric.name: result["metrics"].get(metric.name, {"value": 0.0, "unit": metric.unit})
        for metric in names
    }
