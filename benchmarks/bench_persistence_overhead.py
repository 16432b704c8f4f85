"""Durable-state overhead: MemoryStateStore vs SqliteStateStore.

Runs one identical streaming workload through ``ShardedPipeline`` in
its default single-shard serial layout twice — once against the default
in-memory store and once against a SQLite store on disk (WAL,
``synchronous=NORMAL``) — and reports the ingest rate of each plus the
overhead ratio.  The two runs share a seed,
so the bench also asserts the durability layer's core contract: the
persisted run's estimates are bit-identical to the in-memory run's.

Scale knobs are shared with the other benches (``REPRO_BENCH_SCALE``
etc.; see bench_common).
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from repro.data import zipf_histogram
from repro.data.synthetic import values_from_histogram
from repro.persistence import MemoryStateStore, SqliteStateStore
from repro.service import ShardedPipeline, StreamConfig

from bench_common import BenchResult, bench_scale, bench_seed, emit, run_once, \
    standalone_main

D = 64
EPOCHS = 5
BASE_EPOCH_SIZE = 100_000  # at scale 1.0
DELTA = 1e-9
EPS_TARGETS = (1.0, 3.0, 6.0)


def _stream_once(config: StreamConfig, epoch_size: int, store):
    rng = np.random.default_rng(bench_seed())
    pipeline = ShardedPipeline(config, rng, store=store)
    started = time.perf_counter()
    for __ in range(EPOCHS):
        histogram = zipf_histogram(epoch_size, D, 1.3, rng)
        pipeline.submit(values_from_histogram(histogram, rng))
        pipeline.end_epoch()
    elapsed = time.perf_counter() - started
    result = pipeline.result()
    return result, elapsed


def _experiment() -> BenchResult:
    epoch_size = max(1000, int(BASE_EPOCH_SIZE * bench_scale()))
    flush_size = max(500, epoch_size // 2)
    config = StreamConfig.from_targets(
        d=D,
        flush_size=flush_size,
        eps_targets=EPS_TARGETS,
        delta=DELTA,
        admitted_flushes=2 * EPOCHS * ((epoch_size + flush_size - 1) // flush_size),
    )

    memory_result, memory_elapsed = _stream_once(
        config, epoch_size, MemoryStateStore()
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-state-") as tmp:
        db_path = os.path.join(tmp, "state.db")
        with SqliteStateStore(db_path) as store:
            sqlite_result, sqlite_elapsed = _stream_once(
                config, epoch_size, store
            )
            db_bytes = sum(
                os.path.getsize(db_path + suffix)
                for suffix in ("", "-wal", "-shm")
                if os.path.exists(db_path + suffix)
            )

    identical = (
        memory_result.estimates.tobytes() == sqlite_result.estimates.tobytes()
        and memory_result.eps_spent == sqlite_result.eps_spent
    )
    memory_rate = (
        memory_result.n_genuine / memory_elapsed if memory_elapsed > 0 else None
    )
    sqlite_rate = (
        sqlite_result.n_genuine / sqlite_elapsed if sqlite_elapsed > 0 else None
    )
    overhead = (
        memory_elapsed and sqlite_elapsed / memory_elapsed or None
    )

    extra = {
        "d": D,
        "epochs": EPOCHS,
        "epoch_size": epoch_size,
        "flush_size": flush_size,
        "released_reports": memory_result.n_genuine,
        "memory_reports_per_sec": memory_rate,
        "sqlite_reports_per_sec": sqlite_rate,
        "sqlite_overhead_ratio": overhead,
        "sqlite_db_bytes": db_bytes,
        "estimates_identical": identical,
    }

    def rate(value) -> str:
        return f"{value:,.0f} reports/s" if value else "n/a"

    table = (
        f"{memory_result.n_genuine} reports released over {EPOCHS} epochs, "
        f"identical estimates: {identical}\n"
        f"memory store: {rate(memory_rate)}\n"
        f"sqlite store: {rate(sqlite_rate)} "
        f"(overhead x{overhead:.2f}, {db_bytes / 1024:.0f} KiB on disk)"
    )
    return BenchResult(table=table, extra=extra)


def bench_persistence_overhead(benchmark):
    """Measure the SQLite state store's ingest-rate overhead."""
    result = run_once(benchmark, _experiment)
    emit("persistence_overhead", result)
    assert result.extra["estimates_identical"]
    assert result.extra["released_reports"] > 0


if __name__ == "__main__":
    raise SystemExit(standalone_main("persistence_overhead", _experiment))
