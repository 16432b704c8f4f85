"""Sharded streaming fold throughput: serial vs pickle vs shm transports.

Runs the same pre-generated workload through three configurations of
:class:`repro.service.ShardedPipeline` — the single-shard serial
pipeline, process folding with the legacy **pickle** transport, and
process folding with the zero-copy **shm** transport (pooled
``multiprocessing.shared_memory`` segments the workers map read-only) —
then reports the fold-throughput ratios.  The workload is the
*materialized* path pinned to SOLH: the streaming oracle uses the
32-bit-seed xxHash32 family (the ordinal-group requirement), and its
release side (fake injection + permutation + decode + the O(n*d)
support-count kernel) is vectorized numpy, so the transport is the
remaining memory-movement cost the shm path eliminates.

One more experiment rides along.  The **statistical path** folds the
serial run's flush schedule through
:meth:`repro.service.IncrementalAggregator.fold_histogram` — the O(d)
closed-form sampling route used for paper-scale simulation, which never
materializes a report — and records its rate.

Correctness gates in ``extra``:

* ``estimates_identical`` — serial, pickle-transport, and shm-transport
  estimates all match byte for byte (the determinism contract);
* transport telemetry — ``bytes_moved``, ``shm_peak_bytes``.

Pools are spawned and warmed *before* timing, so the ratios measure
folding, not process start-up.  Scale knobs are shared with the other
benches (``REPRO_BENCH_SCALE``, ``REPRO_BENCH_SHARDS``; see
bench_common).  Standalone:
``python benchmarks/bench_sharded_throughput.py --scale 0.02 --shards 2``.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.data import zipf_histogram
from repro.data.synthetic import values_from_histogram
from repro.service import (
    IncrementalAggregator,
    ShardedPipeline,
    StreamConfig,
    oracle_from_plan,
)

from bench_common import (
    BenchResult,
    bench_scale,
    bench_seed,
    bench_shards,
    emit,
    run_once,
    standalone_main,
)

D = 64
EPOCHS = 4
BASE_EPOCH_SIZE = 200_000  # at scale 1.0; the SOLH fold path costs
                           # O(n * d) vectorized kernel hash evals
DELTA = 1e-9
EPS_TARGETS = (1.0, 3.0, 6.0)
ZIPF_EXPONENT = 1.3


def fmt_speedup(value) -> str:
    """Guarded ratio formatting: a degenerate 0-second wall yields n/a."""
    return f"{value:.2f}x" if value else "n/a"


def _run_config(
    config: StreamConfig,
    epoch_values,
    n_shards: int,
    fold_backend: str,
    transport: str = "shm",
) -> tuple:
    """One timed run; returns (result, wall seconds, workers, transport stats)."""
    with ShardedPipeline(
        config,
        np.random.default_rng(bench_seed()),
        n_shards=n_shards,
        fold_backend=fold_backend,
        transport=transport,
    ) as pipeline:
        pipeline.warmup()  # spawn cost must not pollute the fold timing
        started = time.perf_counter()
        for values in epoch_values:
            pipeline.submit(values)
            pipeline.end_epoch()
        result = pipeline.result()  # drains outstanding folds
        elapsed = time.perf_counter() - started
        workers = pipeline.workers if fold_backend == "process" else 1
        stats = pipeline.transport_stats()
    return result, elapsed, workers, stats


def _statistical_path_experiment(
    config: StreamConfig, epoch_size: int, flush_size: int
) -> dict:
    """The serial run's flush schedule via closed-form sampling.

    One :meth:`~repro.service.IncrementalAggregator.fold_histogram` per
    flush, each with the plan's ``n_r`` fakes: O(d) per fold, no report
    is ever materialized.
    """
    rng = np.random.default_rng(bench_seed())
    aggregator = IncrementalAggregator(oracle_from_plan(config.d, config.plan))
    full, remainder = divmod(epoch_size, flush_size)
    sizes = [flush_size] * full + ([remainder] if remainder else [])
    histograms = [
        zipf_histogram(size, D, ZIPF_EXPONENT, rng)
        for __ in range(EPOCHS)
        for size in sizes
    ]
    started = time.perf_counter()
    for histogram in histograms:
        aggregator.fold_histogram(histogram, config.plan.n_r, rng)
    elapsed = time.perf_counter() - started
    return {
        "folds": len(histograms),
        "reports": aggregator.n_genuine,
        "wall_seconds": elapsed,
        "reports_per_sec": aggregator.n_genuine / elapsed if elapsed > 0 else None,
    }


def _experiment() -> BenchResult:
    shards = bench_shards()
    epoch_size = max(2_000, int(BASE_EPOCH_SIZE * bench_scale()))
    flush_size = max(500, epoch_size // 4)
    config = StreamConfig.from_targets(
        d=D,
        flush_size=flush_size,
        eps_targets=EPS_TARGETS,
        delta=DELTA,
        admitted_flushes=2 * EPOCHS * ((epoch_size + flush_size - 1) // flush_size),
        mechanism="solh",
    )
    # One pre-generated workload, fed identically to every configuration,
    # so the byte-identity cross-check compares like with like.
    data_rng = np.random.default_rng(bench_seed())
    epoch_values = [
        values_from_histogram(
            zipf_histogram(epoch_size, D, ZIPF_EXPONENT, data_rng), data_rng
        )
        for __ in range(EPOCHS)
    ]

    serial, serial_s, __, __ = _run_config(config, epoch_values, 1, "serial")
    fold_backend = "process" if shards > 1 else "serial"
    pickled, pickle_s, workers, pickle_stats = _run_config(
        config, epoch_values, shards, fold_backend, transport="pickle"
    )
    shm, shm_s, __, shm_stats = _run_config(
        config, epoch_values, shards, fold_backend, transport="shm"
    )

    identical = (
        serial.estimates.tobytes()
        == pickled.estimates.tobytes()
        == shm.estimates.tobytes()
    )
    serial_rate = serial.n_genuine / serial_s if serial_s > 0 else None
    pickle_rate = pickled.n_genuine / pickle_s if pickle_s > 0 else None
    shm_rate = shm.n_genuine / shm_s if shm_s > 0 else None
    speedup = serial_s / shm_s if shm_s > 0 else None
    shm_vs_pickle = pickle_s / shm_s if shm_s > 0 else None

    statistical = _statistical_path_experiment(config, epoch_size, flush_size)

    extra = {
        "mechanism": config.plan.mechanism,
        "d": D,
        "epochs": EPOCHS,
        "epoch_size": epoch_size,
        "flush_size": flush_size,
        "fakes_per_flush": config.plan.n_r,
        "shards": shards,
        "fold_workers": workers,
        "cpu_count": os.cpu_count(),
        "released_reports": serial.n_genuine,
        "estimates_identical": bool(identical),
        "serial": {
            "wall_seconds": serial_s,
            "fold_reports_per_sec": serial_rate,
        },
        "pickle": {
            "wall_seconds": pickle_s,
            "fold_reports_per_sec": pickle_rate,
            "bytes_moved": pickle_stats["bytes_moved"],
        },
        "shm": {
            "wall_seconds": shm_s,
            "fold_reports_per_sec": shm_rate,
            "bytes_moved": shm_stats["bytes_moved"],
        },
        # kept under the historical name (serial wall / sharded-shm wall)
        # for the CI smoke's cross-check
        "speedup": speedup,
        "shm_vs_pickle_speedup": shm_vs_pickle,
        "bytes_moved": shm_stats["bytes_moved"],
        "shm_peak_bytes": shm_stats["shm_peak_bytes"],
        "statistical_path": statistical,
    }

    def rate(value) -> str:
        return f"{value:,.0f} reports/s" if value else "n/a"

    table = (
        f"SOLH materialized fold path (vectorized xxhash32 kernel), d={D}, "
        f"{serial.n_genuine} reports released over {EPOCHS} epochs\n"
        f"serial (1 shard)             : {rate(serial_rate)} "
        f"({serial_s:.2f}s wall)\n"
        f"pickle ({shards} shards, {workers} procs)   : {rate(pickle_rate)} "
        f"({pickle_s:.2f}s wall, "
        f"{pickle_stats['bytes_moved'] / 1024:,.0f} KiB pickled)\n"
        f"shm    ({shards} shards, {workers} procs)   : {rate(shm_rate)} "
        f"({shm_s:.2f}s wall, "
        f"{shm_stats['bytes_moved'] / 1024:,.0f} KiB via "
        f"{shm_stats['shm_peak_bytes'] / 1024:,.0f} KiB of segments)\n"
        f"speedup vs serial : {fmt_speedup(speedup)}\n"
        f"shm vs pickle     : {fmt_speedup(shm_vs_pickle)}"
        + (
            f" (host has {os.cpu_count()} CPU(s); process folding "
            f"cannot go faster than serial on a single core)"
            if (os.cpu_count() or 1) < 2
            else ""
        )
        + "\n"
        f"statistical path (fold_histogram, O(d) per fold): "
        f"{rate(statistical['reports_per_sec'])} over "
        f"{statistical['folds']} closed-form folds\n"
        f"estimates byte-identical across serial/pickle/shm: "
        f"{'yes' if identical else 'NO — DETERMINISM VIOLATION'}"
    )
    return BenchResult(table=table, extra=extra)


def bench_sharded_throughput(benchmark):
    """Measure transport fold throughput against the serial path."""
    result = run_once(benchmark, _experiment)
    emit("sharded_throughput", result)
    assert result.extra["estimates_identical"], (
        "sharded estimates differ across the serial/pickle/shm runs"
    )
    assert result.extra["released_reports"] > 0


if __name__ == "__main__":
    raise SystemExit(
        standalone_main("sharded_throughput", _experiment)
    )
