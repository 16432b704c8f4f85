"""Hash-family throughput and support-count kernel memory profile.

Measures the server-side decode building blocks the kernel engine
(:mod:`repro.hashing.kernels`) rebuilt:

* ``hash_outer`` throughput (hashes/sec) for every family at the
  acceptance shape ``n=10^4 seeds x d=128 values`` — the O(n*d) inner
  product of OLH/SOLH aggregation;
* the scalar xxHash32 baseline (the pre-kernel ``XXHash32Family`` hot
  path: one ``xxhash32_int`` call per cell) at the same shape, and the
  resulting vectorized-over-scalar speedup — gated at >= 50x;
* a bit-for-bit identity check of the vectorized XXH32 against the
  scalar reference on a sampled ``(seed, value)`` grid, plus
  kernel-vs-naive-materialization identity checks of
  ``support_counts_kernel`` for every family, at ``400 x 64`` and at
  ``3,200 x 1,024`` (50 tiles) — all land in ``extra`` and CI asserts
  them from the JSON artifact;
* ``support_counts_kernel`` time per family at the wide-fold flush
  shape (``14,003`` reports — 8,192 genuine plus 5,811 fake — x
  ``1,024`` candidates, ``d_out=16``), recorded as ns per hash in
  ``extra`` (no gate: timings depend on the machine);
* the planned peak intermediate bytes of one support-count invocation at
  the acceptance shape, next to the bytes the legacy
  materialize-compare-sum loop would have touched (int64 matrix + bool
  mask = 9 bytes/hash).

The acceptance shape is fixed (it is part of the PR's contract), so this
bench ignores ``REPRO_BENCH_SCALE``.  Standalone:
``python benchmarks/bench_hash_throughput.py --json out.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.hashing import (
    CarterWegmanHashFamily,
    MultiplyShiftHashFamily,
    XXHash32Family,
    plan_support_counts,
    support_counts_kernel,
)
from repro.hashing.xxhash32 import xxhash32_int

from bench_common import BenchResult, bench_seed, emit, run_once, standalone_main

#: the acceptance-criteria shape: 10^4 reports over a 128-value domain
N_SEEDS = 10_000
N_VALUES = 128
D_OUT = 16

#: sampled grid for the scalar-vs-vectorized identity assert
IDENTITY_SAMPLES = 256

#: one wide-fold flush: 8,192 genuine + 5,811 fake reports x 1,024
#: candidates, the kernel timing shape
KERNEL_REPORTS = 14_003
KERNEL_CANDIDATES = 1_024

#: the wide kernel-vs-naive identity shape: 50 report-major tiles
WIDE_IDENTITY_SHAPE = (3_200, 1_024)

#: minimum vectorized-over-scalar speedup the kernel engine must deliver
MIN_XXH32_SPEEDUP = 50.0

FAMILIES = (CarterWegmanHashFamily(), MultiplyShiftHashFamily(), XXHash32Family())

#: bytes per hash the legacy materialize-compare-sum loop touched
#: (int64 hash matrix + boolean match mask)
LEGACY_BYTES_PER_HASH = 9

#: the chunk budget the legacy loop ran under (its fixed 64 MiB default)
LEGACY_CHUNK_BYTES = 1 << 26


def _time_outer(family, seeds, values, repeats: int = 3) -> float:
    """Best-of-N wall time of one full ``hash_outer`` evaluation."""
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        family.hash_outer(seeds, values, D_OUT)
        best = min(best, time.perf_counter() - started)
    return best


def _scalar_xxh32_outer(seeds, values) -> tuple:
    """The pre-kernel XXHash32Family hot path: one scalar call per cell."""
    out = np.empty((len(seeds), len(values)), dtype=np.int64)
    started = time.perf_counter()
    for i, seed in enumerate(seeds):
        seed = int(seed)
        out[i] = [xxhash32_int(int(v), seed) % D_OUT for v in values]
    return out, time.perf_counter() - started


def _xxh32_identity(rng) -> bool:
    """Vectorized XXH32 == scalar reference on a sampled (seed, value) grid."""
    family = XXHash32Family()
    sample_seeds = rng.integers(0, 1 << 32, IDENTITY_SAMPLES, dtype=np.uint64)
    sample_values = rng.integers(0, 1 << 62, IDENTITY_SAMPLES, dtype=np.uint64)
    vectorized = family.hash_pairwise(sample_seeds, sample_values, D_OUT)
    scalar = [
        family.hash_value(int(s), int(v), D_OUT)
        for s, v in zip(sample_seeds, sample_values)
    ]
    return vectorized.tolist() == scalar


def _time_kernel(family, rng, repeats: int = 3) -> float:
    """Best-of-N ns per hash of one wide-fold-shaped kernel call."""
    seeds = family.sample_seeds(KERNEL_REPORTS, rng)
    reported = rng.integers(0, D_OUT, KERNEL_REPORTS)
    candidates = np.arange(KERNEL_CANDIDATES)
    best = float("inf")
    for __ in range(repeats):
        started = time.perf_counter()
        support_counts_kernel(family, seeds, reported, candidates, D_OUT)
        best = min(best, time.perf_counter() - started)
    return best / (KERNEL_REPORTS * KERNEL_CANDIDATES) * 1e9


def _kernel_identity(family, rng, n: int = 400, d: int = 64) -> bool:
    """Kernel counts == naive materialized counts on random reports."""
    seeds = family.sample_seeds(n, rng)
    reported = rng.integers(0, D_OUT, n)
    candidates = np.arange(d)
    kernel = support_counts_kernel(family, seeds, reported, candidates, D_OUT)
    naive = (
        (family.hash_outer(seeds, candidates, D_OUT) == reported[:, None])
        .sum(axis=0)
    )
    return kernel.tolist() == naive.tolist()


def _experiment() -> BenchResult:
    rng = np.random.default_rng(bench_seed())
    values = np.arange(N_VALUES, dtype=np.int64)
    total = N_SEEDS * N_VALUES

    lines = [
        f"hash_outer at n={N_SEEDS} seeds x d={N_VALUES} values "
        f"(d_out={D_OUT}); support-count kernel memory at the same shape",
        f"{'family':<16}  {'hashes/sec':>14}  {'peak kernel bytes':>18}  "
        f"{'legacy bytes':>13}  {'kernel ns/hash':>14}",
    ]
    extra = {
        "n_seeds": N_SEEDS,
        "n_values": N_VALUES,
        "d_out": D_OUT,
        "kernel_reports": KERNEL_REPORTS,
        "kernel_candidates": KERNEL_CANDIDATES,
        "families": {},
    }
    for family in FAMILIES:
        seeds = family.sample_seeds(N_SEEDS, rng)
        family.hash_outer(seeds[:64], values, D_OUT)  # warm the path
        elapsed = _time_outer(family, seeds, values)
        plan = plan_support_counts(N_SEEDS, N_VALUES, D_OUT)
        # The legacy loop chunked by its own formula (8-byte rows), not the
        # kernel planner's — size its footprint accordingly.
        legacy_chunk = min(N_SEEDS, max(1, LEGACY_CHUNK_BYTES // (8 * N_VALUES)))
        legacy_bytes = LEGACY_BYTES_PER_HASH * legacy_chunk * N_VALUES
        kernel_ns = _time_kernel(family, rng)
        extra["families"][family.name] = {
            "hashes_per_sec": total / elapsed,
            "outer_seconds": elapsed,
            "peak_intermediate_bytes": plan.peak_intermediate_bytes,
            "legacy_intermediate_bytes": legacy_bytes,
            "kernel_ns_per_hash": kernel_ns,
            "kernel_identity": _kernel_identity(family, rng),
            "wide_kernel_identity": _kernel_identity(
                family, rng, *WIDE_IDENTITY_SHAPE
            ),
        }
        lines.append(
            f"{family.name:<16}  {total / elapsed:>14,.0f}  "
            f"{plan.peak_intermediate_bytes:>18,}  {legacy_bytes:>13,}  "
            f"{kernel_ns:>14.2f}"
        )

    xxh = XXHash32Family()
    seeds = xxh.sample_seeds(N_SEEDS, rng)
    scalar_matrix, scalar_s = _scalar_xxh32_outer(seeds, values)
    vectorized_matrix = xxh.hash_outer(seeds, values, D_OUT)
    vector_s = extra["families"][xxh.name]["outer_seconds"]
    speedup = scalar_s / vector_s
    outer_identical = bool(np.array_equal(scalar_matrix, vectorized_matrix))

    extra["xxh32_scalar_hashes_per_sec"] = total / scalar_s
    extra["xxh32_speedup"] = speedup
    extra["xxh32_outer_identical"] = outer_identical
    extra["xxh32_identity"] = bool(_xxh32_identity(rng)) and outer_identical
    kernel_ok = all(
        record["kernel_identity"] for record in extra["families"].values()
    )
    extra["kernel_identity"] = kernel_ok
    wide_ok = all(
        record["wide_kernel_identity"] for record in extra["families"].values()
    )
    extra["wide_kernel_identity"] = wide_ok

    lines += [
        "",
        f"scalar xxhash32 baseline : {total / scalar_s:>14,.0f} hashes/sec "
        f"({scalar_s:.2f}s)",
        f"vectorized xxhash32      : "
        f"{total / vector_s:>14,.0f} hashes/sec ({vector_s * 1e3:.1f}ms)",
        f"speedup                  : {speedup:.0f}x "
        f"(gate: >= {MIN_XXH32_SPEEDUP:.0f}x)",
        f"vectorized == scalar on sampled grid: "
        f"{'yes' if extra['xxh32_identity'] else 'NO — IDENTITY VIOLATION'}",
        f"kernel == naive materialization (all families): "
        f"{'yes' if kernel_ok else 'NO — IDENTITY VIOLATION'}",
        f"kernel == naive at {WIDE_IDENTITY_SHAPE[0]:,} x "
        f"{WIDE_IDENTITY_SHAPE[1]:,} (all families): "
        f"{'yes' if wide_ok else 'NO — IDENTITY VIOLATION'}",
        f"kernel ns/hash measured at {KERNEL_REPORTS:,} x "
        f"{KERNEL_CANDIDATES:,} (best of 3 calls)",
    ]
    return BenchResult(table="\n".join(lines), extra=extra)


def bench_hash_throughput(benchmark):
    """Gate the vectorized XXH32 speedup and both bit-identity contracts."""
    result = run_once(benchmark, _experiment)
    emit("hash_throughput", result)
    assert result.extra["xxh32_identity"], (
        "vectorized XXH32 diverged from the scalar reference"
    )
    assert result.extra["kernel_identity"], (
        "support-count kernel diverged from naive materialization"
    )
    assert result.extra["wide_kernel_identity"], (
        "support-count kernel diverged from naive materialization "
        "at the 50-tile shape"
    )
    assert result.extra["xxh32_speedup"] >= MIN_XXH32_SPEEDUP, (
        f"vectorized XXH32 speedup {result.extra['xxh32_speedup']:.1f}x "
        f"below the {MIN_XXH32_SPEEDUP:.0f}x gate"
    )


if __name__ == "__main__":
    raise SystemExit(standalone_main("hash_throughput", _experiment))
