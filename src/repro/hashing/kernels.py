"""Cache-resident support-count kernels — the O(n*d) decode hot path.

Server-side OLH/SOLH aggregation evaluates every report's hash function on
every candidate value and counts the matches: ``counts[v] = #{i :
H_{seed_i}(v) == y_i}``.  The naive formulation materializes an int64
``(n, d)`` hash matrix plus a same-shaped boolean mask and reduces the
mask — 9 bytes of intermediate per hash, streamed through DRAM once the
matrix outgrows the caches.  This module is the single shared
implementation every consumer (the local-hashing oracles, the
incremental aggregator's materialized fold path, the sharded pipeline's
process folds, and through them the sweep engine and the PEOS protocol
decode) routes through, built around five ideas:

* **uint32 intermediates.**  Hashed values live in ``[0, d')`` with ``d'``
  far below ``2^32``, so tiles are produced in uint32 via
  :meth:`~repro.hashing.families.HashFamily.outer_u32_tiles`, whose
  ``[0, d')`` reduction is a scalar ``floor_divide`` (numpy's libdivide
  path) rather than ``np.remainder``, or one ``bitwise_and`` when ``d'``
  is a power of two.
* **cache-resident tiles.**  The default budget
  (:data:`DEFAULT_CHUNK_BYTES`) holds 64 Ki hashes per tile: a 256 KiB
  uint32 tile plus its 64 KiB match mask.  Every elementwise pass of
  hashing, reduction and matching then runs over L2-resident data instead
  of streaming a multi-MiB matrix through memory once per pass.
* **buffers per call, not per tile.**  One call allocates the uint32
  tile, a uint32 scratch array of the same shape and the match mask,
  and every tile is a view of them.  xxHash32 computes its seed and lane
  terms once per call and hashes, reduces and matches each tile in
  place with ``out=``, so its tiles allocate nothing; the other families
  return a fresh :meth:`~repro.hashing.families.HashFamily.hash_outer_u32`
  tile per step.
* **axis-0 match count.**  A tile is compared against the reported values
  with one ``np.equal`` (a 1-byte mask) and the mask's uint8 view is
  summed down the report axis with ``np.add.reduce`` — two contiguous
  passes, no gather or scatter of match positions.
* **chunk orientation.**  The tile walks whichever axis keeps a full
  stripe of the other within ``chunk_bytes``: report-major when a full
  candidate row fits (the common case), candidate-major when the candidate
  axis is so wide that even one report row would blow the budget.

Both orientations produce **bit-identical** counts: hashing is
deterministic, matches are counted in exact integer arithmetic, and
integer sums are associative — so chunk size and orientation cannot
change a single count, only the time and memory spent producing them.
``tests/hashing/test_kernels.py`` pins this against a naive materialized
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .families import HashFamily, OuterTile

__all__ = [
    "KernelPlan",
    "chunk_spans",
    "plan_support_counts",
    "support_counts_kernel",
]

#: bytes of matrix-shaped intermediates per hash: the uint32 tile (4)
#: plus the boolean match mask reduced along axis 0 (1).  xxHash32's
#: uint32 scratch array is left out, so the tile shapes stay as planned.
_BYTES_PER_HASH = 5

#: default per-tile intermediate budget: 64 Ki hashes at
#: ``_BYTES_PER_HASH`` bytes each, i.e. a 256 KiB uint32 tile and its
#: 64 KiB mask — small enough to stay resident in a core's L2 across the
#: ~20 elementwise passes one tile goes through
DEFAULT_CHUNK_BYTES = _BYTES_PER_HASH << 16

#: hash domains up to this size compare in uint32; wider ones (never
#: produced by the built-in oracles) fall back to int64
_UINT32_DOMAIN = 1 << 32


def chunk_spans(total: int, chunk: int) -> Iterator[Tuple[int, int]]:
    """Yield ``[start, stop)`` spans covering ``range(total)`` in chunks.

    The shared chunking idiom of every O(n*d) path in the library (support
    counting here, subset-selection sampling in
    :mod:`repro.frequency_oracles.subset`).  ``chunk`` is clamped to at
    least 1 so a degenerate byte budget degrades to row-at-a-time instead
    of raising.
    """
    chunk = max(1, int(chunk))
    for start in range(0, total, chunk):
        yield start, min(start + chunk, total)


@dataclass(frozen=True)
class KernelPlan:
    """How one support-count invocation will walk the hash matrix.

    ``orientation`` is ``"reports"`` (chunk the report axis, full
    candidate rows) or ``"candidates"`` (chunk the candidate axis, full
    report columns).  ``chunk`` is the number of rows (or columns) per
    step and ``peak_intermediate_bytes`` the worst-case matrix-shaped
    allocation the walk materializes at once — the number the throughput
    benchmark records.
    """

    orientation: str
    chunk: int
    n_reports: int
    n_candidates: int
    peak_intermediate_bytes: int

    @property
    def hashes_evaluated(self) -> int:
        """Total hash evaluations the plan performs."""
        return self.n_reports * self.n_candidates


def plan_support_counts(
    n_reports: int,
    n_candidates: int,
    d_out: int,
    chunk_bytes: Optional[int] = None,
) -> KernelPlan:
    """Choose orientation and chunk size for a support-count workload.

    ``chunk_bytes=None`` means :data:`DEFAULT_CHUNK_BYTES`.  Report-major
    whenever a full candidate row fits the budget, candidate-major when
    the domain is so wide that one row would not.  ``d_out`` does not
    change the walk; it is accepted so callers describe the whole
    workload.  The returned plan is purely an execution choice — every
    plan computes identical counts.
    """
    if chunk_bytes is None:
        chunk_bytes = DEFAULT_CHUNK_BYTES
    row_bytes = _BYTES_PER_HASH * max(1, n_candidates)
    if row_bytes <= chunk_bytes or n_reports <= 1:
        orientation, span, width = "reports", n_reports, n_candidates
    else:
        # The candidate axis is so wide even one report row busts the
        # budget: walk candidate stripes against the full report column.
        orientation, span, width = "candidates", n_candidates, n_reports
    width = max(1, width)
    chunk = max(1, min(chunk_bytes // (_BYTES_PER_HASH * width), max(1, span)))
    return KernelPlan(
        orientation=orientation,
        chunk=chunk,
        n_reports=n_reports,
        n_candidates=n_candidates,
        peak_intermediate_bytes=_BYTES_PER_HASH * chunk * width,
    )


def _tiles(
    family: HashFamily, seeds: np.ndarray, candidates: np.ndarray, d_out: int
) -> OuterTile:
    """The call's tile function, in the kernel's compare dtype.

    uint32 whenever the report domain allows it; the (never exercised by
    the built-in oracles) ``d_out > 2^32`` case falls back to fresh int64
    :meth:`~repro.hashing.families.HashFamily.hash_outer` tiles so
    reported values outside uint32 still compare exactly.
    """
    if d_out <= _UINT32_DOMAIN:
        return family.outer_u32_tiles(seeds, candidates, d_out)

    def tile(rows: slice, cols: slice, out: np.ndarray, scratch: np.ndarray):
        return family.hash_outer(seeds[rows], candidates[cols], d_out)

    return tile


def support_counts_kernel(
    family: HashFamily,
    seeds: np.ndarray,
    reported: np.ndarray,
    candidates: np.ndarray,
    d_out: int,
    chunk_bytes: Optional[int] = None,
    plan: Optional[KernelPlan] = None,
) -> np.ndarray:
    """Count, per candidate, the reports whose hash of it matches.

    Parameters mirror the local-hashing decode: ``seeds[i]`` identifies
    report ``i``'s hash function, ``reported[i]`` its (perturbed) hashed
    value in ``[0, d_out)``, and ``candidates`` the domain values to score.
    Returns an int64 count vector aligned with ``candidates`` —
    bit-identical for any ``chunk_bytes`` and either orientation.
    ``chunk_bytes=None`` means :data:`DEFAULT_CHUNK_BYTES`.

    A reported value outside ``[0, d_out)`` raises ``ValueError``: it can
    match no hash, so it is a caller bug rather than a zero count.

    ``plan`` overrides the automatic :func:`plan_support_counts` choice
    (used by tests to force an orientation).
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    reported = np.asarray(reported)
    candidates = np.asarray(candidates)
    n = len(seeds)
    n_candidates = len(candidates)
    if reported.size:
        low, high = int(reported.min()), int(reported.max())
        if low < 0 or high >= d_out:
            bad = low if low < 0 else high
            raise ValueError(f"reported value {bad} outside [0, {d_out})")
    counts = np.zeros(n_candidates, dtype=np.int64)
    if n == 0 or n_candidates == 0:
        return counts
    if plan is None:
        plan = plan_support_counts(n, n_candidates, d_out, chunk_bytes)

    compare_dtype = np.uint32 if d_out <= _UINT32_DOMAIN else np.int64
    reported_cmp = reported.astype(compare_dtype, copy=False)
    tile_of = _tiles(family, seeds, candidates, d_out)

    # One set of buffers per call, sized for a full tile; each tile is a
    # view of their first rows * cols elements, so a ragged last tile
    # stays contiguous.  A tile's column count cannot overflow int32 (a
    # tile has far fewer than 2^31 rows); the running counts are int64.
    report_major = plan.orientation == "reports"
    walked = n if report_major else n_candidates
    step = min(plan.chunk, walked)
    rows, cols = (step, n_candidates) if report_major else (n, step)
    hashes = np.empty(rows * cols, dtype=np.uint32)
    scratch = np.empty_like(hashes)
    mask = np.empty(rows * cols, dtype=np.bool_)
    matches = np.empty(cols, dtype=np.int32 if rows < (1 << 31) else np.int64)

    for start, stop in chunk_spans(walked, plan.chunk):
        if report_major:
            row_span, col_span = slice(start, stop), slice(None)
            shape = (stop - start, n_candidates)
        else:
            row_span, col_span = slice(None), slice(start, stop)
            shape = (n, stop - start)
        size = shape[0] * shape[1]
        tile = tile_of(
            row_span,
            col_span,
            hashes[:size].reshape(shape),
            scratch[:size].reshape(shape),
        )
        tile_mask = np.equal(
            tile, reported_cmp[row_span, None], out=mask[:size].reshape(shape)
        )
        counts[col_span] += np.add.reduce(
            tile_mask.view(np.uint8), axis=0, dtype=matches.dtype,
            out=matches[: shape[1]],
        )
    return counts
