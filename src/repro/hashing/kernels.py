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
decode) routes through, built around four ideas:

* **uint32 intermediates.**  Hashed values live in ``[0, d')`` with ``d'``
  far below ``2^32``, so tiles are produced in uint32 via
  :meth:`~repro.hashing.families.HashFamily.hash_outer_u32`, whose
  ``[0, d')`` reduction is a scalar ``floor_divide`` (numpy's libdivide
  path) rather than ``np.remainder``.
* **cache-resident tiles.**  The default budget
  (:data:`DEFAULT_CHUNK_BYTES`) holds 64 Ki hashes per tile: a 256 KiB
  uint32 tile plus its 64 KiB match mask.  Every elementwise pass of
  hashing, reduction and matching then runs over L2-resident data instead
  of streaming a multi-MiB matrix through memory once per pass.
* **axis-0 match count.**  A tile is compared against the reported values
  with one ``np.equal`` (a 1-byte mask) and the mask's uint8 view is
  summed down the report axis with ``np.add.reduce`` — two contiguous
  passes, no gather or scatter of match positions.
* **chunk orientation.**  The tile walks whichever axis keeps a full
  stripe of the other within ``chunk_bytes``: report-major when a full
  candidate row fits (the common case), candidate-major when the candidate
  axis is so wide that even one report row would blow the budget.

On top sits a **unique-seed fast path** for small seed spaces (the paper's
4-byte xxHash32 prototype): reports are grouped by seed, each distinct
hash function's candidate row is evaluated exactly once, and the match
indicator is replaced by a table lookup of per-``(seed, y)`` report
multiplicities.  With ``u`` distinct seeds the hash work drops from
``O(n*d)`` to ``O(u*d)`` — a large win exactly where the 32-bit seed space
forces collisions (``n`` within an order of magnitude of ``2^32``, or any
workload that re-aggregates a retained report set).  The multiplicity
table has its own size gate (:data:`_UNIQUE_TABLE_BYTES`), independent of
the tile budget that still tiles the gather.

Every path produces **bit-identical** counts: hashing is deterministic,
matches are counted in exact integer arithmetic, and integer sums are
associative — so chunk size, orientation, and the unique-seed grouping
cannot change a single count, only the time and memory spent producing
them.  ``tests/hashing/test_kernels.py`` pins this against a naive
materialized reference.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .families import HashFamily

__all__ = [
    "KernelPlan",
    "SeedRowCache",
    "active_chunk_bytes",
    "chunk_spans",
    "plan_support_counts",
    "set_active_chunk_bytes",
    "support_counts_kernel",
]

#: default per-tile intermediate budget: 64 Ki hashes at
#: ``_STANDARD_BYTES_PER_HASH`` bytes each, i.e. a 256 KiB uint32 tile and
#: its 64 KiB mask — small enough to stay resident in a core's L2 across
#: the ~20 elementwise passes one tile goes through
DEFAULT_CHUNK_BYTES = 5 << 16

#: process-wide calibrated ``chunk_bytes`` override (None = uncalibrated).
#: Lives here rather than in :mod:`repro.hashing.calibrate` so the kernel
#: never imports the calibration layer (which imports the kernel).
_ACTIVE_CHUNK_BYTES: Optional[int] = None


def set_active_chunk_bytes(chunk_bytes: Optional[int]) -> Optional[int]:
    """Install (or with ``None`` clear) the calibrated chunk budget.

    Returns the previous override so callers can restore it (tests, and
    :meth:`repro.hashing.calibrate.KernelCalibration.activate`).  Purely
    an execution knob: counts are bit-identical at any value.
    """
    global _ACTIVE_CHUNK_BYTES
    previous = _ACTIVE_CHUNK_BYTES
    if chunk_bytes is not None and int(chunk_bytes) < 1:
        raise ValueError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
    _ACTIVE_CHUNK_BYTES = None if chunk_bytes is None else int(chunk_bytes)
    return previous


def active_chunk_bytes() -> int:
    """The chunk budget an unpinned kernel call uses right now."""
    return (
        DEFAULT_CHUNK_BYTES
        if _ACTIVE_CHUNK_BYTES is None
        else _ACTIVE_CHUNK_BYTES
    )

#: bytes of matrix-shaped intermediates per hash on the standard path:
#: the uint32 tile (4) plus the boolean match mask reduced along axis 0 (1)
_STANDARD_BYTES_PER_HASH = 5

#: bytes per hash on the unique-seed path: the uint32 chunk (4, reused
#: directly as gather indices) and the int64 multiplicity gather result (8)
_UNIQUE_BYTES_PER_HASH = 12

#: largest int64 per-``(seed, y)`` multiplicity table the unique-seed path
#: builds.  Deliberately not the tile budget: the table is one allocation
#: per call whose size follows the seed count, and tying it to a
#: cache-sized tile would turn grouping (and any ``SeedRowCache``) off for
#: every realistic flush
_UNIQUE_TABLE_BYTES = 1 << 26

#: largest seed space eligible for unique-seed grouping; grouping first
#: requires a sort of the seeds, which only pays off when the space is
#: small enough for duplicates to be plausible at all
_UNIQUE_SEED_SPACE = 1 << 32

#: maximum distinct-to-total seed ratio for grouping: the unique path
#: engages when ``n_unique <= 0.75 * n``, i.e. at least a quarter of the
#: reports share a seed with another report
_UNIQUE_RATIO = 0.75

#: report counts up to this always probe for duplicate seeds (the sort is
#: negligible); above it, probing requires a wide candidate axis or the
#: birthday regime — see ``_grouping_plausible``
_UNIQUE_PROBE_LIMIT = 1 << 16

#: candidate counts from which the duplicate probe is always worthwhile:
#: the O(n log n) sort costs roughly ``1/d`` of the O(n*d) hash work it
#: can replace, so for wide domains it is cheap insurance
_UNIQUE_PROBE_MIN_CANDIDATES = 64


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

    ``orientation`` is ``"reports"`` (chunk the report axis, full candidate
    rows), ``"candidates"`` (chunk the candidate axis, full report
    columns), or ``"unique"`` (the unique-seed fast path, chunking distinct
    seeds).  ``chunk`` is the number of rows (or columns) per step and
    ``peak_intermediate_bytes`` the worst-case matrix-shaped allocation the
    walk materializes at once — the number the throughput benchmark
    records.
    """

    orientation: str
    chunk: int
    n_reports: int
    n_candidates: int
    n_unique: Optional[int]
    peak_intermediate_bytes: int

    @property
    def hashes_evaluated(self) -> int:
        """Total hash evaluations the plan performs."""
        rows = self.n_unique if self.orientation == "unique" else self.n_reports
        return rows * self.n_candidates


def plan_support_counts(
    n_reports: int,
    n_candidates: int,
    d_out: int,
    chunk_bytes: Optional[int] = None,
    n_unique: Optional[int] = None,
    prefer_unique: bool = False,
) -> KernelPlan:
    """Choose orientation and chunk size for a support-count workload.

    ``chunk_bytes=None`` resolves to the process-wide calibrated budget
    (:func:`active_chunk_bytes`) — the default every oracle passes unless
    the deployment pinned an explicit value.

    ``n_unique`` (the distinct-seed count, when the caller has it) enables
    the unique-seed path exactly when grouping is profitable: the seed
    space is small, at least a quarter of the reports share a seed with
    another report, and the per-``(seed, y)`` multiplicity table fits
    :data:`_UNIQUE_TABLE_BYTES` (the gather is still tiled under
    ``chunk_bytes``).  ``prefer_unique`` drops the duplicate-ratio
    requirement (the table-fit requirement stays): a caller holding a
    :class:`SeedRowCache` wants the unique path even for all-distinct
    seeds, because the rows it hashes this flush are the hits of the
    next.  The returned plan is purely an execution choice — every plan
    computes identical counts.
    """
    if chunk_bytes is None:
        chunk_bytes = active_chunk_bytes()
    if (
        n_unique is not None
        and n_reports > 0
        and (prefer_unique or n_unique <= _UNIQUE_RATIO * n_reports)
        and n_unique * max(1, d_out) * 8 <= _UNIQUE_TABLE_BYTES
    ):
        chunk = max(1, chunk_bytes // (_UNIQUE_BYTES_PER_HASH * max(1, n_candidates)))
        chunk = min(chunk, max(1, n_unique))
        return KernelPlan(
            orientation="unique",
            chunk=chunk,
            n_reports=n_reports,
            n_candidates=n_candidates,
            n_unique=n_unique,
            peak_intermediate_bytes=(
                _UNIQUE_BYTES_PER_HASH * chunk * n_candidates
                + n_unique * max(1, d_out) * 8
            ),
        )
    row_bytes = _STANDARD_BYTES_PER_HASH * max(1, n_candidates)
    if row_bytes <= chunk_bytes or n_reports <= 1:
        chunk = max(1, min(chunk_bytes // row_bytes, max(1, n_reports)))
        return KernelPlan(
            orientation="reports",
            chunk=chunk,
            n_reports=n_reports,
            n_candidates=n_candidates,
            n_unique=n_unique,
            peak_intermediate_bytes=_STANDARD_BYTES_PER_HASH
            * chunk
            * max(1, n_candidates),
        )
    # The candidate axis is so wide even one report row busts the budget:
    # walk candidate stripes against the full report column instead.
    col_bytes = _STANDARD_BYTES_PER_HASH * max(1, n_reports)
    chunk = max(1, min(chunk_bytes // col_bytes, max(1, n_candidates)))
    return KernelPlan(
        orientation="candidates",
        chunk=chunk,
        n_reports=n_reports,
        n_candidates=n_candidates,
        n_unique=n_unique,
        peak_intermediate_bytes=_STANDARD_BYTES_PER_HASH
        * chunk
        * max(1, n_reports),
    )


class SeedRowCache:
    """Cross-flush LRU cache of hash rows for the unique-seed path.

    One entry per distinct seed: the uint32 row ``H_seed(candidates)``
    the unique-seed fast path evaluates.  In the 32-bit seed space a
    seed drawn this flush recurs in later flushes (the birthday regime)
    and *every* seed recurs when a retained report set is re-aggregated
    — in both cases the cached row replaces an O(d) hash evaluation with
    a copy.

    Soundness rests on two invariants:

    * **Identity-keyed.**  A row is only valid for the exact
      ``(family type, family name, seed space, d_out, candidate count)``
      it was computed under; :meth:`ensure` drops everything on any
      change, so a cache can never serve rows across hash families or
      domain sizes.  Callers additionally guarantee the candidate
      *values* are fixed given the identity (the oracles pass the cache
      only for the default full-domain ``arange(d)`` candidates).
    * **Read-only rows.**  Cached rows feed only the unique path's
      gather, which reads its hash tile as indices and never writes to
      it; the standard path never sees them.

    Rows are stored as owned copies and served as fresh matrices, so the
    cache is bit-transparent: hashing is deterministic, hence a hit is
    byte-for-byte the row a miss would recompute.  Eviction is LRU under
    ``byte_budget``; a budget smaller than one row disables insertion
    (the cache degrades to a pass-through, never an error).
    """

    def __init__(self, byte_budget: int):
        byte_budget = int(byte_budget)
        if byte_budget < 1:
            raise ValueError(f"byte budget must be >= 1, got {byte_budget}")
        self.byte_budget = byte_budget
        self._rows: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._identity: Optional[tuple] = None
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resets = 0

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def nbytes(self) -> int:
        """Bytes of cached row payload currently held."""
        return self._bytes

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def cached_seeds(self) -> tuple:
        """The cached seeds in LRU order (oldest first) — test hook."""
        return tuple(self._rows)

    def ensure(self, family: HashFamily, d_out: int, n_candidates: int) -> None:
        """Bind the cache to one workload identity, invalidating on change."""
        identity = (
            type(family).__name__,
            family.name,
            int(family.seed_space),
            int(d_out),
            int(n_candidates),
        )
        if identity != self._identity:
            if self._identity is not None and self._rows:
                self.resets += 1
            self._rows.clear()
            self._bytes = 0
            self._identity = identity

    def rows(
        self,
        family: HashFamily,
        seeds: np.ndarray,
        candidates: np.ndarray,
        d_out: int,
    ) -> np.ndarray:
        """The ``(len(seeds), len(candidates))`` uint32 hash matrix.

        Hit rows are copied out of the cache; miss rows are computed in
        one vectorized :func:`_chunk_hashes` call, served, and inserted
        (then LRU-evicted down to budget).  Caller must have called
        :meth:`ensure` for this workload first.
        """
        n_candidates = len(candidates)
        out = np.empty((len(seeds), n_candidates), dtype=np.uint32)
        miss_positions = []
        for position, seed in enumerate(seeds):
            seed = int(seed)
            row = self._rows.get(seed)
            if row is None:
                miss_positions.append(position)
            else:
                self._rows.move_to_end(seed)
                out[position] = row
                self.hits += 1
        if miss_positions:
            self.misses += len(miss_positions)
            miss_index = np.asarray(miss_positions, dtype=np.intp)
            computed = _chunk_hashes(
                family, seeds[miss_index], candidates, d_out
            ).astype(np.uint32, copy=False)
            out[miss_index] = computed
            row_bytes = computed.dtype.itemsize * max(1, n_candidates)
            if row_bytes <= self.byte_budget:
                for offset, position in enumerate(miss_positions):
                    self._rows[int(seeds[position])] = computed[offset].copy()
                    self._bytes += row_bytes
                while self._bytes > self.byte_budget and self._rows:
                    self._rows.popitem(last=False)
                    self._bytes -= row_bytes
                    self.evictions += 1
        return out


def _grouping_plausible(
    family: HashFamily, n_reports: int, n_candidates: int
) -> bool:
    """Whether probing for duplicate seeds (a full sort) can pay off.

    The probe costs an ``O(n log n)`` sort against the ``O(n*d)`` hash
    work grouping could replace, so it runs whenever any of these holds:

    * the report set is small (``_UNIQUE_PROBE_LIMIT``) — the sort is
      negligible outright;
    * the candidate axis is wide (``_UNIQUE_PROBE_MIN_CANDIDATES``) —
      the sort is a ~``1/d`` overhead, cheap insurance for the
      duplicate-heavy workloads (re-aggregated retained report sets)
      where grouping is the advertised O(u*d) win;
    * uniform seeds are in the birthday regime (``n >= seed_space / 2``,
      where their expected duplicate fraction reaches the ~25% the
      ``_UNIQUE_RATIO`` gate needs).

    Outside those, sorting millions of almost-certainly-distinct seeds
    over a narrow domain would cost a measurable slice of the kernel
    call with no realistic chance of engaging the fast path.
    """
    if family.seed_space > _UNIQUE_SEED_SPACE or n_reports <= 1:
        return False
    return (
        n_reports <= _UNIQUE_PROBE_LIMIT
        or n_candidates >= _UNIQUE_PROBE_MIN_CANDIDATES
        or 2 * n_reports >= family.seed_space
    )


def _chunk_hashes(
    family: HashFamily, seeds: np.ndarray, candidates: np.ndarray, d_out: int
) -> np.ndarray:
    """One hash chunk in the kernel's compare dtype.

    uint32 whenever the report domain allows it; the (never exercised by
    the built-in oracles) ``d_out > 2^32`` case falls back to the int64
    path so reported values outside uint32 still compare exactly.
    """
    if d_out <= _UNIQUE_SEED_SPACE:
        return family.hash_outer_u32(seeds, candidates, d_out)
    return family.hash_outer(seeds, candidates, d_out)


def _tile_matches(tile: np.ndarray, reported: np.ndarray) -> np.ndarray:
    """Per-column count of ``tile[i, j] == reported[i]``.

    One 1-byte equality mask, summed down the report axis through its
    uint8 view.  The per-tile sum is int32 whenever the tile has fewer
    than ``2^31`` rows (a column count cannot then overflow it); callers
    accumulate into int64.
    """
    mask = np.equal(tile, reported[:, None])
    dtype = np.int32 if tile.shape[0] < (1 << 31) else np.int64
    return np.add.reduce(mask.view(np.uint8), axis=0, dtype=dtype)


def support_counts_kernel(
    family: HashFamily,
    seeds: np.ndarray,
    reported: np.ndarray,
    candidates: np.ndarray,
    d_out: int,
    chunk_bytes: Optional[int] = None,
    plan: Optional[KernelPlan] = None,
    seed_cache: Optional[SeedRowCache] = None,
) -> np.ndarray:
    """Count, per candidate, the reports whose hash of it matches.

    Parameters mirror the local-hashing decode: ``seeds[i]`` identifies
    report ``i``'s hash function, ``reported[i]`` its (perturbed) hashed
    value in ``[0, d_out)``, and ``candidates`` the domain values to score.
    Returns an int64 count vector aligned with ``candidates`` —
    bit-identical for any ``chunk_bytes``, with or without a cache, and
    on every execution path.  ``chunk_bytes=None`` means the calibrated
    process-wide budget (:func:`active_chunk_bytes`).

    A reported value outside ``[0, d_out)`` raises ``ValueError`` on every
    path: the unique-seed table would otherwise alias it into a
    neighbouring seed's row, where the standard path would drop it.

    ``seed_cache`` serves/collects per-seed hash rows across calls; it
    only engages on the unique-seed path (whose gather never mutates its
    hash tile) for uint32-comparable domains, and it steers planning
    toward that path (``prefer_unique``) so first-sight seeds populate
    rows for later flushes.  The caller owns keeping the candidate set
    fixed per cache (see :class:`SeedRowCache`).

    ``plan`` overrides the automatic :func:`plan_support_counts` choice
    (used by tests to force an orientation; the unique-seed path can only
    be *disabled* this way, since a plan without ``n_unique`` falls back
    to the standard walk).
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

    use_cache = (
        seed_cache is not None
        and plan is None
        and family.seed_space <= _UNIQUE_SEED_SPACE
        and d_out <= _UNIQUE_SEED_SPACE
    )
    unique_seeds = inverse = None
    if plan is None:
        n_unique = None
        if use_cache or _grouping_plausible(family, n, n_candidates):
            unique_seeds, inverse = np.unique(seeds, return_inverse=True)
            n_unique = len(unique_seeds)
        plan = plan_support_counts(
            n, n_candidates, d_out, chunk_bytes, n_unique=n_unique,
            prefer_unique=use_cache,
        )

    compare_dtype = np.uint32 if d_out <= _UNIQUE_SEED_SPACE else np.int64
    reported_cmp = reported.astype(compare_dtype, copy=False)

    if plan.orientation == "unique" and unique_seeds is not None:
        cache = seed_cache if use_cache else None
        if cache is not None:
            cache.ensure(family, d_out, n_candidates)
        # Multiplicity table: weights[s, y] = #reports with (seed s, value y).
        weights = np.bincount(
            inverse.reshape(-1).astype(np.int64) * d_out
            + reported.astype(np.int64),
            minlength=plan.n_unique * d_out,
        ).reshape(plan.n_unique, d_out)
        for start, stop in chunk_spans(plan.n_unique, plan.chunk):
            # The uint32 chunk doubles as the gather index — no int64 copy.
            if cache is not None:
                hashes = cache.rows(
                    family, unique_seeds[start:stop], candidates, d_out
                )
            else:
                hashes = _chunk_hashes(
                    family, unique_seeds[start:stop], candidates, d_out
                )
            counts += np.take_along_axis(
                weights[start:stop], hashes, axis=1
            ).sum(axis=0)
        return counts

    if plan.orientation == "candidates":
        for start, stop in chunk_spans(n_candidates, plan.chunk):
            tile = _chunk_hashes(family, seeds, candidates[start:stop], d_out)
            counts[start:stop] += _tile_matches(tile, reported_cmp)
        return counts

    for start, stop in chunk_spans(n, plan.chunk):
        tile = _chunk_hashes(family, seeds[start:stop], candidates, d_out)
        counts += _tile_matches(tile, reported_cmp[start:stop])
    return counts
