"""Seeded universal hash families used by local-hashing frequency oracles.

OLH/SOLH require every user to draw a random function ``H`` from a universal
family mapping the value domain ``[d]`` into a report domain ``[d_out]``.
The server later has to evaluate ``H_i(v)`` for *every* user ``i`` and *every*
candidate value ``v`` (an ``O(n * d)`` workload), so each family exposes both
a scalar API and chunk-vectorized numpy APIs.

Three families are provided:

* :class:`CarterWegmanHashFamily` — the classic 2-universal family
  ``h(v) = ((a*v + b) mod p) mod d_out`` with the Mersenne prime
  ``p = 2^31 - 1``.  2-universality is what the SOLH analysis assumes, and
  the Mersenne modulus makes the family evaluable with pure 64-bit numpy
  arithmetic.  This is the default.
* :class:`XXHash32Family` — seeded xxHash32, matching the paper's prototype
  (4-byte seeds).  Every array path runs the branch-free vectorized lane
  arithmetic of :func:`repro.hashing.xxhash32.xxhash32_lanes`
  (bit-identical to the scalar reference), so the paper's own family is
  usable at paper scale.
* :class:`MultiplyShiftHashFamily` — a fast splitmix-style mixer; not
  provably universal but empirically well distributed, included for
  ablations on the family choice.

A *seed* is a single 64-bit integer; it fully determines the hash function,
which makes reports compact (seed + hashed value) exactly as in the paper.

The ``O(n * d)`` support-count workload itself lives in
:mod:`repro.hashing.kernels`, which drives the families through
:meth:`HashFamily.outer_u32_tiles`: uint32 tiles (4 bytes per hash) that
default to :meth:`HashFamily.hash_outer_u32` and that xxHash32 hashes in
place in buffers the kernel allocates once per call.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .xxhash32 import (
    xxhash32_int,
    xxhash32_int_array,
    xxhash32_lane_terms,
    xxhash32_lanes,
    xxhash32_seed_terms,
)

_MERSENNE31 = (1 << 31) - 1
_MASK64 = (1 << 64) - 1

ArrayLike = Union[Sequence[int], np.ndarray]

#: ``tile(rows, cols, out, scratch)`` -> one uint32 tile of the kernel
#: (see :meth:`HashFamily.outer_u32_tiles`)
OuterTile = Callable[[slice, slice, np.ndarray, np.ndarray], np.ndarray]


def splitmix64(value: int) -> int:
    """One step of the splitmix64 mixer (public-domain constants).

    Used to expand a 64-bit seed into the per-function parameters of the
    Carter-Wegman and multiply-shift families.
    """
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _splitmix64_np(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over a uint64 array."""
    with np.errstate(over="ignore"):
        values = values + np.uint64(0x9E3779B97F4A7C15)
        values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def _mod_mersenne31(values: np.ndarray) -> np.ndarray:
    """Reduce a uint64 array modulo the Mersenne prime ``2^31 - 1``.

    Valid for inputs below ``2^62``; two folding rounds plus a conditional
    subtraction give an exact reduction without 128-bit arithmetic.
    """
    prime = np.uint64(_MERSENNE31)
    values = (values >> np.uint64(31)) + (values & prime)
    values = (values >> np.uint64(31)) + (values & prime)
    return np.where(values >= prime, values - prime, values)


def _mod_d_out(
    hashes: np.ndarray, d_out: int, scratch: Optional[np.ndarray] = None
) -> np.ndarray:
    """Reduce unsigned hashes into ``[0, d_out)`` in their own dtype.

    ``hashes`` is uint32 (xxHash32, Carter-Wegman's Mersenne-reduced
    values) or uint64 (multiply-shift's mixes).  When ``d_out`` exceeds
    the dtype's range the reduction is the identity (hashes are already
    below ``d_out``), which sidesteps an impossible modulus: a uint32
    hash needs none for ``d_out >= 2^32``, but a uint64 hash still
    does.  A power-of-two ``d_out`` keeps the low bits with one
    ``bitwise_and``.

    Otherwise the remainder is formed as ``h - (h // d) * d``: numpy
    divides an unsigned array by a scalar through libdivide (a multiply
    and shift), so the three passes cost about a quarter of
    ``np.remainder``'s hardware division on large arrays.  It is exact,
    since ``(h // d) * d <= h`` never wraps.

    With ``scratch`` (an array of ``hashes``' dtype and shape) the
    reduction runs in place: ``hashes`` is overwritten and returned, and
    nothing is allocated.  Without it, ``hashes`` is left as it was.
    """
    if d_out >> (8 * hashes.itemsize):
        return hashes
    in_place = scratch is not None
    as_dtype = hashes.dtype.type
    if d_out & (d_out - 1) == 0:
        low_bits = as_dtype(d_out - 1)
        return np.bitwise_and(hashes, low_bits, out=hashes if in_place else None)
    divisor = as_dtype(d_out)
    quotient = np.floor_divide(hashes, divisor, out=scratch)
    quotient *= divisor
    # Into hashes when in place, otherwise into the fresh quotient.
    return np.subtract(hashes, quotient, out=hashes if in_place else quotient)


class HashFamily(ABC):
    """A seeded family of hash functions ``[domain] -> [d_out]``.

    Subclasses must be deterministic: the same ``(seed, value, d_out)``
    triple always produces the same output, across processes.  That property
    is what lets the server re-evaluate users' hash functions.
    """

    #: short name used in logs, reports, and benchmark tables
    name: str = "abstract"

    #: number of distinct seeds (the family size ``h`` in the paper's proof)
    seed_space: int = 1 << 64

    def sample_seed(self, rng: np.random.Generator) -> int:
        """Draw a uniform seed identifying one function of the family."""
        return int(rng.integers(0, self.seed_space, dtype=np.uint64))

    def sample_seeds(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` independent uniform seeds as a uint64 array."""
        return rng.integers(0, self.seed_space, size=count, dtype=np.uint64)

    @abstractmethod
    def hash_value(self, seed: int, value: int, d_out: int) -> int:
        """Evaluate the function identified by ``seed`` on one value."""

    @abstractmethod
    def hash_values(self, seed: int, values: ArrayLike, d_out: int) -> np.ndarray:
        """Evaluate one function on an array of values (one user, many values)."""

    @abstractmethod
    def hash_outer(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        """Evaluate ``seeds[i]`` on ``values[j]`` for all pairs.

        Returns an ``(len(seeds), len(values))`` integer matrix.  This is the
        server-side aggregation hot path; implementations should stay within
        vectorized numpy where possible.
        """

    def hash_outer_u32(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        """:meth:`hash_outer`, delivered as a uint32 matrix.

        This is the chunk format of the support-count kernel
        (:mod:`repro.hashing.kernels`): hashed values live in ``[0, d_out)``
        with ``d_out`` far below ``2^32`` in every paper workload, so uint32
        storage halves the hot path's peak intermediate bytes relative to
        int64.  Only valid for ``d_out <= 2^32`` (the kernel checks and
        falls back to :meth:`hash_outer` otherwise).  The default converts
        the int64 matrix; the built-in families override with native uint32
        pipelines that never materialize an int64 intermediate of matrix
        shape.
        """
        return self.hash_outer(seeds, values, d_out).astype(np.uint32)

    def outer_u32_tiles(
        self, seeds: np.ndarray, values: np.ndarray, d_out: int
    ) -> OuterTile:
        """Set up the support-count kernel's tiles of one call.

        Returns ``tile(rows, cols, out, scratch)``, which evaluates
        ``hash_outer_u32(seeds[rows], values[cols], d_out)`` for two
        slices.  ``out`` and ``scratch`` are uint32 buffers of the tile's
        shape that the kernel allocates once per call.  The default
        ignores them and returns a fresh :meth:`hash_outer_u32` matrix; a
        family may instead do its per-call work here, once, and hash each
        tile into ``out`` (through ``scratch``) and return it.
        """

        def tile(rows: slice, cols: slice, out: np.ndarray, scratch: np.ndarray):
            return self.hash_outer_u32(seeds[rows], values[cols], d_out)

        return tile

    def hash_pairwise(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        """Evaluate ``seeds[i]`` on ``values[i]`` element-wise.

        Used on the user side: each user hashes their own value with their
        own seed.  The default implementation is a scalar fallback — one
        ``hash_value`` call per element — kept deliberately simple because
        every built-in family overrides it with an O(n) vector path.
        """
        seeds = np.asarray(seeds, dtype=np.uint64)
        values = np.asarray(values)
        out = np.empty(len(seeds), dtype=np.int64)
        for i in range(len(seeds)):
            out[i] = self.hash_value(int(seeds[i]), int(values[i]), d_out)
        return out


class CarterWegmanHashFamily(HashFamily):
    """2-universal family ``h_{a,b}(v) = ((a v + b) mod p) mod d_out``.

    ``p = 2^31 - 1``; the pair ``(a, b)`` is derived from the 64-bit seed by
    two splitmix64 steps, with ``a`` forced nonzero.  Domain values must be
    below ``p`` (about 2.1e9), which covers every workload in the paper;
    every evaluation path — scalar and vectorized alike — validates the
    domain, so an out-of-range value raises instead of silently aliasing
    ``v mod p``.
    """

    name = "carter-wegman"

    @staticmethod
    def _check_domain(values: ArrayLike) -> np.ndarray:
        """Validate ``0 <= v < p`` and return the values as uint64.

        One shared gate for all four evaluation paths: the scalar path used
        to reject out-of-range values while the vectorized paths silently
        wrapped them, so the same input could hash differently depending on
        which API the caller reached.
        """
        values = np.asarray(values)
        if values.size:
            low, high = int(values.min()), int(values.max())
            if low < 0 or high >= _MERSENNE31:
                bad = low if low < 0 else high
                raise ValueError(f"value {bad} outside [0, 2^31-1)")
        return values.astype(np.uint64, copy=False)

    def _params(self, seed: int) -> tuple[int, int]:
        a = splitmix64(seed) % (_MERSENNE31 - 1) + 1
        b = splitmix64(seed ^ 0xD1B54A32D192ED03) % _MERSENNE31
        return a, b

    def _params_np(self, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        seeds = np.asarray(seeds, dtype=np.uint64)
        a = _splitmix64_np(seeds) % np.uint64(_MERSENNE31 - 1) + np.uint64(1)
        b = _splitmix64_np(seeds ^ np.uint64(0xD1B54A32D192ED03)) % np.uint64(
            _MERSENNE31
        )
        return a, b

    def hash_value(self, seed: int, value: int, d_out: int) -> int:
        if not 0 <= value < _MERSENNE31:
            raise ValueError(f"value {value} outside [0, 2^31-1)")
        a, b = self._params(seed)
        return ((a * value + b) % _MERSENNE31) % d_out

    def hash_values(self, seed: int, values: ArrayLike, d_out: int) -> np.ndarray:
        a, b = self._params(seed)
        values = self._check_domain(values)
        with np.errstate(over="ignore"):
            mixed = values * np.uint64(a) + np.uint64(b)
        return self._reduce(mixed, d_out).astype(np.int64)

    def hash_outer(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        return self.hash_outer_u32(seeds, values, d_out).astype(np.int64)

    def hash_outer_u32(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        a, b = self._params_np(seeds)
        values = self._check_domain(values)
        with np.errstate(over="ignore"):
            mixed = a[:, None] * values[None, :] + b[:, None]
        return self._reduce(mixed, d_out)

    def hash_pairwise(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        a, b = self._params_np(seeds)
        values = self._check_domain(values)
        with np.errstate(over="ignore"):
            mixed = a * values + b
        return self._reduce(mixed, d_out).astype(np.int64)

    @staticmethod
    def _reduce(mixed: np.ndarray, d_out: int) -> np.ndarray:
        """``(mixed mod p) mod d_out`` as uint32.  Mersenne-reduced values
        are below p < 2^31, so the uint32 narrowing is lossless and the
        ``[0, d_out)`` step takes the libdivide reduction instead of a
        uint64 division per hash."""
        return _mod_d_out(_mod_mersenne31(mixed).astype(np.uint32), d_out)


class MultiplyShiftHashFamily(HashFamily):
    """Splitmix-style mixing family: fast, not provably universal.

    ``h(v) = splitmix64(v * C xor seed) mod d_out``.  Included to ablate the
    effect of the family choice on SOLH accuracy.
    """

    name = "multiply-shift"

    _C = 0x9E3779B97F4A7C15

    def hash_value(self, seed: int, value: int, d_out: int) -> int:
        mixed = splitmix64((value * self._C ^ seed) & _MASK64)
        return mixed % d_out

    def hash_values(self, seed: int, values: ArrayLike, d_out: int) -> np.ndarray:
        values = np.asarray(values, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = _splitmix64_np(values * np.uint64(self._C) ^ np.uint64(seed))
        return _mod_d_out(mixed, d_out).astype(np.int64)

    def _mixed_outer(self, seeds: np.ndarray, values: ArrayLike) -> np.ndarray:
        """The outer mixing matrix — the single copy of the mixer math."""
        seeds = np.asarray(seeds, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _splitmix64_np(
                values[None, :] * np.uint64(self._C) ^ seeds[:, None]
            )

    def hash_outer(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        return _mod_d_out(self._mixed_outer(seeds, values), d_out).astype(np.int64)

    def hash_outer_u32(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        return _mod_d_out(self._mixed_outer(seeds, values), d_out).astype(np.uint32)

    def hash_pairwise(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        seeds = np.asarray(seeds, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = _splitmix64_np(values * np.uint64(self._C) ^ seeds)
        return _mod_d_out(mixed, d_out).astype(np.int64)


class XXHash32Family(HashFamily):
    """Seeded xxHash32 family matching the paper's prototype.

    Seeds are 32-bit (4 bytes in each report, as in Section VII-D).  Every
    array path — ``hash_values``, ``hash_outer``, ``hash_pairwise`` and the
    kernel-facing ``outer_u32_tiles`` — runs the branch-free vectorized
    lane arithmetic of :func:`repro.hashing.xxhash32.xxhash32_lanes`,
    which is validated bit-for-bit against the scalar reference
    implementation (``hash_value`` still evaluates it, as the per-element
    ground truth).
    Server-side aggregation with this family is therefore pure numpy; see
    ``benchmarks/bench_hash_throughput.py`` for the measured throughput.
    """

    name = "xxhash32"
    seed_space = 1 << 32

    def hash_value(self, seed: int, value: int, d_out: int) -> int:
        return xxhash32_int(value, seed) % d_out

    def hash_values(self, seed: int, values: ArrayLike, d_out: int) -> np.ndarray:
        hashes = xxhash32_int_array(np.asarray(values), np.uint64(seed & _MASK64))
        return _mod_d_out(hashes, d_out).astype(np.int64)

    def hash_outer(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        return self.hash_outer_u32(seeds, values, d_out).astype(np.int64)

    def hash_outer_u32(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        seeds = np.asarray(seeds, dtype=np.uint64)
        values = np.asarray(values)
        hashes = xxhash32_int_array(values[None, :], seeds[:, None])
        return _mod_d_out(hashes, d_out)

    def outer_u32_tiles(
        self, seeds: np.ndarray, values: np.ndarray, d_out: int
    ) -> OuterTile:
        """Seed and lane terms once per call; each tile is hashed and
        reduced in place in the kernel's buffers, allocating nothing."""
        seed_terms = xxhash32_seed_terms(seeds)
        lane_lo, lane_hi = xxhash32_lane_terms(values)

        def tile(rows: slice, cols: slice, out: np.ndarray, scratch: np.ndarray):
            hi = None if lane_hi is None else lane_hi[cols]
            xxhash32_lanes(seed_terms[rows, None], lane_lo[cols], hi, out, scratch)
            return _mod_d_out(out, d_out, scratch)

        return tile

    def hash_pairwise(
        self, seeds: np.ndarray, values: ArrayLike, d_out: int
    ) -> np.ndarray:
        seeds = np.asarray(seeds, dtype=np.uint64)
        hashes = xxhash32_int_array(np.asarray(values), seeds)
        return _mod_d_out(hashes, d_out).astype(np.int64)


_DEFAULT_FAMILY: Optional[CarterWegmanHashFamily] = None


def default_family() -> CarterWegmanHashFamily:
    """Return the module-wide default hash family (Carter-Wegman)."""
    global _DEFAULT_FAMILY
    if _DEFAULT_FAMILY is None:
        _DEFAULT_FAMILY = CarterWegmanHashFamily()
    return _DEFAULT_FAMILY
