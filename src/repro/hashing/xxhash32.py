"""xxHash32: scalar reference implementation plus a vectorized array path.

The paper's prototype uses ``python-xxhash`` seeds (4 bytes) as the random
hash functions of OLH/SOLH.  That package is not available offline, so this
module re-implements the XXH32 algorithm exactly (validated against the
reference test vectors in ``tests/hashing/test_xxhash32.py``).

Two implementations are provided:

* :func:`xxhash32` / :func:`xxhash32_int` — the scalar reference, a direct
  transcription of the canonical specification at
  https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md.  It
  handles arbitrary byte strings and is the ground truth every vectorized
  result is validated against.
* :func:`xxhash32_int_array` — branch-free uint32 lane arithmetic over
  numpy arrays.  The frequency-oracle layer only ever hashes the fixed
  8-byte little-endian encoding of a domain value, and fixed-width 8-byte
  inputs take exactly one path through the spec (the short-input branch:
  ``acc = seed + PRIME5 + 8`` followed by two 4-byte-lane rounds and the
  avalanche), so the whole algorithm collapses to a handful of wrapping
  uint32 array operations that broadcast over ``seeds x values``.

The array path is split so the support-count kernel can hash tile after
tile without allocating: :func:`xxhash32_seed_terms` and
:func:`xxhash32_lane_terms` compute the per-seed and per-value terms
once, and :func:`xxhash32_lanes` runs the lane rounds and the avalanche
in place, in an output and a scratch array the caller owns.
:func:`xxhash32_int_array` is those three steps with fresh arrays.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

_PRIME1 = 0x9E3779B1
_PRIME2 = 0x85EBCA77
_PRIME3 = 0xC2B2AE3D
_PRIME4 = 0x27D4EB2F
_PRIME5 = 0x165667B1

_MASK32 = 0xFFFFFFFF


def _rotl32(value: int, count: int) -> int:
    """Rotate a 32-bit integer left by ``count`` bits."""
    value &= _MASK32
    return ((value << count) | (value >> (32 - count))) & _MASK32


def _round(acc: int, lane: int) -> int:
    """One accumulator round: mix a 32-bit lane into ``acc``."""
    acc = (acc + lane * _PRIME2) & _MASK32
    acc = _rotl32(acc, 13)
    return (acc * _PRIME1) & _MASK32


def _avalanche(acc: int) -> int:
    """Final mixing stage that spreads entropy across all output bits."""
    acc ^= acc >> 15
    acc = (acc * _PRIME2) & _MASK32
    acc ^= acc >> 13
    acc = (acc * _PRIME3) & _MASK32
    acc ^= acc >> 16
    return acc


def xxhash32(data: bytes, seed: int = 0) -> int:
    """Hash ``data`` with 32-bit xxHash using ``seed``.

    Parameters
    ----------
    data:
        The byte string to hash.
    seed:
        A 32-bit unsigned seed selecting the hash function.

    Returns
    -------
    int
        The 32-bit unsigned hash value.
    """
    seed &= _MASK32
    length = len(data)
    index = 0

    if length >= 16:
        acc1 = (seed + _PRIME1 + _PRIME2) & _MASK32
        acc2 = (seed + _PRIME2) & _MASK32
        acc3 = seed
        acc4 = (seed - _PRIME1) & _MASK32
        limit = length - 16
        while index <= limit:
            acc1 = _round(acc1, int.from_bytes(data[index:index + 4], "little"))
            acc2 = _round(acc2, int.from_bytes(data[index + 4:index + 8], "little"))
            acc3 = _round(acc3, int.from_bytes(data[index + 8:index + 12], "little"))
            acc4 = _round(acc4, int.from_bytes(data[index + 12:index + 16], "little"))
            index += 16
        acc = (
            _rotl32(acc1, 1) + _rotl32(acc2, 7) + _rotl32(acc3, 12) + _rotl32(acc4, 18)
        ) & _MASK32
    else:
        acc = (seed + _PRIME5) & _MASK32

    acc = (acc + length) & _MASK32

    while index + 4 <= length:
        lane = int.from_bytes(data[index:index + 4], "little")
        acc = (acc + lane * _PRIME3) & _MASK32
        acc = (_rotl32(acc, 17) * _PRIME4) & _MASK32
        index += 4

    while index < length:
        acc = (acc + data[index] * _PRIME5) & _MASK32
        acc = (_rotl32(acc, 11) * _PRIME1) & _MASK32
        index += 1

    return _avalanche(acc)


def xxhash32_int(value: int, seed: int = 0) -> int:
    """Hash a non-negative integer by its 8-byte little-endian encoding.

    This is the encoding the frequency-oracle layer uses when hashing domain
    values with a seeded xxHash function.
    """
    return xxhash32(int(value).to_bytes(8, "little"), seed)


def xxhash32_seed_terms(seeds: np.ndarray) -> np.ndarray:
    """The per-seed start of the 8-byte short-input branch, as uint32.

    ``acc = seed + PRIME5 + 8`` (the input length): seeds wrap modulo
    ``2^32`` exactly like the scalar path.
    """
    seeds = np.asarray(seeds)
    with np.errstate(over="ignore"):
        seeds32 = (seeds.astype(np.uint64, copy=False) & np.uint64(_MASK32)).astype(
            np.uint32
        )
        return seeds32 + np.uint32((_PRIME5 + 8) & _MASK32)


def xxhash32_lane_terms(
    values: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The two 4-byte lanes of each value's 8-byte encoding, times PRIME3.

    Returns ``(lo, hi)`` as uint32 arrays, premultiplied so a lane round
    is add, rotate, multiply.  ``hi`` is ``None`` when every value is
    below ``2^32``: its lane is then zero and the round skips the add.
    Values must lie in ``[0, 2^64)``.
    """
    values = np.asarray(values)
    if values.size and values.dtype != np.uint64 and int(values.min()) < 0:
        raise ValueError(
            f"value {int(values.min())} outside [0, 2^64): xxHash32 hashes "
            f"the 8-byte little-endian encoding"
        )
    values = values.astype(np.uint64, copy=False)
    prime3 = np.uint32(_PRIME3)
    with np.errstate(over="ignore"):
        lo = (values & np.uint64(_MASK32)).astype(np.uint32) * prime3
        if not values.size or int(values.max()) <= _MASK32:
            return lo, None
        return lo, (values >> np.uint64(32)).astype(np.uint32) * prime3


def _rotl32_mul(
    acc: np.ndarray, count: int, prime: int, scratch: np.ndarray
) -> None:
    """``acc = rotl(acc, count) * prime`` in place, through ``scratch``."""
    np.left_shift(acc, np.uint32(count), out=scratch)
    np.right_shift(acc, np.uint32(32 - count), out=acc)
    acc |= scratch
    acc *= np.uint32(prime)


def _xorshift(acc: np.ndarray, count: int, scratch: np.ndarray) -> None:
    """``acc ^= acc >> count`` in place, through ``scratch``."""
    np.right_shift(acc, np.uint32(count), out=scratch)
    acc ^= scratch


def xxhash32_lanes(
    seed_terms: np.ndarray,
    lane_lo: np.ndarray,
    lane_hi: Optional[np.ndarray],
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """XXH32 of 8-byte inputs from precomputed terms, written into ``out``.

    ``seed_terms`` (:func:`xxhash32_seed_terms`) broadcasts against the
    lane terms (:func:`xxhash32_lane_terms`) to ``out``'s shape; pass
    ``seed_terms[:, None]`` against 1-D lanes for an outer product.
    ``out`` and ``scratch`` are uint32 arrays of that shape: ``out`` is
    overwritten with the hashes and returned, ``scratch`` is clobbered,
    and nothing is allocated.  This is the module's one copy of the lane
    arithmetic.
    """
    np.add(seed_terms, lane_lo, out=out)
    _rotl32_mul(out, 17, _PRIME4, scratch)
    if lane_hi is not None:
        out += lane_hi
    _rotl32_mul(out, 17, _PRIME4, scratch)
    # Avalanche.
    _xorshift(out, 15, scratch)
    out *= np.uint32(_PRIME2)
    _xorshift(out, 13, scratch)
    out *= np.uint32(_PRIME3)
    _xorshift(out, 16, scratch)
    return out


def xxhash32_int_array(values: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Vectorized :func:`xxhash32_int`: hash 8-byte encodings of ``values``.

    ``values`` and ``seeds`` are integer arrays (or scalars) that broadcast
    against each other — pass ``seeds[:, None]`` against a 1-D ``values``
    to evaluate the full outer product.  Values must lie in ``[0, 2^64)``
    (the 8-byte encoding's range); seeds wrap modulo ``2^32`` exactly like
    the scalar path.  Returns the uint32 hashes with the broadcast shape,
    bit-for-bit identical to the scalar reference.

    It runs :func:`xxhash32_lanes` into one fresh output array and one
    scratch array of the broadcast shape.
    """
    lane_lo, lane_hi = xxhash32_lane_terms(values)
    seed_terms = xxhash32_seed_terms(seeds)
    shape = np.broadcast_shapes(seed_terms.shape, lane_lo.shape)
    out = np.empty(shape, dtype=np.uint32)
    return xxhash32_lanes(seed_terms, lane_lo, lane_hi, out, np.empty_like(out))
