"""Additive secret sharing over an arbitrary finite group ``Z_M``.

Section II-C: a secret ``v in Z_M`` splits into ``r`` shares, ``r - 1`` of
them uniform, the last chosen so the shares sum to ``v`` modulo ``M``.  Any
``r - 1`` shares are jointly uniform, so nothing short of all ``r`` parties
reveals the secret.

PEOS shares *vectors* of encoded reports, so vectorized paths matter:

* ``M < 2^62`` — shares live in int64 numpy arrays (the common case: GRR
  reports, or SOLH with the 32-bit-seed family, report group
  ``2^32 * d'``);
* larger ``M`` — object-dtype arrays of Python ints (exact, slower), needed
  for the 64-bit-seed Carter-Wegman family.

Uniform randomness for huge ``M`` uses rejection-free modular reduction of
oversampled bits (bias ``< 2^-64``), which is standard practice.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.ordinal import INT64_SAFE_SPACE as _INT64_SAFE
from ..core.ordinal import uniform_ordinal


def uniform_array(m: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from ``Z_M`` as int64 (small M) or object array.

    Alias of :func:`repro.core.ordinal.uniform_ordinal`, the codec-layer
    canonical implementation — both layers must agree on the dtype
    discipline and the oversample-and-reduce scheme for huge ``M``.
    """
    return uniform_ordinal(m, size, rng)


def share_vector(
    values: np.ndarray, r: int, modulus: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Split a vector of secrets into ``r`` additive share vectors.

    Returns a list of ``r`` arrays; elementwise sums modulo ``modulus``
    reconstruct ``values``.
    """
    if r < 2:
        raise ValueError(f"need at least 2 shares, got r={r}")
    values = np.asarray(values)
    size = len(values)
    shares = [uniform_array(modulus, size, rng) for _ in range(r - 1)]
    if modulus < _INT64_SAFE:
        total = np.zeros(size, dtype=np.int64)
        for share in shares:
            total = (total + share) % modulus
        if values.dtype == object:
            # Object inputs may hold ints past int64 (e.g. unreduced group
            # elements); reduce exactly before the cast.
            values64 = np.array(
                [int(v) % modulus for v in values], dtype=np.int64
            )
        elif values.dtype == np.uint64:
            # A plain int64 cast would wrap values above 2^63; reduce in
            # uint64 first (every residue then fits: modulus < 2^62).
            values64 = (values % np.uint64(modulus)).astype(np.int64)
        else:
            values64 = np.asarray(values, dtype=np.int64) % modulus
        last = (values64 - total) % modulus
    else:
        last = np.empty(size, dtype=object)
        for i in range(size):
            total = sum(int(share[i]) for share in shares) % modulus
            last[i] = (int(values[i]) - total) % modulus
    shares.append(last)
    return shares


def reconstruct_vector(
    shares: Sequence[np.ndarray], modulus: int
) -> np.ndarray:
    """Sum share vectors modulo ``modulus`` to recover the secrets."""
    if len(shares) < 2:
        raise ValueError(f"need at least 2 share vectors, got {len(shares)}")
    size = len(shares[0])
    for share in shares:
        if len(share) != size:
            raise ValueError("share vectors have inconsistent lengths")
    if modulus < _INT64_SAFE:
        total = np.zeros(size, dtype=np.int64)
        for share in shares:
            total = (total + np.asarray(share, dtype=np.int64)) % modulus
        return total
    out = np.empty(size, dtype=object)
    for i in range(size):
        out[i] = sum(int(share[i]) for share in shares) % modulus
    return out


def share_value(
    value: int, r: int, modulus: int, rng: np.random.Generator
) -> list[int]:
    """Scalar convenience wrapper around :func:`share_vector`."""
    shares = share_vector(np.array([value], dtype=object), r, modulus, rng)
    return [int(share[0]) for share in shares]


def reconstruct_value(shares: Sequence[int], modulus: int) -> int:
    """Scalar convenience wrapper around :func:`reconstruct_vector`."""
    return sum(int(s) for s in shares) % modulus


def add_share_vectors(
    a: np.ndarray, b: np.ndarray, modulus: int
) -> np.ndarray:
    """Elementwise share addition (resharing step of the oblivious shuffle)."""
    if len(a) != len(b):
        raise ValueError("share vectors have inconsistent lengths")
    if modulus < _INT64_SAFE:
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % modulus
    out = np.empty(len(a), dtype=object)
    for i in range(len(a)):
        out[i] = (int(a[i]) + int(b[i])) % modulus
    return out
