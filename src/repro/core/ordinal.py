"""The ordinal report codec: one dtype discipline for the whole stack.

PEOS operates on the *ordinal* report group ``Z_M`` (Section VI-A2): every
shuffleable mechanism serializes its reports to integers in ``[0, M)``
before secret sharing, fake injection, and shuffling.  Three layers used to
reimplement the same int64-vs-object decision independently — the
frequency oracles (``encode_reports``/``decode_reports``), the PEOS
protocol (concatenating and padding share vectors), and the streaming
service buffers.  :class:`OrdinalCodec` centralizes it:

* ``M < 2**62`` — everything stays in vectorized int64 numpy arrays.
  This is the common case (GRR reports; local hashing with the 32-bit
  xxHash seed family, group ``2^32 * d'``) and the hot path: packing or
  unpacking ``(seed, value)`` pairs for 10^5 reports is a handful of
  numpy ufunc calls instead of a Python loop per report.
* larger ``M`` — a single object-dtype fallback of exact Python ints,
  needed only for the 64-bit-seed Carter-Wegman family whose group
  ``2^64 * d'`` overflows 64-bit arithmetic.

The ``2**62`` margin (rather than ``2**63``) leaves headroom so that one
modular addition of two reduced residues can never overflow a signed
int64 — the invariant the secret-sharing layer relies on.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

#: groups below this bound use the int64 fast path; see module docstring
#: for why the margin is 2**62 and not 2**63.
INT64_SAFE_SPACE = 1 << 62

ArrayLike = Union[Sequence[int], np.ndarray]


class OrdinalCodec:
    """Vectorized encoding into the ordinal report group ``Z_M``.

    One instance per report space; every array-producing method returns
    the codec's dtype (int64 fast path or object fallback), so arrays
    from different call sites concatenate and share without copies or
    per-element coercion.
    """

    __slots__ = ("space", "fast")

    def __init__(self, space: int):
        space = int(space)
        if space < 1:
            raise ValueError(f"report space must be >= 1, got {space}")
        self.space = space
        self.fast = space < INT64_SAFE_SPACE

    def __repr__(self) -> str:
        path = "int64" if self.fast else "object"
        return f"OrdinalCodec(space={self.space}, path={path})"

    def __eq__(self, other) -> bool:
        return isinstance(other, OrdinalCodec) and other.space == self.space

    def __hash__(self) -> int:
        return hash((OrdinalCodec, self.space))

    @property
    def dtype(self):
        """The numpy dtype of every array this codec produces."""
        return np.dtype(np.int64) if self.fast else np.dtype(object)

    # -- array construction ------------------------------------------------

    def asarray(self, values: ArrayLike) -> np.ndarray:
        """Coerce encoded reports to the codec dtype (no range check)."""
        if self.fast:
            return np.asarray(values, dtype=np.int64)
        values = np.asarray(values)
        out = np.empty(len(values), dtype=object)
        out[:] = [int(v) for v in values]
        return out

    def zeros(self, n: int) -> np.ndarray:
        """An all-zero encoded array of length ``n``."""
        if self.fast:
            return np.zeros(n, dtype=np.int64)
        out = np.empty(n, dtype=object)
        out[:] = 0
        return out

    def concat(self, a: ArrayLike, b: ArrayLike) -> np.ndarray:
        """Concatenate two encoded arrays in the codec dtype."""
        if self.fast:
            return np.concatenate(
                [np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)]
            )
        out = np.empty(len(a) + len(b), dtype=object)
        out[: len(a)] = [int(x) for x in a]
        out[len(a):] = [int(x) for x in b]
        return out

    def pad_check(self, vec: ArrayLike, total: int) -> np.ndarray:
        """Coerce a share vector, asserting it already has ``total`` entries."""
        if len(vec) != total:
            raise ValueError(f"share vector length {len(vec)} != {total}")
        return self.asarray(vec)

    def uniform(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform draws from ``Z_M`` in the codec dtype."""
        return uniform_ordinal(self.space, size, rng)

    # -- validation --------------------------------------------------------

    def validate(self, encoded: ArrayLike, what: str = "encoded report") -> np.ndarray:
        """Coerce and range-check encoded reports against ``[0, M)``."""
        encoded = self.asarray(encoded)
        if len(encoded):
            low = encoded.min() if self.fast else min(int(v) for v in encoded)
            high = encoded.max() if self.fast else max(int(v) for v in encoded)
            if int(low) < 0 or int(high) >= self.space:
                raise ValueError(f"{what} outside [0, {self.space})")
        return encoded

    # -- pair packing (local-hashing reports) ------------------------------

    def pack_pairs(self, hi: ArrayLike, lo: ArrayLike, base: int) -> np.ndarray:
        """Pack ``(hi, lo)`` report pairs as ``hi * base + lo``.

        The local-hashing layout: ``hi`` is the hash seed, ``lo`` the
        perturbed hashed value in ``[0, base)``, and the codec's space is
        ``seed_space * base``.  Vectorized on the int64 fast path.
        """
        base = int(base)
        if self.fast:
            hi = np.asarray(hi).astype(np.int64)
            lo = np.asarray(lo, dtype=np.int64)
            return hi * base + lo
        out = np.empty(len(hi), dtype=object)
        out[:] = [int(h) * base + int(v) for h, v in zip(hi, lo)]
        return out

    def unpack_pairs(self, encoded: ArrayLike, base: int) -> tuple[np.ndarray, np.ndarray]:
        """Invert :meth:`pack_pairs`: return ``(hi, lo)`` int64 arrays.

        ``hi`` values must fit in uint64 (true for every seed family); on
        the object path exact Python division keeps them exact before the
        final cast.
        """
        base = int(base)
        if self.fast:
            encoded = np.asarray(encoded, dtype=np.int64)
            hi, lo = np.divmod(encoded, base)
            return hi.astype(np.uint64), lo
        hi = np.array([int(e) // base for e in encoded], dtype=np.uint64)
        lo = np.array([int(e) % base for e in encoded], dtype=np.int64)
        return hi, lo


def uniform_ordinal(m: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from ``Z_M`` as int64 (small ``M``) or object array.

    For huge ``M`` the draw oversamples by 64 bits and reduces modulo
    ``M`` (rejection-free; statistical distance below ``2^-64``), which is
    standard practice for uniform sampling in large groups.
    """
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    if m < INT64_SAFE_SPACE:
        return rng.integers(0, m, size=size, dtype=np.int64)
    extra_words = (m.bit_length() + 64 + 63) // 64
    words = rng.integers(0, 1 << 64, size=(size, extra_words), dtype=np.uint64)
    out = np.empty(size, dtype=object)
    for i in range(size):
        acc = 0
        for w in words[i]:
            acc = (acc << 64) | int(w)
        out[i] = acc % m
    return out
