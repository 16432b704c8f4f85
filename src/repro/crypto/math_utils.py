"""Number-theoretic utilities backing DGK and EC-ElGamal.

Everything here is pure Python over arbitrary-precision integers: modular
inverses, Miller-Rabin primality testing, random prime generation (with and
without congruence constraints, the latter needed by DGK key generation),
and a two-modulus CRT combiner.

Randomness is drawn from :class:`random.Random` instances so key generation
is reproducible in tests; production callers can pass
``random.SystemRandom()``.
"""

from __future__ import annotations

import random
from typing import Iterable, Union

RandomLike = Union[random.Random, int, None]

#: Deterministic Miller-Rabin witness set, sufficient for all n < 3.3 * 10^24.
_DETERMINISTIC_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Small primes used for fast trial-division screening.
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


def as_random(rng: RandomLike) -> random.Random:
    """Coerce ``None`` / an int seed / a Random instance into a Random.

    ``None`` means "no replay intended", which for key-generation code
    must be OS entropy — ``SystemRandom`` — not a silently time-seeded
    ``random.Random()`` (lint rule RPL002 pins this).
    """
    if rng is None:
        return random.SystemRandom()
    if isinstance(rng, int):
        return random.Random(rng)
    return rng


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns ``(g, x, y)`` with ``a x + b y = g``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def invmod(a: int, modulus: int) -> int:
    """Modular inverse of ``a`` modulo ``modulus``; raises if not coprime."""
    g, x, _ = egcd(a % modulus, modulus)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {modulus} (gcd={g})")
    return x % modulus


def is_probable_prime(n: int, rng: RandomLike = None, rounds: int = 40) -> bool:
    """Miller-Rabin primality test.

    Deterministic for ``n < 3.3e24`` via fixed witnesses; otherwise uses
    ``rounds`` random witnesses (error probability <= 4^-rounds).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    # Write n - 1 = 2^s * d with d odd.
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witness_composite(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < 3_317_044_064_679_887_385_961_981:
        witnesses: Iterable[int] = (w for w in _DETERMINISTIC_WITNESSES if w < n)
    else:
        rand = as_random(rng)
        witnesses = (rand.randrange(2, n - 1) for _ in range(rounds))
    return not any(witness_composite(a) for a in witnesses)


def random_prime(bits: int, rng: RandomLike = None) -> int:
    """Uniform-ish random prime with exactly ``bits`` bits."""
    if bits < 2:
        raise ValueError(f"need at least 2 bits, got {bits}")
    rand = as_random(rng)
    while True:
        candidate = rand.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rand):
            return candidate


def random_prime_with_factor(
    bits: int, factor: int, rng: RandomLike = None, max_tries: int = 100_000
) -> int:
    """Random ``bits``-bit prime ``p`` with ``factor | p - 1``.

    Needed by DGK key generation, where the plaintext subgroup order (a
    power of two times a prime) must divide ``p - 1``.  Samples cofactors
    until ``p = factor * cofactor + 1`` is prime.
    """
    if factor < 2:
        raise ValueError(f"factor must be >= 2, got {factor}")
    rand = as_random(rng)
    cofactor_bits = bits - factor.bit_length()
    if cofactor_bits < 2:
        raise ValueError(
            f"cannot fit factor of {factor.bit_length()} bits into a "
            f"{bits}-bit prime"
        )
    for _ in range(max_tries):
        cofactor = rand.getrandbits(cofactor_bits) | (1 << (cofactor_bits - 1))
        candidate = factor * cofactor + 1
        if candidate.bit_length() != bits:
            continue
        if is_probable_prime(candidate, rand):
            return candidate
    raise RuntimeError(
        f"no {bits}-bit prime with factor {factor} found in {max_tries} tries"
    )


def crt_pair(residue_p: int, p: int, residue_q: int, q: int) -> int:
    """Chinese-remainder combination for two coprime moduli."""
    q_inv = invmod(q, p)
    diff = (residue_p - residue_q) % p
    return (residue_q + q * ((diff * q_inv) % p)) % (p * q)
