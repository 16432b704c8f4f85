"""DGK-style additively homomorphic encryption with plaintext space ``Z_{2^l}``.

Section VI-A3 requires an AHE whose plaintext space is exactly ``Z_{2^l}``
so that secret shares wrap modulo ``2^l`` *inside* the homomorphism and
decrypted fake reports are indistinguishable from genuine ones.  The paper
instantiates this with the full-decryption variant of DGK [24] using the
Pohlig-Hellman algorithm [49]; this module implements that construction:

* ``N = p q`` with ``2^l v_p | p - 1`` and ``2^l v_q | q - 1`` for secret
  primes ``v_p, v_q``;
* generator ``g`` of order ``2^l v_p v_q`` and blinder ``h`` of order
  ``v_p v_q`` modulo ``N``;
* ``Enc(m; r) = g^m h^r mod N``, with both powers read from fixed-base
  window tables built once per key (:class:`FixedBaseTable`);
* decryption raises to the ``v_p``-th power mod ``p`` (annihilating the
  blinder) and solves the discrete log in the order-``2^l`` subgroup with
  Pohlig-Hellman, one plaintext bit per iteration.

Addition of ciphertexts adds plaintexts modulo ``2^l`` — exactly the share
group.  Key sizes are configurable; tests use small parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .math_utils import (
    RandomLike,
    as_random,
    crt_pair,
    invmod,
    random_prime,
    random_prime_with_factor,
)


#: Window width, in bits, of every fixed-base table.  Wider windows
#: trade a table that grows as ``2^w / w`` for fewer multiplications per
#: power (``bits / w``); DESIGN.md ("PEOS's AHE") records the sweep.
WINDOW_BITS = 6


class FixedBaseTable:
    """Exact powers ``base^e mod n`` of one fixed base, for ``0 <= e < 2^bits``.

    Row ``i`` holds ``base^(j * 2^(w i))`` for ``j < 2^w`` (``w`` =
    :data:`WINDOW_BITS`), so a power is one modular multiplication per
    nonzero ``w``-bit window of the exponent and no squarings.  An
    exponent wider than the table falls back to :func:`pow`.  The table
    only precomputes public powers, so it adds no hardness assumption.
    """

    __slots__ = ("base", "n", "bits", "rows")

    def __init__(self, base: int, n: int, bits: int):
        self.base = base
        self.n = n
        self.bits = bits
        rows = []
        step = base % n  # base^(2^(w i)) for the row being built
        for __ in range(-(-bits // WINDOW_BITS)):
            row = [1]
            for __ in range((1 << WINDOW_BITS) - 1):
                row.append(row[-1] * step % n)
            rows.append(row)
            step = row[-1] * step % n
        self.rows = rows

    def pow(self, exponent: int) -> int:
        """``base^exponent mod n``."""
        if exponent >> self.bits:
            return pow(self.base, exponent, self.n)
        n = self.n
        mask = (1 << WINDOW_BITS) - 1
        result = 1
        for row in self.rows:
            if not exponent:
                break
            digit = exponent & mask
            if digit:
                result = result * row[digit] % n
            exponent >>= WINDOW_BITS
        return result


@dataclass(frozen=True)
class DGKPublicKey:
    """Public key ``(N, g, h, l)``; plaintext space is ``Z_{2^l}``.

    Construction builds the fixed-base tables for ``g`` (``l``-bit
    exponents) and ``h`` (``blind_bits``-bit exponents), so their cost
    falls on key set-up and not on the first encryption.
    """

    n: int
    g: int
    h: int
    l: int
    #: bit-length of blinding exponents (2.5x the subgroup size in DGK)
    blind_bits: int = 400
    _g_powers: FixedBaseTable = field(init=False, repr=False, compare=False)
    _h_powers: FixedBaseTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_g_powers", FixedBaseTable(self.g, self.n, self.l)
        )
        object.__setattr__(
            self, "_h_powers", FixedBaseTable(self.h, self.n, self.blind_bits)
        )

    @property
    def plaintext_space(self) -> int:
        return 1 << self.l

    def encrypt(self, message: int, rng: RandomLike = None) -> int:
        """``Enc(m; r) = g^m h^r mod N`` with a fresh blinding exponent."""
        message %= self.plaintext_space
        r = as_random(rng).getrandbits(self.blind_bits)
        return self._g_powers.pow(message) * self._h_powers.pow(r) % self.n

    def add(self, ciphertext_a: int, ciphertext_b: int) -> int:
        """Homomorphic addition modulo ``2^l``."""
        return ciphertext_a * ciphertext_b % self.n

    def add_plain(self, ciphertext: int, plain: int) -> int:
        """Add a plaintext constant."""
        return ciphertext * self._g_powers.pow(plain % self.plaintext_space) % self.n

    def multiply_plain(self, ciphertext: int, scalar: int) -> int:
        """Multiply the plaintext by a constant."""
        return pow(ciphertext, scalar % self.plaintext_space, self.n)

    def rerandomize(self, ciphertext: int, rng: RandomLike = None) -> int:
        """Refresh the blinding without changing the plaintext."""
        r = as_random(rng).getrandbits(self.blind_bits)
        return ciphertext * self._h_powers.pow(r) % self.n

    @property
    def ciphertext_bytes(self) -> int:
        """Serialized ciphertext size (the Table III communication unit)."""
        return (self.n.bit_length() + 7) // 8


@dataclass(frozen=True)
class DGKPrivateKey:
    """Private key: the prime ``p``, subgroup prime ``v_p``, and the
    precomputed Pohlig-Hellman tables for the order-``2^l`` subgroup."""

    public_key: DGKPublicKey
    p: int
    v_p: int
    #: g^{v_p} mod p — generator of the order-2^l subgroup
    g_hat: int
    #: inverse of g_hat mod p
    g_hat_inv: int

    def decrypt(self, ciphertext: int) -> int:
        """Full decryption via Pohlig-Hellman in the order-``2^l`` subgroup.

        ``c^{v_p} mod p = g_hat^m`` (the blinder ``h`` dies because its
        order mod ``p`` divides ``v_p``); the discrete log of a ``2^l``-order
        element is recovered bit by bit in ``l`` iterations.
        """
        l = self.public_key.l
        beta = pow(ciphertext % self.p, self.v_p, self.p)
        message = 0
        # Classic Pohlig-Hellman for the prime power 2^l: at step k, the
        # residual beta has order dividing 2^{l-k}; its 2^{l-1-k} power is
        # +-1 and reveals bit k.
        inv_power = self.g_hat_inv
        for k in range(l):
            t = pow(beta, 1 << (l - 1 - k), self.p)
            if t != 1:
                message |= 1 << k
                beta = beta * inv_power % self.p
            inv_power = inv_power * inv_power % self.p
        return message


def _element_of_order(
    p: int, order: int, prime_factors: list[int], rng: RandomLike
) -> int:
    """Random element of exact multiplicative order ``order`` modulo prime ``p``.

    ``order`` must divide ``p - 1`` and ``prime_factors`` must list its
    distinct prime divisors (known by construction at key generation: the
    orders are ``2^l * v`` or ``v`` with ``v`` prime).  Samples
    ``x^{(p-1)/order}`` until the result has full order.
    """
    rand = as_random(rng)
    cofactor = (p - 1) // order
    while True:
        x = rand.randrange(2, p - 1)
        candidate = pow(x, cofactor, p)
        if candidate == 1:
            continue
        if all(pow(candidate, order // f, p) != 1 for f in prime_factors):
            return candidate


#: Fewest bits the random cofactor ``c`` of ``p = 2^l v_p c + 1`` gets.
#: :func:`random_prime_with_factor` draws ``c`` at random, and a short
#: cofactor leaves few candidates of the right length: with l = 3 and
#: t = 160, keys with 2, 6, 12 and 14 cofactor bits generated for 0 of 5,
#: 0 of 8, 7 of 8 and 60 of 60 seeds (each failure a RuntimeError
#: after up to seconds of search).
MIN_COFACTOR_BITS = 16


def min_key_bits(l: int, subgroup_bits: int = 160) -> int:
    """Smallest ``key_bits`` for which :func:`generate_keypair` reliably
    finds a key: each prime takes half the modulus, which must hold the
    ``l + t`` bits of ``2^l v_p`` and :data:`MIN_COFACTOR_BITS` more."""
    return 2 * (l + subgroup_bits + MIN_COFACTOR_BITS)


def generate_keypair(
    l: int = 32,
    key_bits: int = 1024,
    subgroup_bits: int = 160,
    rng: RandomLike = None,
) -> tuple[DGKPublicKey, DGKPrivateKey]:
    """Generate a DGK keypair with plaintext space ``Z_{2^l}``.

    Parameters
    ----------
    l:
        Plaintext bit-length (the paper uses 32 or 64).
    key_bits:
        Modulus size; the paper's deployment uses 3072, tests use less.
    subgroup_bits:
        Size of the secret primes ``v_p, v_q`` (DGK's ``t`` parameter).
    """
    if l < 1:
        raise ValueError(f"plaintext bits must be >= 1, got {l}")
    rand = as_random(rng)
    u = 1 << l
    half = key_bits // 2
    v_p = random_prime(subgroup_bits, rand)
    v_q = random_prime(subgroup_bits, rand)
    while v_q == v_p:
        v_q = random_prime(subgroup_bits, rand)
    p = random_prime_with_factor(half, u * v_p, rand)
    q = random_prime_with_factor(key_bits - half, u * v_q, rand)
    while p == q:
        q = random_prime_with_factor(key_bits - half, u * v_q, rand)
    n = p * q

    # g has order u * v_p mod p and u * v_q mod q (hence u * v_p * v_q mod N);
    # h has order v_p mod p and v_q mod q.
    g_p = _element_of_order(p, u * v_p, [2, v_p], rand)
    g_q = _element_of_order(q, u * v_q, [2, v_q], rand)
    h_p = _element_of_order(p, v_p, [v_p], rand)
    h_q = _element_of_order(q, v_q, [v_q], rand)
    g = crt_pair(g_p, p, g_q, q)
    h = crt_pair(h_p, p, h_q, q)

    public = DGKPublicKey(n=n, g=g, h=h, l=l, blind_bits=int(2.5 * subgroup_bits))
    g_hat = pow(g, v_p, p)
    private = DGKPrivateKey(
        public_key=public,
        p=p,
        v_p=v_p,
        g_hat=g_hat,
        g_hat_inv=invmod(g_hat, p),
    )
    return public, private
