"""Number-theory utilities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import math_utils as mu


class TestEgcdInvmod:
    def test_egcd_identity(self):
        g, x, y = mu.egcd(240, 46)
        assert g == math.gcd(240, 46)
        assert 240 * x + 46 * y == g

    def test_invmod_basic(self):
        assert mu.invmod(3, 7) == 5  # 3*5 = 15 = 1 mod 7

    def test_invmod_roundtrip(self):
        for a in (2, 5, 9, 100):
            inv = mu.invmod(a, 101)
            assert a * inv % 101 == 1

    def test_invmod_not_coprime(self):
        with pytest.raises(ValueError):
            mu.invmod(6, 9)

    @given(
        a=st.integers(min_value=1, max_value=10**9),
        m=st.integers(min_value=2, max_value=10**9),
    )
    @settings(max_examples=200, deadline=None)
    def test_invmod_property(self, a, m):
        if math.gcd(a, m) == 1:
            assert a * mu.invmod(a, m) % m == 1


class TestPrimality:
    KNOWN_PRIMES = [2, 3, 5, 17, 97, 7919, 104729, (1 << 31) - 1, (1 << 61) - 1]
    KNOWN_COMPOSITES = [1, 4, 100, 7917, 561, 41041, 825265]  # incl. Carmichael

    @pytest.mark.parametrize("p", KNOWN_PRIMES)
    def test_primes_accepted(self, p):
        assert mu.is_probable_prime(p)

    @pytest.mark.parametrize("c", KNOWN_COMPOSITES)
    def test_composites_rejected(self, c):
        assert not mu.is_probable_prime(c)

    def test_large_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert mu.is_probable_prime((1 << 127) - 1)

    def test_large_composite(self):
        assert not mu.is_probable_prime(((1 << 127) - 1) * 3)


class TestPrimeGeneration:
    def test_random_prime_bits(self):
        for bits in (16, 32, 64, 128):
            p = mu.random_prime(bits, rng=7)
            assert p.bit_length() == bits
            assert mu.is_probable_prime(p)

    def test_deterministic_given_seed(self):
        assert mu.random_prime(64, rng=3) == mu.random_prime(64, rng=3)

    def test_random_prime_with_factor(self):
        factor = (1 << 16) * 1009
        p = mu.random_prime_with_factor(96, factor, rng=5)
        assert p.bit_length() == 96
        assert (p - 1) % factor == 0
        assert mu.is_probable_prime(p)

    def test_factor_too_large(self):
        with pytest.raises(ValueError):
            mu.random_prime_with_factor(32, 1 << 31, rng=1)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            mu.random_prime(1)


class TestCRT:
    def test_basic(self):
        # x = 2 mod 3, x = 3 mod 5 -> x = 8 mod 15
        assert mu.crt_pair(2, 3, 3, 5) == 8

    @given(
        p=st.sampled_from([101, 103, 107]),
        q=st.sampled_from([109, 113, 127]),
        x=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, p, q, x):
        x %= p * q
        combined = mu.crt_pair(x % p, p, x % q, q)
        assert combined == x


class TestHelpers:
    def test_as_random_coercions(self):
        import random

        assert isinstance(mu.as_random(None), random.Random)
        assert isinstance(mu.as_random(5), random.Random)
        r = random.Random(1)
        assert mu.as_random(r) is r
