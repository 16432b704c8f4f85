"""DGK-style AHE: Z_{2^l} plaintext wraparound and Pohlig-Hellman decryption."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import dgk


@pytest.fixture(scope="module")
def keys16():
    return dgk.generate_keypair(l=16, key_bits=512, subgroup_bits=80, rng=41)


@pytest.fixture(scope="module")
def keys3():
    """The key shape the PEOS backend builds for GRR d = 8 (l = 3, t = 160)."""
    return dgk.generate_keypair(l=3, key_bits=512, rng=43)


class TestRoundtrip:
    @pytest.mark.parametrize("message", [0, 1, 2, 255, 4095, 65535])
    def test_encrypt_decrypt(self, keys16, message):
        pub, priv = keys16
        assert priv.decrypt(pub.encrypt(message, rng=1)) == message

    def test_all_bit_patterns(self, keys16):
        pub, priv = keys16
        for message in (0b1010101010101010, 0b0101010101010101, 0x8000, 0x0001):
            assert priv.decrypt(pub.encrypt(message, rng=3)) == message

    def test_ciphertexts_randomized(self, keys16):
        pub, __ = keys16
        assert pub.encrypt(42, rng=1) != pub.encrypt(42, rng=2)

    def test_message_reduced_mod_2l(self, keys16):
        pub, priv = keys16
        assert priv.decrypt(pub.encrypt(65536 + 7, rng=1)) == 7


class TestHomomorphism:
    def test_add(self, keys16):
        pub, priv = keys16
        c = pub.add(pub.encrypt(1000, rng=1), pub.encrypt(234, rng=2))
        assert priv.decrypt(c) == 1234

    def test_add_wraps_mod_2l(self, keys16):
        """The Section VI-A3 requirement: sums wrap inside the plaintext
        space so shares reconstruct correctly."""
        pub, priv = keys16
        c = pub.add(pub.encrypt(60_000, rng=1), pub.encrypt(10_000, rng=2))
        assert priv.decrypt(c) == (60_000 + 10_000) % 65536

    def test_add_plain(self, keys16):
        pub, priv = keys16
        c = pub.add_plain(pub.encrypt(100, rng=1), 65535)
        assert priv.decrypt(c) == (100 + 65535) % 65536

    def test_multiply_plain(self, keys16):
        pub, priv = keys16
        c = pub.multiply_plain(pub.encrypt(300, rng=1), 7)
        assert priv.decrypt(c) == 2100

    def test_rerandomize(self, keys16):
        pub, priv = keys16
        c = pub.encrypt(777, rng=1)
        c2 = pub.rerandomize(c, rng=2)
        assert c2 != c
        assert priv.decrypt(c2) == 777

    def test_share_reconstruction_chain(self, keys16):
        # r shares of a secret summed homomorphically reconstruct mod 2^16.
        pub, priv = keys16
        secret, modulus = 54321, 65536
        shares = [11111, 60000, (secret - 11111 - 60000) % modulus]
        total = pub.encrypt(0, rng=1)
        for i, share in enumerate(shares):
            total = pub.add(total, pub.encrypt(share, rng=i + 2))
        assert priv.decrypt(total) == secret


class TestParameters:
    def test_plaintext_space(self, keys16):
        pub, __ = keys16
        assert pub.plaintext_space == 1 << 16

    def test_modulus_structure(self, keys16):
        pub, priv = keys16
        assert pub.n % priv.p == 0
        assert (priv.p - 1) % ((1 << 16) * priv.v_p) == 0

    def test_g_hat_has_order_2l(self, keys16):
        __, priv = keys16
        order = 1 << 16
        assert pow(priv.g_hat, order, priv.p) == 1
        assert pow(priv.g_hat, order // 2, priv.p) != 1

    def test_l32_keypair(self, dgk_keys):
        pub, priv = dgk_keys
        assert pub.plaintext_space == 1 << 32
        assert priv.decrypt(pub.encrypt(2**31 + 9, rng=1)) == 2**31 + 9

    def test_rejects_bad_l(self):
        with pytest.raises(ValueError):
            dgk.generate_keypair(l=0, key_bits=512, subgroup_bits=80, rng=1)

    def test_deterministic_keygen(self):
        """A fixed seed gives a fixed key (the PEOS backend's ``crypto_rng``
        and peos-secure's set-up rely on it)."""
        a = dgk.generate_keypair(l=3, key_bits=512, rng=7)
        b = dgk.generate_keypair(l=3, key_bits=512, rng=7)
        assert (a[0].n, a[0].g, a[0].h) == (b[0].n, b[0].g, b[0].h)
        assert (a[1].p, a[1].v_p) == (b[1].p, b[1].v_p)

    def test_ciphertext_bytes(self, keys16):
        """Table III's unit: a ciphertext is |N| bytes."""
        pub, __ = keys16
        assert pub.ciphertext_bytes == (pub.n.bit_length() + 7) // 8

    @pytest.mark.parametrize("l, key_bits", [(3, 358), (3, 512), (64, 640)])
    def test_modulus_size(self, l, key_bits):
        """Each prime has exactly ``key_bits / 2`` bits, so N has
        ``key_bits - 1`` or ``key_bits``."""
        for seed in range(5):
            pub, priv = dgk.generate_keypair(l=l, key_bits=key_bits, rng=seed)
            assert priv.p.bit_length() == key_bits // 2
            assert pub.n.bit_length() in (key_bits - 1, key_bits)


class TestFixedBaseTables:
    """The window tables are exact: they only precompute ``pow``."""

    @pytest.mark.parametrize("bits", [1, 3, 32, 400])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_power_equals_pow(self, keys3, bits, data):
        pub, __ = keys3
        table = dgk.FixedBaseTable(pub.h, pub.n, bits)
        exponent = data.draw(
            st.one_of(
                st.sampled_from([0, 1, (1 << bits) - 1, 1 << bits]),
                st.integers(0, (1 << bits) - 1),
                st.integers(1 << bits, 1 << (2 * bits + 8)),
            )
        )
        assert table.pow(exponent) == pow(pub.h, exponent, pub.n)

    @given(message=st.integers(0, 1 << 40), seed=st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_operations_equal_pow_formulas(self, keys3, dgk_keys, message, seed):
        """For PEOS's l = 3 key and an l = 32 key, under one Random seed."""
        for pub, priv in (keys3, dgk_keys):
            n = pub.n
            blind = random.Random(seed).getrandbits(pub.blind_bits)
            m = message % pub.plaintext_space
            ciphertext = pub.encrypt(message, random.Random(seed))
            assert ciphertext == pow(pub.g, m, n) * pow(pub.h, blind, n) % n
            assert pub.rerandomize(ciphertext, random.Random(seed)) == (
                ciphertext * pow(pub.h, blind, n) % n
            )
            summed = pub.add_plain(ciphertext, message)
            assert summed == ciphertext * pow(pub.g, m, n) % n
            assert priv.decrypt(summed) == 2 * m % pub.plaintext_space


class _NoDraws(random.Random):
    """A generator that fails the test if key generation draws from it."""

    def getrandbits(self, k):
        raise AssertionError("key generation started a prime search")

    def random(self):
        raise AssertionError("key generation started a prime search")


class TestMinKeyBits:
    def test_too_small_key_refused_before_any_search(self):
        """l = 3 with t = 160 needs 358 bits; 330 used to search up to
        100,000 candidates per prime before a RuntimeError."""
        assert dgk.min_key_bits(3) == 358
        with pytest.raises(ValueError, match="key_bits >= 358, got 330"):
            dgk.generate_keypair(l=3, key_bits=330, rng=_NoDraws())

    def test_keys_generate_at_the_minimum(self):
        """With the bare fit (two cofactor bits) none of these seeds
        generates a key."""
        bits = dgk.min_key_bits(3, subgroup_bits=40)
        for seed in range(10):
            pub, priv = dgk.generate_keypair(
                l=3, key_bits=bits, subgroup_bits=40, rng=seed
            )
            assert priv.decrypt(pub.encrypt(5, rng=seed)) == 5
