"""Encrypted oblivious shuffle over DGK: correctness across r and key widths."""

import numpy as np
import pytest

from repro.costs import CostTracker
from repro.crypto.secret_sharing import share_vector
from repro.shuffle import (
    encrypted_oblivious_shuffle,
    server_reconstruct,
    shuffle_rounds,
)
from repro.shuffle.eos import ahe_covers, plaintext_bits

M = 2**32


def _run_eos(pub, decrypt, r, n, rng, tracker=None):
    values = rng.integers(0, M, n, dtype=np.int64)
    shares = share_vector(values, r, M, rng)
    encrypted = [pub.encrypt(int(s), 1000 + i) for i, s in enumerate(shares[r - 1])]
    plain = list(shares[:r - 1]) + [np.zeros(n, dtype=np.int64)]
    state = encrypted_oblivious_shuffle(
        plain, encrypted, holder=r - 1, modulus=M, ahe=pub, rng=rng,
        crypto_rng=7, tracker=tracker,
    )
    reconstructed = np.asarray(
        server_reconstruct(state, M, decrypt, tracker=tracker,
                           ciphertext_bytes=pub.ciphertext_bytes)
    )
    return values, reconstructed, state


class TestWideDGKBackend:
    """A 2^64 plaintext space over M = 2^32: sums wrap at a multiple of M."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_multiset_preserved(self, rng, wide_dgk_keys, r):
        pub, priv = wide_dgk_keys
        values, rec, __ = _run_eos(pub, priv.decrypt, r, 25, rng)
        assert sorted(rec.tolist()) == sorted(values.tolist())

    def test_net_permutation_consistent(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        values, rec, state = _run_eos(pub, priv.decrypt, 3, 30, rng)
        assert (values[state.transcript.net_permutation] == rec).all()

    def test_holder_moves(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        holders = set()
        for seed in range(5):
            local_rng = np.random.default_rng(seed)
            __, __, state = _run_eos(pub, priv.decrypt, 3, 8, local_rng)
            holders.add(state.holder)
        assert len(holders) > 1  # the ciphertext share travels

    def test_ciphertexts_rerandomized(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        values = np.zeros(5, dtype=np.int64)
        shares = share_vector(values, 3, M, rng)
        encrypted = [pub.encrypt(int(s), 50 + i) for i, s in enumerate(shares[2])]
        original = list(encrypted)
        plain = [shares[0], shares[1], np.zeros(5, dtype=np.int64)]
        state = encrypted_oblivious_shuffle(
            plain, encrypted, 2, M, pub, rng, crypto_rng=3
        )
        assert set(state.encrypted).isdisjoint(set(original))


class TestNoRerandomization:
    """The paper's cost model: corrections only, no fresh blinding."""

    def test_multiset_still_preserved(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        values = rng.integers(0, M, 20, dtype=np.int64)
        shares = share_vector(values, 3, M, rng)
        encrypted = [pub.encrypt(int(s), 9 + i) for i, s in enumerate(shares[2])]
        plain = [shares[0], shares[1], np.zeros(20, dtype=np.int64)]
        state = encrypted_oblivious_shuffle(
            plain, encrypted, 2, M, pub, rng, crypto_rng=3, rerandomize=False,
        )
        rec = np.asarray(server_reconstruct(state, M, priv.decrypt))
        assert sorted(rec.tolist()) == sorted(values.tolist())

    def test_corrections_still_unlink(self, rng, wide_dgk_keys):
        """Even without blinding, the secret correction changes every
        ciphertext at each hop."""
        pub, priv = wide_dgk_keys
        values = np.zeros(6, dtype=np.int64)
        shares = share_vector(values, 3, M, rng)
        encrypted = [pub.encrypt(int(s), 40 + i) for i, s in enumerate(shares[2])]
        original = list(encrypted)
        plain = [shares[0], shares[1], np.zeros(6, dtype=np.int64)]
        state = encrypted_oblivious_shuffle(
            plain, encrypted, 2, M, pub, rng, crypto_rng=3, rerandomize=False,
        )
        assert set(state.encrypted).isdisjoint(set(original))


class _CountingKey:
    """Forwards to a real AHE key, counting plaintext additions and
    re-randomizations."""

    def __init__(self, key):
        self._key = key
        self.add_plain_calls = 0
        self.rerandomize_calls = 0

    def __getattr__(self, name):
        return getattr(self._key, name)

    def add_plain(self, ciphertext, plain):
        self.add_plain_calls += 1
        return self._key.add_plain(ciphertext, plain)

    def rerandomize(self, ciphertext, rng=None):
        self.rerandomize_calls += 1
        return self._key.rerandomize(ciphertext, rng)


class TestOneBlindingPerHop:
    """Each round the holder adds plaintext at every split and once at
    the hide step; only the splits, which send the ciphertexts on,
    re-randomize them."""

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_one_rerandomization_per_hop(self, rng, dgk_keys, r):
        pub, priv = dgk_keys
        key = _CountingKey(pub)
        n = 6
        values, rec, __ = _run_eos(key, priv.decrypt, r, n, rng)
        assert sorted(rec.tolist()) == sorted(values.tolist())
        assert key.rerandomize_calls == (
            key.add_plain_calls - n * len(shuffle_rounds(r))
        )

    def test_cost_model_never_rerandomizes(self, rng, dgk_keys):
        pub, priv = dgk_keys
        key = _CountingKey(pub)
        values = rng.integers(0, M, 6, dtype=np.int64)
        shares = share_vector(values, 3, M, rng)
        encrypted = [pub.encrypt(int(s), 9 + i) for i, s in enumerate(shares[2])]
        plain = [shares[0], shares[1], np.zeros(6, dtype=np.int64)]
        state = encrypted_oblivious_shuffle(
            plain, encrypted, 2, M, key, rng, crypto_rng=3, rerandomize=False,
        )
        rec = np.asarray(server_reconstruct(state, M, priv.decrypt))
        assert sorted(rec.tolist()) == sorted(values.tolist())
        assert key.add_plain_calls > 0
        assert key.rerandomize_calls == 0


class TestPlaintextCoverage:
    @pytest.mark.parametrize("modulus", [2, 8, 16, 2**32])
    def test_power_of_two_wraps_natively(self, modulus):
        l = plaintext_bits(modulus, 3)
        assert 1 << l == modulus
        assert ahe_covers(1 << l, modulus, 3)
        assert not ahe_covers(1 << (l - 1), modulus, 3)

    @pytest.mark.parametrize("modulus", [3, 10, 12, 5 * 2**32])
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_other_moduli_take_the_smallest_headroom(self, modulus, r):
        l = plaintext_bits(modulus, r)
        assert (1 << l) % modulus != 0
        assert ahe_covers(1 << l, modulus, r)
        assert not ahe_covers(1 << (l - 1), modulus, r)


class TestDGKBackend:
    def test_multiset_preserved(self, rng, dgk_keys):
        pub, priv = dgk_keys
        values, rec, __ = _run_eos(pub, priv.decrypt, 3, 20, rng)
        assert sorted(rec.tolist()) == sorted(values.tolist())

    def test_plaintext_space_matches_modulus(self, dgk_keys):
        pub, __ = dgk_keys
        assert pub.plaintext_space == M  # l=32 keypair: wraps natively


class TestValidation:
    def test_rejects_bad_holder(self, rng, wide_dgk_keys):
        pub, __ = wide_dgk_keys
        with pytest.raises(ValueError):
            encrypted_oblivious_shuffle(
                [np.zeros(3, dtype=np.int64)] * 2, [1, 2, 3], holder=5,
                modulus=M, ahe=pub, rng=rng,
            )

    def test_rejects_length_mismatch(self, rng, wide_dgk_keys):
        pub, __ = wide_dgk_keys
        with pytest.raises(ValueError):
            encrypted_oblivious_shuffle(
                [np.zeros(3, dtype=np.int64), np.zeros(4, dtype=np.int64)],
                [1, 2, 3], holder=0, modulus=M, ahe=pub, rng=rng,
            )


class TestCostAccounting:
    def test_holder_pays_ciphertext_bandwidth(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        tracker = CostTracker()
        _run_eos(pub, priv.decrypt, 3, 10, rng, tracker=tracker)
        group = tracker.group_cost("shuffler")
        assert group.bytes_sent > 10 * pub.ciphertext_bytes  # ciphertext hops

    def test_server_receives_everything(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        tracker = CostTracker()
        _run_eos(pub, priv.decrypt, 3, 10, rng, tracker=tracker)
        assert tracker.cost("server").bytes_received > 0
