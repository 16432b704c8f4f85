"""End-to-end PEOS (Algorithm 1)."""

import numpy as np
import pytest

from repro.costs import CostTracker
from repro.frequency_oracles import GRR, SOLH, HadamardResponse
from repro.hashing import XXHash32Family
from repro.protocol import run_peos
from repro.protocol.attacks import constant_share_attack


@pytest.fixture
def grr_oracle():
    return GRR(8, 3.0)


class TestCorrectness:
    def test_report_count(self, rng, grr_oracle, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        values = rng.integers(0, 8, 60)
        result = run_peos(
            values, grr_oracle, r=3, n_fake=15, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1,
        )
        assert len(result.shuffled_reports) == 75
        assert result.n_users == 60 and result.n_fake == 15

    def test_grr_estimates_reasonable(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        fo = GRR(4, 6.0)  # low noise for a small-n statistical check
        values = np.array([0] * 200 + [1] * 100 + [2] * 60 + [3] * 40)
        rng.shuffle(values)
        result = run_peos(
            values, fo, r=3, n_fake=40, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1,
        )
        truth = np.array([0.5, 0.25, 0.15, 0.10])
        assert result.estimates == pytest.approx(truth, abs=0.12)

    def test_estimates_sum_to_one_grr(self, rng, grr_oracle, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        values = rng.integers(0, 8, 100)
        result = run_peos(
            values, grr_oracle, r=3, n_fake=20, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1,
        )
        assert result.estimates.sum() == pytest.approx(1.0)

    def test_solh_works(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        fo = SOLH(8, 4.0, 4, family=XXHash32Family())
        values = np.array([0] * 150 + [5] * 50)
        rng.shuffle(values)
        result = run_peos(
            values, fo, r=3, n_fake=30, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1,
        )
        assert result.estimates[0] > result.estimates[1]
        assert result.estimates[0] == pytest.approx(0.75, abs=0.25)

    def test_hadamard_works(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        fo = HadamardResponse(6, 5.0)
        values = np.array([2] * 120 + [4] * 40)
        rng.shuffle(values)
        result = run_peos(
            values, fo, r=3, n_fake=20, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1,
        )
        assert np.argmax(result.estimates) == 2

    def test_dgk_backend(self, rng, dgk_keys):
        pub, priv = dgk_keys
        # DGK plaintext space is 2^32; Hadamard report space (K*2 = 16)
        # divides it, so shares wrap consistently.
        fo = HadamardResponse(6, 5.0)
        values = np.array([1] * 80 + [3] * 20)
        rng.shuffle(values)
        result = run_peos(
            values, fo, r=3, n_fake=10, ahe_public=pub,
            ahe_decrypt=lambda c: priv.decrypt(c), rng=rng, crypto_rng=1,
        )
        assert np.argmax(result.estimates) == 1

    def test_rejects_single_shuffler(self, rng, grr_oracle, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        with pytest.raises(ValueError):
            run_peos(
                [1, 2], grr_oracle, r=1, n_fake=0, ahe_public=pub,
                ahe_decrypt=priv.decrypt, rng=rng,
            )


class TestFakeReports:
    def test_fakes_present_in_multiset(self, rng, grr_oracle, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        values = rng.integers(0, 8, 30)
        result = run_peos(
            values, grr_oracle, r=3, n_fake=50, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1,
        )
        assert len(result.shuffled_reports) == 80

    def test_no_fakes_allowed(self, rng, grr_oracle, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        values = rng.integers(0, 8, 30)
        result = run_peos(
            values, grr_oracle, r=3, n_fake=0, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1,
        )
        assert len(result.shuffled_reports) == 30

    def test_malicious_minority_cannot_skew_fakes(self, rng, wide_dgk_keys):
        """One honest shuffler's uniform share masks the biased ones: the
        reconstructed fake reports stay (close to) uniform."""
        pub, priv = wide_dgk_keys
        fo = GRR(8, 3.0)
        result = run_peos(
            [], fo, r=3, n_fake=600, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1,
            malicious_fake_shares={
                0: constant_share_attack(0),
                1: constant_share_attack(3),
            },
        )
        counts = np.bincount(result.shuffled_reports.astype(int), minlength=8)
        # Chi-square against uniform with 7 dof: 99.9th percentile ~ 24.3.
        expected = 600 / 8
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 24.3


class TestCosts:
    def test_cost_table_complete(self, rng, grr_oracle, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        tracker = CostTracker()
        run_peos(
            rng.integers(0, 8, 40), grr_oracle, r=3, n_fake=10, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1, tracker=tracker,
        )
        assert tracker.cost("user").bytes_sent > 0
        assert tracker.cost("user").compute_seconds > 0
        for j in range(3):
            assert tracker.cost(f"shuffler:{j}").bytes_sent > 0
        assert tracker.cost("server").bytes_received > 0
        assert tracker.cost("server").compute_seconds > 0

    def test_user_sends_one_ciphertext(self, rng, grr_oracle, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        tracker = CostTracker()
        n = 25
        run_peos(
            rng.integers(0, 8, n), grr_oracle, r=3, n_fake=0, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1, tracker=tracker,
        )
        # Users upload 2 plaintext shares + 1 AHE ciphertext each.
        expected_min = n * pub.ciphertext_bytes
        assert tracker.cost("user").bytes_sent >= expected_min
