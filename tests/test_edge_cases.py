"""Edge cases and failure injection across module boundaries.

These tests deliberately stress corner configurations (tiny populations,
degenerate domains, corrupted inputs) that the main suites don't reach.
"""

import numpy as np
import pytest

from repro.analysis import treehist
from repro.core import plan_peos, solh_optimal_d_prime
from repro.crypto.secret_sharing import reconstruct_vector, share_vector
from repro.data import StringDataset
from repro.frequency_oracles import GRR, SOLH, HadamardResponse
from repro.hashing import XXHash32Family
from repro.protocol import run_peos


class TestDegenerateDomains:
    def test_binary_domain_grr(self, rng):
        """d=2 — the randomized-response original."""
        fo = GRR(2, 1.0)
        values = np.array([0] * 700 + [1] * 300)
        estimates = fo.run(values, rng)
        assert estimates.sum() == pytest.approx(1.0)
        assert estimates[0] > estimates[1]

    def test_single_user(self, rng):
        fo = GRR(4, 1.0)
        estimates = fo.run(np.array([2]), rng)
        assert len(estimates) == 4

    def test_empty_population(self, rng):
        fo = GRR(4, 1.0)
        reports = fo.privatize(np.array([], dtype=np.int64), rng)
        assert len(reports) == 0

    def test_all_same_value(self, rng):
        fo = SOLH(8, 4.0, 4, family=XXHash32Family())
        estimates = fo.run(np.full(2000, 5), rng)
        assert np.argmax(estimates) == 5

    def test_hadamard_domain_exactly_power_of_two_minus_one(self, rng):
        # d = K - 1 uses every nonzero column.
        fo = HadamardResponse(127, 2.0)
        assert fo.K == 128
        estimates = fo.run(rng.integers(0, 127, 1000), rng)
        assert len(estimates) == 127


class TestTinyPopulations:
    def test_solh_optimal_d_prime_floors_at_two(self):
        assert solh_optimal_d_prime(0.1, 100, 1e-9) == 2

    def test_planner_small_population_loose_targets(self):
        plan = plan_peos(2.0, 4.0, 8.0, 5000, 4, 1e-9)
        assert plan.eps_server <= 2.0 * (1 + 1e-6)

    def test_peos_more_fakes_than_users(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        fo = GRR(4, 4.0)
        result = run_peos(
            rng.integers(0, 4, 10), fo, r=3, n_fake=50, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=1,
        )
        assert len(result.shuffled_reports) == 60
        assert result.estimates.sum() == pytest.approx(1.0)


class TestCorruptedInputs:
    def test_reconstruct_wrong_modulus_garbles(self, rng):
        values = rng.integers(0, 2**16, 20, dtype=np.int64)
        shares = share_vector(values, 3, 2**16, rng)
        wrong = reconstruct_vector(shares, 2**15)
        assert not (np.asarray(wrong) == values).all()

    def test_dropped_share_vector_garbles(self, rng):
        values = rng.integers(0, 2**16, 20, dtype=np.int64)
        shares = share_vector(values, 3, 2**16, rng)
        partial = reconstruct_vector(shares[:2], 2**16)
        assert not (np.asarray(partial) == values).all()

    def test_grr_decode_rejects_corrupted_report(self):
        fo = GRR(10, 1.0)
        with pytest.raises(ValueError):
            fo.decode_reports(np.array([99]))

    def test_solh_estimate_with_swapped_counts_is_biased(self, rng):
        """Sanity: the estimator depends on the counts it is given."""
        fo = SOLH(8, 2.0, 4, family=XXHash32Family())
        counts = np.array([100.0, 0, 0, 0, 0, 0, 0, 0])
        estimates = fo.estimate(counts, 100)
        assert estimates[0] > estimates[1]


class TestTreeHistEdges:
    def test_single_round(self, rng):
        values = rng.integers(0, 256, 5000, dtype=np.int64)
        dataset = StringDataset("tiny", values, 8)
        result = treehist(dataset, "Lap", 1.0, 1e-9, rng, k=4, bits_per_round=8)
        assert len(result.discovered) == 4
        assert result.candidates_per_round == [256]

    def test_k_larger_than_support(self, rng):
        values = np.array([1, 1, 2, 2, 3] * 100, dtype=np.int64)
        dataset = StringDataset("tiny", values, 8)
        result = treehist(dataset, "Lap", 2.0, 1e-9, rng, k=4, bits_per_round=8)
        # Only 3 distinct strings exist; top-k still returns k guesses.
        assert len(result.discovered) == 4
        assert {1, 2, 3} <= set(result.discovered.tolist())

    def test_advanced_composition_path(self, rng):
        values = rng.integers(0, 1 << 16, 20_000, dtype=np.int64)
        dataset = StringDataset("tiny", values, 16)
        result = treehist(
            dataset, "SOLH", 1.0, 1e-9, rng, k=8, composition="advanced"
        )
        assert len(result.discovered) == 8

    def test_unknown_composition_rejected(self, rng):
        dataset = StringDataset("tiny", np.array([1, 2], dtype=np.int64), 8)
        with pytest.raises(ValueError):
            treehist(dataset, "Lap", 1.0, 1e-9, rng, composition="renyi")


class TestNumericalStability:
    def test_huge_epsilon_probabilities_saturate(self):
        fo = GRR(4, 50.0)
        assert fo.p == pytest.approx(1.0)
        assert fo.q == pytest.approx(0.0, abs=1e-20)

    def test_tiny_epsilon_still_valid(self, rng):
        fo = GRR(4, 1e-6)
        reports = fo.privatize(rng.integers(0, 4, 100), rng)
        assert reports.min() >= 0 and reports.max() < 4

    def test_large_domain_estimates_finite(self, rng):
        fo = GRR(100_000, 1.0)
        counts = fo.sample_support_counts(
            rng.multinomial(10_000, np.full(100_000, 1e-5)), rng
        )
        estimates = fo.estimate(counts, 10_000)
        assert np.isfinite(estimates).all()
