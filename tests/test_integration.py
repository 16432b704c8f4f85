"""Cross-module integration tests: plan -> deploy -> run -> verify."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import plan_peos
from repro.crypto.secret_sharing import reconstruct_vector, share_vector
from repro.frequency_oracles import GRR, SOLH
from repro.hashing import XXHash32Family
from repro.protocol import PEOSDeployment, ThreatReport, run_peos
from repro.shuffle import encrypted_oblivious_shuffle, oblivious_shuffle, server_reconstruct


class TestPlanToProtocol:
    """The full deployment story: Section VI-D plan feeds Algorithm 1."""

    def test_planned_deployment_end_to_end(self, rng, wide_dgk_keys):
        pub, priv = wide_dgk_keys
        n, d, delta = 300, 8, 1e-9
        # Targets loose enough to be feasible at this demo n.
        plan = plan_peos(3.0, 6.0, 8.0, n, d, delta, max_fake_factor=2.0)
        if plan.mechanism == "grr":
            fo = GRR(d, plan.eps_l)
        else:
            fo = SOLH(d, plan.eps_l, min(plan.d_prime, 16), family=XXHash32Family())
        n_fake = min(plan.n_r, 150)  # keep the crypto demo fast
        values = rng.integers(0, d, n)
        result = run_peos(
            values, fo, r=3, n_fake=n_fake, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=5,
        )
        truth = np.bincount(values, minlength=d) / n
        assert len(result.shuffled_reports) == n + n_fake
        # Loose accuracy check: the estimate is in the right ballpark.
        assert float(np.mean((result.estimates - truth) ** 2)) < 0.05

    def test_plan_feeds_threat_report(self):
        n, d, delta = 500_000, 100, 1e-9
        plan = plan_peos(0.5, 2.0, 5.0, n, d, delta)
        deployment = PEOSDeployment(
            mechanism=plan.mechanism,
            eps_l=plan.eps_l,
            report_domain=plan.d_prime,
            n=n,
            n_r=plan.n_r,
            r=5,
            delta=delta,
        )
        report = ThreatReport.evaluate(deployment)
        guarantees = dict(report.rows())
        assert guarantees["Adv (server)"] <= 0.5 * (1 + 1e-6)
        assert guarantees["Adv_u (server + users)"] <= 2.0 * (1 + 1e-6)
        assert guarantees["Adv_a (server + majority shufflers)"] <= 5.0 * (1 + 1e-6)


class TestEndToEndAccuracy:
    def test_peos_estimate_close_to_plain_fo(self, rng, wide_dgk_keys):
        """The crypto pipeline must not change the statistics: PEOS with
        n_fake=0 behaves exactly like the bare frequency oracle."""
        pub, priv = wide_dgk_keys
        d, n = 6, 500
        fo = GRR(d, 8.0)  # low noise isolates pipeline errors
        values = rng.integers(0, d, n)
        result = run_peos(
            values, fo, r=3, n_fake=0, ahe_public=pub,
            ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=5,
        )
        truth = np.bincount(values, minlength=d) / n
        assert result.estimates == pytest.approx(truth, abs=0.08)
        # The shuffled multiset must be a permutation of the users' reports
        # (decoded back through the oracle's support counting).
        assert len(result.shuffled_reports) == n


@given(
    r=st.integers(min_value=2, max_value=5),
    n=st.integers(min_value=1, max_value=25),
    modulus=st.sampled_from([2**8, 2**16, 2**32, 997]),
)
@settings(max_examples=25, deadline=None)
def test_oblivious_shuffle_multiset_property(r, n, modulus):
    """Property: the oblivious shuffle preserves the multiset for any
    (r, n, modulus)."""
    rng = np.random.default_rng(1234)
    values = rng.integers(0, modulus, n, dtype=np.int64)
    shares = share_vector(values, r, modulus, rng)
    out, __ = oblivious_shuffle(shares, modulus, rng)
    reconstructed = reconstruct_vector(out, modulus)
    assert sorted(reconstructed.tolist()) == sorted(values.tolist())


class TestEOSPropertySmall:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("modulus", [2**8, 2**16])
    def test_multiset_across_shapes(self, rng, wide_dgk_keys, r, modulus):
        pub, priv = wide_dgk_keys
        values = rng.integers(0, modulus, 8, dtype=np.int64)
        shares = share_vector(values, r, modulus, rng)
        encrypted = [pub.encrypt(int(s), 77 + i) for i, s in enumerate(shares[-1])]
        plain = list(shares[:-1]) + [np.zeros(8, dtype=np.int64)]
        state = encrypted_oblivious_shuffle(
            plain, encrypted, holder=r - 1, modulus=modulus, ahe=pub,
            rng=rng, crypto_rng=3,
        )
        reconstructed = np.asarray(server_reconstruct(state, modulus, priv.decrypt))
        assert sorted(reconstructed.tolist()) == sorted(values.tolist())
