#!/usr/bin/env python3
"""Scenario: a full PEOS run with real cryptography, plus the attacks it stops.

This drives Algorithm 1 end to end at a demo scale (400 users, 3
shufflers, real DGK / secret sharing / encrypted oblivious shuffle):

1. honest execution with per-party cost accounting (the Table III shape);
2. a data-poisoning attempt — two of three shufflers submit maximally
   biased fake-report shares — and the statistical check showing the one
   honest shuffler neutralized it;
3. the SS (sequential shuffle) baseline under a report-replacement attack,
   caught by the server's spot-check dummy accounts.

The GRR local budget is validated through the facade's ``PrivacyBudget``
(``model="local"``: under ``Adv_a`` only local randomization protects
users, exactly that model's semantics).

Run:  python examples/secure_deployment.py   (takes ~15 s: real crypto)
      REPRO_EXAMPLE_SCALE=0.05 python examples/secure_deployment.py
"""

import os

import numpy as np

from repro.api import PrivacyBudget
from repro.costs import CostTracker
from repro.crypto import dgk
from repro.frequency_oracles import GRR
from repro.protocol import run_peos
from repro.protocol.attacks import (
    constant_share_attack,
    spot_check_detection_probability,
)
from repro.shuffle import generate_keys, sequential_shuffle
from repro.shuffle.eos import plaintext_bits

SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))
N_USERS = max(60, int(400 * SCALE))
N_FAKE = max(20, int(100 * SCALE))
N_POISON_FAKE = max(200, int(800 * SCALE))
DOMAIN = 8
R = 3
# The CI smoke run shrinks the demo key (still above dgk.min_key_bits for
# GRR's l = 3, still real crypto).
KEY_BITS = 768 if SCALE >= 1.0 else 384
LOCAL_BUDGET = PrivacyBudget(eps=3.0, model="local")


def main() -> None:
    rng = np.random.default_rng(21)
    fo = GRR(DOMAIN, LOCAL_BUDGET.eps)
    print(f"generating server AHE keypair (DGK, {KEY_BITS}-bit demo key)...")
    pub, priv = dgk.generate_keypair(
        l=plaintext_bits(fo.report_space, R), key_bits=KEY_BITS, rng=5
    )
    values = rng.choice(DOMAIN, size=N_USERS, p=np.linspace(2, 0.2, DOMAIN) / np.linspace(2, 0.2, DOMAIN).sum())
    truth = np.bincount(values, minlength=DOMAIN) / N_USERS

    # --- 1. honest PEOS run with cost accounting ---------------------------
    tracker = CostTracker()
    result = run_peos(
        values, fo, r=R, n_fake=N_FAKE, ahe_public=pub,
        ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=9, tracker=tracker,
    )
    mse = float(np.mean((result.estimates - truth) ** 2))
    print(f"\nhonest run: {N_USERS} users + {N_FAKE} fake reports, "
          f"r={R} shufflers")
    print(f"  MSE = {mse:.2e}; estimates sum to {result.estimates.sum():.3f}")
    print("  per-party costs (demo scale):")
    for party in ["user"] + [f"shuffler:{j}" for j in range(R)] + ["server"]:
        cost = tracker.cost(party)
        print(f"    {party:<11} sent={cost.bytes_sent:>9}B  "
              f"recv={cost.bytes_received:>9}B  "
              f"compute={cost.compute_seconds:.2f}s")

    # --- 2. poisoning attempt against PEOS ---------------------------------
    print("\npoisoning attempt: shufflers 0 and 1 submit constant fake shares")
    poisoned = run_peos(
        [], fo, r=R, n_fake=N_POISON_FAKE, ahe_public=pub,
        ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=9,
        malicious_fake_shares={
            0: constant_share_attack(0),
            1: constant_share_attack(5),
        },
    )
    counts = np.bincount(poisoned.shuffled_reports.astype(int), minlength=DOMAIN)
    expected = N_POISON_FAKE / DOMAIN
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    print(f"  resulting fake-report histogram: {counts.tolist()}")
    print(f"  chi-square vs uniform: {chi2:.1f} "
          f"(99.9th percentile for {DOMAIN - 1} dof: 24.3)")
    print("  -> the single honest shuffler's uniform shares masked the attack"
          if chi2 < 24.3 else "  -> UNEXPECTED: bias visible")

    # --- 3. the same attack class against SS is only caught by spot checks --
    print("\nSS baseline: shuffler 0 replaces 30% of reports with its target")
    keys = generate_keys(R, rng=4)
    # Spot checking needs a large report space so the server's planted
    # reports cannot collide with genuine ones: use SOLH's (seed, value)
    # reports (the paper's 64-bit reports) rather than bare GRR values.
    from repro.frequency_oracles import SOLH
    from repro.hashing import XXHash32Family
    from repro.protocol.attacks import replacement_tamper

    solh = SOLH(DOMAIN, LOCAL_BUDGET.eps, 8, family=XXHash32Family())
    reports = solh.encode_reports(solh.privatize(values[:100], rng))
    report_width = 5  # bytes per 2^35 report group
    remaining = [kp.public for kp in keys.shufflers[1:]] + [keys.server.public]
    tamper = replacement_tamper(7, 0.3, remaining, report_width, rng, crypto_rng=6)
    spot_checks = [int(x) for x in rng.integers(0, solh.report_space, 12)]
    ss = sequential_shuffle(
        [int(x) for x in reports], solh.report_space, keys, n_fake=0,
        rng=rng, crypto_rng=6, spot_check_reports=spot_checks,
        shuffler_tamper=lambda j, batch: tamper(j, batch) if j == 0 else batch,
    )
    total = 100 + len(spot_checks)
    analytic = spot_check_detection_probability(
        total, len(spot_checks), int(0.3 * total)
    )
    print(f"  attack detected: {not ss.spot_check_passed} "
          f"(analytic detection probability {analytic:.2f})")
    print("  -> replacement is detectable, but biased *injection* in SS is")
    print("     not — which is exactly why PEOS secret-shares the fakes.")


if __name__ == "__main__":
    main()
