"""The plain single-shuffler pipeline of the SH baseline (Section III-B).

One auxiliary server receives users' (hybrid-encrypted) LDP reports,
shuffles them, and forwards to the server.  Privacy rests entirely on this
shuffler neither colluding with the server nor deviating — the trust
assumption the paper sets out to weaken.

Utility-wise shuffling is the identity on aggregate statistics, so the
frequency-estimation benchmarks use the FO layer directly; this module
exists for the protocol-level comparisons and the attack analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..crypto import elgamal_ec
from ..crypto.math_utils import RandomLike, as_random
from ..costs import CostTracker, metered


@dataclass
class SingleShuffleResult:
    """Outcome of a single-shuffler run."""

    reports: np.ndarray
    permutation: np.ndarray  # known ONLY to the shuffler


def single_shuffle(
    reports: Sequence[int],
    report_space: int,
    server_keypair: elgamal_ec.ECKeyPair,
    rng: np.random.Generator,
    crypto_rng: RandomLike = None,
    tracker: Optional[CostTracker] = None,
) -> SingleShuffleResult:
    """Encrypt-to-server, shuffle at one auxiliary party, decrypt at server.

    The shuffler sees ciphertexts only (content hidden); the server sees
    shuffled reports only (linkage hidden) — the SH trust model.
    """
    width = max(1, (int(report_space) - 1).bit_length() + 7 >> 3)
    crypto_rand = as_random(crypto_rng)

    ciphertexts = []
    for report in reports:
        payload = int(report).to_bytes(width, "big")
        with metered(tracker, "user"):
            ct = elgamal_ec.encrypt(payload, server_keypair.public, crypto_rand)
        if tracker is not None:
            tracker.send("user", "shuffler:0", ct.size_bytes)
        ciphertexts.append(ct)

    permutation = rng.permutation(len(ciphertexts))
    shuffled = [ciphertexts[i] for i in permutation]
    if tracker is not None:
        for ct in shuffled:
            tracker.send("shuffler:0", "server", ct.size_bytes)

    with metered(tracker, "server"):
        decoded = np.array(
            [
                int.from_bytes(elgamal_ec.decrypt(ct, server_keypair.private), "big")
                for ct in shuffled
            ],
            dtype=np.int64 if report_space < (1 << 62) else object,
        )
    return SingleShuffleResult(reports=decoded, permutation=permutation)
