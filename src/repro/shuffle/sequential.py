"""Sequential shuffle (SS) — the first-attempt protocol of Section VI-A1.

A chain of ``r`` shufflers, onion encryption, and fake-report injection:

1. every user onion-encrypts their encoded LDP report under the keys of
   shuffler 1, ..., shuffler r, server (outermost first);
2. shuffler ``j`` peels one layer from every message, draws ``n_r / r``
   fake reports (onion-encrypted under the *remaining* keys), shuffles, and
   forwards;
3. the server peels the last layer and decodes the reports.

Weaknesses the paper identifies (and which :mod:`repro.protocol.attacks`
demonstrates): a shuffler can replace users' reports (mitigated by the
server spot-checking dummy accounts, implemented here), and a shuffler's
fake reports can be drawn from any skewed distribution with no way to prove
uniformity — the motivation for PEOS.

Crypto per the paper's prototype: hybrid EC-ElGamal(secp256r1) + AES-128.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from ..crypto import elgamal_ec, onion
from ..crypto.math_utils import RandomLike, as_random
from ..crypto.onion import OnionCiphertext
from ..costs import CostTracker, metered


@dataclass
class SSKeys:
    """Key material for one SS deployment: r shuffler keypairs + server's."""

    shufflers: list[elgamal_ec.ECKeyPair]
    server: elgamal_ec.ECKeyPair

    @property
    def public_chain(self) -> list[elgamal_ec.Point]:
        """Layer keys in wrap order: shuffler 1 .. r, then the server."""
        return [kp.public for kp in self.shufflers] + [self.server.public]


def generate_keys(r: int, rng: RandomLike = None) -> SSKeys:
    """Generate fresh EC keypairs for ``r`` shufflers and the server."""
    if r < 1:
        raise ValueError(f"need at least 1 shuffler, got r={r}")
    rand = as_random(rng)
    return SSKeys(
        shufflers=[elgamal_ec.generate_keypair(rand) for _ in range(r)],
        server=elgamal_ec.generate_keypair(rand),
    )


@dataclass
class SSResult:
    """Outcome of one SS execution."""

    #: decoded reports (genuine + fake), in arrival order at the server
    reports: np.ndarray
    #: how many fake reports each shuffler inserted
    fakes_per_shuffler: list[int]
    #: True if every planted spot-check report survived to the server
    spot_check_passed: bool
    transcript_sizes: list[int] = field(default_factory=list)


def _encode_payload(report: int, width: int) -> bytes:
    return int(report).to_bytes(width, "big")


def _decode_payload(payload: bytes) -> int:
    return int.from_bytes(payload, "big")


def sequential_shuffle(
    reports: Sequence[int],
    report_space: int,
    keys: SSKeys,
    n_fake: int,
    rng: np.random.Generator,
    crypto_rng: RandomLike = None,
    tracker: Optional[CostTracker] = None,
    spot_check_reports: Sequence[int] = (),
    shuffler_tamper: Optional[Callable[[int, list[OnionCiphertext]], list[OnionCiphertext]]] = None,
) -> SSResult:
    """Run the SS protocol end to end.

    Parameters
    ----------
    reports:
        Users' encoded LDP reports (integers in ``[0, report_space)``).
    report_space:
        Size of the ordinal report group (fake reports are uniform in it).
    keys:
        The deployment's key material.
    n_fake:
        Total fake reports, split evenly across the shufflers.
    rng / crypto_rng:
        Fake-report and shuffle randomness / encryption randomness.
    spot_check_reports:
        Extra reports planted by the server through dummy accounts; their
        presence in the output is verified (tamper detection).
    shuffler_tamper:
        Optional hook ``(shuffler_index, batch) -> batch`` modelling a
        malicious shuffler (used by the attack analyses).
    """
    r = len(keys.shufflers)
    width = max(1, (int(report_space) - 1).bit_length() + 7 >> 3)
    crypto_rand = as_random(crypto_rng)
    fakes_per_shuffler = [n_fake // r + (1 if j < n_fake % r else 0) for j in range(r)]

    # --- users (and the server's dummy accounts) wrap their reports -------
    batch: list[OnionCiphertext] = []
    all_inputs = list(reports) + list(spot_check_reports)
    for report in all_inputs:
        with metered(tracker, "user"):
            wrapped = onion.wrap(
                _encode_payload(report, width), keys.public_chain, crypto_rand
            )
        if tracker is not None:
            tracker.send("user", "shuffler:0", wrapped.size_bytes)
        batch.append(wrapped)

    # --- each shuffler peels, injects fakes, shuffles, forwards ----------
    for j in range(r):
        party = f"shuffler:{j}"
        remaining_keys = [kp.public for kp in keys.shufflers[j + 1:]] + [
            keys.server.public
        ]
        with metered(tracker, party):
            peeled = [onion.peel(msg, keys.shufflers[j].private)[1] for msg in batch]
            for _ in range(fakes_per_shuffler[j]):
                fake = int(rng.integers(0, report_space))
                peeled.append(
                    onion.wrap(
                        _encode_payload(fake, width), remaining_keys, crypto_rand
                    )
                )
            order = rng.permutation(len(peeled))
            batch = [peeled[i] for i in order]
        if shuffler_tamper is not None:
            batch = shuffler_tamper(j, batch)
        if tracker is not None:
            destination = f"shuffler:{j + 1}" if j + 1 < r else "server"
            for msg in batch:
                tracker.send(party, destination, msg.size_bytes)

    # --- server peels the last layer and decodes -------------------------
    with metered(tracker, "server"):
        decoded = []
        for msg in batch:
            payload, _ = onion.peel(msg, keys.server.private)
            decoded.append(_decode_payload(payload))
        final_reports = np.array(
            decoded, dtype=np.int64 if report_space < (1 << 62) else object
        )

    # Spot check: every planted report must appear at least as many times
    # as planted (multiset containment).
    passed = _multiset_contains(final_reports.tolist(), list(spot_check_reports))
    return SSResult(
        reports=final_reports,
        fakes_per_shuffler=fakes_per_shuffler,
        spot_check_passed=passed,
    )


def _multiset_contains(haystack: list, needles: list) -> bool:
    from collections import Counter

    have = Counter(haystack)
    need = Counter(needles)
    return all(have[key] >= count for key, count in need.items())
