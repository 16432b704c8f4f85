"""PEOS — Private Encrypted Oblivious Shuffle (Algorithm 1), end to end.

The full protocol over ``n`` users, ``r`` shufflers, and one server:

1. every user runs the agreed frequency oracle (GRR or SOLH per the
   Section IV-B3 comparison), encodes the report into the ordinal group
   ``Z_M`` (Section VI-A2), splits it into ``r`` additive shares, encrypts
   the ``r``-th share under the server's AHE key, and uploads share ``j``
   to shuffler ``j``;
2. shufflers ``1..r-1`` draw plaintext shares of ``n_r`` fake reports;
   shuffler ``r`` draws its fake shares and encrypts them;
3. the shufflers run EOS (:mod:`repro.shuffle.eos`);
4. the server collects the final shares, decrypts the encrypted vector,
   reconstructs the shuffled report multiset, estimates frequencies over
   ``n + n_r`` reports, and removes the fake-report mass with Eq. (6).

Because each fake report is the mod-``M`` sum of one share from *every*
shuffler, a single honest shuffler makes all fake reports uniform — the
data-poisoning resistance PEOS is designed for (validated statistically in
``tests/protocol/test_attacks.py``).

Performance note: the protocol is exact at any scale, but its AHE is pure
Python.  With the paper's DGK and fixed-base tables (DESIGN.md, "PEOS's
AHE"), r = 3 and 512-bit keys, a report costs about a millisecond,
genuine or fake; benchmarks run reduced ``n`` and extrapolate (see
DESIGN.md and Table III bench).  For protocol runs prefer
the 32-bit-seed hash family (:class:`repro.hashing.XXHash32Family`) so the
report group fits in 64-bit arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ..core.ordinal import OrdinalCodec
from ..crypto.math_utils import RandomLike, as_random
from ..crypto.secret_sharing import share_vector
from ..frequency_oracles.base import FrequencyOracle
from ..shuffle.eos import EOSState, encrypted_oblivious_shuffle, server_reconstruct
from ..costs import CostTracker, share_bytes


@dataclass
class PEOSResult:
    """Outcome of one PEOS execution."""

    #: calibrated frequency estimates over the value domain (Eq. (6))
    estimates: np.ndarray
    #: the shuffled, decoded report multiset the server saw (n + n_r entries)
    shuffled_reports: np.ndarray
    #: the EOS state (for transcript inspection in tests / attacks)
    eos_state: EOSState
    n_users: int
    n_fake: int


def peos_shuffle_encoded(
    encoded: Sequence[int],
    report_space: int,
    r: int,
    n_fake: int,
    ahe_public,
    ahe_decrypt: Callable[[int], int],
    rng: np.random.Generator,
    crypto_rng: RandomLike = None,
    tracker: Optional[CostTracker] = None,
    malicious_fake_shares: Optional[dict[int, Callable[[int, np.ndarray], np.ndarray]]] = None,
    rerandomize: bool = True,
) -> tuple[np.ndarray, EOSState]:
    """Steps 1b-4a of Algorithm 1 over already-encoded reports.

    Runs secret sharing, fake-share drawing, EOS, and the server-side
    reconstruction for a batch of ordinal-encoded reports, returning the
    shuffled report multiset (``n + n_fake`` entries mod ``report_space``)
    together with the EOS transcript.  :func:`run_peos` wraps this with the
    frequency-oracle privatize/estimate steps; the streaming service
    (:mod:`repro.service`) calls it directly on each flushed buffer batch.
    """
    if r < 2:
        raise ValueError(f"PEOS needs at least 2 shufflers, got r={r}")
    n = len(encoded)
    codec = OrdinalCodec(report_space)
    modulus = codec.space
    width = share_bytes(modulus)
    crypto_rand = as_random(crypto_rng)

    # ---- 1. users: share the encoded report, encrypt the last share -----
    def _user_phase():
        shares = share_vector(codec.asarray(encoded), r, modulus, rng)
        encrypted_last = [
            ahe_public.encrypt(int(s) % modulus, crypto_rand) for s in shares[r - 1]
        ]
        return shares, encrypted_last

    if tracker is None:
        shares, encrypted_last = _user_phase()
    else:
        with tracker.compute("user"):
            shares, encrypted_last = _user_phase()
        for j in range(r - 1):
            tracker.send("user", f"shuffler:{j}", n * width)
        tracker.send("user", f"shuffler:{r - 1}", n * ahe_public.ciphertext_bytes)

    # ---- 2. shufflers draw shares of the fake reports --------------------
    plain_vectors: list[np.ndarray] = []
    for j in range(r - 1):
        def _draw(j: int = j) -> np.ndarray:
            fake = codec.uniform(n_fake, rng)
            if malicious_fake_shares and j in malicious_fake_shares:
                fake = malicious_fake_shares[j](n_fake, fake)
            return codec.concat(shares[j], fake)

        if tracker is None:
            plain_vectors.append(_draw())
        else:
            with tracker.compute(f"shuffler:{j}"):
                plain_vectors.append(_draw())

    def _draw_encrypted() -> list[int]:
        fake = codec.uniform(n_fake, rng)
        if malicious_fake_shares and (r - 1) in malicious_fake_shares:
            fake = malicious_fake_shares[r - 1](n_fake, fake)
        return encrypted_last + [
            ahe_public.encrypt(int(f) % modulus, crypto_rand) for f in fake
        ]

    if tracker is None:
        encrypted_vector = _draw_encrypted()
    else:
        with tracker.compute(f"shuffler:{r - 1}"):
            encrypted_vector = _draw_encrypted()

    # The holder's plaintext slot is zero (its share arrived encrypted).
    total = n + n_fake
    zero_holder = codec.zeros(total)
    plain_shares = [
        codec.pad_check(vec, total) for vec in plain_vectors
    ] + [zero_holder]

    # ---- 3. EOS -----------------------------------------------------------
    state = encrypted_oblivious_shuffle(
        plain_shares,
        encrypted_vector,
        holder=r - 1,
        modulus=modulus,
        ahe=ahe_public,
        rng=rng,
        crypto_rng=crypto_rand,
        tracker=tracker,
        rerandomize=rerandomize,
    )

    # ---- 4a. server reconstructs the shuffled multiset -------------------
    def _reconstruct() -> np.ndarray:
        return np.asarray(
            server_reconstruct(
                state,
                modulus,
                ahe_decrypt,
                tracker=tracker,
                ciphertext_bytes=ahe_public.ciphertext_bytes,
            )
        )

    if tracker is None:
        shuffled = _reconstruct()
    else:
        with tracker.compute("server"):
            shuffled = _reconstruct()
    return shuffled, state


def run_peos(
    values: Sequence[int],
    fo: FrequencyOracle,
    r: int,
    n_fake: int,
    ahe_public,
    ahe_decrypt: Callable[[int], int],
    rng: np.random.Generator,
    crypto_rng: RandomLike = None,
    tracker: Optional[CostTracker] = None,
    malicious_fake_shares: Optional[dict[int, Callable[[int, np.ndarray], np.ndarray]]] = None,
    rerandomize: bool = True,
) -> PEOSResult:
    """Execute Algorithm 1.

    Parameters
    ----------
    values:
        The users' private values in ``[0, fo.d)``.
    fo:
        The frequency oracle (must be ordinal-encodable: GRR or a
        local-hashing oracle).
    r:
        Number of shufflers (honest majority assumed: the server must not
        corrupt more than ``floor(r/2)`` of them).
    n_fake:
        Total fake reports ``n_r`` injected by the shufflers.
    ahe_public / ahe_decrypt:
        The server's AHE public key (Paillier or DGK) and decryption
        callable.
    malicious_fake_shares:
        Optional map ``shuffler index -> f(n_fake, honest_shares) -> shares``
        letting attack analyses replace a shuffler's fake-share vector with
        a biased one.  Honest shufflers still mask it (PEOS's guarantee).
    """
    if r < 2:
        raise ValueError(f"PEOS needs at least 2 shufflers, got r={r}")
    values = np.asarray(values)
    n = len(values)
    total = n + n_fake
    crypto_rand = as_random(crypto_rng)

    # ---- 1a. users run the frequency oracle locally ----------------------
    def _privatize() -> np.ndarray:
        return fo.encode_reports(fo.privatize(values, rng))

    if tracker is None:
        encoded = _privatize()
    else:
        with tracker.compute("user"):
            encoded = _privatize()

    # ---- 1b-4a. share, inject fakes, EOS, reconstruct --------------------
    shuffled, state = peos_shuffle_encoded(
        encoded,
        fo.report_space,
        r,
        n_fake,
        ahe_public,
        ahe_decrypt,
        rng,
        crypto_rng=crypto_rand,
        tracker=tracker,
        malicious_fake_shares=malicious_fake_shares,
        rerandomize=rerandomize,
    )

    # ---- 4b. server estimates and calibrates -----------------------------
    def _estimate() -> np.ndarray:
        decoded = fo.decode_reports(fo.ordinal_codec.asarray(shuffled))
        counts = fo.support_counts(decoded)
        raw = fo.estimate(counts, total)
        return fo.calibrate_with_fakes(raw, n, n_fake)

    if tracker is None:
        estimates = _estimate()
    else:
        with tracker.compute("server"):
            estimates = _estimate()

    return PEOSResult(
        estimates=estimates,
        shuffled_reports=shuffled,
        eos_state=state,
        n_users=n,
        n_fake=n_fake,
    )


def concat_encoded(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Concatenate two encoded-report arrays in the group's codec dtype.

    Backwards-compatible wrapper over
    :meth:`repro.core.ordinal.OrdinalCodec.concat`, which is where the
    int64-fast-path / object-fallback decision now lives.
    """
    return OrdinalCodec(modulus).concat(a, b)
