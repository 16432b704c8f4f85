"""Encrypted Oblivious Shuffle (EOS) — Section VI-A3, Figure 2.

EOS is the resharing-based oblivious shuffle with one twist: at any moment
exactly one shuffler (the *holder*, ``E``) carries its share vector as AHE
ciphertexts under the **server's** public key.  Plaintext shares move and
reshare exactly as in :mod:`repro.shuffle.oblivious`; the encrypted vector
is processed homomorphically:

* when the holder splits its vector, it emits fresh uniform plaintext
  vectors and one ciphertext remainder ``c'_i = c_i (+) Enc(-sum of the
  plaintext parts)``, re-randomized so the hop is unlinkable;
* whoever receives the ciphertext piece becomes the next holder.

Because one share stays encrypted end-to-end, even *all* ``r`` shufflers
colluding cannot reconstruct the reports (Corollary 7) — that requires the
server's private key, and the server never sees intermediate rounds.

AHE plaintext-space bookkeeping: corrections are added as their positive
residues mod ``M``.  Decryption is exact when the plaintext space is a
multiple of ``M`` (sums wrap natively: DGK with ``2^l = M``) or when the
plaintexts, which then grow additively, stay below the headroom bound
``(rounds * (t + r) + 2) * M``.  :func:`ahe_covers` is that rule, checked
at entry; :func:`plaintext_bits` picks the smallest DGK ``l`` it accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np

from ..crypto.math_utils import RandomLike, as_random
from ..crypto.secret_sharing import add_share_vectors, uniform_array
from ..costs import CostTracker, metered, share_bytes
from .oblivious import ShuffleRound, ShuffleTranscript, hider_count, shuffle_rounds


class AdditiveHomomorphicKey(Protocol):
    """The AHE public-key interface EOS needs.

    :class:`repro.crypto.dgk.DGKPublicKey` implements it; tests substitute
    proxies that count calls through it.
    """

    @property
    def plaintext_space(self) -> int: ...

    @property
    def ciphertext_bytes(self) -> int: ...

    def encrypt(self, message: int, rng: RandomLike = None) -> int: ...

    def add(self, ciphertext_a: int, ciphertext_b: int) -> int: ...

    def add_plain(self, ciphertext: int, plain: int) -> int: ...

    def rerandomize(self, ciphertext: int, rng: RandomLike = None) -> int: ...


def _headroom(modulus: int, r: int) -> int:
    """Bound on every plaintext EOS builds when nothing wraps: each round
    adds fewer than ``t + r`` corrections, each below ``modulus``."""
    return (len(shuffle_rounds(r)) * (hider_count(r) + r) + 2) * modulus


def ahe_covers(plaintext_space: int, modulus: int, r: int) -> bool:
    """Whether EOS over ``Z_modulus`` with ``r`` shufflers decrypts exactly
    in an AHE plaintext space of this size."""
    return plaintext_space % modulus == 0 or plaintext_space >= _headroom(
        modulus, r
    )


def plaintext_bits(modulus: int, r: int) -> int:
    """Smallest ``l`` whose ``Z_{2^l}`` :func:`ahe_covers` ``Z_modulus``.

    That is ``log2 M`` when ``M`` is a power of two (sums wrap natively),
    otherwise the bit length of the headroom bound.
    """
    if modulus & (modulus - 1) == 0:
        return modulus.bit_length() - 1
    return _headroom(modulus, r).bit_length()


@dataclass
class EOSState:
    """Post-shuffle state handed to the server.

    ``plain_shares[j]`` is shuffler ``j``'s final plaintext vector (the
    final reshare hands the holder a plaintext piece as well), ``encrypted``
    the ciphertext vector, and ``holder`` the shuffler holding it.
    """

    plain_shares: list[np.ndarray]
    encrypted: list[int]
    holder: int
    transcript: ShuffleTranscript


def encrypted_oblivious_shuffle(
    plain_shares: Sequence[np.ndarray],
    encrypted: Sequence[int],
    holder: int,
    modulus: int,
    ahe: AdditiveHomomorphicKey,
    rng: np.random.Generator,
    crypto_rng: RandomLike = None,
    tracker: Optional[CostTracker] = None,
    party_prefix: str = "shuffler",
    rerandomize: bool = True,
) -> EOSState:
    """Run EOS over ``r`` shufflers.

    Parameters
    ----------
    plain_shares:
        ``r`` vectors over ``Z_modulus``; the entry at index ``holder`` must
        be all zeros (that shuffler's share arrived encrypted).
    encrypted:
        The holder's vector as AHE ciphertexts (same length).
    holder:
        Index of the shuffler initially holding the encrypted vector
        (Algorithm 1: shuffler ``r``, who received the encrypted user shares).
    modulus:
        The report-group size ``M``; decrypted sums are reduced mod ``M``.
    ahe:
        The server's public key.
    rng / crypto_rng:
        Share-randomness + permutations / AHE encryption randomness.
    rerandomize:
        Refresh each ciphertext's AHE randomness once per hop, just
        before the holder sends it (default).
        The paper's cost model (Table III: "C(r,t) n/r homomorphic
        additions" per shuffler) counts only the deterministic
        ``g^adjust`` corrections — the secret uniform adjustment already
        unlinks ciphertexts from every party except the holder that
        applied it.  Set False to reproduce that cost model; keep True for
        the conservative hop-unlinkability guarantee.
    """
    r = len(plain_shares)
    if r < 2:
        raise ValueError(f"need at least 2 shufflers, got r={r}")
    if not 0 <= holder < r:
        raise ValueError(f"holder index {holder} out of range for r={r}")
    n = len(encrypted)
    for share in plain_shares:
        if len(share) != n:
            raise ValueError("share vectors have inconsistent lengths")
    t = hider_count(r)
    rounds = shuffle_rounds(r)
    if not ahe_covers(ahe.plaintext_space, modulus, r):
        raise ValueError(
            f"AHE plaintext space {ahe.plaintext_space} too small for "
            f"modulus {modulus} over {len(rounds)} rounds"
        )
    crypto_rand = as_random(crypto_rng)
    width = share_bytes(modulus)
    vectors = [np.asarray(share) for share in plain_shares]
    cipher = list(encrypted)
    transcript = ShuffleTranscript()

    def send(src: int, dst: int, n_bytes: int) -> None:
        if tracker is not None and src != dst:
            tracker.send(f"{party_prefix}:{src}", f"{party_prefix}:{dst}", n_bytes)

    def split_encrypted(
        source: int, plain_vector: np.ndarray, destinations: Sequence[int]
    ) -> tuple[dict[int, np.ndarray], int]:
        """Split the holder's (ciphertext + own plaintext) into pieces.

        The holder's residual plaintext vector (acquired during earlier
        reshares) is first folded into the ciphertexts; then all but one
        piece are fresh uniform plaintext vectors and the last is the
        homomorphically corrected, re-randomized ciphertext remainder.
        Returns the plaintext pieces keyed by destination and the index of
        the destination that received the ciphertext.
        """
        nonlocal cipher
        destinations = list(destinations)
        cipher_dst = destinations[int(rng.integers(len(destinations)))]
        plain_dsts = [dst for dst in destinations if dst != cipher_dst]
        with metered(tracker, f"{party_prefix}:{source}"):
            pieces = {dst: uniform_array(modulus, n, rng) for dst in plain_dsts}
            corrections = _zeros(n, modulus)
            for piece in pieces.values():
                corrections = add_share_vectors(corrections, piece, modulus)
            new_cipher = []
            for i, c in enumerate(cipher):
                adjust = (int(plain_vector[i]) - int(corrections[i])) % modulus
                adjusted = ahe.add_plain(c, adjust)
                if rerandomize:
                    adjusted = ahe.rerandomize(adjusted, crypto_rand)
                new_cipher.append(adjusted)
            cipher = new_cipher
        for dst in plain_dsts:
            send(source, dst, n * width)
        send(source, cipher_dst, n * ahe.ciphertext_bytes)
        return pieces, cipher_dst

    for hiders in rounds:
        seekers = [j for j in range(r) if j not in hiders]
        incoming: dict[int, list[np.ndarray]] = {h: [] for h in hiders}

        # 1. Seekers split their vectors among the hiders.
        for s in seekers:
            if s == holder:
                pieces, holder = split_encrypted(s, vectors[s], list(hiders))
                for dst, piece in pieces.items():
                    incoming[dst].append(piece)
            else:
                from ..crypto.secret_sharing import share_vector

                with metered(tracker, f"{party_prefix}:{s}"):
                    parts = share_vector(vectors[s], t, modulus, rng)
                for h, part in zip(hiders, parts):
                    incoming[h].append(part)
                    send(s, h, n * width)
            vectors[s] = _zeros(n, modulus)

        # 2. Hiders accumulate; the holder folds plaintext into ciphertext.
        permutation = rng.permutation(n)
        for h in hiders:
            with metered(tracker, f"{party_prefix}:{h}"):
                accumulated = vectors[h]
                for part in incoming[h]:
                    accumulated = add_share_vectors(accumulated, part, modulus)
                if h == holder:
                    # No blinding here: these ciphertexts stay with this
                    # holder until its reshare below, whose split
                    # re-randomizes every one of them before it is sent.
                    cipher = [
                        ahe.add_plain(c, int(accumulated[i]) % modulus)
                        for i, c in enumerate(cipher)
                    ]
                    vectors[h] = _zeros(n, modulus)
                    cipher = [cipher[i] for i in permutation]
                else:
                    vectors[h] = accumulated[permutation]
        transcript.rounds.append(
            ShuffleRound(hiders=tuple(hiders), permutation=permutation)
        )

        # 3. Hiders reshare among all r shufflers; the holder's reshare
        #    carries the ciphertext piece to a random party.
        fresh = [_zeros(n, modulus) for _ in range(r)]
        # Snapshot: if the reshare hands the ciphertext to another hider,
        # that hider still reshares its plaintext normally this round.
        holder_at_reshare = holder
        for h in list(hiders):
            if h == holder_at_reshare:
                pieces, holder = split_encrypted(h, vectors[h], list(range(r)))
                for dst, piece in pieces.items():
                    fresh[dst] = add_share_vectors(fresh[dst], piece, modulus)
            else:
                from ..crypto.secret_sharing import share_vector

                with metered(tracker, f"{party_prefix}:{h}"):
                    parts = share_vector(vectors[h], r, modulus, rng)
                for j, part in enumerate(parts):
                    fresh[j] = add_share_vectors(fresh[j], part, modulus)
                    send(h, j, n * width)
        vectors = fresh

    return EOSState(
        plain_shares=vectors,
        encrypted=cipher,
        holder=holder,
        transcript=transcript,
    )


def server_reconstruct(
    state: EOSState,
    modulus: int,
    decrypt,
    tracker: Optional[CostTracker] = None,
    party_prefix: str = "shuffler",
    server_name: str = "server",
    ciphertext_bytes: int = 0,
) -> np.ndarray:
    """Final step: shufflers upload shares, the server decrypts and sums.

    ``decrypt`` is the server's private decryption callable (ciphertext ->
    integer plaintext).  Returns the shuffled encoded reports mod ``M``.
    """
    n = len(state.encrypted)
    width = share_bytes(modulus)
    if tracker is not None:
        for j in range(len(state.plain_shares)):
            # Every shuffler uploads its plaintext vector; the holder also
            # uploads the ciphertext vector.
            tracker.send(f"{party_prefix}:{j}", server_name, n * width)
            if j == state.holder:
                tracker.send(
                    f"{party_prefix}:{j}", server_name, n * ciphertext_bytes
                )
    total = _zeros(n, modulus)
    for share in state.plain_shares:
        total = add_share_vectors(total, share, modulus)
    decrypted = np.array(
        [int(decrypt(c)) % modulus for c in state.encrypted], dtype=object
    )
    result = add_share_vectors(total, decrypted, modulus)
    if modulus < (1 << 62):
        return np.asarray(result, dtype=np.int64)
    return result


def _zeros(n: int, modulus: int) -> np.ndarray:
    if modulus < (1 << 62):
        return np.zeros(n, dtype=np.int64)
    out = np.empty(n, dtype=object)
    out[:] = 0
    return out
