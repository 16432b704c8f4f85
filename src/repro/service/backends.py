"""Pluggable shuffle backends for the streaming pipeline.

Every backend exposes the same contract: given one flush's ordinal-encoded
genuine reports and a fake-report order, return the released multiset
(genuine + fake, shuffled) as encoded integers.  Three implementations
trade security for throughput:

* ``"plain"`` — an in-process honest-shuffler model: vectorized uniform
  fake injection and one permutation, no crypto.  This is the throughput
  reference and what benchmarks and large demos use.
* ``"sequential"`` — the SS protocol of Section VI-A1
  (:func:`repro.shuffle.sequential.sequential_shuffle`): an onion-encrypted
  shuffler chain.  Real crypto, but a malicious shuffler can skew its fake
  reports undetected.
* ``"peos"`` — full PEOS (:func:`repro.protocol.peos.peos_shuffle_encoded`):
  secret-shared reports, EOS, AHE — fake reports are uniform as long as one
  shuffler is honest.  About a millisecond per report, fake ones
  included, with r = 3 and the default 512-bit DGK key in pure Python;
  use small flushes.

Backends are constructed unprepared and lazily generate key material on
:meth:`ShuffleBackend.prepare`, so a pipeline can be configured before any
expensive keygen happens.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional

import numpy as np

from ..core.errors import ConfigError
from ..crypto.math_utils import RandomLike, as_random
from ..frequency_oracles.base import FrequencyOracle


class ShuffleBackend(ABC):
    """Releases one flush batch: inject fakes, shuffle, return the multiset."""

    #: registry name ("plain", "sequential", "peos")
    name: str = "abstract"

    def prepare(self, fo: FrequencyOracle, rng: np.random.Generator) -> None:
        """One-time setup (key generation); idempotent."""

    @abstractmethod
    def shuffle(
        self,
        encoded: np.ndarray,
        n_fake: int,
        fo: FrequencyOracle,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return the shuffled encoded multiset of ``len(encoded) + n_fake``."""


class PlainShuffleBackend(ShuffleBackend):
    """Honest-shuffler model without crypto: the throughput path."""

    name = "plain"

    def shuffle(
        self,
        encoded: np.ndarray,
        n_fake: int,
        fo: FrequencyOracle,
        rng: np.random.Generator,
    ) -> np.ndarray:
        codec = fo.ordinal_codec
        fakes = codec.uniform(n_fake, rng)
        merged = codec.concat(encoded, fakes)
        return merged[rng.permutation(len(merged))]


class SequentialShuffleBackend(ShuffleBackend):
    """SS chain: onion encryption through ``r`` shufflers."""

    name = "sequential"

    def __init__(self, r: int = 3, crypto_rng: RandomLike = None):
        if r < 1:
            raise ValueError(f"need at least 1 shuffler, got r={r}")
        self.r = int(r)
        # Coerce once so repeated flushes keep drawing from one stream
        # (an int seed must not be re-seeded per flush).
        self.crypto_rng = as_random(crypto_rng)
        self._keys = None

    def prepare(self, fo: FrequencyOracle, rng: np.random.Generator) -> None:
        from ..shuffle.sequential import generate_keys

        if self._keys is None:
            self._keys = generate_keys(self.r, self.crypto_rng)

    def shuffle(
        self,
        encoded: np.ndarray,
        n_fake: int,
        fo: FrequencyOracle,
        rng: np.random.Generator,
    ) -> np.ndarray:
        from ..shuffle.sequential import sequential_shuffle

        self.prepare(fo, rng)
        result = sequential_shuffle(
            [int(x) for x in encoded],
            fo.report_space,
            self._keys,
            n_fake,
            rng,
            crypto_rng=self.crypto_rng,
        )
        return result.reports


class PeosShuffleBackend(ShuffleBackend):
    """Full PEOS: secret shares, EOS, AHE reconstruction.

    The server's AHE is the paper's DGK (Section VI-A3).  :meth:`prepare`
    generates a ``key_bits`` key whose plaintext space ``Z_{2^l}`` carries
    the oracle's report space through EOS (``l`` from
    :func:`repro.shuffle.eos.plaintext_bits`), and builds its fixed-base
    tables there, so every cost of a key falls on set-up.
    """

    name = "peos"

    def __init__(
        self,
        r: int = 3,
        key_bits: int = 512,
        crypto_rng: RandomLike = None,
        rerandomize: bool = True,
    ):
        if r < 2:
            raise ValueError(f"PEOS needs at least 2 shufflers, got r={r}")
        self.r = int(r)
        self.key_bits = int(key_bits)
        # Coerce once: re-seeding an int per flush would reuse the same
        # encryption randomness for every release.
        self.crypto_rng = as_random(crypto_rng)
        self.rerandomize = bool(rerandomize)
        self._public = None
        self._decrypt = None

    def prepare(self, fo: FrequencyOracle, rng: np.random.Generator) -> None:
        """Generate the key, or check that the one held covers ``fo``.

        A key is tied to one report space, so a reused (or injected) key
        is checked here, at pipeline construction, and not inside EOS
        after a flush has been charged.
        """
        from ..crypto import dgk
        from ..shuffle.eos import ahe_covers, plaintext_bits

        modulus = fo.report_space
        if self._public is None:
            l = plaintext_bits(modulus, self.r)
            minimum = dgk.min_key_bits(l)
            if self.key_bits < minimum:
                raise ConfigError(
                    "key_bits",
                    f"a PEOS key for report space {modulus} (DGK l = {l}) "
                    f"needs at least {minimum} bits, got {self.key_bits}",
                )
            public, private = dgk.generate_keypair(
                l=l, key_bits=self.key_bits, rng=self.crypto_rng
            )
            self._public = public
            self._decrypt = private.decrypt
        elif not ahe_covers(self._public.plaintext_space, modulus, self.r):
            raise ConfigError(
                "backend",
                f"this PEOS backend's key (plaintext space "
                f"{self._public.plaintext_space}) cannot carry report space "
                f"{modulus} with r = {self.r}; use a fresh backend",
            )

    def shuffle(
        self,
        encoded: np.ndarray,
        n_fake: int,
        fo: FrequencyOracle,
        rng: np.random.Generator,
    ) -> np.ndarray:
        from ..protocol.peos import peos_shuffle_encoded

        self.prepare(fo, rng)
        shuffled, __ = peos_shuffle_encoded(
            encoded,
            fo.report_space,
            self.r,
            n_fake,
            self._public,
            self._decrypt,
            rng,
            crypto_rng=self.crypto_rng,
            rerandomize=self.rerandomize,
        )
        return shuffled


#: backend constructors by registry name, in security order (weakest
#: first); BACKEND_NAMES derives from this dict so name validation
#: (facade + StreamConfig) can never drift from what make_backend builds
_BACKENDS = {
    "plain": lambda r, crypto_rng, key_bits: PlainShuffleBackend(),
    "sequential": lambda r, crypto_rng, key_bits: SequentialShuffleBackend(
        r=r, crypto_rng=crypto_rng
    ),
    "peos": lambda r, crypto_rng, key_bits: PeosShuffleBackend(
        r=r, key_bits=key_bits, crypto_rng=crypto_rng
    ),
}

#: the registered backend names
BACKEND_NAMES = tuple(_BACKENDS)


def make_backend(
    name: str,
    r: int = 3,
    crypto_rng: RandomLike = None,
    key_bits: int = 512,
) -> ShuffleBackend:
    """Build a backend by registry name (one of :data:`BACKEND_NAMES`)."""
    factory = _BACKENDS.get(name)
    if factory is None:
        raise ValueError(
            f"unknown shuffle backend: {name!r} "
            f"(registered: {', '.join(BACKEND_NAMES)})"
        )
    return factory(r, crypto_rng, key_bits)
