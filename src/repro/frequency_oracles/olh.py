"""Local-hashing frequency oracles: OLH (LDP-optimal) and SOLH
(shuffler-optimal), sharing one implementation.

Each user draws a seed identifying a hash function ``H : [d] -> [d']`` from
a universal family, and reports ``(seed, GRR_{d'}(H(v)))``.  The server
counts, for each candidate ``v``, the reports whose hash of ``v`` equals the
reported value, then debiases with Eq. (3).

* OLH [54] fixes ``d' = e^eps + 1`` — optimal in the *local* model.
* SOLH (Section IV-B2, the paper's contribution) fixes ``d'`` by Eq. (5)
  from the *central* target, because in the shuffle model the constraint is
  ``e^{eps_l} + d' - 1 = m`` (Theorem 3) rather than a fixed local budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.amplification import ShuffleAmplification, resolve_solh
from ..hashing import HashFamily, default_family
from ..hashing.kernels import support_counts_kernel
from .base import (
    ArrayLike,
    FrequencyOracle,
    perturbation_probabilities,
    randomized_response,
)


@dataclass
class LocalHashReports:
    """Reports of a local-hashing FO: one ``(seed, value)`` pair per user."""

    seeds: np.ndarray  # uint64 hash-function identifiers
    values: np.ndarray  # int64 perturbed hashed values in [d')

    def __len__(self) -> int:
        return len(self.seeds)


class LocalHashingOracle(FrequencyOracle):
    """Local hashing into ``[d']`` followed by ``GRR_{d'}`` perturbation."""

    name = "LH"

    def __init__(
        self,
        d: int,
        eps: float,
        d_prime: int,
        family: Optional[HashFamily] = None,
        chunk_bytes: Optional[int] = None,
    ):
        super().__init__(d)
        if d_prime < 2:
            raise ValueError(f"hash output domain must be >= 2, got {d_prime}")
        self.eps = float(eps)
        self.d_prime = int(d_prime)
        self.family = family if family is not None else default_family()
        self.p, self.q = perturbation_probabilities(eps, d_prime)
        #: None means the kernel's default tile budget
        self._chunk_bytes = chunk_bytes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(d={self.d}, eps={self.eps:.4f}, "
            f"d_prime={self.d_prime})"
        )

    def parameter_tuple(self) -> tuple:
        """Extend the scalar parameters with the hash family's identity.

        The family is part of the estimator: support counts are computed
        by re-evaluating users' hash functions, so counts collected under
        different families (or seed spaces) must never merge.
        """
        return super().parameter_tuple() + (
            ("family", self.family.name, self.family.seed_space),
        )

    @property
    def blanket_gamma(self) -> float:
        """Blanket mass ``gamma = d' q`` of the hashed-value GRR."""
        return self.d_prime * self.q

    def privatize(
        self, values: ArrayLike, rng: np.random.Generator
    ) -> LocalHashReports:
        """Each user samples a seed, hashes, and perturbs the hashed value."""
        values = np.asarray(values, dtype=np.int64)
        if values.size and (values.min() < 0 or values.max() >= self.d):
            raise ValueError(f"values outside domain [0, {self.d})")
        seeds = self.family.sample_seeds(len(values), rng)
        hashed = self.family.hash_pairwise(seeds, values, self.d_prime)
        perturbed = randomized_response(hashed, self.d_prime, self.p, rng)
        return LocalHashReports(seeds=seeds, values=perturbed)

    def support_counts(
        self, reports: LocalHashReports, candidates: Optional[ArrayLike] = None
    ) -> np.ndarray:
        """Count reports with ``H_i(v) == y_i`` for each candidate ``v``.

        Delegates to the shared kernel
        (:func:`repro.hashing.kernels.support_counts_kernel`): uint32
        tiles sized by ``chunk_bytes`` and an axis-0 match count —
        bit-identical to the naive materialize-compare-sum evaluation in
        either orientation.  This is the O(n*d) server-side hot path.
        """
        if candidates is None:
            candidates = np.arange(self.d, dtype=np.int64)
        else:
            candidates = np.asarray(candidates, dtype=np.int64)
        counts = support_counts_kernel(
            self.family,
            reports.seeds,
            reports.values,
            candidates,
            self.d_prime,
            chunk_bytes=self._chunk_bytes,
        )
        return counts.astype(float)

    def estimate(self, counts: np.ndarray, n: int) -> np.ndarray:
        """Eq. (3): ``f_hat = (C/n - 1/d') / (p - 1/d')``."""
        counts = np.asarray(counts, dtype=float)
        baseline = 1.0 / self.d_prime
        return (counts / n - baseline) / (self.p - baseline)

    def sample_support_counts(
        self, histogram: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Marginally exact O(d) sampling of the support counts.

        A report from a user holding ``v`` supports ``v`` w.p. ``p`` and a
        different value w.p. exactly ``1/d'`` (2-universal hashing), so each
        ``C_v ~ Bin(n_v, p) + Bin(n - n_v, 1/d')``.  Cross-value correlation
        through shared seeds is *not* reproduced; experiments that need the
        exact joint (none of the paper's metrics do — MSE depends only on
        marginals) should use the per-user path.
        """
        histogram = np.asarray(histogram, dtype=np.int64)
        if histogram.shape != (self.d,):
            raise ValueError(
                f"histogram must have shape ({self.d},), got {histogram.shape}"
            )
        n = int(histogram.sum())
        true_hits = rng.binomial(histogram, self.p)
        cross_hits = rng.binomial(n - histogram, 1.0 / self.d_prime)
        return (true_hits + cross_hits).astype(float)

    def sample_fake_support_counts(
        self, n_fake: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Marginally exact sampling, matching :meth:`sample_support_counts`.

        A uniform fake ``(seed, y)`` supports any candidate ``v`` w.p.
        exactly ``1/d'`` (``y`` is uniform over ``[d']``), so each count is
        ``Bin(n_fake, 1/d')``; seed-induced cross-value correlation is not
        reproduced.
        """
        if n_fake < 0:
            raise ValueError(f"fake-report count must be >= 0, got {n_fake}")
        return rng.binomial(n_fake, 1.0 / self.d_prime, size=self.d).astype(float)

    # -- PEOS integration --------------------------------------------------

    @property
    def report_space(self) -> int:
        """Ordinal report group: ``seed_space * d'`` (Section VI-A2)."""
        return self.family.seed_space * self.d_prime

    def encode_reports(self, reports: LocalHashReports) -> np.ndarray:
        """Pack ``(seed, y)`` as ``seed * d' + y``.

        Vectorized int64 when the report group fits 64-bit arithmetic
        (e.g. the 32-bit xxHash seed family); one object-dtype fallback
        for 64-bit seed spaces.  The dtype choice is the codec's.
        """
        return self.ordinal_codec.pack_pairs(
            np.asarray(reports.seeds, dtype=np.uint64),
            np.asarray(reports.values, dtype=np.int64),
            self.d_prime,
        )

    def decode_reports(self, encoded: np.ndarray) -> LocalHashReports:
        seeds, values = self.ordinal_codec.unpack_pairs(encoded, self.d_prime)
        return LocalHashReports(seeds=seeds, values=values)

    def fake_report_bias(self) -> float:
        """A uniform fake report matches any ``v`` w.p. exactly the
        estimator baseline ``1/d'``, so its calibrated contribution is 0."""
        return 0.0


class OLH(LocalHashingOracle):
    """Optimized Local Hash [54]: LDP-optimal ``d' = round(e^eps) + 1``."""

    name = "OLH"

    def __init__(self, d: int, eps: float, family: Optional[HashFamily] = None):
        d_prime = max(2, int(round(math.exp(eps))) + 1)
        super().__init__(d, eps, d_prime, family=family)


class SOLH(LocalHashingOracle):
    """Shuffler-Optimal Local Hash (the paper's Section IV-B contribution).

    Construct via :meth:`for_central_target`, which resolves ``(eps_l, d')``
    from the central ``(eps_c, delta)`` target using Theorem 3 and Eq. (5).
    Direct construction with explicit ``(eps, d_prime)`` is also allowed for
    ablations (Table II's fixed-``d'`` rows).
    """

    name = "SOLH"

    @classmethod
    def for_central_target(
        cls,
        d: int,
        eps_c: float,
        n: int,
        delta: float,
        d_prime: Optional[int] = None,
        family: Optional[HashFamily] = None,
    ) -> tuple["SOLH", ShuffleAmplification]:
        """Resolve ``(eps_l, d')`` for a central target and build the oracle.

        With ``d_prime=None`` the Eq. (5) optimum is used; otherwise the
        given value (Theorem 3 still fixes ``eps_l``).  Falls back to local
        OLH parameters when no amplification is possible.
        """
        resolution, resolved_d_prime = resolve_solh(
            eps_c, n, delta, d_prime=d_prime
        )
        oracle = cls(d, resolution.eps_l, resolved_d_prime, family=family)
        return oracle, resolution
