"""Frequency-oracle framework: the encode / perturb / aggregate / estimate
pipeline shared by every mechanism in the paper.

A *frequency oracle* (FO) lets a server estimate the frequency of every
value ``v`` in a finite domain ``[d] = {0, .., d-1}`` from privatized user
reports.  The pipeline is:

1. ``privatize(values, rng)`` — each user perturbs their value locally,
   producing a *report* (mechanism-specific container).
2. ``support_counts(reports, candidates)`` — the server counts, for each
   candidate value, how many reports "support" it.
3. ``estimate(counts, n)`` — debias the counts into frequency estimates
   (Equations (2), (3) and friends).

The estimate is over whatever population produced the reports; shuffle- and
PEOS-specific recalibration (Eq. (6)) lives in
:meth:`FrequencyOracle.calibrate_with_fakes`.

Two conventions matter for the rest of the library:

* Reports of GRR and local-hashing FOs can be serialized to integers in
  ``[0, report_space)`` (``encode_report`` / ``decode_report``), which is
  what PEOS secret-shares (Section VI-A2's ordinal group).
* ``sample_support_counts(histogram, rng)`` draws the support counts
  *distributionally exactly* from the true histogram without materializing
  per-user reports — the O(d)-instead-of-O(n*d) path used by the Figure 3 /
  Table II benchmarks at paper scale.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Union

import numpy as np

ArrayLike = Union[Sequence[int], np.ndarray]


class FrequencyOracle(ABC):
    """Abstract frequency oracle over the domain ``[d]``."""

    #: short mechanism name used in experiment tables ("GRR", "SOLH", ...)
    name: str = "abstract"

    def __init__(self, d: int):
        if d < 2:
            raise ValueError(f"domain size must be >= 2, got d={d}")
        self.d = int(d)

    # -- local side -------------------------------------------------------

    @abstractmethod
    def privatize(self, values: ArrayLike, rng: np.random.Generator):
        """Perturb each user's value; returns a mechanism-specific report
        container with one report per input value."""

    # -- server side ------------------------------------------------------

    @abstractmethod
    def support_counts(
        self, reports, candidates: Optional[ArrayLike] = None
    ) -> np.ndarray:
        """Count supporting reports for each candidate value.

        ``candidates=None`` means the full domain ``range(d)``.  Returns a
        float array aligned with ``candidates``.
        """

    @abstractmethod
    def estimate(self, counts: np.ndarray, n: int) -> np.ndarray:
        """Debias support counts from ``n`` reports into frequency estimates."""

    # -- compatibility -----------------------------------------------------

    def parameter_tuple(self) -> tuple:
        """The parameters that decide estimator compatibility.

        Two oracles whose parameter tuples are equal debias support counts
        identically, so counts folded under one may be merged into an
        aggregate kept under the other
        (:meth:`repro.service.aggregator.IncrementalAggregator.merge`).
        The default collects the concrete type plus every public scalar
        attribute — which covers ``d``, ``eps``, ``p``/``q``, ``d_prime``
        for the built-in mechanisms; subclasses with non-scalar parameters
        (e.g. a hash family) must extend it.  Private attributes (caches,
        chunk sizes) are deliberately excluded: they tune execution, not
        the estimator.
        """
        scalars = tuple(
            (key, value)
            for key, value in sorted(vars(self).items())
            if not key.startswith("_")
            and isinstance(value, (bool, int, float, str))
        )
        return (type(self).__name__, scalars)

    def compatible_with(self, other: "FrequencyOracle") -> bool:
        """True iff ``other``'s counts may be merged into ours.

        An explicit parameter comparison — never ``repr``-based, which a
        subclass could truncate and thereby let incompatible shards merge
        silently.  The type name participates, so a subclass is never
        conflated with its parent even at identical parameters (refusing a
        sound merge is recoverable; silently biasing estimates is not).
        """
        return (
            isinstance(other, FrequencyOracle)
            and self.parameter_tuple() == other.parameter_tuple()
        )

    # -- conveniences -----------------------------------------------------

    def run(
        self,
        values: ArrayLike,
        rng: np.random.Generator,
        candidates: Optional[ArrayLike] = None,
    ) -> np.ndarray:
        """End-to-end: privatize every value, aggregate, and estimate."""
        values = np.asarray(values)
        reports = self.privatize(values, rng)
        counts = self.support_counts(reports, candidates)
        return self.estimate(counts, len(values))

    def sample_support_counts(
        self, histogram: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw full-domain support counts directly from the true histogram.

        Must be distributionally identical to privatizing ``histogram[v]``
        users per value and aggregating.  The default implementation
        actually does that (subclasses override with closed-form sampling).
        """
        values = np.repeat(np.arange(self.d), np.asarray(histogram, dtype=np.int64))
        reports = self.privatize(values, rng)
        return self.support_counts(reports)

    def estimate_from_histogram(
        self, histogram: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Simulate one mechanism run on a population given by ``histogram``."""
        histogram = np.asarray(histogram, dtype=np.int64)
        counts = self.sample_support_counts(histogram, rng)
        return self.estimate(counts, int(histogram.sum()))

    def sample_fake_support_counts(
        self, n_fake: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Full-domain support counts of ``n_fake`` uniform fake reports.

        Fake reports are uniform draws from the ordinal report space
        (Section VI-A2), so the default implementation materializes them
        through ``decode_reports``; subclasses override with closed-form
        sampling matching the exactness contract of
        :meth:`sample_support_counts`.  Used by the streaming service's
        statistical aggregation path (:mod:`repro.service.aggregator`).
        """
        from ..crypto.secret_sharing import uniform_array

        if n_fake < 0:
            raise ValueError(f"fake-report count must be >= 0, got {n_fake}")
        if n_fake == 0:
            return np.zeros(self.d)
        encoded = uniform_array(self.report_space, n_fake, rng)
        return self.support_counts(self.decode_reports(encoded))

    # -- PEOS integration ---------------------------------------------------

    @property
    def report_space(self) -> int:
        """Size of the ordinal report group {0..x} (Section VI-A2).

        Mechanisms that PEOS cannot shuffle (unary encodings, whose reports
        are vectors) raise ``NotImplementedError``.
        """
        raise NotImplementedError(f"{self.name} reports are not ordinal-encodable")

    @property
    def ordinal_codec(self):
        """The :class:`~repro.core.ordinal.OrdinalCodec` for this oracle's
        report group — the single dtype authority (int64 fast path or
        object fallback) every encode/decode/share/concat site uses.

        Raises ``NotImplementedError`` for non-ordinal mechanisms, via
        :attr:`report_space`.
        """
        from ..core.ordinal import OrdinalCodec

        codec = self.__dict__.get("_ordinal_codec")
        if codec is None or codec.space != self.report_space:
            codec = OrdinalCodec(self.report_space)
            self.__dict__["_ordinal_codec"] = codec
        return codec

    def encode_reports(self, reports) -> np.ndarray:
        """Serialize reports to integers in ``[0, report_space)``."""
        raise NotImplementedError(f"{self.name} reports are not ordinal-encodable")

    def decode_reports(self, encoded: np.ndarray):
        """Inverse of :meth:`encode_reports`."""
        raise NotImplementedError(f"{self.name} reports are not ordinal-encodable")

    def fake_report_bias(self) -> float:
        """Expected calibrated contribution of one uniform fake report.

        A fake report drawn uniformly from the report space supports a fixed
        value ``v`` with some probability ``u``; after the estimator's
        debiasing this contributes ``(u - baseline) / (p - baseline)`` to the
        frequency estimate.  GRR yields ``1/d`` (giving exactly Eq. (6));
        local hashing yields ``0`` because a uniform report matches at the
        estimator baseline ``1/d'``.
        """
        raise NotImplementedError(f"{self.name} has no fake-report analysis")

    def calibrate_with_fakes(
        self, estimates: np.ndarray, n: int, n_r: int
    ) -> np.ndarray:
        """Eq. (6): recover true-population frequencies from an estimate
        computed over ``n`` genuine plus ``n_r`` uniform fake reports."""
        if n_r < 0:
            raise ValueError(f"fake-report count must be >= 0, got {n_r}")
        if n == 0:
            # Degenerate all-fake run (used by attack analyses): there is no
            # user population to estimate.
            return np.zeros_like(np.asarray(estimates, dtype=float))
        if n_r == 0:
            # Identity; short-circuit so the no-fakes path is bit-exact.
            return np.asarray(estimates, dtype=float).copy()
        total = n + n_r
        return (total * np.asarray(estimates, dtype=float)
                - n_r * self.fake_report_bias()) / n


def perturbation_probabilities(eps: float, k: int) -> tuple[float, float]:
    """GRR keep/switch probabilities over a ``k``-ary domain (Eq. (1)):
    ``p = e^eps / (e^eps + k - 1)``, ``q = 1 / (e^eps + k - 1)``.
    """
    if eps <= 0.0:
        raise ValueError(f"epsilon must be positive, got {eps}")
    if k < 2:
        raise ValueError(f"report domain must be >= 2, got {k}")
    e = np.exp(eps)
    return float(e / (e + k - 1)), float(1.0 / (e + k - 1))


def randomized_response(
    values: np.ndarray, k: int, p: float, rng: np.random.Generator
) -> np.ndarray:
    """Vectorized k-ary randomized response.

    Each entry keeps its value with probability ``p`` and otherwise becomes
    a uniform draw from the *other* ``k - 1`` values.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size and (values.min() < 0 or values.max() >= k):
        raise ValueError(f"values outside report domain [0, {k})")
    keep = rng.random(values.shape) < p
    # Uniform over the k-1 values != v: draw from [0, k-1) and skip v.
    others = rng.integers(0, k - 1, size=values.shape, dtype=np.int64)
    others += (others >= values).astype(np.int64)
    return np.where(keep, values, others)


def normalize_estimates(estimates: np.ndarray, mode: str = "none") -> np.ndarray:
    """Optional post-processing of frequency estimates.

    ``"none"`` returns a copy; ``"clip"`` clamps to ``[0, 1]``; ``"norm"``
    clips negatives then rescales to sum to 1 (useful for downstream
    consumers that need a distribution; the paper's MSE metric uses raw
    estimates, so benchmarks default to ``"none"``).
    """
    estimates = np.asarray(estimates, dtype=float).copy()
    if mode == "none":
        return estimates
    if mode == "clip":
        return np.clip(estimates, 0.0, 1.0)
    if mode == "norm":
        estimates = np.clip(estimates, 0.0, None)
        total = estimates.sum()
        if total > 0:
            estimates /= total
        return estimates
    raise ValueError(f"unknown normalization mode: {mode!r}")
