"""Incremental frequency estimation over a stream of flushed batches.

The one-shot pipeline computes ``estimate(support_counts(reports), n)``
over all reports at once.  Support counts are additive and the Eq. (2)/(3)
estimators are affine in the counts, so a running sum of per-batch counts
reproduces the one-shot estimate *exactly* — bit for bit — which is what
makes streaming aggregation possible without storing reports.

:class:`IncrementalAggregator` keeps three scalars of state besides the
``d``-vector of counts: genuine reports folded, fake reports folded, and
the number of batches.  :meth:`estimates` applies the estimator over
``n + n_r`` reports and then the Eq. (6) fake-report recalibration.

Two fold paths mirror the one-shot code:

* the **materialized** path (:meth:`fold_reports`) counts real decoded
  reports via the oracle's ``support_counts`` — which for the
  local-hashing oracles is the shared low-allocation kernel
  (:func:`repro.hashing.kernels.support_counts_kernel`) — used with the
  crypto backends;
* the **statistical** path (:meth:`fold_histogram`) draws the counts
  directly from a per-epoch value histogram via ``sample_support_counts``
  plus ``sample_fake_support_counts`` — the O(d) no-materialization path
  for paper-scale simulation.

``merge`` combines aggregators from disjoint shards (same additivity
argument) — the seam :class:`repro.service.sharded.ShardedPipeline`
folds its per-shard state through to produce global estimates.
"""

from __future__ import annotations

import numpy as np

from ..frequency_oracles.base import FrequencyOracle


class IncrementalAggregator:
    """Running support counts and calibrated estimates for one oracle."""

    def __init__(self, fo: FrequencyOracle):
        self.fo = fo
        self._counts = np.zeros(fo.d)
        self.n_genuine = 0
        self.n_fake = 0
        self.n_batches = 0

    def __repr__(self) -> str:
        return (
            f"IncrementalAggregator({self.fo!r}, batches={self.n_batches}, "
            f"n={self.n_genuine}, n_r={self.n_fake})"
        )

    @property
    def support_counts(self) -> np.ndarray:
        """Copy of the running full-domain support counts."""
        return self._counts.copy()

    @property
    def total_reports(self) -> int:
        return self.n_genuine + self.n_fake

    # -- folding -----------------------------------------------------------

    def fold_counts(
        self, counts: np.ndarray, n_genuine: int, n_fake: int
    ) -> None:
        """Add one batch's full-domain support counts to the running sum."""
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (self.fo.d,):
            raise ValueError(
                f"counts must have shape ({self.fo.d},), got {counts.shape}"
            )
        if not np.all(np.isfinite(counts)):
            bad = int(np.flatnonzero(~np.isfinite(counts))[0])
            raise ValueError(
                f"batch {self.n_batches} has a non-finite support count "
                f"({counts[bad]}) at value {bad}; folding it would silently "
                f"poison every later estimate"
            )
        if n_genuine < 0 or n_fake < 0:
            raise ValueError(
                f"report counts must be >= 0, got n={n_genuine}, n_r={n_fake}"
            )
        self._counts += counts
        self.n_genuine += int(n_genuine)
        self.n_fake += int(n_fake)
        self.n_batches += 1

    def fold_reports(
        self, decoded_reports, n_genuine: int, n_fake: int
    ) -> None:
        """Count and fold one shuffled batch (genuine + fake, mixed)."""
        if len(decoded_reports) != n_genuine + n_fake:
            raise ValueError(
                f"batch has {len(decoded_reports)} reports but claims "
                f"{n_genuine} genuine + {n_fake} fake"
            )
        counts = self.fo.support_counts(decoded_reports)
        self.fold_counts(counts, n_genuine, n_fake)

    def fold_histogram(
        self, histogram: np.ndarray, n_fake: int, rng: np.random.Generator
    ) -> None:
        """Statistical path: sample one batch's counts from a histogram."""
        histogram = np.asarray(histogram, dtype=np.int64)
        counts = self.fo.sample_support_counts(histogram, rng)
        counts = counts + self.fo.sample_fake_support_counts(n_fake, rng)
        self.fold_counts(counts, int(histogram.sum()), n_fake)

    def merge(self, other: "IncrementalAggregator") -> None:
        """Absorb another shard's state.

        The shards' oracles must match in *every* parameter (mechanism,
        domain, local budget, hash domain) — the counts are debiased with
        this aggregator's ``p``/``q`` at estimate time, so folding counts
        sampled under different perturbation probabilities would silently
        bias the result.  Compatibility is decided by
        :meth:`~repro.frequency_oracles.base.FrequencyOracle.compatible_with`
        on the oracles' parameter tuples — never by ``repr``, which a
        subclass may truncate without surfacing every parameter.

        Because support counts are integer-valued (float storage
        notwithstanding) their float sums are exact below ``2**53``
        reports, so merging shards in any order or grouping produces
        bit-identical state — the property the sharded pipeline's
        determinism contract rests on.
        """
        if not self.fo.compatible_with(other.fo):
            raise ValueError(
                f"cannot merge {other.fo!r} into {self.fo!r}: oracle "
                f"parameter mismatch ({other.fo.parameter_tuple()} vs "
                f"{self.fo.parameter_tuple()})"
            )
        self._counts += other._counts
        self.n_genuine += other.n_genuine
        self.n_fake += other.n_fake
        self.n_batches += other.n_batches

    # -- estimation --------------------------------------------------------

    def estimates(self) -> np.ndarray:
        """Calibrated frequency estimates over everything folded so far.

        Identical (bit for bit) to a one-shot ``estimate`` +
        ``calibrate_with_fakes`` over the concatenation of every folded
        batch's reports.
        """
        if self.total_reports == 0:
            return np.zeros(self.fo.d)
        raw = self.fo.estimate(self._counts, self.total_reports)
        return self.fo.calibrate_with_fakes(raw, self.n_genuine, self.n_fake)
