"""Support-count kernel engine: bit-identity on every path, plan logic."""

import numpy as np
import pytest

from repro.hashing import (
    CarterWegmanHashFamily,
    MultiplyShiftHashFamily,
    XXHash32Family,
    chunk_spans,
    plan_support_counts,
    support_counts_kernel,
)

FAMILIES = [CarterWegmanHashFamily(), MultiplyShiftHashFamily(), XXHash32Family()]


@pytest.fixture(params=FAMILIES, ids=lambda f: f.name)
def family(request):
    return request.param


def naive_counts(family, seeds, reported, candidates, d_out):
    """The pre-kernel reference: materialize, compare, reduce."""
    hashed = family.hash_outer(seeds, candidates, d_out)
    return (hashed == np.asarray(reported)[:, None]).sum(axis=0)


class TestBitIdentity:
    """Every execution path must reproduce the naive counts exactly."""

    def test_matches_naive_materialization(self, family, rng):
        seeds = family.sample_seeds(300, rng)
        reported = rng.integers(0, 8, 300)
        candidates = np.arange(50)
        counts = support_counts_kernel(family, seeds, reported, candidates, 8)
        assert counts.dtype == np.int64
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()

    def test_candidate_subset_and_order(self, family, rng):
        seeds = family.sample_seeds(120, rng)
        reported = rng.integers(0, 4, 120)
        candidates = np.array([7, 3, 3, 41, 0])
        counts = support_counts_kernel(family, seeds, reported, candidates, 4)
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 4
        ).tolist()

    def test_tiny_chunk_bytes_forces_candidate_major(self, family, rng):
        seeds = family.sample_seeds(200, rng)
        reported = rng.integers(0, 8, 200)
        candidates = np.arange(30)
        plan = plan_support_counts(200, 30, 8, chunk_bytes=64)
        assert plan.orientation == "candidates"
        tiny = support_counts_kernel(
            family, seeds, reported, candidates, 8, chunk_bytes=64
        )
        assert tiny.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()

    def test_report_major_chunking_invariant(self, family, rng):
        seeds = family.sample_seeds(500, rng)
        reported = rng.integers(0, 8, 500)
        candidates = np.arange(10)
        one_shot = support_counts_kernel(family, seeds, reported, candidates, 8)
        chunked = support_counts_kernel(
            family, seeds, reported, candidates, 8, chunk_bytes=400
        )
        assert one_shot.tolist() == chunked.tolist()

    def test_duplicated_32bit_seeds(self, rng):
        """Reports sharing a 32-bit seed each count on their own."""
        family = XXHash32Family()
        seeds = np.repeat(family.sample_seeds(40, rng), 10)
        reported = rng.integers(0, 8, len(seeds))
        candidates = np.arange(25)
        counts = support_counts_kernel(family, seeds, reported, candidates, 8)
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()

    def test_duplicated_32bit_seeds_chunked(self, rng):
        family = XXHash32Family()
        seeds = np.repeat(family.sample_seeds(64, rng), 8)
        reported = rng.integers(0, 4, len(seeds))
        candidates = np.arange(40)
        counts = support_counts_kernel(
            family, seeds, reported, candidates, 4, chunk_bytes=4096
        )
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 4
        ).tolist()

    def test_64bit_seed_space_skips_grouping(self, rng):
        """Duplicated 64-bit Carter-Wegman seeds count like distinct ones."""
        family = CarterWegmanHashFamily()
        seeds = np.repeat(family.sample_seeds(20, rng), 10)
        reported = rng.integers(0, 8, len(seeds))
        candidates = np.arange(15)
        counts = support_counts_kernel(family, seeds, reported, candidates, 8)
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()

    def test_d_out_one_counts_everything(self, family):
        seeds = np.arange(10, dtype=np.uint64)
        reported = np.zeros(10, dtype=np.int64)
        counts = support_counts_kernel(family, seeds, reported, np.arange(6), 1)
        assert counts.tolist() == [10] * 6

    def test_empty_reports(self, family):
        counts = support_counts_kernel(
            family, np.array([], dtype=np.uint64), np.array([], dtype=np.int64),
            np.arange(5), 8,
        )
        assert counts.tolist() == [0] * 5

    def test_empty_candidates(self, family, rng):
        seeds = family.sample_seeds(10, rng)
        counts = support_counts_kernel(
            family, seeds, rng.integers(0, 8, 10),
            np.array([], dtype=np.int64), 8,
        )
        assert counts.shape == (0,)


class TestTileEdges:
    """Ragged last tiles and stripes at the default cache-sized budget."""

    @pytest.mark.parametrize("d_out", [1, 2, 7, 16])
    def test_three_tiles_plus_one_row(self, family, rng, d_out):
        d = 1024
        rows = plan_support_counts(1 << 20, d, d_out).chunk
        n = 3 * rows + 1
        plan = plan_support_counts(n, d, d_out)
        assert plan.orientation == "reports" and plan.chunk == rows
        seeds = family.sample_seeds(n, rng)
        reported = rng.integers(0, d_out, n)
        candidates = np.arange(d)
        counts = support_counts_kernel(
            family, seeds, reported, candidates, d_out
        )
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, d_out
        ).tolist()

    def test_pinned_candidate_major_ragged_stripe(self, family, rng):
        n, d, d_out = 193, 1024, 7
        plan = plan_support_counts(n, d, d_out, chunk_bytes=5000)
        assert plan.orientation == "candidates"
        assert d % plan.chunk != 0
        seeds = family.sample_seeds(n, rng)
        reported = rng.integers(0, d_out, n)
        candidates = np.arange(d)
        counts = support_counts_kernel(
            family, seeds, reported, candidates, d_out, plan=plan
        )
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, d_out
        ).tolist()


class TestReportedRange:
    """A value outside ``[0, d')`` raises instead of counting zero,
    whether the reports share seeds or not."""

    def _reports(self, rng, seeds_per_report):
        family = XXHash32Family()
        seeds = np.repeat(family.sample_seeds(20, rng), seeds_per_report)
        reported = rng.integers(0, 4, len(seeds))
        return family, seeds, reported, np.arange(100)

    @pytest.mark.parametrize("bad", [4, -1])
    def test_unique_path_rejects(self, rng, bad):
        """Reports that share seeds (duplicated 32-bit seeds)."""
        family, seeds, reported, candidates = self._reports(rng, 2)
        reported[5] = bad
        with pytest.raises(ValueError, match=f"reported value {bad} "):
            support_counts_kernel(family, seeds, reported, candidates, 4)

    @pytest.mark.parametrize("bad", [4, -1])
    def test_standard_path_rejects(self, rng, bad):
        """Distinct seeds under an explicit report-major plan."""
        family, seeds, reported, candidates = self._reports(rng, 1)
        plan = plan_support_counts(len(seeds), len(candidates), 4)
        assert plan.orientation == "reports"
        reported[5] = bad
        with pytest.raises(ValueError, match=f"reported value {bad} "):
            support_counts_kernel(
                family, seeds, reported, candidates, 4, plan=plan
            )


class TestPlan:
    def test_full_matrix_fits_one_chunk(self):
        plan = plan_support_counts(1_000, 10, 16)
        assert plan.orientation == "reports"
        assert plan.chunk == 1_000
        assert plan.hashes_evaluated == 10_000

    def test_wide_candidate_axis_flips_orientation(self):
        plan = plan_support_counts(10, 1_000_000, 16, chunk_bytes=1 << 20)
        assert plan.orientation == "candidates"
        assert 1 <= plan.chunk < 1_000_000
        assert plan.peak_intermediate_bytes <= (1 << 20)

    def test_peak_bytes_scale_with_chunk(self):
        small = plan_support_counts(10_000, 128, 16, chunk_bytes=1 << 16)
        large = plan_support_counts(10_000, 128, 16, chunk_bytes=1 << 26)
        assert small.peak_intermediate_bytes < large.peak_intermediate_bytes
        assert small.peak_intermediate_bytes <= (1 << 16)

    def test_explicit_plan_overrides_auto(self, rng):
        family = CarterWegmanHashFamily()
        seeds = family.sample_seeds(50, rng)
        reported = rng.integers(0, 8, 50)
        candidates = np.arange(20)
        forced = plan_support_counts(50, 20, 8, chunk_bytes=128)
        counts = support_counts_kernel(
            family, seeds, reported, candidates, 8, plan=forced
        )
        assert counts.tolist() == naive_counts(
            family, seeds, reported, candidates, 8
        ).tolist()


class TestChunkSpans:
    def test_covers_range_exactly(self):
        spans = list(chunk_spans(10, 3))
        assert spans == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_degenerate_chunk_clamped_to_one(self):
        assert list(chunk_spans(3, 0)) == [(0, 1), (1, 2), (2, 3)]

    def test_empty_total(self):
        assert list(chunk_spans(0, 5)) == []
