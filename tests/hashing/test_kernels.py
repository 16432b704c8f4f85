"""Support-count kernel engine: bit-identity on every path, plan logic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    CarterWegmanHashFamily,
    MultiplyShiftHashFamily,
    XXHash32Family,
    chunk_spans,
    plan_support_counts,
    support_counts_kernel,
    xxhash32_int,
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


def scalar_xxhash32_counts(seeds, reported, candidates, d_out):
    """Counts from the scalar spec transcription, one call per cell."""
    counts = [0] * len(candidates)
    for seed, value in zip(seeds, reported):
        for j, candidate in enumerate(candidates):
            counts[j] += xxhash32_int(candidate, seed) % d_out == value
    return counts


@st.composite
def ragged_walks(draw):
    """``(orientation, n, d, chunk_bytes)`` whose plan walks two or more
    full tiles and then a ragged one."""
    step = draw(st.integers(2, 6), label="rows or columns per tile")
    walked = step * draw(st.integers(2, 4)) + draw(st.integers(1, step - 1))
    if draw(st.booleans(), label="report-major"):
        n, d = walked, draw(st.integers(1, 24), label="d")
        chunk_bytes = 5 * d * step + draw(st.integers(0, 5 * d - 1))
        return "reports", n, d, chunk_bytes
    d = walked
    n = draw(st.integers(2, (d - 1) // step), label="n")
    slack = min(5 * n - 1, 5 * d - 1 - 5 * n * step)
    chunk_bytes = 5 * n * step + draw(st.integers(0, slack))
    return "candidates", n, d, chunk_bytes


class TestXXHash32AgainstScalar:
    """The in-place tile path against the scalar reference, which shares
    no code with it: wide and power-of-two d', candidates whose high lane
    is nonzero, and ragged tiles in both orientations."""

    @given(walk=ragged_walks(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_counts_equal_scalar_reference(self, walk, data):
        orientation, n, d, chunk_bytes = walk
        plan = plan_support_counts(n, d, 2, chunk_bytes)
        walked = n if orientation == "reports" else d
        assert plan.orientation == orientation
        assert walked > 2 * plan.chunk and walked % plan.chunk
        d_out = data.draw(
            st.one_of(
                st.integers(1, (1 << 32) - 1),
                st.integers(0, 31).map(lambda k: 1 << k),
            ),
            label="d_out",
        )
        candidates = data.draw(
            st.lists(
                st.one_of(
                    st.integers(0, (1 << 32) - 1),
                    st.integers(1 << 32, (1 << 64) - 1),
                ),
                min_size=d, max_size=d,
            ),
            label="candidates",
        )
        seeds = data.draw(
            st.lists(st.integers(0, (1 << 64) - 1), min_size=n, max_size=n),
            label="seeds",
        )
        # Most reports carry a true hash of some candidate, so counts are
        # not all zero even when d' is wide.
        reported = []
        for seed in seeds:
            j = data.draw(st.none() | st.integers(0, d - 1))
            reported.append(
                data.draw(st.integers(0, d_out - 1))
                if j is None
                else xxhash32_int(candidates[j], seed) % d_out
            )
        counts = support_counts_kernel(
            XXHash32Family(),
            np.array(seeds, dtype=np.uint64),
            np.array(reported, dtype=np.int64),
            np.array(candidates, dtype=np.uint64),
            d_out,
            chunk_bytes=chunk_bytes,
        )
        assert counts.tolist() == scalar_xxhash32_counts(
            seeds, reported, candidates, d_out
        )


class TestTileBuffers:
    def test_xxhash32_call_allocates_no_tile_temporaries(self, rng):
        """One call at 3,200 x 1,024 walks 50 tiles.  Its traced peak
        stays within its tile, scratch and mask buffers plus per-report
        and per-candidate terms; a tile-sized temporary alive at the peak
        would exceed that."""
        family = XXHash32Family()
        n, d, d_out = 3200, 1024, 16
        plan = plan_support_counts(n, d, d_out)
        assert plan.orientation == "reports" and -(-n // plan.chunk) == 50
        seeds = family.sample_seeds(n, rng)
        reported = rng.integers(0, d_out, n)
        candidates = np.arange(d)
        # 4 + 4 + 1 bytes per tile hash: 576 KiB; plus 48 B per report
        # and 64 B per candidate: 790 KiB in all.
        budget = 9 * plan.chunk * d + 48 * n + 64 * d
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before, __ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            support_counts_kernel(family, seeds, reported, candidates, d_out)
            __, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - before < budget


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
