"""Hash families: determinism, consistency across APIs, and universality."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing import (
    CarterWegmanHashFamily,
    MultiplyShiftHashFamily,
    XXHash32Family,
    default_family,
    splitmix64,
)

FAMILIES = [CarterWegmanHashFamily(), MultiplyShiftHashFamily(), XXHash32Family()]


@pytest.fixture(params=FAMILIES, ids=lambda f: f.name)
def family(request):
    return request.param


class TestConsistency:
    """All three evaluation APIs must agree."""

    def test_hash_values_matches_scalar(self, family, rng):
        seed = family.sample_seed(rng)
        values = np.arange(50)
        vectorized = family.hash_values(seed, values, 16)
        scalar = [family.hash_value(seed, int(v), 16) for v in values]
        assert vectorized.tolist() == scalar

    def test_hash_outer_matches_scalar(self, family, rng):
        seeds = family.sample_seeds(10, rng)
        values = np.arange(20)
        matrix = family.hash_outer(seeds, values, 8)
        assert matrix.shape == (10, 20)
        for i in range(10):
            for j in range(20):
                assert matrix[i, j] == family.hash_value(int(seeds[i]), j, 8)

    def test_hash_pairwise_matches_scalar(self, family, rng):
        seeds = family.sample_seeds(30, rng)
        values = rng.integers(0, 100, 30)
        pairwise = family.hash_pairwise(seeds, values, 8)
        for i in range(30):
            assert pairwise[i] == family.hash_value(int(seeds[i]), int(values[i]), 8)

    def test_deterministic_across_calls(self, family, rng):
        seed = family.sample_seed(rng)
        first = family.hash_values(seed, np.arange(100), 32)
        second = family.hash_values(seed, np.arange(100), 32)
        assert (first == second).all()


#: largest value each family's domain admits (CW is bounded by its prime)
FAMILY_MAX_VALUE = {
    "carter-wegman": (1 << 31) - 2,
    "multiply-shift": (1 << 64) - 1,
    "xxhash32": (1 << 64) - 1,
}


class TestCrossPathAgreement:
    """Property: hash_value == hash_values == hash_outer == hash_pairwise.

    Exercised on the edge inputs — value 0, the family's max domain value,
    ``d_out=1``, a ``d_out`` past 2^32 (where a 32-bit hash is already
    reduced but a 64-bit mix is not) — plus a random sample, for every
    family.
    """

    @pytest.mark.parametrize("d_out", [1, 2, 16, 257, (1 << 32) + 15])
    def test_all_paths_agree_on_edge_values(self, family, rng, d_out):
        values = np.array(
            [0, 1, 2, FAMILY_MAX_VALUE[family.name]], dtype=np.uint64
        )
        seeds = family.sample_seeds(len(values), rng)
        scalar = [
            [family.hash_value(int(s), int(v), d_out) for v in values]
            for s in seeds
        ]
        outer = family.hash_outer(seeds, values, d_out)
        assert outer.tolist() == scalar
        if d_out <= 1 << 32:
            outer_u32 = family.hash_outer_u32(seeds, values, d_out)
            assert outer_u32.dtype == np.uint32
            assert outer_u32.tolist() == scalar
        for i, seed in enumerate(seeds):
            assert family.hash_values(int(seed), values, d_out).tolist() == scalar[i]
        pairwise = family.hash_pairwise(seeds, values, d_out)
        assert pairwise.tolist() == [scalar[i][i] for i in range(len(values))]

    def test_empty_arrays(self, family, rng):
        seeds = family.sample_seeds(4, rng)
        empty = np.array([], dtype=np.int64)
        assert family.hash_values(int(seeds[0]), empty, 8).shape == (0,)
        assert family.hash_outer(seeds, empty, 8).shape == (4, 0)
        assert family.hash_outer(empty.astype(np.uint64), np.arange(5), 8).shape == (0, 5)
        assert family.hash_pairwise(empty.astype(np.uint64), empty, 8).shape == (0,)

    def test_hash_outer_u32_matches_hash_outer(self, family, rng):
        seeds = family.sample_seeds(12, rng)
        values = np.arange(33)
        assert (
            family.hash_outer_u32(seeds, values, 7).astype(np.int64).tolist()
            == family.hash_outer(seeds, values, 7).tolist()
        )


class TestModDOutU32:
    """On uint32 hashes, the libdivide remainder ``h - (h // d) * d`` is
    exactly ``h % d``."""

    @pytest.mark.parametrize(
        "d_out",
        [1, 2, 3, 7, 13, 16, 1023, (1 << 31) - 1, 1 << 31, (1 << 32) - 1],
    )
    def test_matches_remainder_on_edge_values(self, d_out):
        from repro.hashing.families import _mod_d_out

        hashes = np.array([0, 1, 1 << 31, (1 << 32) - 1], dtype=np.uint32)
        reduced = _mod_d_out(hashes, d_out)
        assert reduced.dtype == np.uint32
        assert reduced.tolist() == [int(h) % d_out for h in hashes]


class TestModDOutU64:
    """On uint64 mixes, the reduction is exact for every ``d_out`` below
    2^64, and the identity from 2^64 on."""

    @pytest.mark.parametrize(
        "d_out",
        [1, 3, 16, 1023, (1 << 32) - 1, 1 << 32, (1 << 32) + 15,
         1 << 63, (1 << 64) - 1, 1 << 64, (1 << 64) + 3],
    )
    def test_matches_remainder_on_edge_values(self, d_out):
        from repro.hashing.families import _mod_d_out

        hashes = np.array(
            [0, 1, (1 << 32) - 1, 1 << 32, (1 << 63) + 5, (1 << 64) - 1],
            dtype=np.uint64,
        )
        reduced = _mod_d_out(hashes, d_out)
        assert reduced.dtype == np.uint64
        assert reduced.tolist() == [int(h) % d_out for h in hashes]


class TestRange:
    @pytest.mark.parametrize("d_out", [2, 3, 7, 16, 257])
    def test_output_in_range(self, family, rng, d_out):
        seeds = family.sample_seeds(20, rng)
        matrix = family.hash_outer(seeds, np.arange(50), d_out)
        assert matrix.min() >= 0
        assert matrix.max() < d_out

    def test_seed_space_respected(self, family, rng):
        seeds = family.sample_seeds(1000, rng)
        assert int(seeds.max()) < family.seed_space


class TestUniversality:
    """Statistical checks on the collision behaviour SOLH relies on."""

    def test_collision_rate_near_one_over_dout(self, rng):
        # For fixed distinct (v, w), Pr over H of collision should be ~1/d'.
        family = CarterWegmanHashFamily()
        d_out = 8
        seeds = family.sample_seeds(4000, rng)
        a = family.hash_outer(seeds, np.array([3]), d_out)[:, 0]
        b = family.hash_outer(seeds, np.array([77]), d_out)[:, 0]
        rate = float((a == b).mean())
        assert abs(rate - 1.0 / d_out) < 0.03

    def test_single_function_balanced(self, rng):
        family = CarterWegmanHashFamily()
        seed = family.sample_seed(rng)
        outputs = family.hash_values(seed, np.arange(80_000), 16)
        counts = np.bincount(outputs, minlength=16)
        # Carter-Wegman is affine, hence almost perfectly balanced.
        assert counts.min() > 80_000 / 16 * 0.9
        assert counts.max() < 80_000 / 16 * 1.1

    def test_different_seeds_give_different_functions(self, rng):
        family = CarterWegmanHashFamily()
        values = np.arange(64)
        out1 = family.hash_values(1, values, 64)
        out2 = family.hash_values(2, values, 64)
        assert not (out1 == out2).all()


class TestCarterWegmanDomain:
    """Domain validation must be consistent across every evaluation path."""

    def test_rejects_value_at_mersenne_prime(self):
        family = CarterWegmanHashFamily()
        with pytest.raises(ValueError):
            family.hash_value(0, (1 << 31) - 1, 4)

    def test_large_domain_value_ok(self):
        family = CarterWegmanHashFamily()
        assert 0 <= family.hash_value(5, (1 << 31) - 2, 4) < 4

    @pytest.mark.parametrize("bad", [-1, (1 << 31) - 1, 1 << 40])
    def test_vectorized_paths_reject_out_of_range(self, bad):
        """The vector paths used to silently alias ``v mod p``; now every
        path applies the scalar path's gate."""
        family = CarterWegmanHashFamily()
        seeds = np.arange(3, dtype=np.uint64)
        values = np.array([0, bad, 5], dtype=np.int64)
        with pytest.raises(ValueError, match="outside"):
            family.hash_values(1, values, 4)
        with pytest.raises(ValueError, match="outside"):
            family.hash_outer(seeds, values, 4)
        with pytest.raises(ValueError, match="outside"):
            family.hash_outer_u32(seeds, values, 4)
        with pytest.raises(ValueError, match="outside"):
            family.hash_pairwise(seeds, values, 4)

    def test_xxhash32_vector_paths_reject_negatives(self):
        family = XXHash32Family()
        with pytest.raises(ValueError, match="outside"):
            family.hash_values(1, np.array([0, -3]), 4)
        with pytest.raises(ValueError, match="outside"):
            family.hash_outer(np.arange(2, dtype=np.uint64), np.array([-1]), 4)


class TestSplitmix:
    def test_known_nonzero(self):
        assert splitmix64(0) != 0

    def test_bijective_sample(self):
        outputs = {splitmix64(i) for i in range(10_000)}
        assert len(outputs) == 10_000

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=200, deadline=None)
    def test_in_range(self, value):
        assert 0 <= splitmix64(value) < (1 << 64)


class TestDefaultFamily:
    def test_is_carter_wegman_singleton(self):
        assert isinstance(default_family(), CarterWegmanHashFamily)
        assert default_family() is default_family()


@given(
    seed=st.integers(min_value=0, max_value=(1 << 64) - 1),
    value=st.integers(min_value=0, max_value=(1 << 31) - 2),
    d_out=st.integers(min_value=2, max_value=1000),
)
@settings(max_examples=200, deadline=None)
def test_cw_scalar_vector_agree_property(seed, value, d_out):
    """Property: the scalar and vector CW paths agree on arbitrary inputs."""
    family = CarterWegmanHashFamily()
    scalar = family.hash_value(seed, value, d_out)
    vector = family.hash_values(seed, np.array([value]), d_out)[0]
    assert scalar == vector
