"""Shared fixtures for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    """Deterministic numpy generator, fresh per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_histogram(rng):
    """A small skewed histogram: d=16, n=20000."""
    probabilities = np.array([2.0 ** (-i) for i in range(16)])
    probabilities /= probabilities.sum()
    return rng.multinomial(20_000, probabilities)


@pytest.fixture(scope="session")
def wide_dgk_keys():
    """Session-scoped DGK keypair with 64-bit plaintexts.

    ``Z_{2^64}`` carries every report space the PEOS tests use: a power
    of two up to 2^64 wraps natively (GRR d = 4 or 8, Hadamard 16, EOS
    over 2^32, SOLH d' = 4 over 32-bit seeds), and the others (GRR d = 6
    or 10, SOLH over 32-bit seeds with a d' <= 16 that is no power of two)
    ride EOS's headroom bound.  The l = 32 ``dgk_keys`` cannot stand in:
    a SOLH report space over 32-bit seeds is ``2^32 d'``.
    """
    from repro.crypto import dgk

    return dgk.generate_keypair(l=64, key_bits=640, subgroup_bits=96, rng=2024)


@pytest.fixture(scope="session")
def dgk_keys():
    """Session-scoped DGK keypair with 32-bit plaintexts."""
    from repro.crypto import dgk

    return dgk.generate_keypair(l=32, key_bits=640, subgroup_bits=96, rng=2024)
