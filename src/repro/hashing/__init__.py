"""Seeded hash families and the support-count kernel engine.

:mod:`repro.hashing.families` defines the universal families local-hashing
oracles draw from; :mod:`repro.hashing.kernels` holds the one tiled
O(n*d) support-count kernel every aggregation path routes through;
:mod:`repro.hashing.xxhash32` provides both the scalar xxHash32 reference
and the vectorized fixed-width array path.
"""

from .families import (
    CarterWegmanHashFamily,
    HashFamily,
    MultiplyShiftHashFamily,
    XXHash32Family,
    default_family,
    splitmix64,
)
from .kernels import (
    KernelPlan,
    chunk_spans,
    plan_support_counts,
    support_counts_kernel,
)
from .xxhash32 import xxhash32, xxhash32_int, xxhash32_int_array

__all__ = [
    "CarterWegmanHashFamily",
    "HashFamily",
    "KernelPlan",
    "MultiplyShiftHashFamily",
    "XXHash32Family",
    "chunk_spans",
    "default_family",
    "plan_support_counts",
    "splitmix64",
    "support_counts_kernel",
    "xxhash32",
    "xxhash32_int",
    "xxhash32_int_array",
]
