"""``repro.api`` — the library's one typed front door.

Every deployment style the reproduction supports — a one-shot estimate, a
Figure-3-style sweep, a continuously running telemetry stream — used to
have its own entry point with its own parameter spellings.  This facade
unifies them behind three small types:

>>> import numpy as np
>>> from repro.api import DeploymentConfig, PrivacyBudget, ShuffleSession
>>> session = ShuffleSession(
...     DeploymentConfig(mechanism="SOLH", d=64),
...     PrivacyBudget(eps=0.5, delta=1e-9),
... )
>>> result = session.estimate(histogram, seed=0)        # EstimateResult
>>> sweep = session.sweep(histogram, [0.2, 0.5, 1.0])   # SweepResultSet
>>> pipeline = session.stream(flush_size=50_000)        # ShardedPipeline

Configs are frozen dataclasses validated at construction against the
mechanism registry's capability flags; every misconfiguration raises
:class:`~repro.core.errors.ConfigError` naming the offending field, with
did-you-mean suggestions for mechanism typos.  The verbs delegate to the
same engines the legacy entry points use (direct oracles,
``analysis.experiments.run_sweep``, ``service.ShardedPipeline``) and
are bit-identical to them at fixed seeds — the facade packages, it never
re-implements.
"""

from ..core.errors import ConfigError
from ..persistence import (
    MemoryStateStore,
    SqliteStateStore,
    StateStore,
    StateStoreError,
)
from .config import AUTO_MECHANISM, MODELS, DeploymentConfig, PrivacyBudget
from .results import (
    ESTIMATE_SCHEMA,
    SWEEP_SCHEMA,
    Amplification,
    EstimateResult,
    SweepResultSet,
)
from .session import ShuffleSession

__all__ = [
    "AUTO_MECHANISM",
    "Amplification",
    "ConfigError",
    "DeploymentConfig",
    "ESTIMATE_SCHEMA",
    "EstimateResult",
    "MODELS",
    "MemoryStateStore",
    "PrivacyBudget",
    "SWEEP_SCHEMA",
    "ShuffleSession",
    "SqliteStateStore",
    "StateStore",
    "StateStoreError",
    "SweepResultSet",
]
