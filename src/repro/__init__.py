"""repro — reproduction of "Improving Utility and Security of the
Shuffler-based Differential Privacy" (Wang et al., VLDB 2020).

Layout:

* :mod:`repro.api` — **the front door**: typed configs, a
  :class:`~repro.api.ShuffleSession` with the three verbs
  (``estimate`` / ``sweep`` / ``stream``), and rich result objects.
* :mod:`repro.core` — shuffle-model accounting: amplification bounds
  (Table I, Theorems 1-3), utility analysis (Propositions 4-6, Eq. 5),
  PEOS privacy/utility (Corollaries 8-9), the Section VI-D planner, and
  the mechanism registry every layer resolves through.
* :mod:`repro.frequency_oracles` — GRR, OLH, Hadamard, RAPPOR variants,
  AUE, SOLH, and central baselines.
* :mod:`repro.hashing` — seeded universal hash families (all fully
  vectorized, including the paper's xxHash32 prototype) and the
  low-allocation support-count kernel engine behind every O(n*d)
  aggregation hot path.
* :mod:`repro.crypto` — DGK (PEOS's AHE), AES-128-CBC, secp256r1
  ElGamal, additive secret sharing, onion encryption.
* :mod:`repro.shuffle` — single shuffler, sequential SS, oblivious
  shuffle, and EOS.
* :mod:`repro.protocol` — PEOS end to end, parties/adversaries, attacks,
  cost accounting.
* :mod:`repro.data` — paper-shaped synthetic workloads.
* :mod:`repro.analysis` — metrics, experiment harness, TreeHist.
* :mod:`repro.service` — streaming telemetry service: epoch buffering,
  cross-epoch budget accounting, pluggable shuffle backends, an
  incremental analyzer, and multi-process sharded folding
  (:class:`~repro.service.ShardedPipeline`).
* :mod:`repro.server` — the stdlib-only async HTTP front door: batched
  report ingestion with bounded-queue backpressure (429 +
  ``Retry-After``) and the paginated estimate query API.

Quick start — one session object covers one-shot, sweep, and streaming::

    import numpy as np
    from repro import DeploymentConfig, PrivacyBudget, ShuffleSession
    from repro.data import ipums_like

    data = ipums_like(np.random.default_rng(0), scale=0.1)
    session = ShuffleSession(
        DeploymentConfig(mechanism="SOLH", d=data.d),
        PrivacyBudget(eps=0.5, delta=1e-9),
    )

    result = session.estimate(data.histogram, seed=0)
    print(result.estimates[:5], result.amplification.gain, result.variance)

    sweep = session.sweep(data.histogram, [0.2, 0.5, 1.0], repeats=5, seed=0)
    print(sweep.table())

    pipeline = session.stream(flush_size=10_000)   # ShardedPipeline
    pipeline.submit(np.random.default_rng(1).integers(0, data.d, 10_000))
    print(pipeline.end_epoch())

Streaming scales out without changing results: ``session.stream(...,
shards=4, backend="process")`` returns the same
:class:`~repro.service.ShardedPipeline` class laid out over four shards
folded on a spawn-safe process pool — estimates are bit-identical to the
default single-shard serial layout at the same seed, at any shard or
worker count.

Serving over the network — ``repro serve`` stands the same pipeline up
behind HTTP (stdlib only; SIGTERM shuts it down cleanly, exit 0)::

    repro serve --port 8000 --d 64 --flush-size 1000 \\
        --epoch-size 4000 --budget-epochs 8 --state-db run.db
    curl -s -X POST localhost:8000/api/reports -d '{"values": [3, 0, 7, 3]}'
    curl -s -X POST localhost:8000/api/epochs
    curl -s 'localhost:8000/api/estimates?limit=50&sort=-estimate'

Uploads validate against the deployment's domain (400 names the bad
field), a full ingest queue pushes back with 429 + ``Retry-After``, and
``GET /api/estimates`` serves the released epoch log with
limit/offset plus keyset-cursor pagination.  In code:
``session.serve(flush_size, port=0, ...)`` returns an ``async with``-able
:class:`~repro.server.TelemetryServer`; estimates ingested over HTTP are
bit-identical to an in-process run fed the same arrival order at the
same seed.

The legacy entry points (direct oracle construction,
``analysis.run_sweep``, ``service.ShardedPipeline`` — also exported
under its older name ``service.TelemetryPipeline``) remain supported and
bit-identical; the facade is a thin validated wrapper over them.
"""

__version__ = "1.1.0"

from . import analysis, api, core, costs, crypto, data, frequency_oracles
from . import hashing, protocol, server, service, shuffle
from .api import (
    Amplification,
    ConfigError,
    DeploymentConfig,
    EstimateResult,
    PrivacyBudget,
    ShuffleSession,
    SweepResultSet,
)

__all__ = [
    "__version__",
    "Amplification",
    "ConfigError",
    "DeploymentConfig",
    "EstimateResult",
    "PrivacyBudget",
    "ShuffleSession",
    "SweepResultSet",
    "analysis",
    "api",
    "core",
    "costs",
    "crypto",
    "data",
    "frequency_oracles",
    "hashing",
    "protocol",
    "server",
    "service",
    "shuffle",
]
