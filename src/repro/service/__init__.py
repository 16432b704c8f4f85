"""Streaming shuffle-DP telemetry service.

Turns the one-shot reproduction pipeline into a continuously running
collection system: clients report in epochs, a shuffler-side buffer
releases size- or epoch-triggered flushes through a pluggable shuffle
backend, a cross-epoch accountant enforces the lifetime privacy budget,
and an incremental analyzer folds each released batch into running
estimates that match a one-shot run bit for bit.

* :mod:`repro.service.buffer` — report accumulation and flush carving.
* :mod:`repro.service.accountant` — composition-based budget ledger.
* :mod:`repro.service.aggregator` — incremental support counts + Eq. (6).
* :mod:`repro.service.backends` — plain / SS / PEOS release paths.
* :mod:`repro.service.pipeline` — deployment config, per-release
  pricing, release streams, and the run's metrics records.
* :mod:`repro.service.sharded` — :class:`ShardedPipeline`, the one
  pipeline class: a single inline-folded shard by default, any number
  of shards folded inline or on worker processes on request, with
  bit-identical estimates at every layout.  ``TelemetryPipeline`` is
  the same class under its older name.

The pipeline journals budget charges, the flush log, and epoch
snapshots through a pluggable :mod:`repro.persistence` ``StateStore``
(in-memory by default; SQLite for crash-safe runs that resume via
``ShardedPipeline.resume(store)``).

Quick start::

    import numpy as np
    from repro.service import ShardedPipeline, StreamConfig

    rng = np.random.default_rng(0)
    config = StreamConfig.from_targets(d=64, flush_size=1000)
    pipeline = ShardedPipeline(config, rng)
    for epoch_values in value_stream:          # one array per epoch
        pipeline.submit(epoch_values)
        print(pipeline.end_epoch())
    print(pipeline.estimates())

To spread the fold work over several processes (same estimates, bit for
bit), pick a layout::

    with ShardedPipeline(config, np.random.default_rng(0), n_shards=4,
                         fold_backend="process") as pipeline:
        for epoch_values in value_stream:
            pipeline.submit(epoch_values)
            pipeline.end_epoch()
        print(pipeline.estimates())
"""

from .accountant import BudgetCharge, BudgetExceededError, PrivacyAccountant
from .aggregator import IncrementalAggregator
from .backends import (
    BACKEND_NAMES,
    PeosShuffleBackend,
    PlainShuffleBackend,
    SequentialShuffleBackend,
    ShuffleBackend,
    make_backend,
)
from .buffer import FlushBatch, ReportBuffer
from .pipeline import (
    EpochReport,
    FlushRejection,
    StreamConfig,
    StreamResult,
    check_replay_support,
    epoch_release_epsilon,
    flush_release_epsilon,
    flush_rng,
    flushes_per_epoch,
    oracle_from_plan,
    release_entropy,
)
from .sharded import (
    FOLD_BACKENDS,
    TRANSPORTS,
    ShardedPipeline,
    TelemetryPipeline,
)
from .shm import SegmentLease, SharedMemoryPool, attach_segment

__all__ = [
    "BACKEND_NAMES",
    "BudgetCharge",
    "BudgetExceededError",
    "EpochReport",
    "FOLD_BACKENDS",
    "FlushBatch",
    "FlushRejection",
    "IncrementalAggregator",
    "PeosShuffleBackend",
    "PlainShuffleBackend",
    "PrivacyAccountant",
    "ReportBuffer",
    "SegmentLease",
    "SequentialShuffleBackend",
    "ShardedPipeline",
    "SharedMemoryPool",
    "ShuffleBackend",
    "StreamConfig",
    "StreamResult",
    "TRANSPORTS",
    "TelemetryPipeline",
    "attach_segment",
    "check_replay_support",
    "epoch_release_epsilon",
    "flush_release_epsilon",
    "flush_rng",
    "flushes_per_epoch",
    "make_backend",
    "oracle_from_plan",
    "release_entropy",
]
