"""Durable state for the streaming service: pluggable ``StateStore``.

The streaming pipeline journals every privacy-relevant state change —
budget charges, the flush log keyed by the global flush sequence, the
buffered remainder, epoch reports with estimate snapshots — through a
:class:`StateStore`.  :class:`MemoryStateStore` (the default) keeps it
in process memory at zero overhead; :class:`SqliteStateStore` makes it
crash-safe on one SQLite file, from which ``ShardedPipeline.resume``
rebuilds a run — under any shard layout — that never double-spends,
never re-releases, and continues bit-identical to an uninterrupted run
at the same seed.
"""

from .records import (
    FlushRecord,
    IngestCheckpoint,
    RunSnapshot,
    StateStoreError,
    StoredFlush,
)
from .sqlite import SCHEMA_VERSION, SqliteStateStore
from .store import MemoryStateStore, StateStore

__all__ = [
    "FlushRecord",
    "IngestCheckpoint",
    "MemoryStateStore",
    "RunSnapshot",
    "SCHEMA_VERSION",
    "SqliteStateStore",
    "StateStore",
    "StateStoreError",
    "StoredFlush",
]
