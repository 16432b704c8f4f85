"""The pluggable ``StateStore`` interface and the zero-overhead default.

A state store receives the streaming service's durable writes in the
order the write-ahead protocol produces them:

1. ``begin_run`` — once, when a fresh pipeline is constructed: the
   immutable deployment identity (config + release-stream entropy) and
   the initial ingest checkpoint.
2. ``record_flushes`` — one call per carving submission, committing
   *all* of its flush records (each an admitted ``BudgetCharge`` or a
   rejection) together with the post-submit ingest checkpoint, in a
   single transaction, *before* any of those flushes is released.
3. ``record_release`` — after a flush's counts have been folded:
   transitions the row ``charged`` → ``released`` and drops its raw
   reports (the counts are sufficient for recovery, and cheaper).
4. ``record_epoch`` — when an epoch closes: its ``EpochReport``, the
   aggregator's estimate snapshot, and the post-close checkpoint.

``record_ingest`` covers the no-carve case (a submit that only buffers)
so the ingest generator state on disk never lags the reports it has
already consumed.

Recovery reads everything back with ``load_run``; the pipeline's
``resume`` classmethod does the rest (see ``repro.service.sharded``).

``MemoryStateStore`` is the default wired into every pipeline: it keeps
references in process memory (no serialization, no copies on the hot
path) purely so durable and in-memory runs speak one protocol, and
doubles as the reference implementation the SQLite backend is tested
against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence

import numpy as np

from .records import (
    FlushRecord,
    IngestCheckpoint,
    RunSnapshot,
    StateStoreError,
    StoredFlush,
)


class StateStore(ABC):
    """Where a streaming pipeline's durable state lives.

    ``durable`` advertises whether the store survives the process; the
    pipelines gate persistence-incompatible features (crypto backends
    whose RNG state is not serializable, ``keep_reports``) on it.
    """

    durable: bool = False

    @abstractmethod
    def begin_run(
        self, config, release_entropy, checkpoint: IngestCheckpoint
    ) -> None:
        """Record a fresh run's identity; fails if a run already exists."""

    @abstractmethod
    def has_run(self) -> bool:
        """Whether this store already holds a run."""

    @abstractmethod
    def record_ingest(self, checkpoint: IngestCheckpoint) -> None:
        """Commit a buffering-only submission's ingest checkpoint."""

    @abstractmethod
    def record_flushes(
        self,
        records: Sequence[FlushRecord],
        checkpoint: IngestCheckpoint,
    ) -> None:
        """Write-ahead commit: every carved flush of one submission (its
        charge or rejection included) plus the post-submit checkpoint,
        atomically, before any release happens."""

    @abstractmethod
    def record_release(self, sequence: int, counts: np.ndarray) -> None:
        """Commit a release: the flush at ``sequence`` moves ``charged``
        → ``released`` and its folded support counts replace its raw
        reports."""

    @abstractmethod
    def record_epoch(
        self, report, estimates: np.ndarray, checkpoint: IngestCheckpoint
    ) -> None:
        """Commit a closed epoch's report and estimate snapshot."""

    @abstractmethod
    def load_run(self) -> RunSnapshot:
        """Read the whole run back for recovery."""

    @abstractmethod
    def epoch_log(
        self, first: int = 0, count: Optional[int] = None
    ) -> List[tuple]:
        """``[(epoch, estimates), ...]`` for epochs ``first`` up to
        ``first + count - 1`` (or the last), reading no other epoch.

        The read path behind ``GET /api/estimates``.  Epochs are recorded
        densely from 0 — each as it closes, and resume records the one
        in flight — so ``first`` is a position in the log as well as an
        epoch number.  No closed epoch is an empty log, not an error.
        """

    @abstractmethod
    def epoch_count(self) -> int:
        """How many closed epochs :meth:`epoch_log` can return."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any underlying resources (idempotent)."""

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryStateStore(StateStore):
    """In-process store: the zero-overhead default.

    Holds references only — flush reports are the buffer's owned
    read-only arrays and checkpoint chunks are never mutated in place,
    so nothing is copied or serialized on the hot path.  State dies with
    the process; ``load_run`` exists so the recovery machinery can be
    exercised (and the SQLite backend differentially tested) without
    touching disk.
    """

    durable = False

    def __init__(self) -> None:
        self._config = None
        self._release_entropy: Optional[tuple] = None
        self._flushes: Dict[int, StoredFlush] = {}
        self._charges: List[tuple] = []
        self._epoch_reports: List[object] = []
        self._epoch_rows: List[tuple] = []
        self._checkpoint: Optional[IngestCheckpoint] = None

    def begin_run(
        self, config, release_entropy, checkpoint: IngestCheckpoint
    ) -> None:
        if self.has_run():
            raise StateStoreError(
                "store already holds a run; resume it instead of starting "
                "a new pipeline on the same store"
            )
        self._config = config
        self._release_entropy = tuple(
            int(word) for word in release_entropy
        )
        self._checkpoint = checkpoint

    def has_run(self) -> bool:
        return self._config is not None

    def _require_run(self) -> None:
        if not self.has_run():
            raise StateStoreError("store holds no run")

    def record_ingest(self, checkpoint: IngestCheckpoint) -> None:
        self._require_run()
        self._checkpoint = checkpoint

    def record_flushes(
        self,
        records: Sequence[FlushRecord],
        checkpoint: IngestCheckpoint,
    ) -> None:
        self._require_run()
        for record in records:
            if record.sequence in self._flushes:
                raise StateStoreError(
                    f"flush {record.sequence} already recorded"
                )
            if record.admitted:
                self._flushes[record.sequence] = StoredFlush(
                    sequence=record.sequence,
                    epoch=record.epoch,
                    trigger=record.trigger,
                    n_reports=record.n_reports,
                    n_fake=record.n_fake,
                    status="charged",
                    reports=record.reports,
                    counts=None,
                    reject_reason=None,
                )
                self._charges.append((
                    record.charge_eps,
                    record.charge_delta,
                    record.charge_label,
                ))
            else:
                self._flushes[record.sequence] = StoredFlush(
                    sequence=record.sequence,
                    epoch=record.epoch,
                    trigger=record.trigger,
                    n_reports=record.n_reports,
                    n_fake=record.n_fake,
                    status="rejected",
                    reports=None,
                    counts=None,
                    reject_reason=record.reject_reason,
                )
        self._checkpoint = checkpoint

    def record_release(self, sequence: int, counts: np.ndarray) -> None:
        self._require_run()
        row = self._flushes.get(sequence)
        if row is None:
            raise StateStoreError(f"flush {sequence} was never charged")
        if row.status != "charged":
            raise StateStoreError(
                f"flush {sequence} is {row.status!r}; only a charged "
                f"flush can be released"
            )
        self._flushes[sequence] = StoredFlush(
            sequence=row.sequence,
            epoch=row.epoch,
            trigger=row.trigger,
            n_reports=row.n_reports,
            n_fake=row.n_fake,
            status="released",
            reports=None,
            counts=counts,
            reject_reason=None,
        )

    def record_epoch(
        self, report, estimates: np.ndarray, checkpoint: IngestCheckpoint
    ) -> None:
        self._require_run()
        self._epoch_reports.append(report)
        self._epoch_rows.append((report.epoch, estimates))
        self._checkpoint = checkpoint

    def epoch_log(
        self, first: int = 0, count: Optional[int] = None
    ) -> List[tuple]:
        return self._epoch_rows[first:None if count is None else first + count]

    def epoch_count(self) -> int:
        return len(self._epoch_rows)

    def load_run(self) -> RunSnapshot:
        self._require_run()
        from .records import charges_from_rows

        checkpoint = self._checkpoint
        return RunSnapshot(
            config=self._config,
            release_entropy=self._release_entropy,
            rng_state=checkpoint.rng_state,
            buffer_epoch=checkpoint.buffer_epoch,
            next_sequence=checkpoint.next_sequence,
            remainder=checkpoint.merged_remainder(),
            n_submits=checkpoint.n_submits,
            charges=charges_from_rows(self._charges),
            flushes=tuple(
                self._flushes[sequence]
                for sequence in sorted(self._flushes)
            ),
            epoch_reports=tuple(self._epoch_reports),
        )
