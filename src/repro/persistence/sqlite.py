"""Crash-safe SQLite state store (stdlib ``sqlite3``, WAL journal).

One run per database file.  The connection idiom follows the telemetry
storage layers surveyed in SNIPPETS 1-2: ``journal_mode=WAL`` so readers
never block the writer and a torn process leaves a consistent database,
``foreign_keys=ON`` so charge rows cannot outlive their flush,
``synchronous=NORMAL`` (durability to the WAL on every commit, fsync at
checkpoints — the right trade for a telemetry sink), and a generous
``busy_timeout`` instead of immediate ``SQLITE_BUSY`` failures.

Transactions are explicit (``isolation_level=None`` + ``BEGIN
IMMEDIATE``): the write-ahead protocol's atomicity unit is *one
submission*, not one statement, so every carved flush of a submit — its
charge or rejection — and the post-submit ingest checkpoint commit
together or not at all.

Schema (version 1):

* ``meta(key, value)`` — schema version, the JSON ``StreamConfig``
  (plan included), the release-stream root entropy; rows under any
  other key (older files may hold ``tuning:*`` rows) are never read;
* ``flushes(sequence PK, epoch, trigger_kind, n_reports, n_fake,
  status, reports, counts, reject_reason)`` — the flush log; ``status``
  walks ``charged`` → ``released`` (or is terminally ``rejected``), raw
  reports are kept only while ``charged`` and replaced by folded counts
  on release;
* ``charges(idx PK, flush_sequence FK, eps, delta, label)`` — the
  accountant's admitted ledger, in charge order;
* ``epochs(epoch PK, ...metrics..., estimates)`` — one row per closed
  epoch with its estimate snapshot;
* ``checkpoint(id=1, rng_state, buffer_epoch, next_sequence, remainder,
  n_submits)`` — the single-row ingest checkpoint.

Arrays are stored as raw little-endian blobs (int64 reports/remainder,
float64 counts/estimates); floats live in ``REAL`` columns, which are
IEEE-754 doubles, so budget arithmetic round-trips exactly.
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..core.errors import ConfigError
from ..faults import fail_point
from .records import (
    FlushRecord,
    IngestCheckpoint,
    RunSnapshot,
    StateStoreError,
    StoredFlush,
    charges_from_rows,
    config_from_dict,
    config_to_dict,
    epoch_report_from_row,
)
from .store import StateStore

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS flushes (
    sequence      INTEGER PRIMARY KEY,
    epoch         INTEGER NOT NULL,
    trigger_kind  TEXT    NOT NULL,
    n_reports     INTEGER NOT NULL,
    n_fake        INTEGER NOT NULL,
    status        TEXT    NOT NULL
                  CHECK (status IN ('charged', 'released', 'rejected')),
    reports       BLOB,
    counts        BLOB,
    reject_reason TEXT
);
CREATE TABLE IF NOT EXISTS charges (
    idx            INTEGER PRIMARY KEY,
    flush_sequence INTEGER NOT NULL REFERENCES flushes(sequence),
    eps            REAL    NOT NULL,
    delta          REAL    NOT NULL,
    label          TEXT    NOT NULL
);
CREATE TABLE IF NOT EXISTS epochs (
    epoch           INTEGER PRIMARY KEY,
    n_flushes       INTEGER NOT NULL,
    n_rejected      INTEGER NOT NULL,
    n_reports       INTEGER NOT NULL,
    n_fake          INTEGER NOT NULL,
    flush_latency_s REAL    NOT NULL,
    reports_per_sec REAL    NOT NULL,
    eps_spent       REAL    NOT NULL,
    delta_spent     REAL    NOT NULL,
    estimates       BLOB    NOT NULL
);
CREATE TABLE IF NOT EXISTS checkpoint (
    id            INTEGER PRIMARY KEY CHECK (id = 1),
    rng_state     TEXT    NOT NULL,
    buffer_epoch  INTEGER NOT NULL,
    next_sequence INTEGER NOT NULL,
    remainder     BLOB    NOT NULL,
    n_submits     INTEGER NOT NULL
);
"""


def _validated_path(path) -> Path:
    """Fail early, with the offending field named, on an unusable path."""
    path = Path(path)
    parent = path.parent
    if not parent.exists():
        raise ConfigError(
            "state_db", f"parent directory does not exist: {parent}"
        )
    if not parent.is_dir():
        raise ConfigError(
            "state_db", f"parent is not a directory: {parent}"
        )
    if path.exists():
        if path.is_dir():
            raise ConfigError("state_db", f"is a directory: {path}")
        if not os.access(path, os.W_OK):
            raise ConfigError("state_db", f"file is not writable: {path}")
    elif not os.access(parent, os.W_OK):
        raise ConfigError(
            "state_db", f"parent directory is not writable: {parent}"
        )
    return path


def _int64_blob(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.int64).tobytes()


def _float64_blob(array) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


def _int64_from_blob(blob) -> np.ndarray:
    return np.frombuffer(blob, dtype=np.int64).copy()


def _float64_from_blob(blob) -> np.ndarray:
    return np.frombuffer(blob, dtype=np.float64).copy()


def _rng_state_json(state: dict) -> str:
    try:
        return json.dumps(state)
    except TypeError as unserializable:
        raise StateStoreError(
            f"ingest generator state of {state.get('bit_generator')!r} is "
            f"not JSON-serializable; durable persistence supports "
            f"PCG64-family bit generators (numpy's default_rng)"
        ) from unserializable


class SqliteStateStore(StateStore):
    """Durable :class:`~repro.persistence.store.StateStore` on one file."""

    durable = True

    def __init__(self, path):
        self.path = _validated_path(path)
        try:
            self._conn = sqlite3.connect(
                str(self.path), isolation_level=None
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA foreign_keys=ON")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.executescript(_SCHEMA)
        except sqlite3.Error as failure:
            raise ConfigError(
                "state_db", f"cannot open SQLite database {self.path}: "
                f"{failure}"
            ) from failure
        version = self._meta("schema_version")
        if version is not None and int(version) != SCHEMA_VERSION:
            raise StateStoreError(
                f"{self.path} uses schema version {version}, this build "
                f"writes version {SCHEMA_VERSION}"
            )

    # -- plumbing ----------------------------------------------------------

    def _meta(self, key: str):
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _begin(self) -> None:
        self._conn.execute("BEGIN IMMEDIATE")

    def _commit(self) -> None:
        # Chaos seam: a failure here leaves the open transaction to the
        # caller's rollback, so an injected commit fault exercises the
        # same all-or-nothing recovery path as a real disk error.
        fail_point("store.commit")
        self._conn.execute("COMMIT")

    def _rollback(self) -> None:
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:  # pragma: no cover - already rolled back
            pass

    def _write_checkpoint(self, checkpoint: IngestCheckpoint) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO checkpoint "
            "(id, rng_state, buffer_epoch, next_sequence, remainder, "
            " n_submits) VALUES (1, ?, ?, ?, ?, ?)",
            (
                _rng_state_json(checkpoint.rng_state),
                int(checkpoint.buffer_epoch),
                int(checkpoint.next_sequence),
                _int64_blob(checkpoint.merged_remainder()),
                int(checkpoint.n_submits),
            ),
        )

    def close(self) -> None:
        self._conn.close()

    # -- protocol ----------------------------------------------------------

    def has_run(self) -> bool:
        return self._meta("config") is not None

    def begin_run(
        self, config, release_entropy, checkpoint: IngestCheckpoint
    ) -> None:
        if self.has_run():
            raise StateStoreError(
                f"{self.path} already holds a run; resume it (--resume / "
                f"Pipeline.resume) instead of starting a new one"
            )
        self._begin()
        try:
            self._conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                [
                    ("schema_version", str(SCHEMA_VERSION)),
                    ("config", json.dumps(config_to_dict(config))),
                    (
                        "release_entropy",
                        json.dumps([int(w) for w in release_entropy]),
                    ),
                ],
            )
            self._write_checkpoint(checkpoint)
            self._commit()
        except BaseException:
            self._rollback()
            raise

    def record_ingest(self, checkpoint: IngestCheckpoint) -> None:
        # Single statement: autocommit mode makes it atomic on its own.
        self._write_checkpoint(checkpoint)

    def record_flushes(
        self,
        records: Sequence[FlushRecord],
        checkpoint: IngestCheckpoint,
    ) -> None:
        self._begin()
        try:
            for record in records:
                self._conn.execute(
                    "INSERT INTO flushes (sequence, epoch, trigger_kind, "
                    "n_reports, n_fake, status, reports, counts, "
                    "reject_reason) VALUES (?, ?, ?, ?, ?, ?, ?, NULL, ?)",
                    (
                        int(record.sequence),
                        int(record.epoch),
                        record.trigger,
                        int(record.n_reports),
                        int(record.n_fake),
                        "charged" if record.admitted else "rejected",
                        _int64_blob(record.reports)
                        if record.admitted else None,
                        record.reject_reason,
                    ),
                )
                if record.admitted:
                    self._conn.execute(
                        "INSERT INTO charges (flush_sequence, eps, delta, "
                        "label) VALUES (?, ?, ?, ?)",
                        (
                            int(record.sequence),
                            float(record.charge_eps),
                            float(record.charge_delta),
                            record.charge_label,
                        ),
                    )
            self._write_checkpoint(checkpoint)
            self._commit()
        except BaseException:
            self._rollback()
            raise

    def record_release(self, sequence: int, counts: np.ndarray) -> None:
        cursor = self._conn.execute(
            "UPDATE flushes SET status = 'released', counts = ?, "
            "reports = NULL WHERE sequence = ? AND status = 'charged'",
            (_float64_blob(counts), int(sequence)),
        )
        if cursor.rowcount != 1:
            row = self._conn.execute(
                "SELECT status FROM flushes WHERE sequence = ?",
                (int(sequence),),
            ).fetchone()
            if row is None:
                raise StateStoreError(
                    f"flush {sequence} was never charged"
                )
            raise StateStoreError(
                f"flush {sequence} is {row[0]!r}; only a charged flush "
                f"can be released"
            )

    def record_epoch(
        self, report, estimates: np.ndarray, checkpoint: IngestCheckpoint
    ) -> None:
        self._begin()
        try:
            self._conn.execute(
                "INSERT INTO epochs (epoch, n_flushes, n_rejected, "
                "n_reports, n_fake, flush_latency_s, reports_per_sec, "
                "eps_spent, delta_spent, estimates) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    int(report.epoch),
                    int(report.n_flushes),
                    int(report.n_rejected),
                    int(report.n_reports),
                    int(report.n_fake),
                    float(report.flush_latency_s),
                    float(report.reports_per_sec),
                    float(report.eps_spent),
                    float(report.delta_spent),
                    _float64_blob(estimates),
                ),
            )
            self._write_checkpoint(checkpoint)
            self._commit()
        except BaseException:
            self._rollback()
            raise

    # -- recovery ----------------------------------------------------------

    def load_run(self) -> RunSnapshot:
        config_json = self._meta("config")
        if config_json is None:
            raise StateStoreError(f"{self.path} holds no run")
        config = config_from_dict(json.loads(config_json))
        release_entropy = tuple(
            int(w) for w in json.loads(self._meta("release_entropy"))
        )
        checkpoint_row = self._conn.execute(
            "SELECT rng_state, buffer_epoch, next_sequence, remainder, "
            "n_submits FROM checkpoint WHERE id = 1"
        ).fetchone()
        if checkpoint_row is None:
            raise StateStoreError(f"{self.path} has no ingest checkpoint")
        flushes = tuple(
            StoredFlush(
                sequence=int(sequence),
                epoch=int(epoch),
                trigger=trigger_kind,
                n_reports=int(n_reports),
                n_fake=int(n_fake),
                status=status,
                reports=(
                    _int64_from_blob(reports)
                    if reports is not None else None
                ),
                counts=(
                    _float64_from_blob(counts)
                    if counts is not None else None
                ),
                reject_reason=reject_reason,
            )
            for sequence, epoch, trigger_kind, n_reports, n_fake, status,
                reports, counts, reject_reason
            in self._conn.execute(
                "SELECT sequence, epoch, trigger_kind, n_reports, n_fake, "
                "status, reports, counts, reject_reason FROM flushes "
                "ORDER BY sequence"
            )
        )
        charges = charges_from_rows(
            self._conn.execute(
                "SELECT eps, delta, label FROM charges ORDER BY idx"
            ).fetchall()
        )
        epoch_reports = tuple(
            epoch_report_from_row({
                "epoch": int(epoch),
                "n_flushes": int(n_flushes),
                "n_rejected": int(n_rejected),
                "n_reports": int(n_reports),
                "n_fake": int(n_fake),
                "flush_latency_s": float(flush_latency_s),
                "reports_per_sec": float(reports_per_sec),
                "eps_spent": float(eps_spent),
                "delta_spent": float(delta_spent),
            })
            for epoch, n_flushes, n_rejected, n_reports, n_fake,
                flush_latency_s, reports_per_sec, eps_spent, delta_spent
            in self._conn.execute(
                "SELECT epoch, n_flushes, n_rejected, n_reports, n_fake, "
                "flush_latency_s, reports_per_sec, eps_spent, delta_spent "
                "FROM epochs ORDER BY epoch"
            )
        )
        return RunSnapshot(
            config=config,
            release_entropy=release_entropy,
            rng_state=json.loads(checkpoint_row[0]),
            buffer_epoch=int(checkpoint_row[1]),
            next_sequence=int(checkpoint_row[2]),
            remainder=_int64_from_blob(checkpoint_row[3]),
            n_submits=int(checkpoint_row[4]),
            charges=charges,
            flushes=flushes,
            epoch_reports=epoch_reports,
        )

    def epoch_log(self, first: int = 0, count: Optional[int] = None):
        """A range scan of the primary key (``LIMIT -1``: no limit)."""
        return [
            (int(epoch), _float64_from_blob(estimates))
            for epoch, estimates in self._conn.execute(
                "SELECT epoch, estimates FROM epochs WHERE epoch >= ? "
                "ORDER BY epoch LIMIT ?",
                (int(first), -1 if count is None else int(count)),
            )
        ]

    def epoch_count(self) -> int:
        # The log is dense from epoch 0, so its largest epoch gives the
        # count from the primary key in O(log E); COUNT(*) walks every row.
        (last,) = self._conn.execute(
            "SELECT MAX(epoch) FROM epochs"
        ).fetchone()
        return 0 if last is None else int(last) + 1
