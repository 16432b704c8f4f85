"""StateStore contract tests, parametrized over both implementations."""

import os
import sqlite3

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.persistence import (
    FlushRecord,
    IngestCheckpoint,
    MemoryStateStore,
    SCHEMA_VERSION,
    SqliteStateStore,
    StateStoreError,
)
from repro.service import StreamConfig
from repro.service.pipeline import EpochReport


@pytest.fixture
def config():
    return StreamConfig.from_targets(
        d=16, flush_size=100, eps_targets=(1.0, 3.0, 6.0), delta=1e-9,
        admitted_flushes=4,
    )


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        with MemoryStateStore() as handle:
            yield handle
    else:
        with SqliteStateStore(str(tmp_path / "state.db")) as handle:
            yield handle


def _checkpoint(n_submits=0, next_sequence=0, buffer_epoch=0, pending=()):
    rng = np.random.default_rng(7)
    pending = tuple(np.asarray(chunk, dtype=np.int64) for chunk in pending)
    return IngestCheckpoint(
        rng_state=rng.bit_generator.state,
        buffer_epoch=buffer_epoch,
        next_sequence=next_sequence,
        pending_chunks=pending,
        pending_count=int(sum(len(chunk) for chunk in pending)),
        n_submits=n_submits,
    )


def _begin(store, config):
    entropy = (1, 2, 3, 4, 5, 6, 7, 8)
    store.begin_run(config, entropy, _checkpoint())
    return entropy


ADMITTED = FlushRecord(
    sequence=0, epoch=0, trigger="size", n_reports=3, n_fake=2,
    reports=np.array([4, 9, 1, 0, 2], dtype=np.int64),
    charge_eps=0.5, charge_delta=1e-9, charge_label="epoch0/flush0",
    reject_reason=None,
)
REJECTED = FlushRecord(
    sequence=1, epoch=0, trigger="epoch", n_reports=2, n_fake=2,
    reports=None, charge_eps=None, charge_delta=None, charge_label=None,
    reject_reason="budget exhausted",
)


class TestStoreContract:
    def test_fresh_store_has_no_run(self, store):
        assert not store.has_run()

    def test_begin_run_round_trips_config_and_entropy(self, store, config):
        entropy = _begin(store, config)
        assert store.has_run()
        snapshot = store.load_run()
        assert snapshot.release_entropy == entropy
        assert snapshot.config == config
        assert snapshot.config.plan == config.plan
        assert snapshot.n_submits == 0
        assert snapshot.flushes == ()
        assert snapshot.charges == ()

    def test_double_begin_refused(self, store, config):
        _begin(store, config)
        with pytest.raises(StateStoreError, match="already holds a run"):
            store.begin_run(config, (0,) * 8, _checkpoint())

    def test_flush_and_charge_round_trip(self, store, config):
        _begin(store, config)
        store.record_flushes(
            [ADMITTED, REJECTED], _checkpoint(n_submits=1, next_sequence=2)
        )
        snapshot = store.load_run()
        assert snapshot.n_submits == 1
        assert snapshot.next_sequence == 2
        first, second = snapshot.flushes
        assert first.status == "charged"
        assert first.trigger == "size"
        np.testing.assert_array_equal(first.reports, ADMITTED.reports)
        assert second.status == "rejected"
        assert second.reports is None
        assert second.reject_reason == "budget exhausted"
        (charge,) = snapshot.charges
        assert (charge.eps, charge.delta, charge.label) == (
            0.5, 1e-9, "epoch0/flush0"
        )

    def test_release_transitions_charged_to_released(self, store, config):
        _begin(store, config)
        store.record_flushes([ADMITTED], _checkpoint(next_sequence=1))
        counts = np.array([1.0, 0.5, 0.25], dtype=np.float64)
        store.record_release(0, counts)
        (flush,) = store.load_run().flushes
        assert flush.status == "released"
        assert flush.reports is None  # the blob is dropped once folded
        np.testing.assert_array_equal(flush.counts, counts)

    def test_release_of_unknown_or_rejected_flush_refused(self, store, config):
        _begin(store, config)
        store.record_flushes(
            [ADMITTED, REJECTED], _checkpoint(next_sequence=2)
        )
        counts = np.zeros(2, dtype=np.float64)
        with pytest.raises(StateStoreError):
            store.record_release(99, counts)
        with pytest.raises(StateStoreError):
            store.record_release(1, counts)  # rejected, never charged
        store.record_release(0, counts)
        with pytest.raises(StateStoreError):
            store.record_release(0, counts)  # double release

    def test_checkpoint_remainder_round_trip(self, store, config):
        _begin(store, config)
        pending = [np.array([3, 1], dtype=np.int64),
                   np.array([2], dtype=np.int64)]
        store.record_ingest(
            _checkpoint(n_submits=2, buffer_epoch=1, pending=pending)
        )
        snapshot = store.load_run()
        assert snapshot.buffer_epoch == 1
        np.testing.assert_array_equal(
            snapshot.remainder, np.array([3, 1, 2], dtype=np.int64)
        )
        assert snapshot.rng_state == _checkpoint().rng_state

    def test_epoch_log_reads_a_window(self, store, config):
        assert store.epoch_count() == 0
        assert store.epoch_log() == []
        _begin(store, config)
        estimates = [np.full(config.d, float(epoch)) for epoch in range(3)]
        for epoch, vector in enumerate(estimates):
            report = EpochReport(
                epoch=epoch, n_flushes=1, n_rejected=0, n_reports=3,
                n_fake=2, flush_latency_s=0.0, reports_per_sec=0.0,
                eps_spent=0.5, delta_spent=1e-9,
            )
            store.record_epoch(
                report, vector, _checkpoint(buffer_epoch=epoch + 1)
            )
        assert store.epoch_count() == 3

        def window(*args):
            return [
                (epoch, vector.tolist())
                for epoch, vector in store.epoch_log(*args)
            ]

        everything = [(e, v.tolist()) for e, v in enumerate(estimates)]
        assert window() == everything
        assert window(1) == everything[1:]
        assert window(1, 1) == everything[1:2]
        assert window(0, 2) == everything[:2]
        assert window(2, 5) == everything[2:]
        assert window(3, 1) == []


class TestSqliteSpecifics:
    def test_wal_and_foreign_keys_enabled(self, tmp_path):
        with SqliteStateStore(str(tmp_path / "state.db")) as store:
            mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
            fkeys = store._conn.execute("PRAGMA foreign_keys").fetchone()[0]
            assert mode == "wal"
            assert fkeys == 1

    def test_reopen_sees_persisted_run(self, tmp_path, config):
        path = str(tmp_path / "state.db")
        with SqliteStateStore(path) as store:
            entropy = _begin(store, config)
            store.record_flushes([ADMITTED], _checkpoint(next_sequence=1))
        with SqliteStateStore(path) as store:
            snapshot = store.load_run()
            assert snapshot.release_entropy == entropy
            assert snapshot.flushes[0].status == "charged"

    def test_schema_version_mismatch_refused(self, tmp_path, config):
        path = str(tmp_path / "state.db")
        with SqliteStateStore(path) as store:
            _begin(store, config)
        with sqlite3.connect(path) as raw:
            raw.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(SCHEMA_VERSION + 1),),
            )
        with pytest.raises(StateStoreError, match="schema version"):
            SqliteStateStore(path)

    def test_missing_parent_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="state_db"):
            SqliteStateStore(str(tmp_path / "no" / "such" / "state.db"))

    def test_directory_path_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="state_db"):
            SqliteStateStore(str(tmp_path))

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root bypasses permission checks")
    def test_unwritable_file_raises_config_error(self, tmp_path):
        path = tmp_path / "state.db"
        path.touch()
        path.chmod(0o400)
        with pytest.raises(ConfigError, match="state_db"):
            SqliteStateStore(str(path))

    def test_memory_store_is_not_durable(self):
        assert MemoryStateStore.durable is False
        assert SqliteStateStore.durable is True
