"""Kill-and-resume invariants for the durable-state protocol.

Each test interrupts a persisted streaming run at a chosen point in the
write-ahead protocol (after the charge commits but before any release,
between two releases, before the epoch record lands), reopens the store,
resumes, and checks the three contract clauses: the budget is never
double-spent, no flush is re-released, and the final estimates are
bit-identical to an uninterrupted run at the same seed.
"""

import json
import sqlite3

import numpy as np
import pytest

from repro import faults
from repro.faults import InjectedFault
from repro.data import zipf_histogram
from repro.data.synthetic import values_from_histogram
from repro.persistence import (
    MemoryStateStore,
    SqliteStateStore,
    StateStoreError,
)
from repro.service import (
    PlainShuffleBackend,
    ShardedPipeline,
    StreamConfig,
    TelemetryPipeline,
)

D = 16
EPOCHS = 3
EPOCH_SIZE = 400
FLUSH_SIZE = 150
SEED = 42


class SimulatedCrash(RuntimeError):
    """Raised by the fault injector to model an abrupt process death."""


class FaultInjectingStore:
    """Delegate to a real store, crashing around the k-th call of a method.

    ``when="before"`` dies with the call never issued (its transaction
    never ran); ``when="after"`` dies with the transaction committed but
    the caller's in-memory follow-up lost.  Both are consistent disk
    states — mid-transaction atomicity is SQLite's guarantee, not ours.
    """

    durable = True

    def __init__(self, inner, method, call_index, when="before"):
        self._inner = inner
        self._method = method
        self._call_index = call_index
        self._when = when
        self._calls = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name != self._method or not callable(attr):
            return attr

        def wrapped(*args, **kwargs):
            self._calls += 1
            if self._when == "before" and self._calls == self._call_index:
                raise SimulatedCrash(name)
            out = attr(*args, **kwargs)
            if self._when == "after" and self._calls == self._call_index:
                raise SimulatedCrash(name)
            return out

        return wrapped


def make_config(flush_size=FLUSH_SIZE, admitted=None, composition="basic"):
    if admitted is None:
        # Two epochs' worth of flushes: the third epoch's are rejected,
        # so recovery is exercised on both admitted and refused charges.
        admitted = 2 * ((EPOCH_SIZE + flush_size - 1) // flush_size)
    return StreamConfig.from_targets(
        d=D, flush_size=flush_size, eps_targets=(1.0, 3.0, 6.0),
        delta=1e-9, admitted_flushes=admitted, composition=composition,
    )


def drive(pipeline, epochs=EPOCHS, epoch_size=EPOCH_SIZE):
    """Feed synthetic epochs exactly as the CLI does.

    The workload generator shares the pipeline's rng, so a resumed
    pipeline regenerates the interrupted epoch from the restored stream.
    One submit per epoch: if the checkpointed submit count is ahead of
    the epoch count, the open epoch is already fed — just close it.
    """
    rng = pipeline.rng
    start = pipeline.epochs_completed
    for epoch in range(start, epochs):
        if not (epoch == start and pipeline.n_submits > start):
            histogram = zipf_histogram(epoch_size, D, 1.3, rng)
            pipeline.submit(values_from_histogram(histogram, rng))
        pipeline.end_epoch()
    return pipeline.result()


@pytest.fixture
def reference():
    config = make_config()
    pipeline = TelemetryPipeline(config, np.random.default_rng(SEED))
    return drive(pipeline)


def crash_and_resume(tmp_path, method, call_index, when, reference,
                     resume_shards=None, config=None):
    path = str(tmp_path / "state.db")
    config = config or make_config()
    wrapped = FaultInjectingStore(
        SqliteStateStore(path), method, call_index, when
    )
    pipeline = TelemetryPipeline(
        config, np.random.default_rng(SEED), store=wrapped
    )
    with pytest.raises(SimulatedCrash):
        drive(pipeline)
    # Process death: the half-updated pipeline is abandoned, the open
    # connection dropped, and recovery starts from the file alone.
    wrapped._inner.close()

    with SqliteStateStore(path) as store:
        if resume_shards is None:
            resumed = TelemetryPipeline.resume(store)
        else:
            resumed = ShardedPipeline.resume(store, n_shards=resume_shards)
        result = drive(resumed)

        assert result.estimates.tobytes() == reference.estimates.tobytes()
        assert result.eps_spent == reference.eps_spent
        assert result.delta_spent == reference.delta_spent
        assert result.n_rejected == reference.n_rejected
        assert result.n_genuine == reference.n_genuine
        assert result.n_fake == reference.n_fake

        snapshot = store.load_run()
        statuses = [flush.status for flush in snapshot.flushes]
        assert "charged" not in statuses  # every admitted flush released
        assert len(snapshot.charges) == len(
            [s for s in statuses if s == "released"]
        )  # one charge per admitted flush: nothing double-spent
    return result


class TestCrashWindows:
    def test_crash_before_submit_persists(self, tmp_path, reference):
        # Second submit's transaction never ran: the whole epoch replays.
        crash_and_resume(tmp_path, "record_flushes", 2, "before", reference)

    def test_crash_after_charge_before_release(self, tmp_path, reference):
        # Charges committed, process died before any release: recovery
        # must replay the releases without charging again.
        crash_and_resume(tmp_path, "record_flushes", 2, "after", reference)

    def test_crash_between_releases(self, tmp_path, reference):
        # Some flushes released, one still only charged: recovery folds
        # the released counts as-is and replays just the charged one.
        crash_and_resume(tmp_path, "record_release", 3, "before", reference)

    def test_crash_before_epoch_record(self, tmp_path, reference):
        # All of the epoch's flushes landed but the epoch row didn't:
        # recovery synthesizes the single missing epoch report.
        crash_and_resume(tmp_path, "record_epoch", 1, "before", reference)

    def test_crash_at_clean_epoch_boundary(self, tmp_path, reference):
        crash_and_resume(tmp_path, "record_epoch", 2, "after", reference)

    def test_resume_under_different_shard_layout(self, tmp_path, reference):
        # The execution layout is not part of the persisted state: a run
        # begun unsharded resumes sharded with identical estimates.
        crash_and_resume(
            tmp_path, "record_release", 3, "before", reference,
            resume_shards=2,
        )


class TestAdvancedCompositionResume:
    @pytest.mark.parametrize(
        "method, call_index",
        [
            # The first flush's charge never committed, so the run
            # resumes from an empty ledger.
            ("record_flushes", 1),
            ("record_release", 3),
        ],
    )
    def test_crash_and_resume(self, tmp_path, method, call_index):
        config = make_config(composition="advanced")
        reference = drive(
            TelemetryPipeline(config, np.random.default_rng(SEED))
        )
        crash_and_resume(
            tmp_path, method, call_index, "before", reference, config=config
        )


class TestLegacyTuningRow:
    def test_store_holding_a_tuning_row_still_resumes(
        self, tmp_path, reference
    ):
        # Earlier versions persisted a kernel calibration as a
        # ``tuning:kernel_calibration`` meta row, written before the run
        # began.  Nothing reads it now, but such a store must still run,
        # crash and resume bit-identically — and keep the row untouched.
        path = str(tmp_path / "state.db")
        SqliteStateStore(path).close()  # create the schema
        payload = json.dumps({
            "chunk_bytes": 327680,
            "probes": [[327680, 0.0296], [1048576, 0.0325]],
            "source": "measured",
            "workload": "n=48000,candidates=64,d_out=16,family=xxhash32",
        })
        with sqlite3.connect(path) as conn:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                ("tuning:kernel_calibration", payload),
            )
        conn.close()

        crash_and_resume(tmp_path, "record_release", 3, "before", reference)

        with sqlite3.connect(path) as conn:
            row = conn.execute(
                "SELECT value FROM meta WHERE key = ?",
                ("tuning:kernel_calibration",),
            ).fetchone()
        conn.close()
        assert row == (payload,)


class TestReplayChecksRelease:
    def test_replay_refuses_a_short_release(self, tmp_path):
        # A replayed release runs the same length check as a live fold:
        # a shuffle that loses a report must not fold short counts.
        path = str(tmp_path / "state.db")
        wrapped = FaultInjectingStore(
            SqliteStateStore(path), "record_flushes", 2, "after"
        )
        pipeline = ShardedPipeline(
            make_config(), np.random.default_rng(SEED), store=wrapped
        )
        with pytest.raises(SimulatedCrash):
            drive(pipeline)
        wrapped._inner.close()

        class DroppingBackend(PlainShuffleBackend):
            def shuffle(self, encoded, n_fake, fo, rng):
                return super().shuffle(encoded, n_fake, fo, rng)[1:]

        with SqliteStateStore(path) as store:
            with pytest.raises(ValueError, match="claims"):
                ShardedPipeline.resume(store, backend=DroppingBackend())


class TestShardedCrash:
    def test_sharded_run_crashes_and_resumes(self, tmp_path, reference):
        path = str(tmp_path / "state.db")
        wrapped = FaultInjectingStore(
            SqliteStateStore(path), "record_release", 4, "before"
        )
        pipeline = ShardedPipeline(
            make_config(), np.random.default_rng(SEED),
            n_shards=2, store=wrapped,
        )
        with pytest.raises(SimulatedCrash):
            drive(pipeline)
        wrapped._inner.close()

        with SqliteStateStore(path) as store:
            resumed = ShardedPipeline.resume(store, n_shards=3)
            result = drive(resumed)
        assert result.estimates.tobytes() == reference.estimates.tobytes()
        assert result.eps_spent == reference.eps_spent
        assert result.n_rejected == reference.n_rejected


class TestBufferedRemainder:
    def test_crash_with_buffered_unflushed_reports(self, tmp_path):
        # Epochs smaller than a flush: submits only buffer (checkpointed
        # via record_ingest) and every release happens at epoch close.
        config = make_config(flush_size=1000, admitted=4)
        reference = drive(
            TelemetryPipeline(config, np.random.default_rng(SEED)),
            epoch_size=80,
        )

        path = str(tmp_path / "state.db")
        wrapped = FaultInjectingStore(
            SqliteStateStore(path), "record_ingest", 2, "after"
        )
        pipeline = TelemetryPipeline(
            config, np.random.default_rng(SEED), store=wrapped
        )
        with pytest.raises(SimulatedCrash):
            drive(pipeline, epoch_size=80)
        wrapped._inner.close()

        with SqliteStateStore(path) as store:
            resumed = TelemetryPipeline.resume(store)
            # The buffered remainder survived the crash.
            assert resumed.buffer.pending == 80
            result = drive(resumed, epoch_size=80)
        assert result.estimates.tobytes() == reference.estimates.tobytes()
        assert result.eps_spent == reference.eps_spent


class TestMemoryStoreResume:
    def test_in_process_resume_from_memory_store(self, reference):
        store = MemoryStateStore()
        pipeline = TelemetryPipeline(
            make_config(), np.random.default_rng(SEED), store=store
        )
        drive(pipeline, epochs=2)  # stop at a clean boundary, abandon

        resumed = TelemetryPipeline.resume(store)
        assert resumed.epochs_completed == 2
        result = drive(resumed)
        assert result.estimates.tobytes() == reference.estimates.tobytes()
        assert result.eps_spent == reference.eps_spent

    def test_resume_of_empty_store_refused(self):
        with pytest.raises(StateStoreError, match="no run"):
            TelemetryPipeline.resume(MemoryStateStore())


class TestInjectedCommitFault:
    """The ``store.commit`` failpoint models a disk-level commit failure
    (full disk, I/O error) at the one seam the delegate-wrapping
    :class:`FaultInjectingStore` cannot reach: inside the store's own
    ``COMMIT``.  The store must roll the transaction back — leaving the
    same consistent disk state as a pre-call crash — and a resumed run
    must be bit-identical."""

    @pytest.fixture(autouse=True)
    def _clean_failpoints(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.disarm()
        yield
        faults.disarm()

    def test_commit_fault_rolls_back_then_resumes(self, tmp_path, reference):
        path = str(tmp_path / "state.db")
        # begin_run commits first; every=4 lands the fault on a mid-run
        # flush transaction.
        faults.install(["store.commit:raise:every=4"], export_env=False)
        store = SqliteStateStore(path)
        pipeline = TelemetryPipeline(
            make_config(), np.random.default_rng(SEED), store=store
        )
        with pytest.raises(InjectedFault):
            drive(pipeline)
        faults.disarm()
        store.close()

        with SqliteStateStore(path) as reopened:
            resumed = TelemetryPipeline.resume(reopened)
            result = drive(resumed)
            snapshot = reopened.load_run()
        assert result.estimates.tobytes() == reference.estimates.tobytes()
        assert result.eps_spent == reference.eps_spent
        assert result.n_rejected == reference.n_rejected
        statuses = [flush.status for flush in snapshot.flushes]
        assert "charged" not in statuses  # every admitted flush released
        assert len(snapshot.charges) == len(
            [s for s in statuses if s == "released"]
        )  # the rolled-back charge was never double-spent


class TestFlushSequenceAuthority:
    def test_sequence_is_the_global_flush_counter(self, tmp_path, reference):
        path = str(tmp_path / "state.db")
        with SqliteStateStore(path) as store:
            pipeline = TelemetryPipeline(
                make_config(), np.random.default_rng(SEED), store=store
            )
            result = drive(pipeline)
            snapshot = store.load_run()
        # An uninterrupted sqlite run is the memory run, bit for bit.
        assert result.estimates.tobytes() == reference.estimates.tobytes()
        assert result.eps_spent == reference.eps_spent
        assert result.delta_spent == reference.delta_spent
        assert result.n_genuine == reference.n_genuine > 0
        assert result.n_fake == reference.n_fake
        sequences = [flush.sequence for flush in snapshot.flushes]
        # Dense, zero-based, strictly increasing across epoch boundaries:
        # the sequence — not the epoch-local position — keys the release
        # RNG stream, so it must be globally unique and gap-free.
        assert sequences == list(range(len(sequences)))
        assert snapshot.next_sequence == len(sequences)
        assert pipeline.buffer.next_sequence == len(sequences)
        epochs = [flush.epoch for flush in snapshot.flushes]
        assert epochs == sorted(epochs)
        assert len(set(epochs)) == EPOCHS
