"""The streaming pipeline: batcher -> buffer -> backend -> analyzer.

:class:`ShardedPipeline` is the service's one pipeline class.  It wires
a Section VI-D plan (:func:`repro.core.params.plan_peos`) into a
continuously running collection:

1. clients arrive in vectorized batches; :meth:`~ShardedPipeline.submit`
   privatizes and ordinal-encodes them in one numpy pass and hands the
   encoded reports to the :class:`~repro.service.buffer.ReportBuffer`;
2. every size- or epoch-triggered flush is first priced at its own
   guarantee against the
   :class:`~repro.service.accountant.PrivacyAccountant` — a refused
   flush is *dropped*, never released;
3. each admitted flush is released by :func:`release_counts` (fake
   injection and shuffle through the configured
   :class:`~repro.service.backends.ShuffleBackend`, decode, support
   count) and its counts fold into one of ``n_shards``
   :class:`~repro.service.aggregator.IncrementalAggregator` shards;
4. :meth:`~ShardedPipeline.end_epoch` drains the buffer and emits an
   :class:`~repro.service.pipeline.EpochReport` with the epoch's
   operational metrics (reports/sec, flush latency, cumulative spend).

The default layout — one shard, folded inline (``fold_backend=
"serial"``) — is the paper's single analyzer: it sums the additive
support counts of every shuffled release and recalibrates once for the
fake reports (Eq. (6)).  Every other layout only regroups that sum.
``n_shards`` partitions the flush stream, and ``fold_backend="process"``
runs the release work on a spawn-safe ``ProcessPoolExecutor`` so the
vectorized support-count kernels
(:func:`repro.hashing.kernels.support_counts_kernel`) of several
flushes run on several cores at once.

Determinism contract (bit-identical estimates at any shard count, fold
backend, worker count or transport, at a fixed seed):

* **Carving is global.**  One :class:`~repro.service.buffer.ReportBuffer`
  carves the stream, so flush boundaries — and therefore batch sizes,
  fake-noise draws, and budget charges — cannot depend on ``n_shards``.
  (Per-shard buffers would each drain their own epoch-end remainder: the
  flush schedule, the total fake count, and the spend would all vary
  with the shard count.)  Batch ``sequence % n_shards`` picks the shard,
  a deterministic round-robin partition of the flush stream.
* **Release randomness is per-flush.**  The ingest generator is consumed
  for privatizing submissions only, in arrival order.  Every flush draws
  its fakes and permutation from
  :func:`~repro.service.pipeline.flush_rng`, keyed by the deployment's
  :func:`~repro.service.pipeline.release_entropy` and the flush's global
  sequence number — never from a stream another worker also consumes.
* **The accountant is singular.**  One
  :class:`~repro.service.accountant.PrivacyAccountant` is charged in
  global carve order, *before* a batch is handed to any shard: the
  privacy ledger is a property of the deployment, not of a shard.
* **Merging is exact.**  Support counts are integer-valued, so per-shard
  float sums and the final
  :meth:`~repro.service.aggregator.IncrementalAggregator.merge` are
  exact below ``2**53`` reports — grouping by shard cannot change a bit.

Process-fold traffic is **zero-copy by default** (``transport="shm"``):
the parent writes each admitted batch's encoded reports into a pooled
``multiprocessing.shared_memory`` segment
(:class:`~repro.service.shm.SharedMemoryPool`) and ships only the
segment name; the worker folds straight out of a read-only view, and the
parent returns the lease to the pool when :meth:`~ShardedPipeline.drain`
collects the counts.  Because :class:`~repro.service.buffer.FlushBatch`
already owns its memory, that pool write is the *only* copy a flush pays
between carving and the worker's fold.  ``transport="pickle"`` ships the
batch over the pipe instead (bit-identical, just slower), and is used
automatically when the oracle's ordinal codec is not the int64 fast path
(object-dtype reports cannot live in flat shared memory).  Workers
attach without resource-tracker registration
(:func:`~repro.service.shm.attach_segment`), so a worker killed mid-fold
can neither unlink a live segment nor leak one —
:meth:`~ShardedPipeline.close` unlinks every segment the pool created.

Restrictions in ``fold_backend="process"`` mode: the shuffle backend
must be ``"plain"`` (the crypto backends draw from one shared
``crypto_rng`` stream that cannot be split deterministically across
processes) and ``keep_reports`` is unavailable (released reports stay in
the workers; only their counts come back).
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FutureTimeout
from multiprocessing import get_context, parent_process
from typing import Callable, Iterable, List, Optional

import numpy as np

from ..core.errors import ConfigError
from ..faults import fail_point
from ..persistence import (
    FlushRecord,
    IngestCheckpoint,
    MemoryStateStore,
    RunSnapshot,
    StateStore,
    StateStoreError,
    StoredFlush,
)
from ..persistence.records import generator_from_state
from .accountant import BudgetExceededError, PrivacyAccountant
from .aggregator import IncrementalAggregator
from .backends import ShuffleBackend, make_backend
from .buffer import FlushBatch, ReportBuffer
from .pipeline import (
    MAX_REJECTION_RECORDS,
    EpochReport,
    FlushRejection,
    StreamConfig,
    StreamResult,
    check_replay_support,
    flush_release_epsilon,
    flush_rng,
    oracle_from_plan,
    release_entropy,
)
from .shm import SegmentLease, SharedMemoryPool, attach_segment

#: fold-execution backends of :class:`ShardedPipeline`
FOLD_BACKENDS = ("serial", "process")

#: how process folds receive their report payloads
TRANSPORTS = ("shm", "pickle")

#: capped exponential backoff between supervised pool rebuilds
_RETRY_BACKOFF_BASE_S = 0.05
_RETRY_BACKOFF_CAP_S = 1.0

#: the graceful degradation ladder :meth:`ShardedPipeline.drain` walks
#: once ``max_fold_retries`` consecutive failures exhaust the retry
#: budget: zero-copy shm -> pickle-over-pipe -> inline serial folding
#: in the parent (which always completes because the parent holds every
#: batch's own buffer and a prepared backend)
_DEGRADE_LADDER = {"shm": "pickle", "pickle": "serial"}

_log = logging.getLogger(__name__)

#: per-process (oracle, shuffle backend) pair built by the pool initializer
_WORKER_STATE = None


def release_counts(
    fo,
    backend: ShuffleBackend,
    sequence: int,
    reports: np.ndarray,
    n_reports: int,
    n_fake: int,
    entropy: tuple,
):
    """Release one charged flush: shuffle, decode, check, count.

    The one release body every fold site runs — inline folds, process
    workers, and recovery replays.  The fakes and permutation come from
    the flush's own sequence-keyed stream, so under the plain backend a
    retry, a replay, or another worker recomputes identical counts.
    Returns ``(decoded, support_counts)``.
    """
    shuffled = backend.shuffle(reports, n_fake, fo, flush_rng(entropy, sequence))
    decoded = fo.decode_reports(shuffled)
    if len(decoded) != n_reports + n_fake:
        raise ValueError(
            f"batch has {len(decoded)} reports but claims "
            f"{n_reports} genuine + {n_fake} fake"
        )
    return decoded, fo.support_counts(decoded)


def _init_fold_worker(
    d: int,
    plan,
    backend_name: str,
    r: int,
) -> None:
    """Build one fold worker's oracle and backend (spawn-safe, runs once).

    Workers receive only picklable specs — the domain size, the
    :class:`~repro.core.params.PeosPlan` and backend parameters — and
    rebuild the oracle through the same
    :func:`~repro.service.pipeline.oracle_from_plan` registry path the
    parent used, so both sides hold identical estimators.
    """
    global _WORKER_STATE
    threading.Thread(
        target=_exit_with_parent, name="repro-parent-watch", daemon=True
    ).start()
    fo = oracle_from_plan(d, plan)
    backend = make_backend(backend_name, r=r)
    backend.prepare(fo, np.random.default_rng(0))
    _WORKER_STATE = (fo, backend)


def _exit_with_parent() -> None:
    """Fold-worker watchdog: exit the moment the parent process dies.

    An orphaned worker would live on under init, holding the parent's
    stdout/stderr pipes open (a reader waiting for EOF hangs) and its
    resource tracker alive (so the parent's shm segments stay in
    ``/dev/shm``).  The parent's sentinel turns ready only when it exits.
    """
    parent_process().join()
    os._exit(1)


def _worker_ready() -> bool:
    """No-op task used by :meth:`ShardedPipeline.warmup`."""
    return _WORKER_STATE is not None


def _metered_fold(
    sequence: int, reports: np.ndarray, n_reports: int, n_fake: int,
    entropy: tuple,
):
    """:func:`release_counts` in a worker, timed for the parent.

    Returns ``(support_counts, elapsed_seconds)``.
    """
    # Chaos seam: fires *before* any work, so an injected kill/raise can
    # never half-fold — a retry recomputes the identical pure function.
    # Worker-side only: install() arms the parent as well, where it would
    # fire on the serial degradation rung.
    fail_point("fold.worker", sequence=sequence)
    fo, backend = _WORKER_STATE
    started = time.perf_counter()
    __, counts = release_counts(
        fo, backend, sequence, reports, n_reports, n_fake, entropy
    )
    return counts, time.perf_counter() - started


def _fold_block(
    sequence: int, payload, n_reports: int, n_fake: int, entropy: tuple
):
    """Release one flush batch in a fold worker.

    ``payload`` is the batch's encoded reports (pickle transport) or the
    name of the parent's shared-memory segment holding them (shm
    transport).  A segment is mapped read-only and folded in place; the
    view must die before the mapping closes (``BufferError`` otherwise),
    and the attach never registers with the worker's resource tracker —
    the parent's pool is the sole owner, so this worker dying (even
    SIGKILL mid-fold) cannot unlink or leak the segment.
    """
    if not isinstance(payload, str):
        return _metered_fold(sequence, payload, n_reports, n_fake, entropy)
    segment = attach_segment(payload)
    try:
        reports = np.frombuffer(segment.buf, dtype=np.int64, count=n_reports)
        reports.setflags(write=False)
        try:
            return _metered_fold(
                sequence, reports, n_reports, n_fake, entropy
            )
        finally:
            del reports
    finally:
        try:
            segment.close()
        except BufferError:
            # A propagating fold error pins the view in its traceback
            # frame; never let the unmap mask that error.  The parent's
            # pool still unlinks the segment at close().
            pass


def _succeeded(future) -> bool:
    """True for a fold future that already holds a valid result."""
    return (
        future.done() and not future.cancelled() and future.exception() is None
    )


class ShardedPipeline:
    """Continuously running shuffle-DP collection for one deployment.

    ``submit`` / ``end_epoch`` / ``run`` / ``estimates`` / ``result``
    drive it; :meth:`drain` collects outstanding process folds,
    :meth:`warmup` pre-spawns the fold pool, and :meth:`close` shuts it
    down.  Use as a context manager to guarantee the worker pool and
    every shared-memory segment are released.  A serial pipeline owns
    neither, so construction allocates no pool, executor or segment.

    All privacy-relevant state changes are journaled through a
    :class:`~repro.persistence.store.StateStore` under a write-ahead
    protocol: a flush's budget charge (or rejection) commits in global
    carve order *before* its release, the folded counts commit after (a
    process fold's when :meth:`drain` collects them), and every closed
    epoch commits its report plus an estimate snapshot.  With the default
    :class:`~repro.persistence.store.MemoryStateStore` this costs a few
    reference assignments per submit; with a
    :class:`~repro.persistence.sqlite.SqliteStateStore` the run survives
    a crash and :meth:`resume` rebuilds it — never double-spending a
    charge, never re-releasing a flushed batch, and continuing
    bit-identical to an uninterrupted run at the same seed.  The
    execution layout is not part of the persisted state, so a resume may
    pick a different shard or worker count than the crashed run.
    """

    def __init__(
        self,
        config: StreamConfig,
        rng: np.random.Generator,
        n_shards: int = 1,
        fold_backend: str = "serial",
        workers: Optional[int] = None,
        backend: Optional[ShuffleBackend] = None,
        clock: Callable[[], float] = time.perf_counter,
        store: Optional[StateStore] = None,
        transport: str = "shm",
        fold_timeout: Optional[float] = None,
        max_fold_retries: int = 2,
        degrade: bool = True,
        _snapshot: Optional[RunSnapshot] = None,
    ):
        if n_shards < 1:
            raise ConfigError("n_shards", f"must be >= 1, got {n_shards}")
        if fold_backend not in FOLD_BACKENDS:
            raise ConfigError(
                "fold_backend",
                f"unknown fold backend {fold_backend!r} "
                f"(registered: {', '.join(FOLD_BACKENDS)})",
            )
        if workers is not None and workers < 1:
            raise ConfigError("workers", f"must be >= 1, got {workers}")
        if transport not in TRANSPORTS:
            raise ConfigError(
                "transport",
                f"unknown fold transport {transport!r} "
                f"(registered: {', '.join(TRANSPORTS)})",
            )
        if fold_timeout is not None and not (
            0.0 < float(fold_timeout) <= threading.TIMEOUT_MAX
        ):
            # A future's wait converts its timeout to a platform deadline;
            # past TIMEOUT_MAX (inf included) that overflows on every fold.
            raise ConfigError(
                "fold_timeout",
                f"must be positive seconds up to {threading.TIMEOUT_MAX:g} "
                f"(or None for no timeout), got {fold_timeout}",
            )
        if int(max_fold_retries) < 0:
            raise ConfigError(
                "max_fold_retries",
                f"must be >= 0, got {max_fold_retries}",
            )
        if fold_backend == "process":
            if config.backend != "plain":
                raise ConfigError(
                    "fold_backend",
                    f"process folding supports only the 'plain' shuffle "
                    f"backend, not {config.backend!r}: the crypto backends "
                    f"draw key material from one shared crypto_rng stream "
                    f"that cannot be split deterministically across "
                    f"processes",
                )
            if config.keep_reports:
                raise ConfigError(
                    "keep_reports",
                    "released reports stay inside the fold workers under "
                    "fold_backend='process'; use 'serial' to retain them",
                )
            if backend is not None:
                raise ConfigError(
                    "backend",
                    "a shared backend instance cannot cross process "
                    "boundaries; process folding builds one per worker",
                )
        self.config = config
        self.rng = rng
        self.clock = clock
        self.n_shards = int(n_shards)
        self.fold_backend = fold_backend
        self.transport = transport
        self.fold_timeout = (
            None if fold_timeout is None else float(fold_timeout)
        )
        self.max_fold_retries = int(max_fold_retries)
        self.degrade = bool(degrade)
        if _snapshot is None:
            # Drawn first, before any other use of rng (see release_entropy).
            self.release_entropy = release_entropy(rng)
        else:
            # Resume: rng already carries the checkpointed state; the
            # entropy was drawn by the original run and persisted.
            self.release_entropy = tuple(
                int(word) for word in _snapshot.release_entropy
            )
        self.fo = oracle_from_plan(config.d, config.plan)
        # Shared memory carries flat int64 buffers only; the object-dtype
        # ordinal fallback (report spaces past 2^62) keeps the pickle
        # transport, bit-identically.
        self._use_shm = (
            self.transport == "shm" and self.fo.ordinal_codec.fast
        )
        self._shm_pool: Optional[SharedMemoryPool] = None
        self._bytes_moved = 0
        #: once True, admitted batches fold inline in the parent — the
        #: terminal rung of the degradation ladder
        self._serial_fallback = False
        self._fault_stats = {
            "fold_retries": 0,
            "fold_timeouts": 0,
            "worker_deaths": 0,
            "pool_rebuilds": 0,
            "degradations": [],
        }
        self.store = store if store is not None else MemoryStateStore()
        if self.store.durable:
            check_replay_support(config, self.fo)
        self.buffer = ReportBuffer.from_plan(
            config.plan,
            config.flush_size,
            flush_empty=config.flush_empty,
            codec=self.fo.ordinal_codec,
        )
        self.accountant = PrivacyAccountant(
            config.eps_budget, config.delta_budget, method=config.composition
        )
        self.shards: List[IncrementalAggregator] = [
            IncrementalAggregator(self.fo) for _ in range(self.n_shards)
        ]
        self.backend = backend if backend is not None else make_backend(
            config.backend, r=config.r
        )
        self.backend.prepare(self.fo, rng)
        self._requested_workers = workers
        self._executor: Optional[ProcessPoolExecutor] = None
        #: outstanding process folds: (future, batch, shm lease or None)
        self._pending: List[tuple] = []
        self.epoch_reports: List[EpochReport] = []
        self.rejections: List[FlushRejection] = []
        self.n_rejected = 0
        #: each released flush's decoded reports, when ``keep_reports``
        self.released_batches: List[np.ndarray] = []
        #: [start, stop) index ranges into the submitted-report order that
        #: were actually released; adjacent ranges merge, so the list
        #: grows only with the gaps rejected flushes leave
        self.released_spans: List[tuple] = []
        self._carved = 0
        self._n_submits = 0
        self._epoch_flushes = 0
        self._epoch_rejected = 0
        self._epoch_reports_released = 0
        self._epoch_fakes = 0
        self._epoch_latency = 0.0
        if _snapshot is None:
            self.store.begin_run(config, self.release_entropy, self._checkpoint())
        else:
            self._restore(_snapshot)

    @classmethod
    def resume(cls, store: StateStore, **layout) -> "ShardedPipeline":
        """Rebuild the run persisted in ``store`` and continue it.

        Recovery invariants (pinned by ``tests/persistence/``):

        * **no double-spend** — the ledger is exactly the persisted
          charges; replaying a pending flush never charges again;
        * **no re-release** — a flush whose counts were committed is
          folded from those counts, its release randomness is never
          redrawn;
        * **bit-identical continuation** — pending (charged, unreleased)
          flushes are replayed from their persisted reports with the
          same sequence-keyed RNG streams, and the restored ingest
          generator, buffer remainder and flush counter make every
          subsequent draw match an uninterrupted run at the same seed.

        The execution ``layout`` — any constructor keyword but the
        config, rng and store (``n_shards``, ``fold_backend``,
        ``workers``, ``transport``, the fault-tolerance knobs, ...) — is
        chosen fresh and forwarded as is; it never affects estimates.
        """
        snapshot = store.load_run()
        return cls(
            snapshot.config,
            generator_from_state(snapshot.rng_state),
            store=store,
            _snapshot=snapshot,
            **layout,
        )

    # -- executor lifecycle ------------------------------------------------

    @property
    def workers(self) -> int:
        """Fold worker processes the process backend uses."""
        if self._requested_workers is not None:
            return self._requested_workers
        return max(1, min(self.n_shards, os.cpu_count() or 1))

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context("spawn"),
                initializer=_init_fold_worker,
                initargs=(
                    self.config.d,
                    self.config.plan,
                    self.config.backend,
                    self.config.r,
                ),
            )
        return self._executor

    def _pool(self) -> SharedMemoryPool:
        if self._shm_pool is None:
            self._shm_pool = SharedMemoryPool()
        return self._shm_pool

    def warmup(self) -> None:
        """Spawn and initialize the fold workers before the first flush.

        Spawn start-up costs hundreds of milliseconds per worker;
        latency-sensitive callers (and fair benchmarks) pay it up front
        instead of inside the first epoch.  No-op for serial folding.
        """
        if self.fold_backend != "process":
            return
        executor = self._ensure_executor()
        ready = [executor.submit(_worker_ready) for __ in range(self.workers)]
        for future in ready:
            future.result()

    def close(self) -> None:
        """Collect outstanding folds, shut the pool down, unlink all shm.

        Exception-safe by construction: each cleanup stage runs even
        when the previous one fails.  A worker killed mid-fold makes
        :meth:`drain` raise (the charged flushes must not silently
        vanish), but the executor is still shut down — a dead worker
        must not leak the surviving processes — and the shared-memory
        pool still unlinks every segment it ever created, including
        those whose leases the dead worker orphaned, so nothing survives
        in ``/dev/shm`` and the resource tracker never stalls on
        segments nobody owns.  The executor stops first: no worker can
        be attaching a segment while it is being unlinked.  The state
        store stays open; its owner closes it.
        """
        try:
            self.drain()
        finally:
            try:
                if self._executor is not None:
                    self._executor.shutdown()
                    self._executor = None
            finally:
                if self._shm_pool is not None:
                    self._shm_pool.close()
                    self._shm_pool = None

    def __enter__(self) -> "ShardedPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- ingestion ---------------------------------------------------------

    def submit(self, values) -> int:
        """Privatize and buffer one client batch; release size flushes.

        Returns the number of flushes triggered (admitted or rejected).
        Ingestion is the parent's job — privatization consumes the ingest
        generator in arrival order, which must not depend on shard layout.
        """
        values = np.asarray(values)
        if len(values) == 0:
            return 0
        encoded = self.fo.encode_reports(self.fo.privatize(values, self.rng))
        # owned=True: `encoded` is freshly allocated and never touched again.
        batches = self.buffer.submit(encoded, owned=True)
        self._n_submits += 1
        self._persist_and_release(batches)
        return len(batches)

    def end_epoch(self) -> EpochReport:
        """Drain the carver, collect every fold, and close the epoch."""
        batches = self.buffer.end_epoch()
        if batches:
            self._persist_and_release(batches)
        self.drain()
        eps_spent, delta_spent = self.accountant.spent()
        report = EpochReport(
            epoch=self.buffer.epoch - 1,
            n_flushes=self._epoch_flushes,
            n_rejected=self._epoch_rejected,
            n_reports=self._epoch_reports_released,
            n_fake=self._epoch_fakes,
            flush_latency_s=self._epoch_latency,
            reports_per_sec=(
                self._epoch_reports_released / self._epoch_latency
                if self._epoch_latency > 0.0
                else 0.0
            ),
            eps_spent=eps_spent,
            delta_spent=delta_spent,
        )
        self.epoch_reports.append(report)
        self.store.record_epoch(report, self.estimates(), self._checkpoint())
        self._epoch_flushes = 0
        self._epoch_rejected = 0
        self._epoch_reports_released = 0
        self._epoch_fakes = 0
        self._epoch_latency = 0.0
        return report

    def run(self, epoch_batches: Iterable) -> StreamResult:
        """Feed one value batch per epoch and return the final result."""
        for values in epoch_batches:
            self.submit(values)
            self.end_epoch()
        return self.result()

    # -- write-ahead protocol ----------------------------------------------

    def _checkpoint(self) -> IngestCheckpoint:
        """The ingest-side mutable state, for the store to commit."""
        return IngestCheckpoint(
            rng_state=self.rng.bit_generator.state,
            buffer_epoch=self.buffer.epoch,
            next_sequence=self.buffer.next_sequence,
            pending_chunks=self.buffer.pending_chunks(),
            pending_count=self.buffer.pending,
            n_submits=self._n_submits,
        )

    def _persist_and_release(self, batches: List[FlushBatch]) -> None:
        """The write-ahead protocol step for one submission.

        Every carved batch is priced first; all verdicts (charges and
        rejections) plus the post-submit ingest checkpoint commit in one
        store transaction *before* any release happens.  Only then are
        the admitted batches released, each committing its counts as it
        folds.  A crash between the two commits leaves 'charged' rows a
        resume replays deterministically — the spend is never lost.
        """
        if not batches:
            self.store.record_ingest(self._checkpoint())
            return
        records = [self._charge_batch(batch) for batch in batches]
        self.store.record_flushes(records, self._checkpoint())
        for batch, record in zip(batches, records):
            if record.admitted:
                self._release(batch)

    def _charge_batch(self, batch: FlushBatch) -> FlushRecord:
        """Price one batch against the ledger; never releases."""
        plan = self.config.plan
        self._epoch_flushes += 1
        span = (self._carved, self._carved + batch.n_reports)
        self._carved = span[1]
        # Price the batch at its own size: an epoch-end remainder carries
        # less genuine blanket than a full flush, so it costs more.
        price = flush_release_epsilon(
            self.config.d, plan, batch.n_reports, batch.n_fake
        )
        verdict = dict(
            sequence=batch.sequence,
            epoch=batch.epoch,
            trigger=batch.trigger,
            n_reports=batch.n_reports,
            n_fake=batch.n_fake,
            reports=batch.reports,
        )
        try:
            charge = self.accountant.charge(
                price,
                plan.delta,
                label=f"epoch{batch.epoch}/flush{batch.sequence}",
            )
        except BudgetExceededError as refusal:
            self._epoch_rejected += 1
            self._record_rejection(batch, str(refusal))
            return FlushRecord(
                **verdict,
                charge_eps=None,
                charge_delta=None,
                charge_label=None,
                reject_reason=str(refusal),
            )
        self._epoch_reports_released += batch.n_reports
        self._epoch_fakes += batch.n_fake
        self._note_released(span)
        return FlushRecord(
            **verdict,
            charge_eps=charge.eps,
            charge_delta=charge.delta,
            charge_label=charge.label,
            reject_reason=None,
        )

    def _note_released(self, span: tuple) -> None:
        """Extend ``released_spans`` by one released flush's range."""
        spans = self.released_spans
        if spans and spans[-1][1] == span[0]:
            spans[-1] = (spans[-1][0], span[1])
        else:
            spans.append(span)

    def _record_rejection(self, flush, reason: str) -> None:
        """Count one refused flush; keep the first few in detail."""
        self.n_rejected += 1
        if len(self.rejections) < MAX_REJECTION_RECORDS:
            self.rejections.append(
                FlushRejection(
                    epoch=flush.epoch,
                    sequence=flush.sequence,
                    n_reports=flush.n_reports,
                    reason=reason,
                )
            )

    # -- flush processing --------------------------------------------------

    def _release(self, batch: FlushBatch) -> None:
        """Hand one admitted (already charged and journaled) batch to its
        shard — inline for serial folding (and after a degradation to the
        serial rung), as a future for process folding, whose counts are
        committed when :meth:`drain` collects them."""
        if self.fold_backend != "process" or self._serial_fallback:
            self._fold_inline(batch)
            return
        lease = self._lease_segment(batch)
        self._bytes_moved += batch.reports.nbytes
        future = self._submit_supervised(
            _fold_block, *self._fold_args(batch, lease)
        )
        self._pending.append((future, batch, lease))

    def _lease_segment(self, batch: FlushBatch) -> Optional[SegmentLease]:
        """Copy ``batch`` into a pooled segment; None when it ships pickled.

        An all-fake empty batch has no payload to ship (POSIX shm
        segments cannot be zero-sized), so it rides the pickle path.  A
        failed acquire (exhausted ``/dev/shm``, an injected
        ``"shm.write"`` fault) must not lose a charged flush: the payload
        still lives in the batch's own buffer, so the transport degrades
        to pickle at the write site and the batch ships from there.
        """
        if not self._use_shm or batch.n_reports == 0:
            return None
        try:
            lease = self._pool().acquire(batch.reports.nbytes)
        except Exception as failure:
            self._degrade_transport("pickle", f"shm write failed: {failure!r}")
            return None
        window = np.frombuffer(
            lease.shm.buf, dtype=np.int64, count=batch.n_reports
        )
        window[:] = batch.reports
        del window  # views must die before the segment closes
        return lease

    def _fold_args(self, batch: FlushBatch, lease: Optional[SegmentLease]):
        """The :func:`_fold_block` arguments that fold ``batch``."""
        payload = batch.reports if lease is None else lease.name
        return (
            batch.sequence, payload, batch.n_reports, batch.n_fake,
            self.release_entropy,
        )

    def _fold_inline(self, batch: FlushBatch) -> None:
        """Fold one batch in the parent: the serial path and the terminal
        rung of the degradation ladder (always available — the parent
        holds a prepared backend and every batch owns its buffer)."""
        started = self.clock()
        decoded, counts = release_counts(
            self.fo, self.backend, batch.sequence, batch.reports,
            batch.n_reports, batch.n_fake, self.release_entropy,
        )
        if self.config.keep_reports:
            self.released_batches.append(decoded)
        self._commit_fold(batch, counts, self.clock() - started)

    def _commit_fold(self, flush, counts: np.ndarray, elapsed: float) -> None:
        """Fold a released flush's counts into the shard its sequence
        picks, then journal them — the flush's release is now final."""
        self.shards[flush.sequence % self.n_shards].fold_counts(
            counts, flush.n_reports, flush.n_fake
        )
        self.store.record_release(flush.sequence, counts)
        self._epoch_latency += elapsed

    def drain(self) -> int:
        """Fold every outstanding worker result into its shard, supervised.

        Collection order does not matter: counts are summed exactly, and
        each fold's randomness was fixed by its flush sequence at dispatch
        time.  Returns the number of folds collected.

        Supervision: a fold that times out (``fold_timeout``), raises, or
        dies with its worker (``BrokenProcessPool``) is *retried*, not
        dropped — the accountant already charged those flushes, and
        because folds are pure given ``(sequence, reports, n_fake,
        entropy)`` a retry recomputes bit-identical counts.  The broken
        executor is rebuilt (shm leases survive — the payloads still live
        in the parent-owned segments) and every outstanding fold is
        redispatched after a capped exponential backoff.  After
        ``max_fold_retries`` *consecutive* failures the transport
        degrades one rung (shm -> pickle -> serial inline folding, see
        ``_DEGRADE_LADDER``) instead of raising; with ``degrade=False``
        (or once the serial rung itself fails) the failure propagates and
        the pending queue keeps the uncollected folds for a later drain.
        """
        collected = 0
        consecutive = 0
        while self._pending:
            future, batch, lease = self._pending[0]
            try:
                outcome = future.result(timeout=self.fold_timeout)
            except _FutureTimeout as failure:
                self._fault_stats["fold_timeouts"] += 1
                consecutive = self._recover_folds(
                    consecutive + 1, failure, hung=True
                )
                continue
            except Exception as failure:
                consecutive = self._recover_folds(
                    consecutive + 1, failure, hung=False
                )
                continue
            consecutive = 0
            self._pending.pop(0)
            if lease is not None:
                # The worker is done with the segment; back to the pool
                # for the next flush.
                lease.release()
            self._commit_fold(batch, *outcome)
            collected += 1
        return collected

    # -- fold supervision --------------------------------------------------

    def _submit_supervised(self, fn, *args):
        """Dispatch one fold, absorbing a pool that broke *between* folds.

        ``ProcessPoolExecutor.submit`` raises ``BrokenExecutor``
        synchronously when the workers died while the pipeline was
        idle — outside :meth:`drain`'s supervision.  The batch is
        already charged, so rebuild the pool, redispatch any
        outstanding folds onto it, and submit this one to the fresh
        pool; a second synchronous failure means new workers cannot
        even spawn, which is environmental, and propagates.
        """
        try:
            return self._ensure_executor().submit(fn, *args)
        except BrokenExecutor:
            self._fault_stats["worker_deaths"] += 1
            self._abandon_executor()
            self._redispatch_pending()
            return self._ensure_executor().submit(fn, *args)

    def _recover_folds(self, consecutive: int, failure: BaseException, hung: bool) -> int:
        """Absorb one fold failure: rebuild, maybe degrade, redispatch.

        Returns the new consecutive-failure count (0 after a
        degradation — each rung gets a fresh retry budget).  Raises
        ``failure`` when the retry budget is spent and no rung is left
        (or degradation is disabled): charged flushes must never vanish
        silently, so an unrecoverable failure propagates with the
        pending queue intact.
        """
        if isinstance(failure, BrokenExecutor):
            self._fault_stats["worker_deaths"] += 1
        # A hung worker is still alive holding the job; shutdown(wait=)
        # would block on it, so the rebuild SIGKILLs the pool first.
        self._abandon_executor(kill=hung)
        if self._use_shm and self._shm_pool is not None:
            divergence = self._shm_pool.dev_shm_divergence()
            if divergence["missing"]:
                # Segments vanished under us (foreign unlink): the leases
                # cannot be re-attached, but every batch still owns its
                # buffer — ship pickled from here on.
                self._degrade_transport(
                    "pickle",
                    f"shm segments vanished mid-run: "
                    f"{', '.join(divergence['missing'])}",
                )
                consecutive = 0
        if consecutive > self.max_fold_retries:
            target = _DEGRADE_LADDER.get(self._effective_transport())
            if not self.degrade or target is None:
                raise failure
            self._degrade_transport(
                target,
                f"{consecutive - 1} consecutive fold failures "
                f"(last: {failure!r})",
            )
            consecutive = 0
        else:
            self._fault_stats["fold_retries"] += 1
            time.sleep(
                min(
                    _RETRY_BACKOFF_CAP_S,
                    _RETRY_BACKOFF_BASE_S * 2.0 ** (consecutive - 1),
                )
            )
        self._redispatch_pending()
        return consecutive

    def _abandon_executor(self, kill: bool = False) -> None:
        """Tear down the (possibly broken or hung) pool without blocking."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        self._fault_stats["pool_rebuilds"] += 1
        if kill:
            for pid in list(getattr(executor, "_processes", None) or {}):
                try:
                    os.kill(pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass  # already dead / not ours — shutdown handles it
        executor.shutdown(wait=False, cancel_futures=True)

    def _redispatch_pending(self) -> None:
        """Resubmit every uncollected fold on the current rung.

        Folds that completed cleanly before the pool broke keep their
        finished futures (their results are valid — the fold already
        happened).  Everything else is resubmitted: shm folds reuse
        their live lease (the payload is still in the parent-owned
        segment); after a degradation to pickle the lease is released
        and the batch's own buffer ships instead; on the serial rung
        the parent folds inline.  ``bytes_moved`` is not re-counted —
        retries re-ship, they do not re-measure.
        """
        entries, self._pending = self._pending, []
        if self._serial_fallback:
            for future, batch, lease in entries:
                try:
                    if _succeeded(future):
                        self._commit_fold(batch, *future.result())
                    else:
                        self._fold_inline(batch)
                finally:
                    if lease is not None:
                        lease.release()
            return
        executor = self._ensure_executor()
        for future, batch, lease in entries:
            if not _succeeded(future):
                if lease is not None and not self._use_shm:
                    # Degraded shm -> pickle mid-flight: the batch's own
                    # buffer ships from now on; the segment goes back to
                    # the pool.
                    lease.release()
                    lease = None
                future = executor.submit(
                    _fold_block, *self._fold_args(batch, lease)
                )
            self._pending.append((future, batch, lease))

    def _effective_transport(self) -> str:
        """The rung of the degradation ladder folds currently ride."""
        if self._serial_fallback:
            return "serial"
        return "shm" if self._use_shm else "pickle"

    def _degrade_transport(self, level: str, reason: str) -> None:
        """Drop one rung down the ladder (shm -> pickle -> serial)."""
        previous = self._effective_transport()
        if level == "serial":
            self._serial_fallback = True
        self._use_shm = False
        self._fault_stats["degradations"].append(
            {"from": previous, "to": level, "reason": reason}
        )
        _log.warning(
            "fold transport degraded %s -> %s: %s", previous, level, reason
        )

    # -- recovery ----------------------------------------------------------

    def _restore(self, snapshot: RunSnapshot) -> None:
        """Rebuild mutable state from a snapshot; replay pending flushes."""
        check_replay_support(self.config, self.fo)
        self.accountant.restore(snapshot.charges)
        self.buffer.restore_state(
            snapshot.buffer_epoch, snapshot.next_sequence, snapshot.remainder
        )
        self._n_submits = snapshot.n_submits
        self.epoch_reports = list(snapshot.epoch_reports)
        offset = 0
        for flush in snapshot.flushes:
            span = (offset, offset + flush.n_reports)
            offset = span[1]
            if flush.status == "rejected":
                self._record_rejection(flush, flush.reject_reason or "rejected")
                continue
            self._note_released(span)
            if flush.status == "released":
                # Never re-release: fold the committed counts as-is.
                self.shards[flush.sequence % self.n_shards].fold_counts(
                    flush.counts, flush.n_reports, flush.n_fake
                )
            else:
                self._replay_release(flush)
        self._carved = offset
        if len(self.epoch_reports) < self.buffer.epoch:
            self._synthesize_epoch(snapshot)
        # Partial counters of the epoch that was open at the crash; its
        # release latency is lost with the process (metrics only — the
        # determinism contract covers estimates and spend, not timings).
        current = [
            flush for flush in snapshot.flushes
            if flush.epoch == self.buffer.epoch
        ]
        released = [f for f in current if f.status != "rejected"]
        self._epoch_flushes = len(current)
        self._epoch_rejected = len(current) - len(released)
        self._epoch_reports_released = sum(f.n_reports for f in released)
        self._epoch_fakes = sum(f.n_fake for f in released)
        self._epoch_latency = 0.0

    def _replay_release(self, flush: StoredFlush) -> None:
        """Deterministically redo a charged-but-unreleased flush.

        The release stream is keyed by the flush's persisted sequence
        number, so the fakes and permutation — hence the folded counts —
        are bit-identical to what the crashed process would have
        produced.  The charge is already on the restored ledger; nothing
        is charged again.  Replays always run inline in the parent.
        """
        __, counts = release_counts(
            self.fo, self.backend, flush.sequence, flush.reports,
            flush.n_reports, flush.n_fake, self.release_entropy,
        )
        self._commit_fold(flush, counts, 0.0)

    def _synthesize_epoch(self, snapshot: RunSnapshot) -> None:
        """Close the epoch whose flushes committed but whose report didn't.

        Only the crash epoch can be in flight: an epoch's report commits
        before any later submission, so a gap deeper than one record
        means the store was tampered with.
        """
        missing = self.buffer.epoch - len(self.epoch_reports)
        if missing != 1:
            raise StateStoreError(
                f"snapshot is missing {missing} epoch records; only the "
                f"epoch in flight at the crash can lack one"
            )
        epoch = self.buffer.epoch - 1
        rows = [f for f in snapshot.flushes if f.epoch == epoch]
        released = [f for f in rows if f.status != "rejected"]
        eps_spent, delta_spent = self.accountant.spent()
        report = EpochReport(
            epoch=epoch,
            n_flushes=len(rows),
            n_rejected=len(rows) - len(released),
            n_reports=sum(f.n_reports for f in released),
            n_fake=sum(f.n_fake for f in released),
            flush_latency_s=0.0,
            reports_per_sec=0.0,
            eps_spent=eps_spent,
            delta_spent=delta_spent,
        )
        self.epoch_reports.append(report)
        self.store.record_epoch(report, self.estimates(), self._checkpoint())

    # -- observability -----------------------------------------------------

    def transport_stats(self) -> dict:
        """How fold payloads moved: transport, bytes, shm high-water mark.

        ``transport`` is the *effective* transport (``"shm"`` degrades
        to ``"pickle"`` for object-dtype codecs, and supervision may
        have walked the ladder further — see :meth:`fault_stats`),
        ``bytes_moved`` the total report payload shipped to workers on
        either transport (0 for serial folds), and ``shm_peak_bytes``
        the pool's peak allocated segment bytes (0 until the first shm
        fold).
        """
        pool = self._shm_pool
        return {
            "transport": self._effective_transport(),
            "bytes_moved": self._bytes_moved,
            "shm_peak_bytes": pool.peak_bytes if pool is not None else 0,
        }

    def fault_stats(self) -> dict:
        """What the fold supervisor absorbed: retries, rebuilds, ladder.

        ``fold_retries`` — failed folds redispatched (after backoff);
        ``fold_timeouts`` — folds that exceeded ``fold_timeout``;
        ``worker_deaths`` — ``BrokenProcessPool`` detections;
        ``pool_rebuilds`` — executors torn down and respawned;
        ``degradations`` — every rung walked, with from/to/reason.
        All zeros (and an empty list) on a healthy run.
        """
        stats = dict(self._fault_stats)
        stats["degradations"] = list(self._fault_stats["degradations"])
        return stats

    # -- results -----------------------------------------------------------

    @property
    def n_submits(self) -> int:
        """Non-empty submissions applied — a feeder's resume cursor."""
        return self._n_submits

    @property
    def epochs_completed(self) -> int:
        """Epochs closed so far (resume-synthesized ones included)."""
        return len(self.epoch_reports)

    @property
    def exhausted(self) -> bool:
        """True once no positive charge can ever be admitted again.

        A long-running feeder should consult this and stop submitting:
        the pipeline keeps pricing and refusing flushes either way (so
        refusals stay visible in the epoch metrics), but past this point
        every privatize pass is wasted work.
        """
        return self.accountant.remaining_eps() <= 0.0

    def aggregate(self) -> IncrementalAggregator:
        """Merge every shard into one global aggregator (fresh instance)."""
        self.drain()
        merged = IncrementalAggregator(self.fo)
        for shard in self.shards:
            merged.merge(shard)
        return merged

    def estimates(self) -> np.ndarray:
        """Current calibrated global frequency estimates (Eq. (6))."""
        return self.aggregate().estimates()

    def released_values(self, submitted_values: np.ndarray) -> np.ndarray:
        """The subset of ``submitted_values`` that was actually released.

        ``submitted_values`` must be every value fed to :meth:`submit`, in
        order; rejected flushes leave gaps, which this selects around via
        ``released_spans``.  Demo/metric helper — a real deployment never
        holds raw values server-side.
        """
        submitted_values = np.asarray(submitted_values)
        if len(submitted_values) < self._carved:
            raise ValueError(
                f"expected at least {self._carved} submitted values, "
                f"got {len(submitted_values)}"
            )
        if not self.released_spans:
            # Owned empty result, not a zero-length view that would pin
            # the caller's buffer alive (RPL010).
            return submitted_values[:0].copy()
        return np.concatenate(
            [submitted_values[start:stop] for start, stop in self.released_spans]
        )

    def result(self) -> StreamResult:
        aggregate = self.aggregate()
        eps_spent, delta_spent = self.accountant.spent()
        return StreamResult(
            estimates=aggregate.estimates(),
            epochs=list(self.epoch_reports),
            n_genuine=aggregate.n_genuine,
            n_fake=aggregate.n_fake,
            eps_spent=eps_spent,
            delta_spent=delta_spent,
            n_rejected=self.n_rejected,
            rejections=list(self.rejections),
        )


#: the older public name, kept for importers: every layout, the
#: single-shard serial default included, is one :class:`ShardedPipeline`
TelemetryPipeline = ShardedPipeline
