"""The async HTTP front door over a streaming pipeline.

:class:`TelemetryServer` turns a :class:`~repro.service.sharded.
ShardedPipeline`, in whatever shard layout it was built with, into a
network service:

* ``POST /api/reports`` — one JSON batch of raw values
  (``{"values": [3, 0, 7, ...]}``), validated against the deployment's
  domain before it is accepted.  An accepted batch is one ingest job,
  acknowledged with HTTP 202 and its ``submit_seq`` — the position in
  the pipeline's ingest order, which is what makes a server run
  replayable in-process (the ingest RNG privatizes in arrival order).
  Once ``max_pending`` jobs wait behind the running one, backpressure
  is explicit: HTTP 429 with a ``Retry-After`` header, and the batch is
  *not* accepted — every 202 is a promise the batch reaches the
  pipeline.
* ``POST /api/epochs`` — close the current collection epoch; an ingest
  job too (so it orders after every batch accepted before it), it
  returns the epoch's :class:`~repro.service.pipeline.EpochReport`.
* ``GET /api/health`` / ``GET /api/config`` — liveness counters (its
  ``pending`` counts accepted jobs not yet finished, the running one
  included) and the canonical deployment parameters (the persisted
  ``StreamConfig`` serialization, plan included).
* ``GET /api/estimates`` — released per-epoch estimates from the state
  store's epoch log, paginated per :mod:`repro.server.pagination`.

Threading model: the event loop owns sockets, parsing, validation and
the pending count; **one** ingest thread (a single-worker executor)
owns the pipeline and its state store — it builds both at :meth:`start`
(so a SQLite store's thread-bound connection lives where it is used).
Its FIFO is the only queue: each accepted job is one submission, run
strictly in acceptance order, and each ``/api/estimates`` page is read
there between jobs.  The loop never blocks on a fold; the pipeline
never sees two threads.

If a job fails (a store error mid-run, say) and the server was *not*
given a ``recover_factory``, it marks itself failed: in-flight epoch
closes get HTTP 500, subsequent uploads get 503, and ``/api/health``
reports the failure — accepted batches that can no longer be applied
are counted, never silently dropped.  With a ``recover_factory`` (a
zero-argument callable rebuilding the pipeline from its durable state
store, see :meth:`repro.api.session.ShuffleSession.serve`), an ingest
crash instead triggers bounded-backoff self-healing on the ingest
thread, before the next job starts: the broken pipeline is closed, the
factory resumes a fresh one from the store's write-ahead log (a
bit-identical replay), and service continues — health reports
``degraded`` during the attempt and returns to ``ok`` after.  The job
that crashed is still counted failed (its batch was never journaled);
everything accepted behind it applies to the recovered pipeline in
order.  A factory that raises :class:`RecoveryUnsupportedError` (e.g.
the deployment has no durable store) restores the fail-hard behavior.
While no pipeline is serving, every route but ``/api/health`` answers
503 with ``Retry-After``.
"""

from __future__ import annotations

import asyncio
import math
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..core.errors import ConfigError
from ..faults import fail_point
from ..persistence.records import config_to_dict
from .http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    Request,
    error_bytes,
    read_request,
    response_bytes,
)
from .pagination import paginate

#: schema tag of every front-door JSON payload family
SERVER_SCHEMA = "repro.server/1"

#: ceiling on the exponential backoff between pipeline recovery attempts
_RECOVERY_BACKOFF_CAP_S = 2.0


class RecoveryUnsupportedError(RuntimeError):
    """A ``recover_factory`` cannot resume this deployment (no durable
    store, or the store refuses to load) — the server falls back to
    fail-hard 503s instead of retrying a recovery that can never work."""


#: route table: path -> allowed methods
_ROUTES = {
    "/api/health": ("GET",),
    "/api/config": ("GET",),
    "/api/estimates": ("GET",),
    "/api/reports": ("POST",),
    "/api/epochs": ("POST",),
}


@dataclass(frozen=True)
class ServerConfig:
    """Static configuration of the HTTP front door itself.

    Deployment parameters (mechanism, domain, budget) stay on the
    pipeline's :class:`~repro.service.pipeline.StreamConfig`; this is
    only the network surface: where to listen, how much ingest may be
    pending before the server pushes back, and how it frames that
    pushback.
    """

    host: str = "127.0.0.1"
    port: int = 8000
    #: accepted jobs (report batches and epoch closes) that may wait
    #: behind the running one before uploads are refused with 429
    max_pending: int = 64
    #: request body cap; beyond it uploads get 413
    max_body_bytes: int = MAX_BODY_BYTES
    max_header_bytes: int = MAX_HEADER_BYTES
    #: seconds advertised in the 429 ``Retry-After`` header
    retry_after_s: float = 1.0
    #: pipeline recovery attempts per ingest crash before the server
    #: gives up and fails hard (0 disables self-healing entirely)
    max_recoveries: int = 3
    #: base of the capped exponential backoff between recovery attempts
    recovery_backoff_s: float = 0.05

    def __post_init__(self):
        if not self.host:
            raise ConfigError("host", "must be a non-empty host or address")
        if not 0 <= self.port <= 65535:
            raise ConfigError(
                "port", f"must be in [0, 65535] (0 picks a free port), "
                f"got {self.port}"
            )
        if self.max_pending < 1:
            raise ConfigError(
                "max_pending", f"must be >= 1, got {self.max_pending}"
            )
        if self.max_body_bytes < 1024:
            raise ConfigError(
                "max_body_bytes",
                f"must be >= 1024, got {self.max_body_bytes}",
            )
        if self.max_header_bytes < 1024:
            raise ConfigError(
                "max_header_bytes",
                f"must be >= 1024, got {self.max_header_bytes}",
            )
        if not 0.0 < self.retry_after_s < math.inf:
            # The 429's Retry-After header rounds it to whole seconds.
            raise ConfigError(
                "retry_after_s",
                f"must be positive and finite, got {self.retry_after_s}",
            )
        if self.max_recoveries < 0:
            raise ConfigError(
                "max_recoveries",
                f"must be >= 0 (0 disables self-healing), "
                f"got {self.max_recoveries}",
            )
        if not self.recovery_backoff_s > 0.0:
            raise ConfigError(
                "recovery_backoff_s",
                f"must be positive, got {self.recovery_backoff_s}",
            )


class TelemetryServer:
    """One deployment's HTTP front door; see the module docstring.

    ``pipeline_factory`` is a zero-argument callable building the wired
    pipeline (typically a closure over
    :meth:`repro.api.session.ShuffleSession.stream`); it runs on the
    ingest thread during :meth:`start`, so stores it creates are owned
    by the thread that will use them.  ``recover_factory`` (optional) is
    a zero-argument callable *resuming* a replacement pipeline from the
    deployment's durable store after an ingest crash — see the module
    docstring's self-healing contract.  Use
    ``async with``/``await stop()`` to guarantee the pipeline (and any
    shared-memory pool or process pool it holds) is closed.
    """

    def __init__(
        self,
        pipeline_factory: Callable[[], object],
        config: ServerConfig,
        recover_factory: Optional[Callable[[], object]] = None,
    ):
        self.config = config
        self._pipeline_factory = pipeline_factory
        self._recover_factory = recover_factory
        self.pipeline = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = False
        self._failure: Optional[BaseException] = None
        #: jobs accepted (the loop writes it) and jobs finished (the
        #: ingest thread writes it); their difference is what is pending
        self._submit_seq = 0
        self._applied = 0
        self._recovering = False
        self._retry_after = (
            ("Retry-After", str(max(1, round(config.retry_after_s)))),
        )
        self.accepted_batches = 0
        self.accepted_reports = 0
        self.rejected_429 = 0
        self.failed_batches = 0
        self.recoveries = 0
        self.recovery_attempts = 0
        #: close() failures of pipelines discarded during recovery —
        #: recorded (never swallowed silently) and surfaced in health
        self.recovery_close_errors: List[str] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the kernel's pick)."""
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "TelemetryServer":
        """Build the pipeline on the ingest thread and start listening."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-ingest"
        )
        try:
            self.pipeline = await self._loop.run_in_executor(
                self._executor, self._pipeline_factory
            )
            self._server = await asyncio.start_server(
                self._handle,
                host=self.config.host,
                port=self.config.port,
                limit=max(self.config.max_header_bytes * 2, 64 * 1024),
            )
        except BaseException:
            # A pipeline built before the bind failed is closed too.
            closed = self._executor.submit(self._close_pipeline)
            self._executor.shutdown(wait=True)
            self._executor = None
            closed.result()
            raise
        return self

    async def stop(self) -> None:
        """Graceful shutdown: drain accepted work, then release everything.

        Ordering is the clean-exit contract the serve tests pin: stop
        accepting (new requests get 503 while existing sockets flush),
        then close the pipeline on its own thread — which drains process
        folds and unlinks every shared-memory segment — and the state
        store with it.  The close is the ingest thread's last job, and
        its executor runs jobs in FIFO order, so every accepted job
        reaches the pipeline first.  Idempotent.
        """
        if self._server is None or self._closing:
            self._closing = True
            return
        self._closing = True
        self._server.close()
        await self._server.wait_closed()
        try:
            await self._loop.run_in_executor(
                self._executor, self._close_pipeline
            )
        finally:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _close_pipeline(self) -> None:
        pipeline, self.pipeline = self.pipeline, None
        if pipeline is None:
            return
        try:
            pipeline.close()
        finally:
            pipeline.store.close()

    async def __aenter__(self) -> "TelemetryServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- the ingest thread -------------------------------------------------

    def _run(self, kind: str, values, seq: int):
        """Apply one accepted job to the pipeline (ingest thread).

        A failure drops *that job* (counted, an epoch close's waiter
        told) and — when a ``recover_factory`` is wired — resumes a
        replacement pipeline before the executor starts the next job,
        so everything accepted behind the crash still applies in order.
        Only when recovery is unavailable or exhausted does the server
        latch ``_failure`` and refuse further work.
        """
        try:
            if self._failure is not None:
                raise RuntimeError(
                    f"ingest already failed: {self._failure}"
                ) from self._failure
            # Chaos seam: ``at=K`` schedules target one exact submit_seq.
            fail_point("server.ingest", sequence=seq)
            if kind == "reports":
                self.pipeline.submit(values)
                return None
            return self.pipeline.end_epoch()
        except Exception as failure:
            if kind == "reports":
                self.failed_batches += 1
            if self._failure is None and not self._try_recover():
                self._failure = failure
            if kind == "epoch":
                raise
            return None
        finally:
            self._applied += 1

    def _try_recover(self) -> bool:
        """Discard the broken pipeline and resume one from the store.

        Runs on the ingest thread, between the failed job and the next,
        with capped exponential backoff between attempts.  Closing the
        broken pipeline (and its store) is best-effort: one that just
        crashed may well fail to close too, and that must not block the
        resume — but the failure is recorded, never silently dropped.
        Returns True when a replacement pipeline is serving, False when
        the server must fail hard (no factory, unsupported deployment,
        or attempts exhausted).
        """
        if self._recover_factory is None or self.config.max_recoveries < 1:
            return False
        self._recovering = True
        try:
            broken, self.pipeline = self.pipeline, None
            for part, close in (
                ("pipeline", broken.close), ("store", broken.store.close)
            ):
                try:
                    close()
                except Exception as close_failure:
                    self.recovery_close_errors.append(
                        f"broken {part} close failed: {close_failure!r}"
                    )
            for attempt in range(self.config.max_recoveries):
                time.sleep(
                    min(
                        _RECOVERY_BACKOFF_CAP_S,
                        self.config.recovery_backoff_s * 2.0 ** attempt,
                    )
                )
                self.recovery_attempts += 1
                try:
                    self.pipeline = self._recover_factory()
                except RecoveryUnsupportedError:
                    return False
                except Exception as retry_failure:
                    self.recovery_close_errors.append(
                        f"recovery attempt {self.recovery_attempts} "
                        f"failed: {retry_failure!r}"
                    )
                    continue
                self.recoveries += 1
                return True
            return False
        finally:
            self._recovering = False

    def _estimates_page(self, request: Request) -> dict:
        """One page of the store's epoch log, read between jobs."""
        if self.pipeline is None:
            raise self._unserved()
        store = self.pipeline.store
        envelope = paginate(
            request, self.pipeline.config.d, store.epoch_count(),
            store.epoch_log,
        )
        envelope["schema"] = SERVER_SCHEMA
        return envelope

    # -- request handling --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        max_header_bytes=self.config.max_header_bytes,
                        max_body_bytes=self.config.max_body_bytes,
                    )
                except HttpError as framing:
                    writer.write(error_bytes(framing, keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                try:
                    payload, status, headers = await self._dispatch(request)
                    response = response_bytes(
                        status, payload,
                        keep_alive=request.keep_alive, headers=headers,
                    )
                except HttpError as refused:
                    response = error_bytes(
                        refused, keep_alive=request.keep_alive
                    )
                    if refused.close:
                        writer.write(response)
                        await writer.drain()
                        break
                except Exception as unexpected:  # never leak a traceback
                    response = error_bytes(
                        HttpError(500, f"internal error: {unexpected}"),
                        keep_alive=request.keep_alive,
                    )
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to salvage
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request) -> Tuple[dict, int, tuple]:
        allowed = _ROUTES.get(request.path)
        if allowed is None:
            raise HttpError(404, f"unknown path {request.path!r}")
        if request.method not in allowed:
            raise HttpError(
                405,
                f"{request.method} is not supported on {request.path}",
                headers=(("Allow", ", ".join(allowed)),),
            )
        if request.path == "/api/health":
            return self._health_payload(), 200, ()
        if self._closing:
            raise HttpError(
                503, "server is shutting down", headers=(("Retry-After", "1"),)
            )
        if request.method == "POST" and self._failure is not None:  # new work
            raise HttpError(
                503,
                f"ingest pipeline failed and the server no longer accepts "
                f"work: {self._failure}",
            )
        # Read once: recovery swaps the pipeline on the ingest thread.
        pipeline = self.pipeline
        if pipeline is None:
            raise self._unserved()
        if request.path == "/api/config":
            return self._config_payload(pipeline.config), 200, ()
        if request.path == "/api/estimates":
            page = await self._loop.run_in_executor(
                self._executor, self._estimates_page, request
            )
            return page, 200, ()
        if request.path == "/api/reports":
            return self._accept_reports(request, pipeline.config.d)
        return await self._close_epoch()

    def _unserved(self) -> HttpError:
        """No pipeline is serving: recovery is resuming one, or failed."""
        return HttpError(
            503,
            "no ingest pipeline is serving (recovering, or failed: see "
            "/api/health)",
            headers=self._retry_after,
        )

    # -- handlers ----------------------------------------------------------

    def _health_payload(self) -> dict:
        pipeline = self.pipeline
        if self._failure is not None:
            status = "failed"
        elif self._closing:
            status = "closing"
        elif self._recovering:
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "schema": SERVER_SCHEMA,
            "status": status,
            "pending": self._submit_seq - self._applied,
            "epochs_completed": pipeline.epochs_completed
            if pipeline is not None else 0,
            "accepted_batches": self.accepted_batches,
            "accepted_reports": self.accepted_reports,
            "rejected_429": self.rejected_429,
            "failed_batches": self.failed_batches,
            "recoveries": self.recoveries,
            "recovery_attempts": self.recovery_attempts,
            "exhausted": bool(pipeline.exhausted)
            if pipeline is not None else False,
        }
        if self.recovery_close_errors:
            payload["recovery_errors"] = list(self.recovery_close_errors)
        if self._failure is not None:
            payload["failure"] = str(self._failure)
        return payload

    def _config_payload(self, deployment) -> dict:
        return {
            "schema": SERVER_SCHEMA,
            "deployment": config_to_dict(deployment),
            "server": {
                "max_pending": self.config.max_pending,
                "max_body_bytes": self.config.max_body_bytes,
                "retry_after_s": self.config.retry_after_s,
            },
        }

    def _validated_values(self, request: Request, d: int) -> np.ndarray:
        payload = request.json()
        if "values" not in payload:
            raise HttpError(
                400, "body must carry a 'values' array", field="values"
            )
        values = payload["values"]
        if not isinstance(values, list) or not values:
            raise HttpError(
                400,
                f"must be a non-empty JSON array of integers in [0, {d})",
                field="values",
            )
        try:
            array = np.asarray(values)
        except ValueError:
            # Ragged rows ([1, [2]]) or nesting past numpy's dimension cap.
            raise HttpError(
                400, f"must be integers in [0, {d})", field="values"
            ) from None
        if array.ndim != 1 or array.dtype.kind not in "iu":
            raise HttpError(
                400, f"must be integers in [0, {d})", field="values"
            )
        if int(array.min()) < 0 or int(array.max()) >= d:
            raise HttpError(
                400, f"values outside the domain [0, {d})", field="values"
            )
        return array.astype(np.int64)

    def _enqueue(self, kind: str, values) -> Future:
        """Submit one job to the ingest thread at the next ``submit_seq``.

        An accepted job is pending until the ingest thread finishes it,
        and at most ``max_pending`` may wait behind the running one.
        Past that, the job is a 429 with ``Retry-After`` and takes no
        sequence number.
        """
        if self._submit_seq - self._applied > self.config.max_pending:
            self.rejected_429 += 1
            raise HttpError(
                429,
                f"ingest queue is full ({self.config.max_pending} pending "
                f"batches); retry after Retry-After seconds",
                headers=self._retry_after,
            )
        job = self._executor.submit(self._run, kind, values, self._submit_seq)
        self._submit_seq += 1
        return job

    def _accept_reports(
        self, request: Request, d: int
    ) -> Tuple[dict, int, tuple]:
        values = self._validated_values(request, d)
        self._enqueue("reports", values)
        self.accepted_batches += 1
        self.accepted_reports += len(values)
        return (
            {
                "schema": SERVER_SCHEMA,
                "accepted": len(values),
                "submit_seq": self._submit_seq - 1,
                "pending": self._submit_seq - self._applied,
            },
            202,
            (),
        )

    async def _close_epoch(self) -> Tuple[dict, int, tuple]:
        done = asyncio.wrap_future(
            self._enqueue("epoch", None), loop=self._loop
        )
        try:
            # Shielded: a cancelled waiter must not cancel an accepted
            # close, which already holds its submit_seq.
            report = await asyncio.shield(done)
        except Exception as failure:
            raise HttpError(500, f"epoch close failed: {failure}") from failure
        payload = {"schema": SERVER_SCHEMA}
        payload.update(asdict(report))
        return payload, 200, ()
