"""The benchmark's four workloads, driven through the public API.

Every workload function takes ``(seed, seconds, tracer, setup_repeats,
scratch)``: the seed makes its inputs (generated before any timing),
``seconds`` bounds the measured loop, ``tracer`` (a
:class:`spans.Tracer` or None) turns on span recording around the
layers, ``setup_repeats`` is how often the system is set up (the
median is reported; every set-up but the last is torn down at once),
and ``scratch`` is a directory inside the checkout for sqlite files
(http-mixed also takes the list its server ports go to, and its
offered rate).  Each returns a :class:`Pass`.  Why each workload exists, and which
per-layer metric should move which end-to-end metric, is in the
docstring of ``run.py``.

Each workload closes everything it opened in ``finally`` blocks: fold
pools, shared-memory pools, servers and stores.  ``run.py`` then checks
that no child process, shared-memory segment or listening port is left.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import os
import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.api import DeploymentConfig, PrivacyBudget, ShuffleSession
from repro.costs import CostTracker
from repro.data import zipf_histogram
from repro.data.synthetic import values_from_histogram
from repro.persistence import SqliteStateStore
from repro.persistence.records import config_from_dict
from repro.protocol.peos import peos_shuffle_encoded
from repro.server import ServerClient, fetch_all_estimates
from repro.service import PeosShuffleBackend, ShardedPipeline, StreamConfig

DELTA = 1e-9
ZIPF_EXPONENT = 1.3
#: budget headroom: no workload may ever see a refused flush, because a
#: refusal skips work and would read as a speed-up
ADMITTED_EPOCHS = 100_000
#: epochs replayed by the serial references of wide-fold and durable-ingest
REFERENCE_EPOCHS = 2
#: the measured loop keeps going past ``seconds`` until the epoch
#: percentile has twenty samples, but never past this many ``seconds``
MAX_STRETCH = 3.0
MIN_EPOCHS = 20


@dataclass
class Pass:
    """What one measured pass of a workload produced."""

    setup_s: List[float] = field(default_factory=list)
    submit_s: List[float] = field(default_factory=list)
    close_s: List[float] = field(default_factory=list)
    ack_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    pending: List[int] = field(default_factory=list)
    #: genuine reports released, and seconds from first submit until the
    #: final estimates were out
    reports: int = 0
    wall_s: float = 0.0
    #: closed loops: each epoch's reports over the seconds from its first
    #: submit until its estimate was out
    epoch_rates: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: correctness-gate failures; empty when the pass is correct
    problems: List[str] = field(default_factory=list)
    #: per-layer values that are not span times (counters, ratios)
    layers: dict = field(default_factory=dict)


def zipf_batches(seed: int, stream: int, count: int, size: int, d: int):
    """``count`` client batches of ``size`` Zipf-distributed values."""
    rng = np.random.default_rng((seed, stream))
    return [
        values_from_histogram(zipf_histogram(size, d, ZIPF_EXPONENT, rng), rng)
        for __ in range(count)
    ]


def close_pipeline(pipeline) -> None:
    """Close a pipeline (pools, shm) and then its store, whatever fails."""
    try:
        close = getattr(pipeline, "close", None)
        if close is not None:
            close()
    finally:
        pipeline.store.close()


def timed_setups(build: Callable[[int], object], repeats: int, result: Pass):
    """Set the system up ``repeats`` times; keep only the last one."""
    system = None
    for attempt in range(repeats):
        if system is not None:
            close_pipeline(system)
            system = None
        started = time.perf_counter()
        system = build(attempt)
        result.setup_s.append(time.perf_counter() - started)
    return system


def instrument(tracer, pipeline) -> None:
    """Wrap the public methods of every object the pipeline exposes."""
    tracer.wrap(pipeline, "submit", "submit")
    tracer.wrap(pipeline, "end_epoch", "end_epoch")
    if hasattr(pipeline, "drain"):
        tracer.wrap(pipeline, "drain", "service.sharded.drain")
    for method in ("privatize", "encode_reports", "decode_reports"):
        tracer.wrap(pipeline.fo, method, f"frequency_oracles.{method}")
    tracer.wrap(pipeline.fo, "support_counts", "hashing.support_counts")
    tracer.wrap(pipeline.buffer, "submit", "service.buffer.submit")
    tracer.wrap(pipeline.accountant, "charge", "service.accountant.charge")
    tracer.wrap(pipeline.backend, "shuffle", "service.backends.shuffle")
    for method in (
        "record_ingest", "record_flushes", "record_release", "record_epoch",
        "epoch_log",
    ):
        tracer.wrap(pipeline.store, method, f"persistence.{method}")
    aggregators = getattr(pipeline, "shards", None) or [pipeline.aggregator]
    for aggregator in aggregators:
        tracer.wrap(aggregator, "fold_counts", "service.aggregator.fold_counts")


def closed_loop(pipeline, batches, submits_per_epoch: int, seconds: float,
                result: Pass) -> None:
    """Submit batches back to back, closing an epoch every few submits.

    Submit ``i`` sends ``batches[i % len(batches)]``, so a reference run
    can replay any prefix.
    """
    started = time.perf_counter()
    deadline = started + seconds
    hard_stop = started + seconds * MAX_STRETCH
    index = 0
    now = started
    while now < hard_stop and (
        now < deadline or len(result.close_s) < MIN_EPOCHS
    ):
        epoch_reports = 0
        for __ in range(submits_per_epoch):
            values = batches[index % len(batches)]
            index += 1
            began = time.perf_counter()
            pipeline.submit(values)
            result.submit_s.append(time.perf_counter() - began)
            epoch_reports += len(values)
        began = time.perf_counter()
        pipeline.end_epoch()
        result.close_s.append(time.perf_counter() - began)
        result.epoch_rates.append(
            epoch_reports / (time.perf_counter() - now)
        )
        result.reports += epoch_reports
        now = time.perf_counter()
    pipeline.estimates()
    result.wall_s = time.perf_counter() - started
    result.attempted += index + len(result.close_s)


def check_released(pipeline, result: Pass) -> None:
    """No refused flush, no fold retry or degradation, nothing dropped."""
    if pipeline.n_rejected:
        result.problems.append(f"{pipeline.n_rejected} flushes were refused")
    stats = pipeline.fault_stats() if hasattr(pipeline, "fault_stats") else {}
    for key in ("fold_retries", "fold_timeouts", "worker_deaths",
                "pool_rebuilds"):
        if stats.get(key):
            result.problems.append(f"fault_stats {key} = {stats[key]}")
    if stats.get("degradations"):
        result.problems.append(f"fold transport degraded: {stats['degradations']}")
    released = pipeline.result().n_genuine
    if released != result.reports:
        result.problems.append(
            f"{released} reports released, {result.reports} submitted"
        )


def fold_layers(pipeline, result: Pass, workers: int) -> None:
    """Fold, transport and seed-cache figures the pipeline reports itself."""
    fold_busy = sum(report.flush_latency_s for report in pipeline.epoch_reports)
    result.layers["service.sharded.fold_busy_s"] = fold_busy
    result.layers["service.sharded.worker_busy_frac"] = (
        fold_busy / (workers * result.wall_s) if result.wall_s else 0.0
    )
    transport = (
        pipeline.transport_stats() if hasattr(pipeline, "transport_stats")
        else {}
    )
    result.layers["service.shm.bytes_moved"] = transport.get("bytes_moved", 0)
    result.layers["service.shm.peak_bytes"] = transport.get("shm_peak_bytes", 0)
    cache = (
        pipeline.seed_cache_stats() if hasattr(pipeline, "seed_cache_stats")
        else {}
    )
    result.layers["hashing.seed_cache.hit_rate"] = cache.get("hit_rate", 0.0)


def compare_prefix(measured_log, reference_log, result: Pass, what: str) -> None:
    """The first epochs' estimate snapshots must match byte for byte."""
    if len(reference_log) < REFERENCE_EPOCHS or len(measured_log) < len(
        reference_log
    ):
        result.problems.append(f"{what}: too few epochs to compare")
        return
    for (epoch, got), (__, want) in zip(measured_log, reference_log):
        if np.asarray(got).tobytes() != np.asarray(want).tobytes():
            result.problems.append(f"{what}: epoch {epoch} estimates differ")


def replay_prefix(pipeline, batches, submits_per_epoch: int) -> list:
    """Feed the first epochs of a closed loop; return the epoch log."""
    try:
        for index in range(REFERENCE_EPOCHS * submits_per_epoch):
            pipeline.submit(batches[index % len(batches)])
            if (index + 1) % submits_per_epoch == 0:
                pipeline.end_epoch()
        return pipeline.store.epoch_log()
    finally:
        close_pipeline(pipeline)


# -- wide-fold --------------------------------------------------------------

WIDE_D = 1024
WIDE_BATCH = 2048
WIDE_SUBMITS_PER_EPOCH = 16
WIDE_FLUSH = 8192
WIDE_WORKERS = 2


def wide_fold(seed, seconds, tracer, setup_repeats, scratch) -> Pass:
    """SOLH d=1024, process folds on two workers over shm, closed loop."""
    batches = zipf_batches(seed, 1, 32, WIDE_BATCH, WIDE_D)
    session = ShuffleSession(
        DeploymentConfig(mechanism="SOLH", d=WIDE_D),
        PrivacyBudget(eps=1.0, delta=DELTA),
    )
    options = dict(
        eps_targets=(1.0, 3.0, 6.0),
        epoch_size=WIDE_BATCH * WIDE_SUBMITS_PER_EPOCH,
        admitted_epochs=ADMITTED_EPOCHS,
        seed=seed,
    )

    def build(__):
        pipeline = session.stream(
            WIDE_FLUSH, shards=WIDE_WORKERS, backend="process",
            fold_workers=WIDE_WORKERS, transport="shm", **options,
        )
        try:
            pipeline.warmup()
        except BaseException:
            close_pipeline(pipeline)
            raise
        return pipeline

    result = Pass()
    pipeline = None
    try:
        pipeline = timed_setups(build, setup_repeats, result)
        if tracer is not None:
            instrument(tracer, pipeline)
        closed_loop(pipeline, batches, WIDE_SUBMITS_PER_EPOCH, seconds, result)
        check_released(pipeline, result)
        fold_layers(pipeline, result, WIDE_WORKERS)
        measured_log = pipeline.store.epoch_log()
    finally:
        if pipeline is not None:
            close_pipeline(pipeline)
    reference = session.stream(WIDE_FLUSH, **options)
    compare_prefix(
        measured_log,
        replay_prefix(reference, batches, WIDE_SUBMITS_PER_EPOCH),
        result, "serial single-shard reference",
    )
    return result


# -- durable-ingest ---------------------------------------------------------

DURABLE_D = 64
DURABLE_BATCH = 200
DURABLE_SUBMITS_PER_EPOCH = 45
DURABLE_FLUSH = 2000


def db_bytes(path: str) -> int:
    """Bytes of a sqlite database and its write-ahead log on disk."""
    return sum(
        os.path.getsize(name)
        for name in (path, path + "-wal")
        if os.path.exists(name)
    )


def durable_ingest(seed, seconds, tracer, setup_repeats, scratch) -> Pass:
    """d=64 into a sqlite store, serial folds, many small submits."""
    batches = zipf_batches(seed, 2, 64, DURABLE_BATCH, DURABLE_D)
    session = ShuffleSession(
        DeploymentConfig(mechanism="SOLH", d=DURABLE_D),
        PrivacyBudget(eps=1.0, delta=DELTA),
    )
    options = dict(
        eps_targets=(1.0, 3.0, 6.0),
        epoch_size=DURABLE_BATCH * DURABLE_SUBMITS_PER_EPOCH,
        admitted_epochs=ADMITTED_EPOCHS,
        seed=seed,
    )
    paths = [os.path.join(scratch, f"durable{i}.db") for i in range(setup_repeats)]

    def build(attempt):
        store = SqliteStateStore(paths[attempt])
        try:
            return session.stream(DURABLE_FLUSH, store=store, **options)
        except BaseException:
            store.close()
            raise

    result = Pass()
    pipeline = None
    try:
        pipeline = timed_setups(build, setup_repeats, result)
        if tracer is not None:
            instrument(tracer, pipeline)
        closed_loop(
            pipeline, batches, DURABLE_SUBMITS_PER_EPOCH, seconds, result
        )
        check_released(pipeline, result)
        fold_layers(pipeline, result, 1)
        result.layers["persistence.db_bytes"] = db_bytes(paths[-1])
        measured_log = pipeline.store.epoch_log()
    finally:
        if pipeline is not None:
            close_pipeline(pipeline)
    reference = session.stream(DURABLE_FLUSH, **options)
    compare_prefix(
        measured_log,
        replay_prefix(reference, batches, DURABLE_SUBMITS_PER_EPOCH),
        result, "memory-store reference",
    )
    return result


# -- peos-secure ------------------------------------------------------------

PEOS_D = 8
PEOS_TARGETS = (12.0, 14.0, 16.0)
PEOS_SHUFFLERS = 3
PEOS_KEY_BITS = 512
PEOS_KEY_SEED = 0
#: one-value submits (one user each); the flush is larger than the epoch,
#: so the crypto runs once per epoch, inside end_epoch()
PEOS_SUBMITS_PER_EPOCH = 10
PEOS_FLUSH = 20


class CheckedPeosBackend(PeosShuffleBackend):
    """PEOS that checks every released multiset and can meter parties.

    Each flush calls :func:`peos_shuffle_encoded` with this backend's
    :class:`~repro.costs.CostTracker` (None when untraced) and checks
    that the release has ``n + n_fake`` entries and contains every
    genuine encoded report.
    """

    def __init__(self, crypto_seed: int, tracker: Optional[CostTracker]):
        super().__init__(
            r=PEOS_SHUFFLERS, key_bits=PEOS_KEY_BITS, crypto_rng=crypto_seed
        )
        self.tracker = tracker
        self.keygen_s = 0.0
        self.problems: List[str] = []

    def prepare(self, fo, rng) -> None:
        if self._public is None:
            started = time.perf_counter()
            super().prepare(fo, rng)
            self.keygen_s = time.perf_counter() - started

    def shuffle(self, encoded, n_fake, fo, rng):
        self.prepare(fo, rng)
        shuffled, __ = peos_shuffle_encoded(
            encoded, fo.report_space, self.r, n_fake, self._public,
            self._decrypt, rng, crypto_rng=self.crypto_rng,
            tracker=self.tracker, rerandomize=self.rerandomize,
        )
        if len(shuffled) != len(encoded) + n_fake:
            self.problems.append(
                f"release has {len(shuffled)} reports, expected "
                f"{len(encoded)} + {n_fake}"
            )
        missing = Counter(int(x) for x in encoded) - Counter(
            int(x) for x in shuffled
        )
        if missing:
            self.problems.append(
                f"release lacks {sum(missing.values())} genuine reports"
            )
        return shuffled


def peos_secure(seed, seconds, tracer, setup_repeats, scratch) -> Pass:
    """Full PEOS, r=3, 512-bit Paillier, d=8, serial folds."""
    rng = np.random.default_rng((seed, 4))
    users = rng.integers(0, PEOS_D, size=(640, 1))
    config = StreamConfig.for_epochs(
        d=PEOS_D,
        flush_size=PEOS_FLUSH,
        epoch_size=PEOS_SUBMITS_PER_EPOCH,
        admitted_epochs=ADMITTED_EPOCHS,
        eps_targets=PEOS_TARGETS,
        delta=DELTA,
        backend="peos",
        r=PEOS_SHUFFLERS,
    )

    def build(__):
        # Every set-up generates the same key: the prime search takes a
        # different time for every key seed, so varying it would make
        # setup_s measure the luck of the search instead of the code.
        backend = CheckedPeosBackend(
            PEOS_KEY_SEED, CostTracker() if tracer is not None else None
        )
        return ShardedPipeline(
            config, np.random.default_rng(seed), backend=backend
        )

    result = Pass()
    pipeline = None
    try:
        pipeline = timed_setups(build, setup_repeats, result)
        if tracer is not None:
            instrument(tracer, pipeline)
        closed_loop(pipeline, list(users), PEOS_SUBMITS_PER_EPOCH, seconds, result)
        check_released(pipeline, result)
        fold_layers(pipeline, result, 1)
        backend = pipeline.backend
        result.problems.extend(backend.problems)
        result.layers["crypto.keygen_s"] = backend.keygen_s
        if backend.tracker is not None:
            result.layers.update(protocol_layers(backend.tracker))
    finally:
        if pipeline is not None:
            close_pipeline(pipeline)
    return result


def protocol_layers(tracker: CostTracker) -> dict:
    """Table III's per-party compute and bytes from one run's tracker."""
    shufflers = [
        cost for name, cost in tracker.parties.items()
        if name.startswith("shuffler")
    ]
    user = tracker.cost("user")
    server = tracker.cost("server")
    return {
        "protocol.user_s": user.compute_seconds,
        "protocol.shuffler_s": max(
            (cost.compute_seconds for cost in shufflers), default=0.0
        ),
        "protocol.server_s": server.compute_seconds,
        "protocol.user_bytes": user.bytes_sent,
        "protocol.shuffler_bytes": max(
            (cost.bytes_sent + cost.bytes_received for cost in shufflers),
            default=0,
        ),
        "protocol.server_bytes": server.bytes_received + server.bytes_sent,
    }


# -- http-mixed -------------------------------------------------------------

HTTP_D = 64
HTTP_BATCH = 200
HTTP_FLUSH = 4000
HTTP_CONNECTIONS = 2
#: offered upload rate (uploads per second over both connections); see
#: the module docstring of run.py for how it was chosen
HTTP_RATE = 270.0
HTTP_MAX_PENDING = 64
#: the analyst's fixed schedule on its own connection
CLOSE_EVERY_S = 0.25
READ_EVERY_S = 0.0125
HEALTH_EVERY_S = 0.1
#: closed-loop pause after a 429, so refused uploads do not eat capacity
BACKOFF_S = 0.005


async def wait_healthy(port: int) -> None:
    """Poll ``/api/health`` until it reports ok (bounded attempts)."""
    async with ServerClient("127.0.0.1", port) as client:
        for attempt in range(100):
            if (await client.health()).get("status") == "ok":
                return
            await asyncio.sleep(0.01)
    raise RuntimeError("server never reported healthy")


async def _uploads(client, connection, payloads, t0, deadline, result,
                   accepted, rate):
    """Open loop: upload ``k`` is due at ``t0 + k / rate``.

    With ``rate=None`` the connection sends its next upload as soon as
    the previous one is acknowledged (closed loop, used to measure
    capacity).
    """
    for k in itertools.count(connection, HTTP_CONNECTIONS):
        due = time.perf_counter() if rate is None else t0 + k / rate
        if due >= deadline:
            return
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        result.late_s.append(time.perf_counter() - due)
        payload = payloads[k % len(payloads)]
        response = await client.request("POST", "/api/reports", payload)
        result.attempted += 1
        if response.status == 202:
            result.ack_s.append(time.perf_counter() - due)
            accepted[int(response.body["submit_seq"])] = k % len(payloads)
        else:
            # A refused upload misses every latency limit and is not retried.
            result.failed += 1
            result.ack_s.append(math.inf)
            if rate is None:
                await asyncio.sleep(BACKOFF_S)


async def _control(client, t0, deadline, result) -> int:
    """The analyst: epoch closes, page reads and health polls on a timer."""
    events = sorted(
        [(t0 + j * CLOSE_EVERY_S, "close")
         for j in range(1, int((deadline - t0) / CLOSE_EVERY_S) + 1)]
        + [(t0 + j * READ_EVERY_S, "read")
           for j in range(1, int((deadline - t0) / READ_EVERY_S) + 1)]
        + [(t0 + j * HEALTH_EVERY_S, "health")
           for j in range(1, int((deadline - t0) / HEALTH_EVERY_S) + 1)]
    )
    closes = 0
    for due, kind in events:
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        began = time.perf_counter()
        if kind == "close":
            response = await client.request("POST", "/api/epochs")
            samples = result.close_s
        elif kind == "read":
            response = await client.request("GET", "/api/estimates?limit=64")
            samples = result.query_s
        else:
            response = await client.request("GET", "/api/health")
            result.pending.append(int(response.body.get("pending", 0)))
            continue
        result.attempted += 1
        if response.status == 200:
            samples.append(time.perf_counter() - began)
            closes += kind == "close"
        else:
            result.failed += 1
            samples.append(math.inf)
    return closes


def _time_submits(pipeline, samples: list) -> None:
    """Time the in-process ``submit()`` calls the ingest thread makes."""
    original = pipeline.submit

    def timed(values):
        began = time.perf_counter()
        try:
            return original(values)
        finally:
            samples.append(time.perf_counter() - began)

    pipeline.submit = timed


def _served(items) -> dict:
    rows: dict = {}
    for item in items:
        rows.setdefault(int(item["epoch"]), []).append(
            (int(item["index"]), float(item["estimate"]))
        )
    return {epoch: [v for __, v in sorted(r)] for epoch, r in rows.items()}


def _replayed(deployment, batches, accepted, closes, seed) -> dict:
    """Accepted batches in ``submit_seq`` order into a serial pipeline.

    Every sequence number no accepted upload holds belongs to an epoch
    close (a refused upload takes none), so the gaps mark the epochs.
    """
    config = config_from_dict(deployment)
    with ShardedPipeline(
        config, np.random.default_rng(seed), n_shards=1, fold_backend="serial"
    ) as pipeline:
        for seq in range(len(accepted) + closes):
            if seq in accepted:
                pipeline.submit(batches[accepted[seq]])
            else:
                pipeline.end_epoch()
        return {
            int(epoch): [float(x) for x in estimates]
            for epoch, estimates in pipeline.store.epoch_log()
        }


async def _http_pass(seed, seconds, tracer, setup_repeats, scratch, ports,
                     rate):
    batches = zipf_batches(seed, 3, 256, HTTP_BATCH, HTTP_D)
    payloads = [{"values": batch.tolist()} for batch in batches]
    session = ShuffleSession(
        DeploymentConfig(mechanism="SOLH", d=HTTP_D),
        PrivacyBudget(eps=1.0, delta=DELTA),
    )
    result = Pass()
    server = None
    try:
        for attempt in range(setup_repeats):
            if server is not None:
                await server.stop()
                server = None
            path = os.path.join(scratch, f"serve{attempt}.db")
            started = time.perf_counter()
            server = session.serve(
                HTTP_FLUSH,
                port=0,
                max_pending=HTTP_MAX_PENDING,
                store=lambda path=path: SqliteStateStore(path),
                eps_targets=(1.0, 3.0, 6.0),
                epoch_size=int(HTTP_RATE * CLOSE_EVERY_S) * HTTP_BATCH,
                admitted_epochs=ADMITTED_EPOCHS,
                seed=seed,
            )
            await server.start()
            ports.append(server.port)
            await wait_healthy(server.port)
            result.setup_s.append(time.perf_counter() - started)
        if tracer is not None:
            instrument(tracer, server.pipeline)
        else:
            _time_submits(server.pipeline, result.submit_s)
        clients = [
            ServerClient("127.0.0.1", server.port)
            for __ in range(HTTP_CONNECTIONS + 1)
        ]
        accepted: dict = {}
        try:
            for client in clients:
                await client.connect()
            deployment = (await clients[-1].config())["deployment"]
            t0 = time.perf_counter()
            deadline = t0 + seconds
            tasks = [
                _uploads(
                    client, c, payloads, t0, deadline, result, accepted, rate
                )
                for c, client in enumerate(clients[:-1])
            ]
            closes = (await asyncio.gather(
                _control(clients[-1], t0, deadline, result), *tasks
            ))[0]
            await clients[-1].close_epoch()
            closes += 1
            items = await fetch_all_estimates(clients[-1])
            result.wall_s = time.perf_counter() - t0
            health = await clients[-1].health()
        finally:
            for client in clients:
                await client.close()
        result.reports = len(accepted) * HTTP_BATCH
        result.layers["server.rejected_429"] = health["rejected_429"]
        if health["status"] != "ok" or health["failed_batches"]:
            result.problems.append(f"server health: {health}")
        if server.pipeline.n_rejected:
            result.problems.append(
                f"{server.pipeline.n_rejected} flushes were refused"
            )
        if tracer is not None:
            result.layers["server.ingest_busy_frac"] = (
                tracer.root_seconds() / result.wall_s
            )
            result.layers["persistence.db_bytes"] = db_bytes(
                server.pipeline.store.path.as_posix()
            )
            fold_layers(server.pipeline, result, 1)
    finally:
        if server is not None:
            await server.stop()
    served = _served(items)
    replayed = _replayed(deployment, batches, accepted, closes, seed)
    if served != replayed:
        result.problems.append(
            "served estimates differ from the submit_seq replay"
        )
    return result


def http_mixed(seed, seconds, tracer, setup_repeats, scratch, ports,
               rate=HTTP_RATE) -> Pass:
    """Open-loop uploads over HTTP with reads and epoch closes mixed in.

    SIGINT and SIGTERM cancel the pass, so the server still stops in
    its ``finally`` block.  ``ports`` collects every port a server
    listened on, for the teardown check.
    """
    signals = (signal.SIGINT, signal.SIGTERM)
    previous = {signum: signal.getsignal(signum) for signum in signals}

    async def main():
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        for signum in signals:
            loop.add_signal_handler(signum, task.cancel)
        try:
            return await _http_pass(
                seed, seconds, tracer, setup_repeats, scratch, ports, rate
            )
        finally:
            for signum in signals:
                loop.remove_signal_handler(signum)
                signal.signal(signum, previous[signum])

    try:
        return asyncio.run(main())
    except asyncio.CancelledError:
        raise KeyboardInterrupt("cancelled by a signal") from None
