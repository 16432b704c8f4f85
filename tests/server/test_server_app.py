"""End-to-end tests of the HTTP front door: routing, validation,
backpressure, failure containment, and the HTTP ≡ in-process identity."""

import asyncio
import json
import socket
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro import faults
from repro.api import ConfigError, DeploymentConfig, PrivacyBudget, ShuffleSession
from repro.faults import ENV_VAR
from repro.persistence import MemoryStateStore, SqliteStateStore
from repro.persistence.records import config_from_dict
from repro.server import ServerClient, ServerConfig, TelemetryServer
from repro.service import TelemetryPipeline
from repro.service.pipeline import EpochReport

D = 8
SEED = 11


@pytest.fixture(autouse=True)
def _clean_failpoints(monkeypatch):
    """Failpoints never leak across tests (parent registry and env)."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.disarm()
    yield
    faults.disarm()


def _session() -> ShuffleSession:
    return ShuffleSession(
        DeploymentConfig(mechanism="auto", d=D),
        PrivacyBudget(eps=1.0, delta=1e-9),
    )


def _serve(**kwargs):
    """A real pipeline behind a front door on a free port."""
    options = dict(
        port=0, epoch_size=300, admitted_epochs=4, seed=SEED,
    )
    options.update(kwargs)
    return _session().serve(100, **options)


class StubPipeline:
    """A pipeline double whose submit can block (gate) or blow up (fail)."""

    def __init__(self, gate=None, fail=False):
        self.config = SimpleNamespace(d=D)
        self.store = MemoryStateStore()
        self.epochs_completed = 0
        self.exhausted = False
        self.received = []
        self.gate = gate
        self.fail = fail
        self.closed = False

    def submit(self, values):
        if self.gate is not None:
            self.gate.wait(timeout=30)
        if self.fail:
            raise RuntimeError("synthetic pipeline failure")
        self.received.append(np.asarray(values))

    def end_epoch(self):
        self.epochs_completed += 1
        return EpochReport(
            epoch=self.epochs_completed - 1, n_flushes=0, n_rejected=0,
            n_reports=0, n_fake=0, flush_latency_s=0.0,
            reports_per_sec=0.0, eps_spent=0.0, delta_spent=0.0,
        )

    def close(self):
        self.closed = True


def test_server_config_names_bad_fields():
    with pytest.raises(ConfigError, match="port"):
        ServerConfig(port=-1)
    with pytest.raises(ConfigError, match="max_pending"):
        ServerConfig(max_pending=0)
    with pytest.raises(ConfigError, match="retry_after_s"):
        ServerConfig(retry_after_s=0.0)
    with pytest.raises(ConfigError, match="retry_after_s"):
        ServerConfig(retry_after_s=float("inf"))
    with pytest.raises(ConfigError, match="max_body_bytes"):
        _session().serve(100, max_body_bytes=10)


def test_failed_start_closes_the_store_it_opened():
    closed = []

    class Store:
        def close(self):
            closed.append(True)

    async def run():
        # A store factory, as repro serve passes; flush_size 0 fails the
        # pipeline build after the factory has opened the store.
        server = _session().serve(
            0, port=0, epoch_size=300, admitted_epochs=4, store=Store
        )
        with pytest.raises(ConfigError, match="flush_size"):
            await server.start()

    asyncio.run(run())
    assert closed == [True]


def test_health_config_and_epoch_close():
    async def run():
        async with _serve() as server:
            assert server.port != 0  # port=0 resolved to the bound port
            async with ServerClient("127.0.0.1", server.port) as client:
                health = await client.health()
                assert health["status"] == "ok"
                assert health["epochs_completed"] == 0
                config = await client.config()
                assert config["server"]["max_pending"] == 64
                # the served deployment round-trips into a real config
                assert config_from_dict(config["deployment"]).d == D
                response = await client.submit([1, 2, 3, 4, 5])
                assert response.status == 202
                assert response.body["submit_seq"] == 0
                report = await client.close_epoch()
                assert report["epoch"] == 0
                assert report["n_reports"] == 5
                health = await client.health()
                assert health["epochs_completed"] == 1
                assert health["accepted_reports"] == 5

    asyncio.run(run())


def test_validation_and_routing_errors():
    async def run():
        async with _serve() as server:
            async with ServerClient("127.0.0.1", server.port) as client:
                cases = [
                    ({"nope": 1}, "values"),        # missing key
                    ({"values": []}, "values"),     # empty
                    ({"values": "abc"}, "values"),  # not an array
                    ({"values": [0.5]}, "values"),  # non-integer
                    ({"values": [True]}, "values"),  # boolean
                    ({"values": [D]}, "values"),    # out of domain
                    ({"values": [-1]}, "values"),   # negative
                    ({"values": [1, [2]]}, "values"),  # ragged
                ]
                for payload, field in cases:
                    response = await client.request(
                        "POST", "/api/reports", payload
                    )
                    assert response.status == 400, payload
                    assert response.body["error"]["field"] == field
                not_found = await client.request("GET", "/nope")
                assert not_found.status == 404
                wrong_verb = await client.request(
                    "GET", "/api/reports"
                )
                assert wrong_verb.status == 405
                assert wrong_verb.headers["allow"] == "POST"
                # nothing above ever reached the pipeline
                health = await client.health()
                assert health["accepted_batches"] == 0

    asyncio.run(run())


def test_malformed_json_body_is_400():
    async def run():
        async with _serve() as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            body = b"{not json"
            writer.write(
                b"POST /api/reports HTTP/1.1\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
            )
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n", 1)[0]
            writer.close()
            await writer.wait_closed()

    asyncio.run(run())


@pytest.mark.parametrize(
    "length_lines",
    [
        b"Content-Length: +13\r\n",
        b"Content-Length: 1_3\r\n",
        b"Content-Length: 5\r\nContent-Length: 13\r\n",
    ],
    ids=["plus-sign", "underscore", "repeated"],
)
def test_malformed_content_length_is_400_and_closes(length_lines):
    async def run():
        async with _serve() as server:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            # No body follows: the framing error is the whole request.
            writer.write(b"POST /api/reports HTTP/1.1\r\n" + length_lines
                         + b"\r\n")
            await writer.drain()
            # A server that accepted the length would wait for the body.
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5
            )
            status_line, __, header_block = head.partition(b"\r\n")
            assert b" 400 " in status_line
            assert b"Connection: close" in header_block
            await asyncio.wait_for(reader.read(), timeout=5)  # body, EOF
            assert reader.at_eof()
            writer.close()
            await writer.wait_closed()
            async with ServerClient("127.0.0.1", server.port) as client:
                health = await client.health()
                assert health["accepted_batches"] == 0

    asyncio.run(run())


def test_oversized_body_is_413():
    async def run():
        async with _serve(max_body_bytes=2048) as server:
            async with ServerClient("127.0.0.1", server.port) as client:
                response = await client.submit([1] * 2000)
                assert response.status == 413
                # framing errors close the connection...
                assert response.headers["connection"] == "close"
                # ...and the client transparently reconnects
                ok = await client.submit([1, 2, 3])
                assert ok.status == 202

    asyncio.run(run())


def test_backpressure_never_drops_an_accepted_report():
    """Fill the bounded queue: overflow gets 429 + Retry-After — an epoch
    close too, which takes no sequence number — and every
    202-acknowledged batch reaches the pipeline once unblocked."""
    gate = threading.Event()
    stub = StubPipeline(gate=gate)

    async def run():
        server = TelemetryServer(
            lambda: stub, ServerConfig(port=0, max_pending=2, retry_after_s=2)
        )
        async with server:
            async with ServerClient("127.0.0.1", server.port) as client:
                accepted = []
                refused = None
                for attempt in range(50):
                    response = await client.submit([attempt % D])
                    if response.status == 202:
                        accepted.append(attempt % D)
                    elif response.status == 429:
                        refused = response
                        break
                    else:
                        raise AssertionError(response.status)
                assert refused is not None, "queue never filled"
                assert refused.retry_after() == 2.0
                assert refused.body["error"]["status"] == 429
                close = await client.request("POST", "/api/epochs")
                assert close.status == 429
                assert close.retry_after() == 2.0
                # unblock the pipeline and wait for the queue to drain
                gate.set()
                for __ in range(200):
                    health = await client.health()
                    if health["pending"] == 0:
                        break
                    await asyncio.sleep(0.01)
                assert health["pending"] == 0
                assert health["rejected_429"] >= 2
                # a retry of the refused batch is accepted now, right
                # after the last accepted one: no refusal took a number
                retry = await client.submit([0])
                assert retry.status == 202
                assert retry.body["submit_seq"] == len(accepted)
                accepted.append(0)
        # every 202 reached the pipeline, in acceptance order
        applied = [int(batch[0]) for batch in stub.received]
        assert applied == accepted
        assert stub.closed  # stop() closed the pipeline

    asyncio.run(run())


def test_pending_count_settles_under_concurrent_uploads():
    """The loop counts accepted jobs and the ingest thread finished ones:
    with four connections racing a small bound, every 202 reaches the
    pipeline, no 202 reports more than ``max_pending + 1`` pending, and
    the count returns to 0."""

    class SlowStub(StubPipeline):
        def submit(self, values):
            time.sleep(0.001)  # slower than uploads arrive: 429s happen
            super().submit(values)

    stub = SlowStub()
    interval = sys.getswitchinterval()

    async def upload(port, value):
        accepted = 0
        async with ServerClient("127.0.0.1", port) as client:
            for __ in range(50):
                response = await client.submit([value])
                if response.status == 202:
                    accepted += 1
                    assert response.body["pending"] <= 3
                else:
                    assert response.status == 429
        return accepted

    async def run():
        server = TelemetryServer(
            lambda: stub, ServerConfig(port=0, max_pending=2)
        )
        async with server:
            counts = await asyncio.wait_for(
                asyncio.gather(*(upload(server.port, v) for v in range(4))),
                timeout=60,
            )
            async with ServerClient("127.0.0.1", server.port) as client:
                for __ in range(500):
                    health = await client.health()
                    if health["pending"] == 0:
                        break
                    await asyncio.sleep(0.01)
        assert health["pending"] == 0
        assert health["accepted_batches"] == sum(counts)
        assert health["rejected_429"] == 4 * 50 - sum(counts)
        assert len(stub.received) == sum(counts)

    sys.setswitchinterval(1e-6)
    try:
        asyncio.run(run())
    finally:
        sys.setswitchinterval(interval)


def test_pipeline_failure_is_contained():
    stub = StubPipeline(fail=True)

    async def run():
        server = TelemetryServer(
            lambda: stub, ServerConfig(port=0, max_pending=4)
        )
        async with server:
            async with ServerClient("127.0.0.1", server.port) as client:
                assert (await client.submit([1])).status == 202
                for __ in range(200):
                    health = await client.health()
                    if health["status"] == "failed":
                        break
                    await asyncio.sleep(0.01)
                assert health["status"] == "failed"
                assert health["failed_batches"] == 1
                assert "synthetic pipeline failure" in health["failure"]
                # the server refuses new work rather than corrupting state
                assert (await client.submit([1])).status == 503
                epoch = await client.request("POST", "/api/epochs")
                assert epoch.status == 503

    asyncio.run(run())


def test_ingest_crash_recovers_from_durable_store(tmp_path):
    """The self-healing contract: with a durable store *factory*, an
    ingest crash resumes from the write-ahead log — the crashed batch is
    dropped (it was never applied), health returns to ok, and the served
    estimates equal an in-process replay of the surviving batches."""
    faults.install(["server.ingest:raise:at=2"], export_env=False)

    async def run():
        server = _serve(
            store=lambda: SqliteStateStore(str(tmp_path / "state.db")),
            max_recoveries=3,
            recovery_backoff_s=0.01,
        )
        async with server:
            async with ServerClient("127.0.0.1", server.port) as client:
                deployment = (await client.config())["deployment"]
                rng = np.random.default_rng(99)
                recorded = []
                for __ in range(3):  # epoch 0; the 3rd batch crashes
                    values = rng.integers(0, D, size=100)
                    response = await client.submit(values)
                    assert response.status == 202
                    recorded.append((response.body["submit_seq"], values))
                for __ in range(500):
                    health = await client.health()
                    if health["recoveries"] == 1 and health["status"] == "ok":
                        break
                    await asyncio.sleep(0.01)
                assert health["status"] == "ok"
                assert health["recoveries"] == 1
                assert health["recovery_attempts"] >= 1
                assert health["failed_batches"] == 1
                await client.close_epoch()
                for __ in range(3):  # epoch 1, on the resumed pipeline
                    values = rng.integers(0, D, size=100)
                    response = await client.submit(values)
                    assert response.status == 202
                    recorded.append((response.body["submit_seq"], values))
                await client.close_epoch()
                page = await client.estimates(limit=200)
                assert page["page"]["total"] == 2 * D
                served = {}
                for item in page["items"]:
                    served.setdefault(item["epoch"], []).append(
                        item["estimate"]
                    )
        return deployment, recorded, served

    deployment, recorded, served = asyncio.run(run())
    # The crashed batch (submit_seq 2, injected at=2) never reached the
    # pipeline: the replay feeds every *surviving* batch in seq order.
    config = config_from_dict(deployment)
    pipeline = TelemetryPipeline(config, np.random.default_rng(SEED))
    surviving = [
        (seq, values)
        for seq, values in sorted(recorded, key=lambda pair: pair[0])
        if seq != 2
    ]
    assert len(surviving) == 5
    for i, (__, values) in enumerate(surviving):
        pipeline.submit(values)
        if i in (1, 4):  # epoch 0 kept 2 batches, epoch 1 all 3
            pipeline.end_epoch()
    replayed = {
        int(epoch): [float(x) for x in estimates]
        for epoch, estimates in pipeline.store.epoch_log()
    }
    assert served == replayed


def test_ingest_crash_without_durable_store_stays_failed():
    """A store *instance*-free memory factory cannot be resumed: the
    recovery path reports unsupported and the server keeps the
    fail-hard 503 contract."""
    faults.install(["server.ingest:raise:once"], export_env=False)

    async def run():
        server = _serve(
            store=lambda: MemoryStateStore(),
            max_recoveries=3,
            recovery_backoff_s=0.01,
        )
        async with server:
            async with ServerClient("127.0.0.1", server.port) as client:
                assert (await client.submit([1])).status == 202
                for __ in range(500):
                    health = await client.health()
                    if health["status"] == "failed":
                        break
                    await asyncio.sleep(0.01)
                assert health["status"] == "failed"
                assert health["recoveries"] == 0
                assert health["recovery_attempts"] >= 1
                assert (await client.submit([1])).status == 503
                # no pipeline is serving: the reads are 503s too, not 500s
                for path in ("/api/config", "/api/estimates"):
                    response = await client.request("GET", path)
                    assert response.status == 503, path
                    assert response.retry_after() == 1.0

    asyncio.run(run())


def test_cancelled_epoch_close_still_runs():
    """An accepted close holds a submit_seq, so it must reach the
    pipeline even when the request waiting on it is cancelled."""
    gate = threading.Event()
    stub = StubPipeline(gate=gate)

    async def run():
        server = TelemetryServer(lambda: stub, ServerConfig(port=0))
        async with server:
            async with ServerClient("127.0.0.1", server.port) as client:
                # this upload blocks the ingest thread until the gate opens
                assert (await client.submit([1])).body["submit_seq"] == 0
                close = asyncio.create_task(server._close_epoch())
                await asyncio.sleep(0)  # the close is accepted as seq 1
                close.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await close
                gate.set()
                response = await client.submit([2])
                assert response.body["submit_seq"] == 2
        assert stub.epochs_completed == 1

    asyncio.run(run())


def test_failed_bind_closes_the_pipeline():
    stub = StubPipeline()

    async def run():
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            server = TelemetryServer(
                lambda: stub, ServerConfig(port=taken.getsockname()[1])
            )
            with pytest.raises(OSError):
                await server.start()

    asyncio.run(run())
    assert stub.closed


def test_http_ingest_matches_in_process_replay():
    """The acceptance identity, in miniature: estimates served over HTTP
    equal a same-seed in-process run fed the recorded submit order."""

    async def run():
        async with _serve() as server:
            async with ServerClient("127.0.0.1", server.port) as client:
                deployment = (await client.config())["deployment"]
                rng = np.random.default_rng(99)
                recorded = []
                for __ in range(2):  # epochs
                    for __ in range(3):  # batches
                        values = rng.integers(0, D, size=100)
                        response = await client.submit(values)
                        assert response.status == 202
                        recorded.append(
                            (response.body["submit_seq"], values)
                        )
                    await client.close_epoch()
                page = await client.estimates(limit=200)
                assert page["page"]["total"] == 2 * D
                served = {}
                for item in page["items"]:
                    served.setdefault(item["epoch"], []).append(
                        item["estimate"]
                    )
        return deployment, recorded, served

    deployment, recorded, served = asyncio.run(run())
    config = config_from_dict(deployment)
    pipeline = TelemetryPipeline(config, np.random.default_rng(SEED))
    ordered = sorted(recorded, key=lambda pair: pair[0])
    for i, (__, values) in enumerate(ordered):
        pipeline.submit(values)
        if (i + 1) % 3 == 0:  # the recorded runs closed every 3rd batch
            pipeline.end_epoch()
    replayed = {
        int(epoch): [float(x) for x in estimates]
        for epoch, estimates in pipeline.store.epoch_log()
    }
    assert served == replayed


def test_stop_is_idempotent_and_drains():
    async def run():
        server = _serve()
        await server.start()
        client = ServerClient("127.0.0.1", server.port)
        async with client:
            assert (await client.submit([1, 2])).status == 202
        await server.stop()
        await server.stop()  # idempotent
        assert server.pipeline is None

    asyncio.run(run())
