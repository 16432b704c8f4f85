"""Zero-copy shard traffic: the shared-memory pool, the transport knobs,
and the guarantee that nothing ever survives in /dev/shm."""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.service import (
    SharedMemoryPool,
    ShardedPipeline,
    StreamConfig,
    attach_segment,
)
from repro.service.shm import SEGMENT_PREFIX, _size_class, leaked_segments

D = 16
EPS_TARGETS = (1.0, 3.0, 6.0)
DELTA = 1e-9

_HAS_DEV_SHM = os.path.isdir("/dev/shm")


def _config(**kwargs) -> StreamConfig:
    defaults = dict(
        d=D,
        flush_size=100,
        eps_targets=EPS_TARGETS,
        delta=DELTA,
        admitted_flushes=12,
    )
    defaults.update(kwargs)
    return StreamConfig.from_targets(**defaults)


def _feed(pipeline, seed: int = 77, epochs: int = 3, per_epoch: int = 150):
    feed_rng = np.random.default_rng(seed)
    for __ in range(epochs):
        pipeline.submit(feed_rng.integers(0, D, per_epoch))
        pipeline.end_epoch()
    return pipeline.result()


class TestSizeClass:
    def test_rounds_up_to_power_of_two(self):
        assert _size_class(1) == 1 << 12
        assert _size_class(4096) == 4096
        assert _size_class(4097) == 8192
        assert _size_class((1 << 20) + 1) == 1 << 21

    def test_never_below_minimum(self):
        # POSIX shm cannot be zero-sized, and tiny segments defeat reuse.
        assert _size_class(1) >= 4096


class TestSharedMemoryPool:
    def test_round_trip_through_attach(self):
        payload = np.arange(500, dtype=np.int64)
        with SharedMemoryPool() as pool:
            lease = pool.acquire(payload.nbytes)
            window = np.frombuffer(
                lease.shm.buf, dtype=np.int64, count=len(payload)
            )
            window[:] = payload
            del window
            # The worker-side view of the same segment.
            segment = attach_segment(lease.name)
            try:
                seen = np.frombuffer(
                    segment.buf, dtype=np.int64, count=len(payload)
                ).copy()
            finally:
                segment.close()
            lease.release()
        assert seen.tobytes() == payload.tobytes()
        assert leaked_segments() == []

    def test_release_returns_segment_for_reuse(self):
        with SharedMemoryPool() as pool:
            first = pool.acquire(1000)
            name = first.name
            first.release()
            second = pool.acquire(800)
            assert second.name == name
            assert pool.created_segments == 1
            second.release()

    def test_unreleased_lease_blocks_reuse(self):
        with SharedMemoryPool() as pool:
            first = pool.acquire(1000)
            second = pool.acquire(1000)
            assert second.name != first.name
            assert pool.created_segments == 2
            assert pool.leased_count == 2
            first.release()
            second.release()
            assert pool.leased_count == 0

    def test_refcounting(self):
        with SharedMemoryPool() as pool:
            lease = pool.acquire(100)
            lease.retain()
            assert lease.refs == 2
            lease.release()
            assert lease.refs == 1
            lease.release()
            assert lease.refs == 0
            # Past zero: release is a safe no-op, retain is an error.
            lease.release()
            assert lease.refs == 0
            with pytest.raises(ValueError):
                lease.retain()
            # The segment went back to the free list exactly once.
            assert pool.leased_count == 0

    def test_acquire_validates(self):
        with SharedMemoryPool() as pool:
            with pytest.raises(ValueError):
                pool.acquire(0)

    def test_close_unlinks_leased_segments(self):
        # A worker crash orphans its lease forever; close() must still
        # unlink the segment.
        pool = SharedMemoryPool()
        lease = pool.acquire(4096)
        name = lease.name
        pool.close()
        assert pool.closed
        with pytest.raises(FileNotFoundError):
            attach_segment(name)
        # Releasing the orphaned lease after close stays a safe no-op.
        lease.release()
        assert leaked_segments() == []

    def test_close_is_idempotent_and_blocks_acquire(self):
        pool = SharedMemoryPool()
        pool.acquire(64).release()
        pool.close()
        pool.close()
        with pytest.raises(ValueError):
            pool.acquire(64)

    @pytest.mark.skipif(not _HAS_DEV_SHM, reason="no scannable /dev/shm")
    def test_dev_shm_divergence_tracks_books_vs_kernel(self):
        # The mid-run consistency probe the fold supervisor runs on
        # every pool rebuild: healthy books diverge only when a segment
        # is unlinked behind the pool's back (missing) or a prefixed
        # entry appears it never created (orphaned).
        with SharedMemoryPool() as pool:
            lease = pool.acquire(4096)
            assert pool.dev_shm_divergence() == {
                "missing": [], "orphaned": []
            }
            imposter = os.path.join("/dev/shm", pool._prefix + "_imposter")
            with open(imposter, "wb"):
                pass
            try:
                assert pool.dev_shm_divergence()["orphaned"] == [
                    os.path.basename(imposter)
                ]
            finally:
                os.unlink(imposter)
            os.unlink(os.path.join("/dev/shm", lease.name))
            assert pool.dev_shm_divergence()["missing"] == [lease.name]
            lease.release()
        # close() tolerated the foreign unlink; nothing is left behind.
        assert leaked_segments() == []

    @pytest.mark.skipif(not _HAS_DEV_SHM, reason="no scannable /dev/shm")
    def test_segments_visible_then_gone_in_dev_shm(self):
        pool = SharedMemoryPool()
        lease = pool.acquire(4096)
        assert lease.name.startswith(SEGMENT_PREFIX)
        assert lease.name in os.listdir("/dev/shm")
        pool.close()
        assert lease.name not in os.listdir("/dev/shm")


class TestPipelineKnobValidation:
    def test_bad_transport_named(self):
        with pytest.raises(ConfigError) as err:
            ShardedPipeline(
                _config(), np.random.default_rng(0), transport="carrier-pigeon"
            )
        assert err.value.field == "transport"


class TestTransportStats:
    def test_serial_run_reports_no_shm_traffic(self):
        pipeline = ShardedPipeline(_config(), np.random.default_rng(5))
        _feed(pipeline)
        stats = pipeline.transport_stats()
        assert stats["bytes_moved"] == 0  # serial folds never ship payloads
        assert stats["shm_peak_bytes"] == 0

    def test_pickle_transport_reported(self):
        pipeline = ShardedPipeline(
            _config(), np.random.default_rng(5), transport="pickle"
        )
        assert pipeline.transport_stats()["transport"] == "pickle"


@pytest.mark.slow
class TestProcessTransports:
    """Process folding over real worker processes: identity and cleanup."""

    def test_shm_matches_pickle_matches_serial(self):
        config = _config()
        serial = _feed(ShardedPipeline(config, np.random.default_rng(5)))
        results = {}
        for transport in ("pickle", "shm"):
            with ShardedPipeline(
                config,
                np.random.default_rng(5),
                n_shards=2,
                fold_backend="process",
                transport=transport,
            ) as pipeline:
                results[transport] = _feed(pipeline)
                stats = pipeline.transport_stats()
                assert stats["transport"] == transport
                assert stats["bytes_moved"] > 0
                if transport == "shm":
                    assert stats["shm_peak_bytes"] > 0
        assert (
            serial.estimates.tobytes()
            == results["pickle"].estimates.tobytes()
            == results["shm"].estimates.tobytes()
        )
        assert leaked_segments() == []

    @pytest.mark.skipif(not _HAS_DEV_SHM, reason="no scannable /dev/shm")
    def test_killed_workers_recovered_without_leaks(self):
        # SIGKILL every fold worker mid-run.  The fold supervisor must
        # rebuild the pool (reusing the live shm leases — the payloads
        # live in parent-owned segments), finish the run bit-identically
        # to a fault-free one, keep /dev/shm consistent mid-run, and
        # still empty it on close.
        config = _config()
        reference = _feed(ShardedPipeline(config, np.random.default_rng(5)))
        pipeline = ShardedPipeline(
            config,
            np.random.default_rng(5),
            n_shards=2,
            fold_backend="process",
            transport="shm",
        )
        feed_rng = np.random.default_rng(77)
        pipeline.warmup()
        pipeline.submit(feed_rng.integers(0, D, 150))  # queues shm folds
        for pid in list(pipeline._executor._processes):
            os.kill(pid, signal.SIGKILL)
        time.sleep(0.2)
        pipeline.end_epoch()  # collects folds through the supervisor
        divergence = pipeline._shm_pool.dev_shm_divergence()
        assert divergence == {"missing": [], "orphaned": []}
        for __ in range(2):
            pipeline.submit(feed_rng.integers(0, D, 150))
            pipeline.end_epoch()
        result = pipeline.result()
        stats = pipeline.fault_stats()
        pipeline.close()
        assert result.estimates.tobytes() == reference.estimates.tobytes()
        assert stats["worker_deaths"] >= 1
        assert stats["pool_rebuilds"] >= 1
        assert pipeline._executor is None
        assert pipeline._shm_pool is None
        assert leaked_segments() == []  # no orphaned lease survived
