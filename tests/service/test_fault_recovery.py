"""Supervised folds under injected faults: retry, rebuild, degrade.

The contract every test here pins: folds are pure given their
``(sequence, reports, n_fake, entropy)`` inputs, so *any* combination of
worker deaths, injected raises, hangs, and transport degradations must
leave the final estimates bit-identical to the fault-free run at the
same seed — and ``/dev/shm`` empty afterwards.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.faults import ENV_VAR, InjectedFault
from repro.persistence import SqliteStateStore
from repro.service import ShardedPipeline, StreamConfig
from repro.service.shm import SEGMENT_PREFIX, leaked_segments

D = 16
SEED = 5

_HAS_DEV_SHM = os.path.isdir("/dev/shm")


@pytest.fixture(autouse=True)
def _clean_registry(monkeypatch):
    """Failpoints never leak across tests (parent registry and env)."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.disarm()
    yield
    faults.disarm()


def _config(**kwargs) -> StreamConfig:
    defaults = dict(
        d=D,
        flush_size=100,
        eps_targets=(1.0, 3.0, 6.0),
        delta=1e-9,
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


@pytest.fixture(scope="module")
def reference():
    """The fault-free sharded run every chaos run must reproduce."""
    with ShardedPipeline(
        _config(), np.random.default_rng(SEED), n_shards=2
    ) as pipeline:
        return _feed(pipeline)


class TestKnobValidation:
    def test_bad_fold_timeout_named(self):
        from repro.core.errors import ConfigError

        # inf and 1e10 pass a bare "> 0" check, then overflow the
        # platform deadline of every future.result(timeout=...) call.
        for bad in (0.0, float("inf"), 1e10):
            with pytest.raises(ConfigError) as err:
                ShardedPipeline(
                    _config(), np.random.default_rng(0), fold_timeout=bad
                )
            assert err.value.field == "fold_timeout"

    def test_bad_fold_retries_named(self):
        from repro.core.errors import ConfigError

        with pytest.raises(ConfigError) as err:
            ShardedPipeline(
                _config(), np.random.default_rng(0), max_fold_retries=-1
            )
        assert err.value.field == "max_fold_retries"

    def test_fault_stats_start_clean(self):
        pipeline = ShardedPipeline(_config(), np.random.default_rng(0))
        stats = pipeline.fault_stats()
        assert stats == {
            "fold_retries": 0,
            "fold_timeouts": 0,
            "worker_deaths": 0,
            "pool_rebuilds": 0,
            "degradations": [],
        }
        # The returned dict is a copy, not a mutable alias.
        stats["degradations"].append("junk")
        assert pipeline.fault_stats()["degradations"] == []


@pytest.mark.slow
class TestBaselineFailHard:
    """With supervision disabled, today's fail-hard contract holds."""

    def test_worker_raise_propagates_when_degrade_off(
        self, monkeypatch, reference
    ):
        monkeypatch.setenv(ENV_VAR, "fold.worker:raise:once")
        pipeline = ShardedPipeline(
            _config(),
            np.random.default_rng(SEED),
            n_shards=2,
            fold_backend="process",
            max_fold_retries=0,
            degrade=False,
        )
        with pytest.raises(InjectedFault):
            _feed(pipeline)
        # close() re-raises too (charged flushes must not vanish), but
        # still tears everything down.
        with pytest.raises(InjectedFault):
            pipeline.close()
        assert pipeline._executor is None
        assert pipeline._shm_pool is None
        assert leaked_segments() == []


@pytest.mark.slow
class TestSupervisedRecovery:
    """The tentpole: chaos runs complete with bit-identical estimates."""

    @pytest.mark.skipif(not _HAS_DEV_SHM, reason="no scannable /dev/shm")
    def test_worker_sigkill_every_nth_fold_is_absorbed(
        self, monkeypatch, tmp_path, reference
    ):
        # The acceptance-criteria pin: SIGKILL a fold worker on every 3rd
        # fold with the process backend, shm transport, and a sqlite
        # store — the run completes, estimates match the fault-free run
        # bit for bit, and /dev/shm ends empty.
        monkeypatch.setenv(ENV_VAR, "fold.worker:kill:every=3")
        with SqliteStateStore(str(tmp_path / "chaos.db")) as store:
            with ShardedPipeline(
                _config(),
                np.random.default_rng(SEED),
                n_shards=2,
                fold_backend="process",
                transport="shm",
                store=store,
            ) as pipeline:
                result = _feed(pipeline)
                stats = pipeline.fault_stats()
        assert result.estimates.tobytes() == reference.estimates.tobytes()
        assert result.eps_spent == reference.eps_spent
        assert stats["worker_deaths"] > 0
        assert stats["pool_rebuilds"] > 0
        assert stats["fold_retries"] > 0
        assert stats["degradations"] == []  # retries sufficed
        assert leaked_segments() == []

    def test_persistent_raise_walks_the_full_ladder(
        self, monkeypatch, reference
    ):
        # Workers always raise (every worker process re-arms from the
        # env, so rebuilt pools fail too): supervision must walk
        # shm -> pickle -> serial and still finish bit-identically —
        # the serial rung folds in the parent, which is not armed.
        monkeypatch.setenv(ENV_VAR, "fold.worker:raise:every=1")
        with ShardedPipeline(
            _config(),
            np.random.default_rng(SEED),
            n_shards=2,
            fold_backend="process",
            max_fold_retries=1,
        ) as pipeline:
            result = _feed(pipeline)
            stats = pipeline.fault_stats()
            assert pipeline.transport_stats()["transport"] == "serial"
        assert result.estimates.tobytes() == reference.estimates.tobytes()
        hops = [(hop["from"], hop["to"]) for hop in stats["degradations"]]
        assert hops == [("shm", "pickle"), ("pickle", "serial")]
        assert leaked_segments() == []

    def test_hung_fold_times_out_and_degrades(self, monkeypatch, reference):
        # A worker sleeping far past fold_timeout is treated as hung:
        # the pool is killed and rebuilt; since every fresh worker hangs
        # again (the env re-arms them), the ladder ends serial.
        monkeypatch.setenv(ENV_VAR, "fold.worker:delay=30")
        with ShardedPipeline(
            _config(),
            np.random.default_rng(SEED),
            n_shards=2,
            fold_backend="process",
            fold_timeout=0.25,
            max_fold_retries=0,
        ) as pipeline:
            result = _feed(pipeline)
            stats = pipeline.fault_stats()
        assert result.estimates.tobytes() == reference.estimates.tobytes()
        assert stats["fold_timeouts"] > 0
        assert stats["degradations"][-1]["to"] == "serial"
        assert leaked_segments() == []

    def test_shm_write_failure_degrades_to_pickle(self, reference):
        # Parent-side chaos: the first segment acquire raises (shm
        # exhaustion); the charged flush must ship pickled instead, and
        # the rest of the run rides pickle with identical estimates.
        faults.install(["shm.write:raise:once"], export_env=False)
        with ShardedPipeline(
            _config(),
            np.random.default_rng(SEED),
            n_shards=2,
            fold_backend="process",
            transport="shm",
        ) as pipeline:
            result = _feed(pipeline)
            stats = pipeline.fault_stats()
            assert pipeline.transport_stats()["transport"] == "pickle"
        assert result.estimates.tobytes() == reference.estimates.tobytes()
        assert [hop["to"] for hop in stats["degradations"]] == ["pickle"]
        assert leaked_segments() == []


#: a parent that runs one two-shard process-fold epoch over shm, prints
#: its fold workers' pids, then waits (stdin EOF) to be killed
_ORPHAN_PARENT = """
import sys
import numpy as np
from repro.service import ShardedPipeline, StreamConfig

config = StreamConfig.from_targets(d=16, flush_size=100, admitted_flushes=12)
pipeline = ShardedPipeline(
    config, np.random.default_rng(5), n_shards=2, fold_backend="process",
    workers=2,
)
pipeline.submit(np.random.default_rng(7).integers(0, 16, 300))
pipeline.end_epoch()
print(*pipeline._executor._processes, flush=True)
sys.stdin.read()
"""


def _alive(pid: int) -> bool:
    """True while ``pid`` runs; a zombie nobody reaps counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (FileNotFoundError, ProcessLookupError):
        return False


@pytest.mark.slow
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="no /proc to scan")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_parent_is_killed(self):
        """SIGKILL a parent mid-run: its idle fold workers follow it.

        Orphaned workers would live on under init, holding the parent's
        pipes and its resource tracker open, so its shm segments would
        stay in ``/dev/shm`` until someone killed the workers.
        """
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_PARENT],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, start_new_session=True,
        )
        prefix = f"{SEGMENT_PREFIX}_{parent.pid}_"

        def segments():
            return [n for n in leaked_segments() if n.startswith(prefix)]

        try:
            ready, __, __ = select.select([parent.stdout], [], [], 120)
            assert ready, "the parent never reported its fold workers"
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert workers and all(_alive(pid) for pid in workers)
            if _HAS_DEV_SHM:
                assert segments(), "the parent folded without shm"
            parent.kill()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not any(map(_alive, workers)) and not segments():
                    break
                time.sleep(0.05)
            assert [pid for pid in workers if _alive(pid)] == []
            assert segments() == []
        finally:
            try:
                os.killpg(parent.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            parent.stdin.close()
            parent.stdout.close()
            parent.wait()
            # The group kill takes the resource tracker down too; never
            # leave a failed run's segments to the next test's scan.
            for name in segments():
                os.unlink(os.path.join("/dev/shm", name))
