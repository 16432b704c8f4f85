"""Seed determinism: streaming and one-shot paths are reproducible and
agree bit-for-bit on the same released reports, for GRR and SOLH."""

import hashlib

import numpy as np
import pytest

from repro.core.params import PeosPlan
from repro.frequency_oracles import GRR, SOLH
from repro.hashing import XXHash32Family
from repro.service import StreamConfig, TelemetryPipeline, epoch_release_epsilon


def _plan(mechanism: str) -> PeosPlan:
    return PeosPlan(
        mechanism=mechanism,
        eps_l=3.0,
        d_prime=4 if mechanism == "solh" else 8,
        n_r=25,
        variance=1e-4,
        eps_server=0.5,
        eps_collusion=1.0,
        eps_local=3.0,
        delta=1e-9,
    )


def _config(mechanism: str, keep_reports: bool = False) -> StreamConfig:
    from repro.service import epoch_release_epsilon

    plan = _plan(mechanism)
    # 3 epochs of 150 reports at flush_size 60: two full flushes plus a
    # remainder of 30 per epoch; budget covers all nine releases.
    return StreamConfig(
        d=8,
        plan=plan,
        flush_size=60,
        eps_budget=3 * epoch_release_epsilon(8, plan, 150, 60),
        delta_budget=plan.delta * 9,
        keep_reports=keep_reports,
    )


def _stream_once(mechanism: str, seed: int, keep_reports: bool = False):
    rng = np.random.default_rng(seed)
    pipeline = TelemetryPipeline(_config(mechanism, keep_reports), rng)
    for __ in range(3):
        values = rng.integers(0, 8, 150)
        pipeline.submit(values)
        pipeline.end_epoch()
    return pipeline


@pytest.mark.parametrize("mechanism", ["grr", "solh"])
class TestStreamingDeterminism:
    def test_same_seed_byte_identical(self, mechanism):
        first = _stream_once(mechanism, seed=2020).estimates()
        second = _stream_once(mechanism, seed=2020).estimates()
        assert first.tobytes() == second.tobytes()

    def test_different_seed_differs(self, mechanism):
        first = _stream_once(mechanism, seed=2020).estimates()
        second = _stream_once(mechanism, seed=2021).estimates()
        assert not np.array_equal(first, second)


@pytest.mark.parametrize("oracle_factory", [
    lambda: GRR(8, 3.0),
    lambda: SOLH(8, 3.0, 4, family=XXHash32Family()),
], ids=["grr", "solh"])
class TestOneShotDeterminism:
    def test_same_seed_byte_identical(self, oracle_factory):
        fo = oracle_factory()
        values = np.random.default_rng(7).integers(0, 8, 500)
        first = fo.run(values, np.random.default_rng(2020))
        second = fo.run(values, np.random.default_rng(2020))
        assert first.tobytes() == second.tobytes()


@pytest.mark.parametrize("mechanism", ["grr", "solh"])
class TestStreamingMatchesOneShot:
    def test_byte_identical_over_released_reports(self, mechanism):
        pipeline = _stream_once(mechanism, seed=2020, keep_reports=True)
        result = pipeline.result()
        fo = pipeline.fo
        counts = sum(
            fo.support_counts(batch) for batch in pipeline.released_batches
        )
        raw = fo.estimate(counts, result.n_genuine + result.n_fake)
        one_shot = fo.calibrate_with_fakes(raw, result.n_genuine, result.n_fake)
        assert one_shot.tobytes() == result.estimates.tobytes()


#: ``(sha256(estimates), eps_spent, n_fake, n_rejected)`` of
#: :func:`_golden_run`, recorded from the pipeline before its serial and
#: sharded classes merged into one.  A change here means the release path
#: changed its output at a fixed seed.
GOLDEN = {
    "grr": (
        "0c7ac22be1660f18c48788ac0c55b3a1c6d2804684492a4aff4a6c2c4bdc4197",
        46.98331758558908,
        150,
        3,
    ),
    "solh": (
        "397be2c554815c4ffda8a9765ea9bd5412f979ce7ce96fe6ac67d4881d926a8b",
        35.98106674961166,
        150,
        3,
    ),
}


def _golden_run(mechanism: str):
    """Three epochs of 150 reports at flush_size 60, budget for two.

    Each admitted epoch releases two full flushes plus an epoch-end
    remainder of 30; all three flushes of the last epoch are refused.
    """
    plan = _plan(mechanism)
    config = StreamConfig(
        d=8,
        plan=plan,
        flush_size=60,
        eps_budget=2 * epoch_release_epsilon(8, plan, 150, 60),
        delta_budget=plan.delta * 9,
    )
    pipeline = TelemetryPipeline(config, np.random.default_rng(2020))
    feed = np.random.default_rng(7)
    for __ in range(3):
        pipeline.submit(feed.integers(0, 8, 150))
        pipeline.end_epoch()
    return pipeline.result()


@pytest.mark.parametrize("mechanism", ["grr", "solh"])
def test_golden_stream_result(mechanism):
    result = _golden_run(mechanism)
    assert [(e.n_flushes, e.n_rejected) for e in result.epochs] == [
        (3, 0), (3, 0), (3, 3)
    ]
    digest = hashlib.sha256(result.estimates.tobytes()).hexdigest()
    assert (
        digest, result.eps_spent, result.n_fake, result.n_rejected
    ) == GOLDEN[mechanism]
