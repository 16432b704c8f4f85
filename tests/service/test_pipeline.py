"""End-to-end streaming pipeline: epochs, budget enforcement, backends."""

from collections import Counter

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.core.params import PeosPlan
from repro.frequency_oracles import GRR
from repro.service import (
    StreamConfig,
    TelemetryPipeline,
    make_backend,
)
from repro.service.pipeline import flush_release_epsilon


def small_plan(
    mechanism: str = "grr", d_prime: int = 8, n_r: int = 20, eps_server: float = 0.5
) -> PeosPlan:
    """A handmade per-flush plan small enough for the crypto backends."""
    return PeosPlan(
        mechanism=mechanism,
        eps_l=3.0,
        d_prime=d_prime,
        n_r=n_r,
        variance=1e-4,
        eps_server=eps_server,
        eps_collusion=1.0,
        eps_local=3.0,
        delta=1e-9,
    )


def full_flush_eps(config: StreamConfig) -> float:
    """The charge of one full-size flush under ``config``."""
    return flush_release_epsilon(
        config.d, config.plan, config.flush_size, config.plan.n_r
    )


def peos_backend(r: int, keys=None):
    """A PEOS backend; ``keys`` injects a keypair instead of generating one."""
    backend = make_backend("peos", r=r, crypto_rng=5)
    if keys is not None:
        backend._public, backend._decrypt = keys[0], keys[1].decrypt
    return backend


def small_config(admitted_flushes: int = 4, **kwargs) -> StreamConfig:
    plan = kwargs.pop("plan", small_plan())
    d = kwargs.pop("d", 8)
    flush_size = kwargs.pop("flush_size", 50)
    # Size the budget off the actual per-release charge (the handmade
    # plan's eps_server is not what the pipeline prices flushes at).
    eps_per_flush = flush_release_epsilon(d, plan, flush_size, plan.n_r)
    return StreamConfig(
        d=d,
        plan=plan,
        flush_size=flush_size,
        eps_budget=eps_per_flush * admitted_flushes,
        delta_budget=plan.delta * admitted_flushes,
        **kwargs,
    )


class TestEpochs:
    def test_three_epochs_end_to_end(self, rng):
        pipeline = TelemetryPipeline(small_config(admitted_flushes=12), rng)
        for __ in range(3):
            pipeline.submit(rng.integers(0, 8, 100))
            report = pipeline.end_epoch()
            assert report.n_flushes == 2
            assert report.n_rejected == 0
            assert report.n_reports == 100
            assert report.n_fake == 2 * 20
        result = pipeline.result()
        assert len(result.epochs) == 3
        assert result.n_genuine == 300
        assert result.estimates.shape == (8,)
        assert result.estimates.sum() == pytest.approx(1.0, abs=0.3)

    def test_epoch_remainder_flushes(self, rng):
        pipeline = TelemetryPipeline(small_config(admitted_flushes=12), rng)
        pipeline.submit(rng.integers(0, 8, 70))
        report = pipeline.end_epoch()
        # one size flush of 50 + one epoch flush of 20
        assert report.n_flushes == 2
        assert report.n_reports == 70

    def test_metrics_accumulate(self, rng):
        ticks = iter(range(1000))
        config = small_config(admitted_flushes=12)
        pipeline = TelemetryPipeline(
            config, rng, clock=lambda: float(next(ticks))
        )
        pipeline.submit(rng.integers(0, 8, 100))
        report = pipeline.end_epoch()
        assert report.flush_latency_s == 2.0  # two flushes, 1 tick each
        assert report.reports_per_sec == pytest.approx(50.0)
        assert report.eps_spent == pytest.approx(2 * full_flush_eps(config))


class TestBudgetEnforcement:
    def test_accountant_rejects_overrun_flush(self, rng):
        # Budget admits 4 flushes; 3 epochs x 2 flushes = 6 attempts.
        config = small_config(admitted_flushes=4)
        pipeline = TelemetryPipeline(config, rng)
        reports = []
        for __ in range(3):
            pipeline.submit(rng.integers(0, 8, 100))
            reports.append(pipeline.end_epoch())
        assert [r.n_rejected for r in reports] == [0, 0, 2]
        result = pipeline.result()
        assert result.n_rejected == 2
        assert result.n_genuine == 200  # epoch 2's reports never released
        assert result.eps_spent == pytest.approx(4 * full_flush_eps(config))
        assert "exceed the budget" in result.rejections[0].reason

    def test_rejected_flush_not_aggregated(self, rng):
        pipeline = TelemetryPipeline(small_config(admitted_flushes=1), rng)
        pipeline.submit(rng.integers(0, 8, 100))
        pipeline.end_epoch()
        assert pipeline.aggregate().n_batches == 1
        assert pipeline.aggregate().n_genuine == 50

    def test_released_spans_skip_rejected_flushes(self, rng):
        pipeline = TelemetryPipeline(small_config(admitted_flushes=1), rng)
        pipeline.submit(rng.integers(0, 8, 100))
        pipeline.end_epoch()
        # First flush of 50 released, second rejected: one span, one gap.
        assert pipeline.released_spans == [(0, 50)]

    def test_released_spans_merge_adjacent_flushes(self, rng):
        pipeline = TelemetryPipeline(small_config(admitted_flushes=6), rng)
        for __ in range(3):
            pipeline.submit(rng.integers(0, 8, 100))
            pipeline.end_epoch()
        # Six released flushes and no refusal leave no gap: one span.
        assert pipeline.n_rejected == 0
        assert pipeline.released_spans == [(0, 300)]
        resumed = TelemetryPipeline.resume(pipeline.store)
        assert resumed.released_spans == [(0, 300)]

    def test_released_values_selects_around_gaps(self, rng):
        pipeline = TelemetryPipeline(small_config(admitted_flushes=1), rng)
        values = rng.integers(0, 8, 100)
        pipeline.submit(values)
        pipeline.end_epoch()
        released = pipeline.released_values(values)
        assert np.array_equal(released, values[:50])
        with pytest.raises(ValueError):
            pipeline.released_values(values[:10])  # fewer than consumed

    def test_exhausted_flag_and_rejection_cap(self, rng):
        from repro.service.pipeline import MAX_REJECTION_RECORDS

        pipeline = TelemetryPipeline(
            small_config(admitted_flushes=1, flush_size=5), rng
        )
        assert not pipeline.exhausted
        for __ in range(MAX_REJECTION_RECORDS + 10):
            pipeline.submit(rng.integers(0, 8, 5))
        pipeline.end_epoch()
        assert pipeline.exhausted  # basic composition hit the budget exactly
        result = pipeline.result()
        assert result.n_rejected == MAX_REJECTION_RECORDS + 9
        assert len(result.rejections) == MAX_REJECTION_RECORDS


class TestReleasePricing:
    def test_remainder_flush_costs_more(self):
        plan = small_plan()
        full = flush_release_epsilon(8, plan, 50, plan.n_r)
        remainder = flush_release_epsilon(8, plan, 7, plan.n_r)
        assert remainder > full  # less genuine blanket -> weaker guarantee

    def test_full_flush_matches_planner_eps_server(self):
        config = StreamConfig.from_targets(d=16, flush_size=200)
        assert flush_release_epsilon(
            16, config.plan, 200, config.plan.n_r
        ) == config.plan.eps_server

    def test_tiny_batch_priced_by_fakes_only(self):
        plan = small_plan()
        from repro.core.peos_analysis import peos_epsilon_collusion_grr

        expected = peos_epsilon_collusion_grr(8, plan.n_r, plan.delta)
        assert flush_release_epsilon(8, plan, 0, plan.n_r) == expected
        assert flush_release_epsilon(8, plan, 1, plan.n_r) == expected

    def test_no_fakes_no_users_is_unreleasable(self):
        import math

        plan = small_plan(n_r=0)
        assert math.isinf(flush_release_epsilon(8, plan, 1, 0))


class TestIncrementalMatchesOneShot:
    def test_plain_backend_exact(self, rng):
        config = small_config(admitted_flushes=12, keep_reports=True)
        pipeline = TelemetryPipeline(config, rng)
        for __ in range(3):
            pipeline.submit(rng.integers(0, 8, 100))
            pipeline.end_epoch()
        result = pipeline.result()
        fo = pipeline.fo
        counts = sum(fo.support_counts(batch) for batch in pipeline.released_batches)
        raw = fo.estimate(counts, result.n_genuine + result.n_fake)
        one_shot = fo.calibrate_with_fakes(raw, result.n_genuine, result.n_fake)
        assert np.array_equal(one_shot, result.estimates)


class TestBackends:
    def test_sequential_backend(self, rng):
        config = small_config(
            admitted_flushes=4, flush_size=30, backend="sequential"
        )
        backend = make_backend("sequential", r=2, crypto_rng=5)
        pipeline = TelemetryPipeline(config, rng, backend=backend)
        pipeline.submit(rng.integers(0, 8, 30))
        report = pipeline.end_epoch()
        assert report.n_reports == 30
        assert pipeline.aggregate().total_reports == 30 + 20
        assert np.isfinite(pipeline.estimates()).all()

    def test_peos_backend(self, rng, wide_dgk_keys):
        config = small_config(
            admitted_flushes=4,
            flush_size=20,
            backend="peos",
            plan=small_plan(n_r=10),
        )
        backend = make_backend("peos", r=2, crypto_rng=5)
        # Reuse the session keypair instead of generating a fresh one.
        public, private = wide_dgk_keys
        backend._public = public
        backend._decrypt = private.decrypt
        pipeline = TelemetryPipeline(config, rng, backend=backend)
        pipeline.submit(rng.integers(0, 8, 20))
        report = pipeline.end_epoch()
        assert report.n_reports == 20
        assert pipeline.aggregate().total_reports == 30
        assert np.isfinite(pipeline.estimates()).all()

    def test_peos_ahe_never_moves_an_estimate(self, wide_dgk_keys):
        """The backend's own minimal DGK key (l = 3) and an injected
        l = 64 one draw only from ``crypto_rng``, so epoch logs and
        releases are identical."""
        config = small_config(
            admitted_flushes=4,
            flush_size=20,
            backend="peos",
            plan=small_plan(n_r=10),
            keep_reports=True,
        )
        runs = []
        for keys in (None, wide_dgk_keys):
            rng = np.random.default_rng(99)
            pipeline = TelemetryPipeline(
                config, rng, backend=peos_backend(2, keys)
            )
            for __ in range(2):
                pipeline.submit(rng.integers(0, 8, 30))
                pipeline.end_epoch()
            runs.append(pipeline)
        own_run, injected_run = runs
        assert own_run.backend._public.plaintext_space == 8
        logs = [
            [(epoch, row.tobytes()) for epoch, row in run.store.epoch_log()]
            for run in runs
        ]
        assert len(logs[0]) == 2 and logs[0] == logs[1]
        assert len(own_run.released_batches) == 3
        for ours, theirs in zip(
            own_run.released_batches, injected_run.released_batches, strict=True
        ):
            assert ours.tobytes() == theirs.tobytes()

    def test_peos_key_too_small_is_a_config_error(self, rng):
        config = small_config(
            flush_size=20, backend="peos", plan=small_plan(n_r=10)
        )
        backend = make_backend("peos", r=2, crypto_rng=5, key_bits=256)
        with pytest.raises(ConfigError, match="at least 358 bits") as error:
            TelemetryPipeline(config, rng, backend=backend)
        assert error.value.field == "key_bits"

    def test_peos_key_checked_against_each_pipeline(self, rng):
        """A key made for report space 8 cannot carry 16: the second
        pipeline refuses it at construction, before any flush exists to
        be charged."""
        backend = peos_backend(2)
        first = TelemetryPipeline(
            small_config(flush_size=20, backend="peos", plan=small_plan(n_r=10)),
            rng,
            backend=backend,
        )
        key = backend._public
        wider = small_config(
            d=16, flush_size=20, backend="peos",
            plan=small_plan(d_prime=16, n_r=10),
        )
        with pytest.raises(ConfigError, match="report space 16") as error:
            TelemetryPipeline(wider, rng, backend=backend)
        assert error.value.field == "backend"
        assert backend._public is key
        first.submit(rng.integers(0, 8, 20))
        assert first.end_epoch().n_reports == 20
        assert first.aggregate().total_reports == 30

    def test_peos_headroom_key_for_a_non_power_of_two_space(self, wide_dgk_keys):
        """GRR d = 10: 2^l is no multiple of M, so EOS relies on its
        headroom bound, and the release equals the injected l = 64
        key's."""
        fo = GRR(10, 2.0)
        encoded = np.arange(10, dtype=np.int64).repeat(2)
        releases = []
        for keys in (None, wide_dgk_keys):
            backend = peos_backend(3, keys)
            backend.prepare(fo, np.random.default_rng(0))
            releases.append(
                backend.shuffle(encoded, 7, fo, np.random.default_rng(3))
            )
            if keys is None:
                assert backend._public.plaintext_space % 10 != 0
        own_release, injected_release = releases
        assert len(own_release) == 27
        assert not Counter(encoded.tolist()) - Counter(own_release.tolist())
        assert own_release.tolist() == injected_release.tolist()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            make_backend("quantum")


class TestConfig:
    def test_from_targets_budget_sizing(self):
        config = StreamConfig.from_targets(
            d=16, flush_size=200, admitted_flushes=5
        )
        assert config.eps_budget == pytest.approx(5 * config.plan.eps_server)
        assert config.delta_budget == pytest.approx(5 * config.plan.delta)

    def test_from_targets_rejects_zero_flushes(self):
        with pytest.raises(ValueError):
            StreamConfig.from_targets(d=16, flush_size=200, admitted_flushes=0)

    def test_for_epochs_prices_remainder(self, rng):
        # 210 reports/epoch at flush_size 100: two full flushes plus a
        # remainder of 10, which costs more than a full flush; the budget
        # must still admit exactly 2 epochs.
        config = StreamConfig.for_epochs(
            d=16, flush_size=100, epoch_size=210, admitted_epochs=2
        )
        pipeline = TelemetryPipeline(config, rng)
        rejected = []
        for __ in range(3):
            pipeline.submit(rng.integers(0, 16, 210))
            rejected.append(pipeline.end_epoch().n_rejected)
        assert rejected == [0, 0, 3]
        assert pipeline.result().n_genuine == 420

    def test_flush_empty_releases_all_fake_epochs(self, rng):
        config = small_config(admitted_flushes=4, flush_empty=True)
        pipeline = TelemetryPipeline(config, rng)
        report = pipeline.end_epoch()  # no submissions at all
        assert report.n_flushes == 1
        assert report.n_reports == 0
        assert report.n_fake == 20
        assert pipeline.aggregate().n_fake == 20
        # All-fake releases are priced at the fakes-only bound.
        assert report.eps_spent == pytest.approx(
            flush_release_epsilon(8, config.plan, 0, 20)
        )

    def test_advanced_composition_gets_delta_headroom(self):
        from repro.service import PrivacyAccountant

        basic = StreamConfig.from_targets(
            d=16, flush_size=200, admitted_flushes=5
        )
        advanced = StreamConfig.from_targets(
            d=16, flush_size=200, admitted_flushes=5, composition="advanced"
        )
        assert advanced.delta_budget == pytest.approx(4 * basic.delta_budget)
        # After the 5 planned flushes the delta ledger is NOT what blocks
        # further admissions (the eps axis governs, where advanced
        # composition can stretch the budget).
        accountant = PrivacyAccountant(
            advanced.eps_budget, advanced.delta_budget, method="advanced"
        )
        for __ in range(5):
            accountant.charge(advanced.plan.eps_server, advanced.plan.delta)
        assert accountant.admits(1e-9, advanced.plan.delta)

    def test_for_epochs_validation(self):
        with pytest.raises(ValueError):
            StreamConfig.for_epochs(
                d=16, flush_size=100, epoch_size=200, admitted_epochs=0
            )
        with pytest.raises(ValueError):
            StreamConfig.for_epochs(
                d=16, flush_size=100, epoch_size=0, admitted_epochs=1
            )
