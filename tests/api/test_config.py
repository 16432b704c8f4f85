"""Early, uniform configuration validation: one ConfigError, field named."""

import numpy as np
import pytest

from repro.api import (
    AUTO_MECHANISM,
    ConfigError,
    DeploymentConfig,
    PrivacyBudget,
    ShuffleSession,
)
from repro.core import plan_peos
from repro.core.registry import UnknownMechanismError
from repro.service import StreamConfig


def field_of(excinfo) -> str:
    return excinfo.value.field


class TestPrivacyBudget:
    def test_defaults(self):
        budget = PrivacyBudget(eps=0.5)
        assert budget.delta == 1e-9
        assert budget.model == "central"

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_bad_eps(self, eps):
        with pytest.raises(ConfigError) as excinfo:
            PrivacyBudget(eps=eps)
        assert field_of(excinfo) == "eps"

    @pytest.mark.parametrize("delta", [0.0, 1.0, -1e-9, 2.0])
    def test_bad_delta(self, delta):
        with pytest.raises(ConfigError) as excinfo:
            PrivacyBudget(eps=1.0, delta=delta)
        assert field_of(excinfo) == "delta"

    def test_bad_model(self):
        with pytest.raises(ConfigError) as excinfo:
            PrivacyBudget(eps=1.0, model="curator")
        assert field_of(excinfo) == "model"

    def test_config_error_is_value_error(self):
        with pytest.raises(ValueError):
            PrivacyBudget(eps=-1.0)


class TestDeploymentConfig:
    def test_mechanism_canonicalized(self):
        assert DeploymentConfig("solh", d=8).mechanism == "SOLH"
        assert DeploymentConfig("grr", d=8).mechanism == "SH"
        assert DeploymentConfig("AUTO", d=8).mechanism == AUTO_MECHANISM

    def test_unknown_mechanism_did_you_mean(self):
        with pytest.raises(ConfigError) as excinfo:
            DeploymentConfig("SOHL", d=8)
        assert field_of(excinfo) == "mechanism"
        assert "did you mean" in str(excinfo.value)
        assert "SOLH" in str(excinfo.value)
        # the registry's original error stays chained for programmatic use
        assert isinstance(excinfo.value.__cause__, UnknownMechanismError)

    def test_bad_domain(self):
        with pytest.raises(ConfigError) as excinfo:
            DeploymentConfig("SOLH", d=1)
        assert field_of(excinfo) == "d"

    def test_bad_population(self):
        with pytest.raises(ConfigError) as excinfo:
            DeploymentConfig("SOLH", d=8, n=0)
        assert field_of(excinfo) == "n"

    def test_bad_backend_names_registered_set(self):
        with pytest.raises(ConfigError) as excinfo:
            DeploymentConfig("SOLH", d=8, backend="plane")
        assert field_of(excinfo) == "backend"
        assert "plain" in str(excinfo.value)

    def test_bad_shuffler_count_and_composition(self):
        with pytest.raises(ConfigError):
            DeploymentConfig("SOLH", d=8, r=0)
        with pytest.raises(ConfigError):
            DeploymentConfig("SOLH", d=8, composition="naive")

    def test_auto_has_no_spec(self):
        with pytest.raises(ConfigError) as excinfo:
            DeploymentConfig("auto", d=8).spec
        assert field_of(excinfo) == "mechanism"


class TestSessionCapabilityValidation:
    def test_local_budget_refuses_central_mechanism(self):
        with pytest.raises(ConfigError) as excinfo:
            ShuffleSession(
                DeploymentConfig("SOLH", d=8),
                PrivacyBudget(eps=1.0, model="local"),
            )
        assert field_of(excinfo) == "model"

    def test_local_budget_accepts_local_mechanisms(self):
        for name in ("OLH", "Had"):
            ShuffleSession(
                DeploymentConfig(name, d=8),
                PrivacyBudget(eps=1.0, model="local"),
            )

    def test_auto_estimate_refused(self, small_histogram):
        session = ShuffleSession(
            DeploymentConfig("auto", d=len(small_histogram)),
            PrivacyBudget(eps=1.0),
        )
        with pytest.raises(ConfigError) as excinfo:
            session.estimate(small_histogram)
        assert field_of(excinfo) == "mechanism"

    def test_stream_refuses_local_budget(self):
        session = ShuffleSession(
            DeploymentConfig("OLH", d=8),
            PrivacyBudget(eps=1.0, model="local"),
        )
        with pytest.raises(ConfigError) as excinfo:
            session.stream(100)
        assert field_of(excinfo) == "model"

    def test_stream_refuses_unstreamable_mechanism(self):
        session = ShuffleSession(
            DeploymentConfig("Lap", d=8), PrivacyBudget(eps=1.0)
        )
        with pytest.raises(ConfigError) as excinfo:
            session.stream(100)
        assert field_of(excinfo) == "mechanism"


class TestVerbInputValidation:
    def session(self, d=8):
        return ShuffleSession(
            DeploymentConfig("SOLH", d=d), PrivacyBudget(eps=1.0)
        )

    def test_histogram_shape_mismatch(self):
        with pytest.raises(ConfigError) as excinfo:
            self.session(d=8).estimate(np.ones(9, dtype=int))
        assert field_of(excinfo) == "histogram"

    def test_values_out_of_domain(self):
        with pytest.raises(ConfigError) as excinfo:
            self.session(d=8).estimate(values=[0, 3, 8])
        assert field_of(excinfo) == "values"

    def test_non_integer_values_refused(self):
        # 3.7 must not silently floor-truncate to 3.
        with pytest.raises(ConfigError) as excinfo:
            self.session(d=8).estimate(values=[0.9, 1.2, 3.7])
        assert field_of(excinfo) == "values"
        # integral floats are fine (a common numpy artifact)
        self.session(d=8).estimate(values=np.array([0.0, 1.0, 3.0]), seed=0)

    def test_both_or_neither_input(self):
        with pytest.raises(ConfigError):
            self.session().estimate(np.ones(8, dtype=int), values=[1, 2])
        with pytest.raises(ConfigError):
            self.session().estimate()

    def test_empty_population(self):
        with pytest.raises(ConfigError) as excinfo:
            self.session().estimate(np.zeros(8, dtype=int))
        assert field_of(excinfo) == "histogram"

    def test_negative_counts(self):
        histogram = np.ones(8, dtype=int)
        histogram[3] = -2
        with pytest.raises(ConfigError):
            self.session().estimate(histogram)

    def test_fractional_histogram_counts_refused(self):
        histogram = np.full(8, 1.5)
        with pytest.raises(ConfigError) as excinfo:
            self.session().estimate(histogram)
        assert field_of(excinfo) == "histogram"
        # integral float counts are fine (a common numpy artifact)
        self.session().estimate(np.full(8, 20.0), seed=0)

    def test_sweep_bad_knobs(self, small_histogram):
        session = self.session(d=len(small_histogram))
        with pytest.raises(ConfigError) as excinfo:
            session.sweep(small_histogram, [0.5], repeats=0)
        assert field_of(excinfo) == "repeats"
        with pytest.raises(ConfigError):
            session.sweep(small_histogram, [0.5], workers=0)
        with pytest.raises(ConfigError):
            session.sweep(small_histogram, [])
        with pytest.raises(ConfigError):
            session.sweep(small_histogram, [0.5, -0.2])
        with pytest.raises(ConfigError) as excinfo:
            session.sweep(small_histogram, [0.5], methods=("SOLH", "SOHL"))
        assert field_of(excinfo) == "mechanism"

    def test_stream_knob_conflicts(self):
        session = self.session()
        with pytest.raises(ConfigError) as excinfo:
            session.stream(100, epoch_size=200)
        assert field_of(excinfo) == "epoch_size"
        with pytest.raises(ConfigError) as excinfo:
            session.stream(
                100, epoch_size=200, admitted_epochs=2, admitted_flushes=4
            )
        assert field_of(excinfo) == "admitted_flushes"
        with pytest.raises(ConfigError) as excinfo:
            session.stream(100, eps_targets=(1.0, 2.0))
        assert field_of(excinfo) == "eps_targets"

    def test_stream_accepts_iterator_targets(self):
        # a one-pass iterable must not be exhausted by validation
        pipeline = self.session(d=16).stream(
            100, eps_targets=iter((1.0, 3.0, 6.0)), admitted_flushes=2
        )
        assert pipeline.config.plan.eps_server <= 1.0 * (1 + 1e-9)


class TestStreamConfigValidation:
    """The service-layer config validates eagerly too (satellite task)."""

    def plan(self, d=16):
        return plan_peos(1.0, 3.0, 6.0, n=200, d=d, delta=1e-9)

    def config(self, **overrides):
        defaults = dict(
            d=16, plan=self.plan(), flush_size=100,
            eps_budget=2.0, delta_budget=1e-8,
        )
        defaults.update(overrides)
        return StreamConfig(**defaults)

    def test_valid_passes(self):
        self.config()

    @pytest.mark.parametrize("overrides,field", [
        (dict(flush_size=0), "flush_size"),
        (dict(d=1), "d"),
        (dict(eps_budget=0.0), "eps_budget"),
        (dict(eps_budget=-1.0), "eps_budget"),
        (dict(delta_budget=0.0), "delta_budget"),
        (dict(backend="plane"), "backend"),
        (dict(r=0), "r"),
        (dict(composition="naive"), "composition"),
    ])
    def test_bad_fields(self, overrides, field):
        with pytest.raises(ConfigError) as excinfo:
            self.config(**overrides)
        assert excinfo.value.field == field

    def test_plan_domain_mismatch(self):
        # A plan computed for d=32 cannot be deployed against d=16.
        with pytest.raises(ConfigError) as excinfo:
            self.config(plan=self.plan(d=32))
        assert excinfo.value.field == "d"
        assert "32" in str(excinfo.value)

    def test_from_targets_bad_admitted(self):
        with pytest.raises(ConfigError) as excinfo:
            StreamConfig.from_targets(d=16, flush_size=100, admitted_flushes=0)
        assert excinfo.value.field == "admitted_flushes"
        # Named before the planner could call n=0 infeasible.
        with pytest.raises(ConfigError) as excinfo:
            StreamConfig.from_targets(d=16, flush_size=0)
        assert excinfo.value.field == "flush_size"

    def test_for_epochs_bad_sizes(self):
        with pytest.raises(ConfigError) as excinfo:
            StreamConfig.for_epochs(
                d=16, flush_size=0, epoch_size=100, admitted_epochs=1
            )
        assert excinfo.value.field == "flush_size"
        with pytest.raises(ConfigError) as excinfo:
            StreamConfig.for_epochs(
                d=16, flush_size=100, epoch_size=0, admitted_epochs=1
            )
        assert excinfo.value.field == "epoch_size"
        with pytest.raises(ConfigError) as excinfo:
            StreamConfig.for_epochs(
                d=16, flush_size=100, epoch_size=100, admitted_epochs=0
            )
        assert excinfo.value.field == "admitted_epochs"
