"""Cross-epoch privacy-budget accounting."""

import math
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.composition import advanced_composition_total, split_budget
from repro.service import BudgetCharge, BudgetExceededError, PrivacyAccountant
from repro.service import accountant as accountant_module


class TestBasicComposition:
    def test_admits_exact_budget_multiple(self):
        accountant = PrivacyAccountant(1.0, 1e-6)
        for __ in range(4):
            accountant.charge(0.25, 1e-9)
        assert accountant.n_charges == 4
        assert accountant.spent()[0] == pytest.approx(1.0)

    def test_refuses_overrun_and_keeps_ledger(self):
        accountant = PrivacyAccountant(1.0, 1e-6)
        for __ in range(4):
            accountant.charge(0.25)
        with pytest.raises(BudgetExceededError) as refusal:
            accountant.charge(0.25, label="epoch4/flush4")
        assert accountant.n_charges == 4  # refused charge not recorded
        assert refusal.value.requested_eps == 0.25
        assert refusal.value.spent_eps == pytest.approx(1.0)
        assert "epoch4/flush4" in str(refusal.value)

    def test_delta_budget_enforced(self):
        accountant = PrivacyAccountant(10.0, 1e-8)
        accountant.charge(0.1, 9e-9)
        with pytest.raises(BudgetExceededError):
            accountant.charge(0.1, 9e-9)

    def test_remaining_eps(self):
        accountant = PrivacyAccountant(1.0, 1e-6)
        accountant.charge(0.4)
        assert accountant.remaining_eps() == pytest.approx(0.6)
        assert accountant.admits(0.6)
        assert not accountant.admits(0.61)


class TestAdvancedComposition:
    def test_homogeneous_matches_core_composition(self):
        accountant = PrivacyAccountant(
            5.0, 1e-6, method="advanced", slack_fraction=0.5
        )
        for __ in range(20):
            accountant.charge(0.05)
        expected = advanced_composition_total(0.05, 20, 0.5 * 1e-6)
        eps_spent, delta_spent = accountant.spent()
        assert eps_spent == pytest.approx(min(expected, 20 * 0.05))
        if expected < 20 * 0.05:
            assert delta_spent == pytest.approx(0.5 * 1e-6)

    def test_advanced_never_exceeds_basic(self):
        accountant = PrivacyAccountant(5.0, 1e-6, method="advanced")
        charges = [0.05, 0.1, 0.02, 0.08, 0.05]
        for eps in charges:
            accountant.charge(eps)
        assert accountant.spent()[0] <= math.fsum(charges) + 1e-12

    def test_admits_more_small_flushes_than_basic(self):
        basic = PrivacyAccountant(1.0, 1e-6, method="basic")
        advanced = PrivacyAccountant(1.0, 1e-6, method="advanced")

        def count(accountant):
            admitted = 0
            while accountant.admits(0.01) and admitted < 1000:
                accountant.charge(0.01)
                admitted += 1
            return admitted

        assert count(basic) == 100
        assert count(advanced) > 100

    def test_slack_never_refuses_what_basic_admits(self):
        # 60 homogeneous charges fit the budget under basic composition;
        # the advanced accountant must not refuse them just because the
        # advanced bound's delta slack would overrun the delta budget.
        basic = PrivacyAccountant(6.0, 6e-8, method="basic")
        advanced = PrivacyAccountant(6.0, 6e-8, method="advanced")
        for accountant in (basic, advanced):
            for __ in range(60):
                accountant.charge(0.1, 1e-9)
            assert accountant.n_charges == 60

    def test_heterogeneous_formula(self):
        accountant = PrivacyAccountant(
            10.0, 1e-6, method="advanced", slack_fraction=0.5
        )
        charges = [0.01] * 50 + [0.02] * 50
        for eps in charges:
            accountant.charge(eps)
        delta_slack = 0.5 * 1e-6
        expected = math.sqrt(
            2.0 * math.log(1.0 / delta_slack) * sum(e * e for e in charges)
        ) + sum(e * (math.exp(e) - 1.0) for e in charges)
        assert accountant.spent()[0] == pytest.approx(min(expected, sum(charges)))


class TestHelpers:
    def test_for_flushes_uses_split_budget(self):
        accountant, split = PrivacyAccountant.for_flushes(1.0, 1e-6, 10)
        expected = split_budget(1.0, 1e-6, 10)
        assert split.eps_per_round == expected.eps_per_round
        for __ in range(10):
            accountant.charge(split.eps_per_round, split.delta_per_round)
        assert not accountant.admits(split.eps_per_round, split.delta_per_round)

    def test_validation(self):
        with pytest.raises(ValueError):
            PrivacyAccountant(0.0, 1e-6)
        with pytest.raises(ValueError):
            PrivacyAccountant(1.0, 2.0)
        with pytest.raises(ValueError):
            PrivacyAccountant(1.0, 1e-6, method="renyi")
        accountant = PrivacyAccountant(1.0, 1e-6)
        with pytest.raises(ValueError):
            accountant.charge(-0.1)
        with pytest.raises(ValueError):
            accountant.charge(0.1, delta=1.5)


class TestSnapshotRestore:
    def test_round_trip_is_exact(self):
        accountant = PrivacyAccountant(2.0, 1e-6, method="advanced")
        snapshot = [
            accountant.charge(0.5, 1e-8, label="epoch0/flush0"),
            accountant.charge(0.25, 2e-8, label="epoch0/flush1"),
        ]

        restored = PrivacyAccountant(2.0, 1e-6, method="advanced")
        restored.restore(snapshot)
        assert restored.spent() == accountant.spent()
        assert restored.n_charges == accountant.n_charges
        # The restored ledger keeps charging from where it left off.
        restored.charge(0.25, 1e-8)
        accountant.charge(0.25, 1e-8)
        assert restored.spent() == accountant.spent()

    @pytest.mark.parametrize("method", ["basic", "advanced"])
    def test_restore_of_no_charges(self, method):
        # A durable run that died before its first charge committed
        # resumes from an empty ledger.
        restored = PrivacyAccountant(1.0, 1e-6, method=method)
        restored.restore([])
        assert restored.spent() == (0.0, 0.0)
        assert restored.n_charges == 0
        fresh = PrivacyAccountant(1.0, 1e-6, method=method)
        restored.charge(0.25, 1e-8)
        fresh.charge(0.25, 1e-8)
        assert restored.spent() == fresh.spent()

    def test_restore_into_nonempty_ledger_refused(self):
        accountant = PrivacyAccountant(1.0, 1e-6)
        accountant.charge(0.1)
        with pytest.raises(ValueError, match="restore"):
            accountant.restore([BudgetCharge(0.1, 0.0, "flush")])

    def test_restore_rejects_overspent_snapshot(self):
        snapshot = [BudgetCharge(1.0, 1e-8, f"flush{i}") for i in range(5)]
        small = PrivacyAccountant(1.0, 1e-6)
        with pytest.raises(ValueError, match="budget"):
            small.restore(snapshot)

    def test_restore_validates_each_charge(self):
        accountant = PrivacyAccountant(1.0, 1e-6)

        class Bogus:
            eps, delta, label = -0.5, 0.0, "bad"

        with pytest.raises(ValueError):
            accountant.restore([Bogus()])


def _reference_spent(accountant, charges):
    """Composed spend of ``(eps, delta)`` ``charges`` as a ledger that
    keeps every charge computes it: one ``math.fsum`` over the whole
    prefix per sum, then the same choice between the two bounds."""
    if not charges:
        return 0.0, 0.0
    eps_values = [eps for eps, __ in charges]
    basic_eps = math.fsum(eps_values)
    basic_delta = math.fsum(delta for __, delta in charges)
    if accountant.method == "basic":
        return basic_eps, basic_delta
    delta_slack = accountant.slack_fraction * accountant.delta_budget
    if len(set(eps_values)) == 1:
        advanced = advanced_composition_total(
            eps_values[0], len(charges), delta_slack
        )
    else:
        advanced = math.sqrt(
            2.0 * math.log(1.0 / delta_slack) * math.fsum(e * e for e in eps_values)
        ) + math.fsum(e * (math.exp(e) - 1.0) for e in eps_values)
    pairs = [(basic_eps, basic_delta), (advanced, basic_delta + delta_slack)]
    fitting = [p for p in pairs if p[1] <= accountant.delta_budget * (1 + 1e-9)]
    return min(fitting or pairs, key=lambda pair: pair[0])


def _reference_fits(accountant, spent):
    eps, delta = spent
    return (
        eps <= accountant.eps_budget * (1 + 1e-9)
        and delta <= accountant.delta_budget * (1 + 1e-9)
    )


_EPS = st.floats(min_value=1e-12, max_value=10.0)
_DELTA = st.floats(min_value=0.0, max_value=1e-6)
_CHARGES = st.one_of(
    # homogeneous eps (advanced composition's closed form)
    st.tuples(_EPS, st.lists(_DELTA, min_size=1, max_size=40)).map(
        lambda drawn: [(drawn[0], delta) for delta in drawn[1]]
    ),
    st.lists(st.tuples(_EPS, _DELTA), min_size=1, max_size=40),
)


class TestRunningSums:
    """The running sums compose to exactly what a from-scratch ``fsum``
    over every admitted charge gives."""

    @settings(max_examples=300, deadline=None)
    @given(
        method=st.sampled_from(["basic", "advanced"]),
        eps_budget=st.floats(min_value=1e-11, max_value=200.0),
        delta_budget=st.floats(min_value=1e-7, max_value=1e-4),
        charges=_CHARGES,
        probe=st.tuples(_EPS, _DELTA),
    )
    def test_matches_fsum_of_every_prefix(
        self, method, eps_budget, delta_budget, charges, probe
    ):
        accountant = PrivacyAccountant(eps_budget, delta_budget, method=method)
        admitted = []
        for eps, delta in charges:
            fits = _reference_fits(
                accountant, _reference_spent(accountant, admitted + [(eps, delta)])
            )
            if fits:
                accountant.charge(eps, delta)
                admitted.append((eps, delta))
            else:
                with pytest.raises(BudgetExceededError):
                    accountant.charge(eps, delta)
            assert accountant.n_charges == len(admitted)
            assert accountant.spent() == _reference_spent(accountant, admitted)
            assert accountant.admits(*probe) == _reference_fits(
                accountant, _reference_spent(accountant, admitted + [probe])
            )


#: at most one Shewchuk partial per mantissa width of the exponent
#: range: a bound on the terms one compose can touch, whatever the
#: ledger's length
_MAX_PARTIALS = (
    sys.float_info.max_exp - sys.float_info.min_exp + sys.float_info.mant_dig
) // sys.float_info.mant_dig + 1

_RESTORED = 100_000


def _stored_charges():
    """A long stored ledger, as a generator the accountant reads once."""
    for i in range(_RESTORED):
        yield BudgetCharge(1e-5 * (1 + i % 7), 1e-12, f"epoch{i // 45}/flush{i}")


class TestHistoryIndependence:
    """After resuming a long run, no call re-reads the charge history."""

    @pytest.mark.parametrize("method", ["basic", "advanced"])
    def test_calls_touch_constant_terms(self, method, monkeypatch):
        accountant = PrivacyAccountant(10.0, 1e-6, method=method)
        accountant.restore(_stored_charges())
        expected = _reference_spent(
            accountant, [(c.eps, c.delta) for c in _stored_charges()]
        )
        assert accountant.spent() == expected

        fsum = math.fsum
        lengths = []

        def counting_fsum(terms):
            terms = list(terms)
            lengths.append(len(terms))
            return fsum(terms)

        monkeypatch.setattr(accountant_module.math, "fsum", counting_fsum)
        for call in (
            lambda: accountant.admits(1e-5, 1e-12),
            lambda: accountant.charge(1e-5, 1e-12),
            accountant.spent,
            accountant.remaining_eps,
        ):
            lengths.clear()
            call()
            assert max(lengths, default=0) <= _MAX_PARTIALS
        assert accountant.n_charges == _RESTORED + 1

    def test_restore_retains_no_charges(self):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before, __ = tracemalloc.get_traced_memory()
            accountant = PrivacyAccountant(10.0, 1e-6, method="advanced")
            accountant.restore(_stored_charges())
            retained, __ = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert accountant.n_charges == _RESTORED
        assert retained - before < 64 * 1024
