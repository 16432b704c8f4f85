"""Cost tracker bookkeeping."""

import time

import pytest

from repro.costs import CostTracker, PartyCost, share_bytes


class TestTracker:
    def test_send_double_entry(self):
        tracker = CostTracker()
        tracker.send("a", "b", 100)
        assert tracker.cost("a").bytes_sent == 100
        assert tracker.cost("b").bytes_received == 100

    def test_send_accumulates(self):
        tracker = CostTracker()
        tracker.send("a", "b", 100)
        tracker.send("a", "b", 50)
        assert tracker.cost("a").bytes_sent == 150

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostTracker().send("a", "b", -1)

    def test_compute_context(self):
        tracker = CostTracker()
        with tracker.compute("worker"):
            time.sleep(0.01)
        assert tracker.cost("worker").compute_seconds >= 0.01

    def test_compute_accumulates_on_exception(self):
        tracker = CostTracker()
        with pytest.raises(RuntimeError):
            with tracker.compute("worker"):
                raise RuntimeError("boom")
        assert tracker.cost("worker").compute_seconds >= 0

    def test_group_cost(self):
        tracker = CostTracker()
        tracker.send("shuffler:0", "server", 10)
        tracker.send("shuffler:1", "server", 20)
        assert tracker.group_cost("shuffler").bytes_sent == 30

    def test_max_cost_picks_busiest(self):
        tracker = CostTracker()
        tracker.send("shuffler:0", "x", 10)
        tracker.send("shuffler:1", "x", 90)
        assert tracker.max_cost("shuffler").bytes_sent == 90

    def test_max_cost_is_field_wise(self):
        # Table III's aux cells: the byte-busiest shuffler need not be
        # the one that computed longest.
        tracker = CostTracker()
        tracker.send("shuffler:0", "shuffler:1", 90)
        tracker.send("shuffler:1", "server", 40)
        tracker.parties["shuffler:0"].compute_seconds = 1.7
        tracker.parties["shuffler:1"].compute_seconds = 1.2
        tracker.parties["server"].compute_seconds = 9.0
        busiest = tracker.max_cost("shuffler")
        assert busiest.bytes_sent == 90
        assert busiest.bytes_received == 90
        assert busiest.compute_seconds == 1.7
        assert tracker.max_cost("ghost") == PartyCost()

    def test_scaled(self):
        tracker = CostTracker()
        tracker.send("a", "b", 100)
        scaled = tracker.scaled(10.0)
        assert scaled.cost("a").bytes_sent == 1000
        # Original untouched.
        assert tracker.cost("a").bytes_sent == 100

    def test_unknown_party_is_zero(self):
        assert CostTracker().cost("ghost").bytes_sent == 0


class TestPartyCost:
    def test_merged(self):
        a = PartyCost(bytes_sent=1, bytes_received=2, compute_seconds=0.5)
        b = PartyCost(bytes_sent=10, bytes_received=20, compute_seconds=1.0)
        merged = a.merged(b)
        assert merged.bytes_sent == 11
        assert merged.bytes_received == 22
        assert merged.compute_seconds == 1.5

    def test_scaled(self):
        cost = PartyCost(bytes_sent=100, compute_seconds=2.0)
        scaled = cost.scaled(0.5)
        assert scaled.bytes_sent == 50
        assert scaled.compute_seconds == 1.0


class TestShareBytes:
    @pytest.mark.parametrize(
        "modulus,expected", [(2, 1), (256, 1), (2**16, 2), (2**32, 4), (2**64, 8)]
    )
    def test_width(self, modulus, expected):
        assert share_bytes(modulus) == expected
