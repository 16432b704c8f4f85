"""Kernel calibration: measurement, persistence, activation, and the
guarantee that the budget is pure execution tuning (bit-identical counts)."""

import numpy as np
import pytest

from repro.hashing import (
    XXHash32Family,
    active_chunk_bytes,
    calibrate_kernel,
    ensure_calibration,
    plan_support_counts,
    resolve_chunk_bytes,
    set_active_chunk_bytes,
    support_counts_kernel,
)
from repro.hashing.calibrate import CALIBRATION_TUNING_KEY, KernelCalibration
from repro.persistence import MemoryStateStore, SqliteStateStore

#: tiny probe that keeps one full ladder well under 100 ms
FAST_PROBE = dict(n_reports=2_000, n_candidates=16, d_out=8, repeats=1)
SMALL_LADDER = (1 << 16, 1 << 18, 1 << 20)


class TestCalibrateKernel:
    def test_picks_from_ladder_and_records_probes(self):
        calibration = calibrate_kernel(ladder=SMALL_LADDER, **FAST_PROBE)
        assert calibration.chunk_bytes in SMALL_LADDER
        assert calibration.source == "measured"
        assert [chunk for chunk, __ in calibration.probes] == list(SMALL_LADDER)
        assert all(seconds > 0 for __, seconds in calibration.probes)
        assert "family=" in calibration.workload

    def test_default_ladder_starts_at_static_default(self):
        """``"auto"`` must be able to pick the default tile itself."""
        from repro.hashing.calibrate import _LADDER
        from repro.hashing.kernels import DEFAULT_CHUNK_BYTES

        assert _LADDER[0] == DEFAULT_CHUNK_BYTES == min(_LADDER)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            calibrate_kernel(repeats=0)
        with pytest.raises(ValueError):
            calibrate_kernel(ladder=())

    def test_round_trips_through_dict(self):
        calibration = calibrate_kernel(ladder=SMALL_LADDER, **FAST_PROBE)
        restored = KernelCalibration.from_dict(calibration.to_dict())
        assert restored.chunk_bytes == calibration.chunk_bytes
        assert restored.probes == calibration.probes
        assert restored.source == "stored"

    def test_from_dict_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            KernelCalibration.from_dict({"chunk_bytes": 0})


class TestActivation:
    def test_active_budget_feeds_default_plans(self, rng):
        family = XXHash32Family()
        seeds = family.sample_seeds(300, rng)
        reported = rng.integers(0, 8, 300)
        candidates = np.arange(40)
        baseline = support_counts_kernel(
            family, seeds, reported, candidates, 8
        )
        previous = set_active_chunk_bytes(64)  # absurdly small, on purpose
        try:
            assert active_chunk_bytes() == 64
            # Planning with chunk_bytes=None now sees the tiny budget...
            plan = plan_support_counts(300, 40, 8)
            assert plan.orientation == "candidates"
            # ...and the kernel still produces bit-identical counts.
            squeezed = support_counts_kernel(
                family, seeds, reported, candidates, 8
            )
            assert squeezed.tobytes() == baseline.tobytes()
        finally:
            # restore the uncalibrated default for the rest of the suite
            import repro.hashing.kernels as kernels

            kernels._ACTIVE_CHUNK_BYTES = previous
        assert active_chunk_bytes() != 64

    def test_counts_identical_across_budgets(self, rng):
        family = XXHash32Family()
        seeds = family.sample_seeds(500, rng)
        reported = rng.integers(0, 8, 500)
        candidates = np.arange(64)
        reference = None
        for chunk_bytes in (512, 1 << 14, 1 << 26):
            counts = support_counts_kernel(
                family, seeds, reported, candidates, 8,
                chunk_bytes=chunk_bytes,
            )
            if reference is None:
                reference = counts
            assert counts.tobytes() == reference.tobytes()

    def test_calibration_activate_returns_previous(self):
        calibration = calibrate_kernel(
            ladder=(1 << 20,), **FAST_PROBE
        )
        previous = calibration.activate()
        try:
            assert active_chunk_bytes() == 1 << 20
        finally:
            import repro.hashing.kernels as kernels

            kernels._ACTIVE_CHUNK_BYTES = previous


class TestEnsureCalibration:
    def test_memory_store_round_trip(self):
        store = MemoryStateStore()
        first = ensure_calibration(
            store, activate=False, ladder=SMALL_LADDER, **FAST_PROBE
        )
        assert first.source == "measured"
        assert store.load_tuning(CALIBRATION_TUNING_KEY) is not None
        second = ensure_calibration(store, activate=False)
        assert second.source == "stored"  # loaded, not re-measured
        assert second.chunk_bytes == first.chunk_bytes
        assert second.probes == first.probes

    def test_sqlite_store_round_trip(self, tmp_path):
        path = str(tmp_path / "state.db")
        with SqliteStateStore(path) as store:
            measured = ensure_calibration(
                store, activate=False, ladder=SMALL_LADDER, **FAST_PROBE
            )
        # A different process/run sees the persisted record.
        with SqliteStateStore(path) as store:
            loaded = ensure_calibration(store, activate=False)
        assert loaded.source == "stored"
        assert loaded.chunk_bytes == measured.chunk_bytes

    def test_corrupt_record_remeasured(self):
        store = MemoryStateStore()
        store.record_tuning(CALIBRATION_TUNING_KEY, {"chunk_bytes": -5})
        calibration = ensure_calibration(
            store, activate=False, ladder=SMALL_LADDER, **FAST_PROBE
        )
        assert calibration.source == "measured"
        # The bad record was replaced with the fresh measurement.
        stored = store.load_tuning(CALIBRATION_TUNING_KEY)
        assert stored["chunk_bytes"] == calibration.chunk_bytes

    def test_no_store_measures_without_persisting(self):
        calibration = ensure_calibration(
            None, activate=False, ladder=SMALL_LADDER, **FAST_PROBE
        )
        assert calibration.source == "measured"


class TestResolveChunkBytes:
    def test_passthroughs(self):
        assert resolve_chunk_bytes(None) is None
        assert resolve_chunk_bytes(12345) == 12345
        assert resolve_chunk_bytes("65536") == 65536

    def test_garbage_string_raises_for_caller_to_map(self):
        with pytest.raises(ValueError):
            resolve_chunk_bytes("lots")

    def test_auto_uses_store(self):
        store = MemoryStateStore()
        # Pre-seed the tuning bag so "auto" resolves without a live probe.
        store.record_tuning(
            CALIBRATION_TUNING_KEY,
            {"chunk_bytes": 1 << 22, "probes": [], "workload": "t"},
        )
        import repro.hashing.kernels as kernels

        previous = kernels._ACTIVE_CHUNK_BYTES
        try:
            assert resolve_chunk_bytes("auto", store=store) == 1 << 22
        finally:
            kernels._ACTIVE_CHUNK_BYTES = previous
