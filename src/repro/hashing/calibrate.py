"""One-shot timed calibration of the support-count kernel.

``plan_support_counts`` walks the hash matrix under a static default
tile budget (:data:`repro.hashing.kernels.DEFAULT_CHUNK_BYTES`, sized for
a 2 MiB L2) — a number tuned on one machine.  The right budget is a
cache question (a tile should stay cache-resident across its
elementwise passes), so this module measures it: time the standard
kernel path over a small ladder of candidate budgets on a synthetic
workload shaped like the streaming hot path, pick the fastest, and
install it process-wide via
:func:`repro.hashing.kernels.set_active_chunk_bytes`.

Calibration is an *execution* choice, never an estimator one — every
budget computes bit-identical counts (``tests/hashing/test_calibrate.py``
pins this), so a stale or wrong calibration can cost time but never
correctness.  That is also why the persisted form lives in the state
store's advisory tuning bag (:meth:`repro.persistence.store.StateStore
.record_tuning`) rather than the write-ahead run record: resuming a run
on different hardware may freely recalibrate.

Typical wiring (what the facade's ``chunk_bytes="auto"`` does)::

    from repro.hashing.calibrate import ensure_calibration

    calibration = ensure_calibration(store)   # load, else measure+persist
    calibration.activate()                    # kernels now use it
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .families import HashFamily, XXHash32Family
from .kernels import (
    DEFAULT_CHUNK_BYTES,
    plan_support_counts,
    set_active_chunk_bytes,
    support_counts_kernel,
)

__all__ = [
    "CALIBRATION_TUNING_KEY",
    "KernelCalibration",
    "calibrate_kernel",
    "ensure_calibration",
    "resolve_chunk_bytes",
]

#: name under which :func:`ensure_calibration` persists its result in a
#: state store's tuning bag
CALIBRATION_TUNING_KEY = "kernel_calibration"

#: chunk-budget ladder the timed probe walks: the static default tile
#: first (so ``"auto"`` can keep it), then 1 MiB up to 64 MiB
_LADDER: Tuple[int, ...] = (DEFAULT_CHUNK_BYTES,) + tuple(
    1 << p for p in range(20, 27)
)

#: synthetic probe workload — sized so one full ladder probe stays well
#: under a second on CI-class hardware while still spanning several
#: chunks at the smallest budget
_PROBE_REPORTS = 48_000
_PROBE_CANDIDATES = 64
_PROBE_D_OUT = 16


@dataclass(frozen=True)
class KernelCalibration:
    """The outcome of one timed calibration (or its persisted echo).

    ``probes`` records every ``(chunk_bytes, best_seconds)`` pair the
    ladder measured, so a stored calibration stays auditable.  ``source``
    is ``"measured"`` or ``"stored"``; ``workload`` identifies the probe
    shape the timings came from.
    """

    chunk_bytes: int
    probes: Tuple[Tuple[int, float], ...]
    source: str
    workload: str

    def activate(self) -> Optional[int]:
        """Install this budget process-wide; returns the previous one."""
        return set_active_chunk_bytes(self.chunk_bytes)

    def to_dict(self) -> dict:
        return {
            "chunk_bytes": int(self.chunk_bytes),
            "probes": [
                [int(chunk), float(seconds)] for chunk, seconds in self.probes
            ],
            "source": self.source,
            "workload": self.workload,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "KernelCalibration":
        chunk_bytes = int(payload["chunk_bytes"])
        if chunk_bytes < 1:
            raise ValueError(
                f"persisted chunk_bytes must be >= 1, got {chunk_bytes}"
            )
        return cls(
            chunk_bytes=chunk_bytes,
            probes=tuple(
                (int(chunk), float(seconds))
                for chunk, seconds in payload.get("probes", [])
            ),
            source="stored",
            workload=str(payload.get("workload", "")),
        )


def calibrate_kernel(
    n_reports: int = _PROBE_REPORTS,
    n_candidates: int = _PROBE_CANDIDATES,
    d_out: int = _PROBE_D_OUT,
    ladder: Sequence[int] = _LADDER,
    repeats: int = 2,
    family: Optional[HashFamily] = None,
    seed: int = 0,
) -> KernelCalibration:
    """Time the kernel over a chunk-budget ladder and pick the fastest.

    The probe pins the *standard* (report-major) orientation via an
    explicit plan so every rung measures the same walk, merely re-tiled —
    the quantity ``chunk_bytes`` actually controls.  ``repeats`` takes
    the best-of-N per rung to shed scheduler noise; ties break toward
    the smaller budget (smaller intermediates, same speed).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if not ladder:
        raise ValueError("chunk-budget ladder must not be empty")
    family = family if family is not None else XXHash32Family()
    rng = np.random.default_rng(seed)
    seeds = family.sample_seeds(n_reports, rng)
    reported = rng.integers(0, d_out, size=n_reports, dtype=np.int64)
    candidates = np.arange(n_candidates, dtype=np.int64)

    probes = []
    for chunk_bytes in ladder:
        plan = plan_support_counts(
            n_reports, n_candidates, d_out, chunk_bytes=int(chunk_bytes)
        )
        best = None
        for __ in range(repeats):
            started = time.perf_counter()
            support_counts_kernel(
                family, seeds, reported, candidates, d_out, plan=plan
            )
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        probes.append((int(chunk_bytes), best))

    winner = min(probes, key=lambda probe: (probe[1], probe[0]))
    return KernelCalibration(
        chunk_bytes=winner[0],
        probes=tuple(probes),
        source="measured",
        workload=(
            f"n={n_reports},candidates={n_candidates},d_out={d_out},"
            f"family={family.name}"
        ),
    )


def ensure_calibration(
    store=None, activate: bool = True, **probe_kwargs
) -> KernelCalibration:
    """Load a persisted calibration, else measure one (and persist it).

    ``store`` is any :class:`~repro.persistence.store.StateStore` (its
    advisory tuning bag holds the record under
    :data:`CALIBRATION_TUNING_KEY`); ``None`` measures without
    persisting.  A corrupt stored record is discarded and re-measured
    rather than failing the run — calibration can only cost time.
    """
    if store is not None:
        payload = store.load_tuning(CALIBRATION_TUNING_KEY)
        if payload is not None:
            try:
                calibration = KernelCalibration.from_dict(payload)
            except (KeyError, TypeError, ValueError):
                calibration = None
            if calibration is not None:
                if activate:
                    calibration.activate()
                return calibration
    calibration = calibrate_kernel(**probe_kwargs)
    if store is not None:
        store.record_tuning(CALIBRATION_TUNING_KEY, calibration.to_dict())
    if activate:
        calibration.activate()
    return calibration


def resolve_chunk_bytes(chunk_bytes, store=None) -> Optional[int]:
    """Map a facade/CLI ``chunk_bytes`` value to a concrete budget.

    ``None`` passes through (kernel default / active calibration),
    ``"auto"`` runs :func:`ensure_calibration` against ``store``, and
    anything else must be a positive int — validation of the final value
    is the pipelines' job (named ``ConfigError``).
    """
    if chunk_bytes is None:
        return None
    if isinstance(chunk_bytes, str):
        if chunk_bytes == "auto":
            return ensure_calibration(store=store).chunk_bytes
        chunk_bytes = int(chunk_bytes)  # may raise ValueError; callers map it
    return int(chunk_bytes)
