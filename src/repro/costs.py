"""Communication and computation cost accounting (Table III's measurements).

Every protocol in :mod:`repro.shuffle` and :mod:`repro.protocol` accepts an
optional :class:`CostTracker`.  Parties are identified by string names
("user", "shuffler:0", "server", ...); the tracker records bytes sent /
received per party and wall-clock compute time per party (via the
``compute`` context manager wrapping each party's local work).

The tracker also knows how to *extrapolate*: Table III reports costs at
``n = 10^6`` users, which pure-Python crypto cannot run directly; all
per-report costs are linear in the number of reports, so
:meth:`CostTracker.scaled` rescales a measurement taken at a smaller ``n``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class PartyCost:
    """Accumulated costs of one party."""

    bytes_sent: int = 0
    bytes_received: int = 0
    compute_seconds: float = 0.0

    def scaled(self, factor: float) -> "PartyCost":
        """Linearly rescale all costs (for n-extrapolation)."""
        return PartyCost(
            bytes_sent=int(self.bytes_sent * factor),
            bytes_received=int(self.bytes_received * factor),
            compute_seconds=self.compute_seconds * factor,
        )

    def merged(self, other: "PartyCost") -> "PartyCost":
        return PartyCost(
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_received=self.bytes_received + other.bytes_received,
            compute_seconds=self.compute_seconds + other.compute_seconds,
        )


@dataclass
class CostTracker:
    """Per-party cost ledger for one protocol execution."""

    parties: dict = field(default_factory=lambda: defaultdict(PartyCost))

    def send(self, source: str, destination: str, n_bytes: int) -> None:
        """Record ``n_bytes`` moving from ``source`` to ``destination``."""
        if n_bytes < 0:
            raise ValueError(f"negative message size: {n_bytes}")
        self.parties[source].bytes_sent += n_bytes
        self.parties[destination].bytes_received += n_bytes

    @contextmanager
    def compute(self, party: str):
        """Attribute the wall-clock time of the block to ``party``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.parties[party].compute_seconds += time.perf_counter() - start

    def cost(self, party: str) -> PartyCost:
        """Cost of one party (zero if never seen)."""
        return self.parties[party]

    def group_cost(self, prefix: str) -> PartyCost:
        """Sum of costs over parties whose name starts with ``prefix``
        (e.g. ``"shuffler"`` over all shufflers)."""
        total = PartyCost()
        for name, cost in self.parties.items():
            if name.startswith(prefix):
                total = total.merged(cost)
        return total

    def max_cost(self, prefix: str) -> PartyCost:
        """Field-wise maximum over a group — Table III reports *per
        shuffler* numbers: bytes sent, bytes received and compute each
        come from the shuffler busiest in that field, which need not be
        one and the same shuffler."""
        group = [
            cost for name, cost in self.parties.items() if name.startswith(prefix)
        ]
        return PartyCost(
            bytes_sent=max((cost.bytes_sent for cost in group), default=0),
            bytes_received=max((cost.bytes_received for cost in group), default=0),
            compute_seconds=max(
                (cost.compute_seconds for cost in group), default=0.0
            ),
        )

    def scaled(self, factor: float) -> "CostTracker":
        """Rescale every party's cost (per-report-linear extrapolation)."""
        scaled = CostTracker()
        for name, cost in self.parties.items():
            scaled.parties[name] = cost.scaled(factor)
        return scaled

    def summary(self) -> dict[str, PartyCost]:
        """Plain-dict snapshot for printing."""
        return dict(self.parties)


def metered(
    tracker: Optional[CostTracker], party: str
) -> AbstractContextManager:
    """``tracker.compute(party)``, or a context that records nothing when
    the run is untracked (``tracker`` is None)."""
    return nullcontext() if tracker is None else tracker.compute(party)


def share_bytes(modulus: int) -> int:
    """Wire size of one additive share over ``Z_M`` (values in [0, M))."""
    return max(1, (int(modulus - 1).bit_length() + 7) // 8)
