"""Protocol layer: parties, cost accounting, PEOS execution, and attacks."""

from ..costs import CostTracker, PartyCost, share_bytes
from . import attacks, serialization
from .parties import (
    Adversary,
    PEOSDeployment,
    ThreatReport,
    privacy_against,
)
from .peos import PEOSResult, peos_shuffle_encoded, run_peos

__all__ = [
    "Adversary",
    "CostTracker",
    "PEOSDeployment",
    "PEOSResult",
    "PartyCost",
    "ThreatReport",
    "attacks",
    "serialization",
    "peos_shuffle_encoded",
    "privacy_against",
    "run_peos",
    "share_bytes",
]
