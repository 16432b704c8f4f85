"""Deployment configuration, pricing, and release streams of the pipeline.

The pipeline itself is :class:`~repro.service.sharded.ShardedPipeline`
(also exported as ``TelemetryPipeline``); this module holds what it is
built from and what it reports:

* :class:`StreamConfig` — one deployment's static parameters around a
  Section VI-D plan (:func:`repro.core.params.plan_peos`), validated up
  front, with :meth:`StreamConfig.from_targets` /
  :meth:`StreamConfig.for_epochs` sizing the lifetime budget;
* :func:`flush_release_epsilon` / :func:`epoch_release_epsilon` — the
  Corollary 8/9 price of one release at its own size;
* :class:`EpochReport`, :class:`FlushRejection`, :class:`StreamResult` —
  the run's operational metrics and final state;
* :func:`release_entropy` / :func:`flush_rng` — the per-flush release
  streams;
* :func:`check_sizes`, :func:`oracle_from_plan`, :func:`check_replay_support`.

The release streams are what make estimates layout-invariant: a flush's
fakes and permutation depend only on the deployment seed and the flush's
global sequence number, never on which thread, process, or shard
releases it (the determinism contract in :mod:`repro.service.sharded`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.errors import (
    ConfigError,
    validate_backend_name,
    validate_composition,
    validate_domain_size,
    validate_shuffler_count,
)
from ..core.params import PeosPlan, plan_peos
from ..core.peos_analysis import (
    peos_epsilon_collusion_grr,
    peos_epsilon_collusion_solh,
    peos_epsilon_server_grr,
    peos_epsilon_server_solh,
)
from ..core.registry import UnknownMechanismError, get_spec
from ..frequency_oracles.base import FrequencyOracle
from .backends import BACKEND_NAMES

#: detailed FlushRejection records kept per pipeline; further refusals only
#: increment the counter so an exhausted long-running service stays O(1)
MAX_REJECTION_RECORDS = 64


@dataclass(frozen=True)
class StreamConfig:
    """Static configuration of one streaming deployment."""

    #: value-domain size
    d: int
    #: the Section VI-D plan (mechanism, eps_l, d', n_r, guarantees)
    plan: PeosPlan
    #: genuine reports per size-triggered flush
    flush_size: int
    #: lifetime privacy budget across all flushes
    eps_budget: float
    delta_budget: float
    #: shuffle backend registry name: "plain", "sequential", or "peos"
    backend: str = "plain"
    #: shuffler count for the protocol backends
    r: int = 3
    #: accountant composition method: "basic" or "advanced"
    composition: str = "basic"
    #: emit an all-fake batch for epochs with no pending reports (hides
    #: traffic volume; each such release is priced at its fakes-only eps)
    flush_empty: bool = False
    #: retain each flush's decoded released reports (tests / audits)
    keep_reports: bool = False

    def __post_init__(self):
        """Validate the whole configuration up front.

        Every inconsistency raises :class:`~repro.core.errors.ConfigError`
        naming the offending field — instead of a numpy shape/broadcast
        error surfacing later from deep inside the buffer or aggregator.
        """
        validate_domain_size(self.d)
        check_sizes(flush_size=self.flush_size)
        if not self.eps_budget > 0.0:
            raise ConfigError(
                "eps_budget", f"must be positive, got {self.eps_budget}"
            )
        if not 0.0 < self.delta_budget < 1.0:
            raise ConfigError(
                "delta_budget", f"must be in (0, 1), got {self.delta_budget}"
            )
        validate_backend_name(self.backend, BACKEND_NAMES)
        validate_shuffler_count(self.r)
        validate_composition(self.composition)
        plan_d = getattr(self.plan, "d", None)
        if plan_d is not None and plan_d != self.d:
            raise ConfigError(
                "d",
                f"plan was computed for d={plan_d} but the deployment "
                f"declares d={self.d}; re-plan for the actual domain",
            )
        if self.plan.mechanism == "grr" and self.plan.d_prime != self.d:
            raise ConfigError(
                "plan",
                f"a GRR plan reports over the value domain itself, but "
                f"plan.d_prime={self.plan.d_prime} != d={self.d}",
            )
        if self.plan.n_r < 0:
            raise ConfigError(
                "plan", f"fake-report count must be >= 0, got {self.plan.n_r}"
            )

    @classmethod
    def from_targets(
        cls,
        d: int,
        flush_size: int,
        eps_targets: tuple = (1.0, 3.0, 6.0),
        delta: float = 1e-9,
        admitted_flushes: int = 6,
        mechanism: Optional[str] = None,
        **kwargs,
    ) -> "StreamConfig":
        """Plan per-flush parameters and size the budget for a flush count.

        The plan is computed for a population of ``flush_size`` so each
        release individually meets the three adversary targets; the
        lifetime budget then admits exactly ``admitted_flushes`` *full*
        releases under basic composition.  If the workload produces
        epoch-end remainder flushes (epoch size not divisible by
        ``flush_size``), use :meth:`for_epochs`, which prices the actual
        schedule.  ``mechanism`` ("grr"/"solh") restricts the planner's
        choice; None keeps the paper's free variance-optimal pick.
        """
        plan = _plan_flush(
            d, flush_size, eps_targets, delta, mechanism,
            admitted_flushes=admitted_flushes,
        )
        return cls(
            d=d,
            plan=plan,
            flush_size=flush_size,
            eps_budget=plan.eps_server * admitted_flushes,
            delta_budget=_delta_budget(
                plan.delta * admitted_flushes, kwargs.get("composition", "basic")
            ),
            **kwargs,
        )

    @classmethod
    def for_epochs(
        cls,
        d: int,
        flush_size: int,
        epoch_size: int,
        admitted_epochs: int,
        eps_targets: tuple = (1.0, 3.0, 6.0),
        delta: float = 1e-9,
        mechanism: Optional[str] = None,
        **kwargs,
    ) -> "StreamConfig":
        """Size the budget for ``admitted_epochs`` epochs of ``epoch_size``.

        Unlike :meth:`from_targets`, this prices the actual per-epoch flush
        schedule — full flushes plus the (more expensive) epoch-end
        remainder when ``epoch_size`` is not a multiple of ``flush_size``.
        ``mechanism`` ("grr"/"solh") restricts the planner's choice.
        """
        plan = _plan_flush(
            d, flush_size, eps_targets, delta, mechanism,
            epoch_size=epoch_size, admitted_epochs=admitted_epochs,
        )
        flushes = admitted_epochs * flushes_per_epoch(epoch_size, flush_size)
        return cls(
            d=d,
            plan=plan,
            flush_size=flush_size,
            eps_budget=admitted_epochs
            * epoch_release_epsilon(d, plan, epoch_size, flush_size),
            delta_budget=_delta_budget(
                plan.delta * flushes, kwargs.get("composition", "basic")
            ),
            **kwargs,
        )


@dataclass(frozen=True)
class FlushRejection:
    """Record of a flush the accountant refused."""

    epoch: int
    sequence: int
    n_reports: int
    reason: str


@dataclass(frozen=True)
class EpochReport:
    """Operational metrics of one collection epoch."""

    epoch: int
    n_flushes: int
    n_rejected: int
    n_reports: int
    n_fake: int
    flush_latency_s: float
    reports_per_sec: float
    #: cumulative composed spend after this epoch
    eps_spent: float
    delta_spent: float


@dataclass
class StreamResult:
    """Final state of a pipeline run."""

    estimates: np.ndarray
    epochs: List[EpochReport]
    n_genuine: int
    n_fake: int
    eps_spent: float
    delta_spent: float
    #: total refused flushes (detail records are capped, the count is not)
    n_rejected: int = 0
    #: first ``MAX_REJECTION_RECORDS`` refusals, with reasons
    rejections: List[FlushRejection] = field(default_factory=list)


def flush_release_epsilon(
    d: int, plan: PeosPlan, n_reports: int, n_fake: int
) -> float:
    """Actual Corollary 8/9 ``eps_c`` of releasing one batch.

    The plan's ``eps_server`` holds for a full flush of ``flush_size``
    genuine reports; a shorter batch (an epoch-end remainder) carries less
    genuine blanket noise, so its guarantee is *weaker* and must be priced
    at its own ``n``.  For ``n <= 1`` the genuine blanket vanishes and the
    bound degenerates to the fakes-only (collusion-style) form, which also
    prices an all-fake ``flush_empty`` batch — and returns ``inf`` when
    there are no fakes either, so the accountant refuses such a release
    outright.
    """
    if n_reports < 0 or n_fake < 0:
        raise ValueError(
            f"report counts must be >= 0, got n={n_reports}, n_r={n_fake}"
        )
    if plan.mechanism == "grr":
        if n_reports >= 2:
            return peos_epsilon_server_grr(
                plan.eps_l, d, n_reports, n_fake, plan.delta
            )
        return peos_epsilon_collusion_grr(d, n_fake, plan.delta)
    if n_reports >= 2:
        return peos_epsilon_server_solh(
            plan.eps_l, plan.d_prime, n_reports, n_fake, plan.delta
        )
    return peos_epsilon_collusion_solh(plan.d_prime, n_fake, plan.delta)


def check_sizes(**sizes: int) -> None:
    """Refuse a non-positive size with a ``ConfigError`` naming it."""
    for name, value in sizes.items():
        if value < 1:
            raise ConfigError(name, f"must be >= 1, got {value}")


def _plan_flush(d: int, flush_size: int, eps_targets: tuple, delta: float,
                mechanism: Optional[str], **sizes: int) -> PeosPlan:
    """Plan one flush; sizes first, or a bad one reads as infeasible."""
    check_sizes(flush_size=flush_size, **sizes)
    return plan_peos(
        *eps_targets, n=flush_size, d=d, delta=delta, mechanism=mechanism
    )


def flushes_per_epoch(epoch_size: int, flush_size: int) -> int:
    """Releases one epoch produces: full flushes plus any remainder."""
    check_sizes(epoch_size=epoch_size, flush_size=flush_size)
    return -(-epoch_size // flush_size)


def _delta_budget(charged_delta: float, composition: str) -> float:
    """Size the lifetime delta budget for the charged per-flush deltas.

    Under basic composition the ledger should bind exactly at the planned
    flush count.  Under advanced composition the accountant reserves half
    the budget as the DRV slack and the point of the method is to admit
    *more* flushes on the eps axis, so leave 4x headroom (2x for the
    slack, 2x for extra admissions) — the eps budget then governs.
    """
    if composition == "advanced":
        return charged_delta * 4.0
    return charged_delta


def epoch_release_epsilon(
    d: int, plan: PeosPlan, epoch_size: int, flush_size: int
) -> float:
    """Total ``eps_c`` one epoch's releases cost: full flushes plus the
    epoch-end remainder, each priced at its own size."""
    full, remainder = divmod(epoch_size, flush_size)
    total = full * flush_release_epsilon(d, plan, flush_size, plan.n_r)
    if remainder:
        total += flush_release_epsilon(d, plan, remainder, plan.n_r)
    return total


def release_entropy(rng: np.random.Generator) -> tuple:
    """Derive the deployment's release-stream root entropy from ``rng``.

    Called exactly once, immediately after a pipeline binds its ingest
    generator and before any other draw, so the ingest stream that
    follows is the same at every execution layout.
    """
    return tuple(int(word) for word in rng.integers(0, 1 << 32, size=8))


def flush_rng(entropy: tuple, sequence: int) -> np.random.Generator:
    """The release stream of the flush with global sequence ``sequence``.

    Children are keyed by ``spawn_key`` (equivalent to
    ``SeedSequence(entropy).spawn(...)`` but order-independent), so any
    execution layout — an inline fold, a sharded fold, a process pool,
    even out-of-order collection — draws identical fake-report and
    shuffle randomness for the same flush.
    """
    return np.random.default_rng(
        np.random.SeedSequence(entropy, spawn_key=(int(sequence),))
    )


def oracle_from_plan(d: int, plan: PeosPlan) -> FrequencyOracle:
    """Instantiate the planned mechanism through the registry.

    The plan's lowercase mechanism id ("grr", "solh") resolves to a
    :class:`~repro.core.registry.MechanismSpec` whose ``plan_factory``
    builds the streaming oracle — SOLH with the 32-bit-seed hash family so
    the ordinal report group fits in 64-bit arithmetic (the
    protocol-backend requirement noted in :mod:`repro.protocol.peos`).
    """
    try:
        spec = get_spec(plan.mechanism)
    except UnknownMechanismError as unknown:
        raise ValueError(f"unknown planned mechanism: {plan.mechanism!r}") from unknown
    if not spec.streamable:
        raise ValueError(f"mechanism {spec.name!r} is not streamable")
    return spec.build_from_plan(d, plan)


def check_replay_support(config: StreamConfig, fo: FrequencyOracle) -> None:
    """Refuse configurations whose releases cannot be replayed after a
    crash (raised for durable stores at construction and on any resume).

    The crypto backends hold cryptographic generator state that is not
    checkpointable, so their releases are not reproducible from a flush
    record; ``keep_reports`` retains decoded batches the store
    deliberately drops at release; and the ordinal object-dtype fallback
    has no stable byte serialization.
    """
    if config.backend != "plain":
        raise ConfigError(
            "backend",
            f"durable persistence requires the 'plain' backend: the "
            f"{config.backend!r} backend holds cryptographic RNG state "
            f"that cannot be checkpointed, so its releases are not "
            f"replayable after a crash",
        )
    if config.keep_reports:
        raise ConfigError(
            "keep_reports",
            "durable persistence drops raw reports at release and cannot "
            "rebuild retained batches on resume; disable keep_reports",
        )
    if not fo.ordinal_codec.fast:
        raise ConfigError(
            "plan",
            "durable persistence requires the int64 ordinal fast path; "
            "this plan's report domain exceeds 64-bit arithmetic",
        )
