"""The facade's one front door: :class:`ShuffleSession`.

A session binds a :class:`~repro.api.config.DeploymentConfig` (mechanism,
domain, backend) to a :class:`~repro.api.config.PrivacyBudget` and exposes
the library's three execution styles as three verbs:

* :meth:`ShuffleSession.estimate` — one mechanism run over a population
  histogram (or raw values), returning an
  :class:`~repro.api.results.EstimateResult`;
* :meth:`ShuffleSession.sweep` — the Figure 3 experiment: methods x
  epsilon grid x repeats on the deterministic parallel trial-plan engine,
  returning a :class:`~repro.api.results.SweepResultSet`;
* :meth:`ShuffleSession.stream` — a configured, ready-to-feed
  :class:`~repro.service.sharded.ShardedPipeline` for a continuous
  deployment, planned by Section VI-D.

Equivalence guarantees (enforced by ``tests/api``): each verb is a *thin*
delegate to the pre-existing engine — ``estimate`` matches the direct
``registry.build_mechanism(...).estimate_from_histogram(...)`` path,
``sweep`` matches :func:`repro.analysis.experiments.run_sweep`, and
``stream`` matches a hand-built ``StreamConfig`` + ``ShardedPipeline``
— bit for bit at a fixed seed.  The facade adds validation, provenance,
and result packaging, never different math.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from ..analysis.experiments import run_sweep
from ..analysis.metrics import mse as _mse
from ..core.errors import ConfigError
from .config import DeploymentConfig, PrivacyBudget, resolve_mechanism
from .results import Amplification, EstimateResult, SweepResultSet


def _resolve_rng(
    rng: Optional[np.random.Generator], seed: Optional[int]
) -> np.random.Generator:
    """One rng-or-seed convention for every verb (rng wins when both given)."""
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


#: :meth:`ShuffleSession.stream`'s layout options -> pipeline keywords
_LAYOUT_KEYWORDS = dict(
    shards="n_shards", backend="fold_backend", fold_workers="workers",
    transport="transport", fold_timeout="fold_timeout",
    fold_retries="max_fold_retries", degrade="degrade",
)


def _resume_stream(store, stream_options: dict):
    """Resume a persisted run with the layout ``stream_options`` describe.

    The server's self-healing path and ``repro stream --resume``: the
    deployment parameters live in the store's snapshot (they must match
    the crashed run bit for bit), while the execution layout — shards,
    fold backend, transport, fault-tolerance knobs — is re-derived from
    the same options the original :meth:`ShuffleSession.stream` call
    took, so the recovered pipeline runs the way the operator
    configured it.  An option left out keeps the pipeline's default.
    """
    from ..service.sharded import ShardedPipeline

    return ShardedPipeline.resume(store, **{
        keyword: stream_options[option]
        for option, keyword in _LAYOUT_KEYWORDS.items()
        if option in stream_options
    })


class ShuffleSession:
    """A configured deployment, ready to estimate, sweep, or stream.

    Construction validates the (deployment, budget) pair against the
    mechanism registry's capability flags — e.g. a ``model="local"``
    budget refuses mechanisms whose factory amplifies a central target —
    so every verb can assume a coherent configuration.
    """

    def __init__(self, deployment: DeploymentConfig, budget: PrivacyBudget):
        self.deployment = deployment
        self.budget = budget
        if not deployment.is_auto:
            spec = deployment.spec
            if budget.model == "local" and not spec.local_model:
                raise ConfigError(
                    "model",
                    f"mechanism {spec.name!r} interprets eps as a central "
                    f"target (it amplifies); a model='local' budget needs a "
                    f"local-model mechanism such as OLH or Had",
                )

    def __repr__(self) -> str:
        return (
            f"ShuffleSession(mechanism={self.deployment.mechanism!r}, "
            f"d={self.deployment.d}, eps={self.budget.eps}, "
            f"model={self.budget.model!r})"
        )

    # -- one-shot ----------------------------------------------------------

    def estimate(
        self,
        histogram=None,
        *,
        values=None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> EstimateResult:
        """One mechanism run over a population; returns rich results.

        Give the population either as a length-``d`` ``histogram`` or as
        raw ``values`` in ``[0, d)`` (bincounted internally) — exactly one
        of the two.  The run draws support counts through the mechanism's
        ``estimate_from_histogram`` path (closed-form O(d) sampling where
        the spec declares it), identical to the legacy direct-oracle call.
        """
        spec = self.deployment.spec
        histogram = self._population_histogram(histogram, values)
        n = self.deployment.n
        if n is None:
            n = int(histogram.sum())
        if n < 1:
            raise ConfigError(
                "histogram", "population is empty; nothing to estimate"
            )
        mechanism = spec.build(
            self.deployment.d, n, self.budget.eps, self.budget.delta
        )
        estimates = mechanism.estimate_from_histogram(
            histogram, _resolve_rng(rng, seed)
        )
        # Local-randomizer provenance: central-model mechanisms (Lap, AUE,
        # Base) have no local spend even when they store a ``.eps`` —
        # their budget is the central one already carried by the result.
        if spec.central_only:
            eps_l = d_prime = None
        else:
            eps_l = getattr(mechanism, "eps", None)
            d_prime = getattr(mechanism, "d_prime", None)
        return EstimateResult(
            mechanism=spec.name,
            model=self.budget.model,
            d=self.deployment.d,
            n=n,
            eps=self.budget.eps,
            delta=self.budget.delta,
            estimates=estimates,
            amplification=Amplification(
                eps=self.budget.eps,
                eps_l=float(eps_l) if eps_l is not None else None,
                d_prime=int(d_prime) if d_prime is not None else None,
            ),
            variance=spec.variance(
                self.deployment.d, n, self.budget.eps, self.budget.delta
            ),
        )

    # -- sweeps ------------------------------------------------------------

    def sweep(
        self,
        histogram,
        eps_grid: Optional[Iterable[float]] = None,
        *,
        repeats: int = 10,
        workers: int = 1,
        backend: str = "thread",
        methods: Optional[Sequence[str]] = None,
        metric=_mse,
        skip_errors: bool = True,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> SweepResultSet:
        """Run the epsilon sweep on the deterministic trial-plan engine.

        ``eps_grid`` defaults to the session budget's single eps;
        ``methods`` defaults to the session's mechanism and may name any
        registered set for comparative sweeps (Figure 3 passes the full
        competitor list).  ``backend`` picks the trial executor:
        ``"thread"`` (default) or ``"process"`` (a spawn-safe pool that
        also parallelizes GIL-bound work).  Results are bit-identical at
        any ``workers`` count on either backend, and identical to calling
        :func:`repro.analysis.experiments.run_sweep` directly.
        """
        histogram = self._population_histogram(histogram, None)
        if eps_grid is None:
            eps_list = [self.budget.eps]
        else:
            eps_list = [float(e) for e in eps_grid]
        if not eps_list:
            raise ConfigError("eps_grid", "needs at least one epsilon value")
        if any(not e > 0.0 for e in eps_list):
            raise ConfigError(
                "eps_grid", f"every epsilon must be positive, got {eps_list}"
            )
        if repeats < 1:
            raise ConfigError("repeats", f"must be >= 1, got {repeats}")
        if workers < 1:
            raise ConfigError("workers", f"must be >= 1, got {workers}")
        if backend not in ("thread", "process"):
            raise ConfigError(
                "backend",
                f"trial backend must be 'thread' or 'process', got {backend!r}",
            )
        if methods is None:
            method_names = (self.deployment.spec.name,)
        else:
            method_names = tuple(
                resolve_mechanism(name).name for name in methods
            )
            if not method_names:
                raise ConfigError("methods", "needs at least one mechanism")
        if self.budget.model == "local":
            for name in method_names:
                if not resolve_mechanism(name).local_model:
                    raise ConfigError(
                        "model",
                        f"cannot sweep {name!r} under a model='local' "
                        f"budget; it prices eps as a central target",
                    )
        results = run_sweep(
            method_names,
            histogram,
            eps_list,
            self.budget.delta,
            _resolve_rng(rng, seed),
            repeats=repeats,
            metric=metric,
            skip_errors=skip_errors,
            workers=workers,
            backend=backend,
        )
        return SweepResultSet(
            results=tuple(results),
            eps_values=tuple(eps_list),
            delta=self.budget.delta,
            repeats=repeats,
            workers=workers,
            metric=getattr(metric, "__name__", str(metric)),
            d=self.deployment.d,
            n=int(histogram.sum()),
        )

    # -- streaming ---------------------------------------------------------

    def stream(
        self,
        flush_size: int,
        *,
        eps_targets: Optional[tuple] = None,
        admitted_flushes: Optional[int] = None,
        epoch_size: Optional[int] = None,
        admitted_epochs: Optional[int] = None,
        flush_empty: bool = False,
        keep_reports: bool = False,
        shards: int = 1,
        backend: str = "serial",
        fold_workers: Optional[int] = None,
        transport: str = "shm",
        fold_timeout: Optional[float] = None,
        fold_retries: int = 2,
        degrade: bool = True,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        crypto_rng=None,
        store=None,
    ):
        """Plan and wire a continuous deployment; returns the pipeline.

        The Section VI-D planner sizes one flush against the three
        adversary targets ``eps_targets = (eps_1, eps_2, eps_3)``; the
        default derives them from the session budget as ``(eps, 3 eps,
        6 eps)`` — the library's standard target ratio.  The lifetime
        budget admits either ``admitted_flushes`` full flushes (default 6)
        or, when ``epoch_size`` and ``admitted_epochs`` are given, that
        many epochs priced at the actual flush schedule including
        remainders.

        A session pinned to a streamable mechanism (``"SOLH"``/``"SH"``)
        restricts the planner to it; ``mechanism="auto"`` keeps the
        paper's free variance-optimal choice.

        Returns a :class:`~repro.service.sharded.ShardedPipeline`;
        ``shards`` and ``backend`` only pick its layout.  The defaults
        fold one shard inline; otherwise the flush stream is partitioned
        over ``shards`` aggregator shards, folded inline
        (``backend="serial"``) or on ``fold_workers`` spawn-safe worker
        processes (``backend="process"``).  This ``backend`` is the
        *fold executor* — the shuffle backend (plain/sequential/peos)
        stays a property of the :class:`DeploymentConfig`.  Estimates
        are bit-identical across every shard/backend combination at a
        fixed seed.

        ``store`` selects where the pipeline journals its durable state
        (budget ledger, flush log, epoch snapshots): ``None`` keeps the
        zero-overhead in-memory default; a
        :class:`~repro.persistence.sqlite.SqliteStateStore` makes the
        run crash-safe and resumable via ``ShardedPipeline.resume``
        (CLI: ``repro stream --state-db PATH --resume``).

        ``transport`` picks how process folds receive payloads —
        zero-copy ``"shm"`` (the default) or legacy ``"pickle"`` (CLI:
        ``--no-shm``); estimates are bit-identical either way.

        Fault tolerance (process folding only; inline serial folds
        have no worker to supervise):
        ``fold_timeout`` bounds one fold's wall time before it is
        treated as hung, ``fold_retries`` caps consecutive retries of a
        failed fold before the transport degrades one rung
        (shm -> pickle -> serial), and ``degrade=False`` fails hard
        instead of walking the ladder.  Retries and degradations never
        change estimates — folds are pure given their sequence-keyed
        entropy.
        """
        from ..service.backends import make_backend
        from ..service.pipeline import StreamConfig
        from ..service.sharded import FOLD_BACKENDS, ShardedPipeline

        if shards < 1:
            raise ConfigError("shards", f"must be >= 1, got {shards}")
        if backend not in FOLD_BACKENDS:
            raise ConfigError(
                "backend",
                f"fold backend must be one of {', '.join(FOLD_BACKENDS)}, "
                f"got {backend!r}",
            )
        if int(fold_retries) < 0:
            raise ConfigError(
                "fold_retries", f"must be >= 0, got {fold_retries}"
            )
        if self.budget.model == "local":
            raise ConfigError(
                "model",
                "streaming deployments plan against central targets; "
                "use a model='central' budget",
            )
        planner_mechanism = None
        if not self.deployment.is_auto:
            spec = self.deployment.spec
            if not spec.streamable or spec.planner_id is None:
                raise ConfigError(
                    "mechanism",
                    f"mechanism {spec.name!r} is not streamable; use "
                    f"'SOLH', 'SH', or 'auto' (planner's choice)",
                )
            planner_mechanism = spec.planner_id
        if eps_targets is None:
            eps_targets = (
                self.budget.eps, 3.0 * self.budget.eps, 6.0 * self.budget.eps
            )
        eps_targets = tuple(eps_targets)
        if len(eps_targets) != 3:
            raise ConfigError(
                "eps_targets",
                f"needs the three adversary targets (eps_1, eps_2, eps_3), "
                f"got {eps_targets!r}",
            )
        if (epoch_size is None) != (admitted_epochs is None):
            raise ConfigError(
                "epoch_size",
                "epoch-based budgeting needs both epoch_size and "
                "admitted_epochs (or neither)",
            )
        common = dict(
            eps_targets=eps_targets,
            delta=self.budget.delta,
            mechanism=planner_mechanism,
            backend=self.deployment.backend,
            r=self.deployment.r,
            composition=self.deployment.composition,
            flush_empty=flush_empty,
            keep_reports=keep_reports,
        )
        if epoch_size is not None:
            if admitted_flushes is not None:
                raise ConfigError(
                    "admitted_flushes",
                    "give either admitted_flushes or "
                    "(epoch_size, admitted_epochs), not both",
                )
            config = StreamConfig.for_epochs(
                d=self.deployment.d,
                flush_size=flush_size,
                epoch_size=epoch_size,
                admitted_epochs=admitted_epochs,
                **common,
            )
        else:
            config = StreamConfig.from_targets(
                d=self.deployment.d,
                flush_size=flush_size,
                admitted_flushes=(
                    6 if admitted_flushes is None else admitted_flushes
                ),
                **common,
            )
        backend_instance = None
        if crypto_rng is not None and self.deployment.backend != "plain":
            backend_instance = make_backend(
                self.deployment.backend, r=self.deployment.r,
                crypto_rng=crypto_rng,
            )
        return ShardedPipeline(
            config,
            _resolve_rng(rng, seed),
            n_shards=shards,
            fold_backend=backend,
            workers=fold_workers,
            backend=backend_instance,
            store=store,
            transport=transport,
            fold_timeout=fold_timeout,
            max_fold_retries=fold_retries,
            degrade=degrade,
        )

    # -- serving -----------------------------------------------------------

    def serve(
        self,
        flush_size: int,
        *,
        host: str = "127.0.0.1",
        port: int = 8000,
        max_pending: int = 64,
        max_body_bytes: Optional[int] = None,
        retry_after_s: float = 1.0,
        max_recoveries: int = 3,
        recovery_backoff_s: float = 0.05,
        store=None,
        **stream_options,
    ):
        """Wire the deployment behind an HTTP front door; returns the server.

        Plans the same pipeline :meth:`stream` would (every keyword
        :meth:`stream` takes is accepted and forwarded —
        ``eps_targets``, ``epoch_size``/``admitted_epochs``, ``shards``,
        ``backend``, ``transport``, ``seed``, ...) and wraps it in a
        :class:`~repro.server.app.TelemetryServer` listening on
        ``host:port`` (``port=0`` picks a free port, exposed as
        ``server.port`` after start).  ``max_pending`` bounds the ingest
        queue — the explicit backpressure limit behind HTTP 429 —
        and ``max_body_bytes`` caps one upload (413 beyond it).

        ``store`` may be a :class:`~repro.persistence.store.StateStore`
        instance *or a zero-argument callable* building one; prefer the
        callable for :class:`~repro.persistence.sqlite.SqliteStateStore`
        — the factory runs on the server's single ingest thread, so the
        SQLite connection is created by the thread that uses it.

        A *callable* ``store`` building a durable state store also makes
        the server self-healing: an ingest-thread crash triggers up to
        ``max_recoveries`` bounded-backoff (``recovery_backoff_s`` base)
        resumes from the store's write-ahead log instead of a permanent
        503 — health reports ``degraded`` during the attempt and returns
        to ``ok``.  A store instance or an in-memory store keeps the
        fail-hard behavior (the broken pipeline's state cannot be
        rebuilt), as does ``max_recoveries=0``.

        The server is started from async code::

            server = session.serve(1000, port=0, epoch_size=2000,
                                   admitted_epochs=4,
                                   store=lambda: SqliteStateStore(path))
            async with server:
                ...  # POST /api/reports, GET /api/estimates, ...

        Misconfiguration raises :class:`~repro.core.errors.ConfigError`
        naming the offending field — network knobs immediately, pipeline
        knobs when ``start()`` builds the pipeline.
        """
        from ..server.app import (
            RecoveryUnsupportedError,
            ServerConfig,
            TelemetryServer,
        )
        from ..server.http import MAX_BODY_BYTES

        config = ServerConfig(
            host=host,
            port=port,
            max_pending=max_pending,
            max_body_bytes=(
                MAX_BODY_BYTES if max_body_bytes is None else max_body_bytes
            ),
            retry_after_s=retry_after_s,
            max_recoveries=max_recoveries,
            recovery_backoff_s=recovery_backoff_s,
        )

        def opened(build):
            # build(store) on the deployment's store; one the factory
            # opened is closed again when the build fails.
            resolved = store() if callable(store) else store
            try:
                return build(resolved)
            except BaseException as failure:
                if resolved is not store:
                    try:
                        resolved.close()
                    except Exception as close_failure:
                        raise failure from close_failure
                raise

        def plan(resolved):
            return self.stream(flush_size, store=resolved, **stream_options)

        def resume(resolved):
            from ..persistence import StateStoreError

            if not getattr(resolved, "durable", False):
                raise RecoveryUnsupportedError(
                    "the deployment's store is not durable; nothing "
                    "survives an ingest crash to resume from"
                )
            try:
                return _resume_stream(resolved, stream_options)
            except StateStoreError as unreadable:
                raise RecoveryUnsupportedError(
                    f"durable store cannot be resumed: {unreadable}"
                ) from unreadable

        return TelemetryServer(
            lambda: opened(plan),
            config,
            recover_factory=(
                (lambda: opened(resume)) if callable(store) else None
            ),
        )

    # -- shared helpers ----------------------------------------------------

    def _population_histogram(self, histogram, values) -> np.ndarray:
        """Coerce the histogram-or-values input to a validated histogram."""
        if (histogram is None) == (values is None):
            raise ConfigError(
                "histogram", "give exactly one of histogram= or values="
            )
        d = self.deployment.d
        if values is not None:
            values = np.asarray(values)
            if values.dtype.kind not in "iub":
                # Refuse rather than floor-truncate 3.7 -> 3 silently.
                if values.size and not np.all(values == np.floor(values)):
                    raise ConfigError(
                        "values", f"values must be integers in [0, {d})"
                    )
            if values.size and (values.min() < 0 or values.max() >= d):
                raise ConfigError(
                    "values", f"values outside the domain [0, {d})"
                )
            return np.bincount(values.astype(np.int64), minlength=d)
        histogram = np.asarray(histogram)
        if histogram.shape != (d,):
            raise ConfigError(
                "histogram",
                f"must have shape ({d},) to match the deployment's domain, "
                f"got {histogram.shape}",
            )
        if histogram.dtype.kind not in "iub":
            # Same rule as values=: refuse rather than floor-truncate.
            if not np.all(histogram == np.floor(histogram)):
                raise ConfigError(
                    "histogram", "counts must be non-negative integers"
                )
        if histogram.size and histogram.min() < 0:
            raise ConfigError("histogram", "counts must be non-negative")
        return histogram.astype(np.int64)
