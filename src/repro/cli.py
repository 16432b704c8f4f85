"""Command-line interface: run any of the paper's experiments directly.

``python -m repro <experiment> [options]`` (equivalently ``python -m
repro.cli`` or the installed ``repro`` script) regenerates one table or
figure without going through pytest — convenient for parameter sweeps:

.. code-block:: bash

    python -m repro fig3 --scale 0.2 --repeats 10
    python -m repro table2 --eps 0.2 0.4 0.6 0.8
    python -m repro fig4 --scale 0.5
    python -m repro plan --eps1 0.5 --eps2 2.0 --eps3 5.0 --n 500000 --d 200
    python -m repro table1
    python -m repro stream --epochs 4 --epoch-size 2000 --d 32
    python -m repro stream --epochs 4 --epoch-size 20000 --shards 4 \
        --fold-backend process
    python -m repro serve --port 8000 --max-pending 64 --state-db run.db

The pipeline-shaped commands (``fig3``, ``table2``, ``stream``) are thin
clients of the :mod:`repro.api` facade — the same ``ShuffleSession``
verbs any library consumer uses.

``stream`` runs the continuous telemetry service of :mod:`repro.service`
on a synthetic Zipf workload: per-epoch metrics, cross-epoch budget
accounting, and (by default) one epoch more than the budget admits so the
accountant's flush rejection is visible.  ``serve`` runs the same
pipeline behind the HTTP front door of :mod:`repro.server`, so the two
share one group of deployment flags, declared once.  Only
``--budget-epochs`` is per command, as its default differs (``stream``:
one fewer than ``--epochs``; ``serve``: 4).  ``ShuffleSession`` and
``StreamConfig`` are the only validators of those flags.

Exit codes: 0 on success; 2 for any ``ConfigError``,
``InfeasiblePlanError`` or ``StateStoreError``, printing the library's
message (:func:`main` is the one place that maps them); 3 for
``stream --crash-after-epoch``'s simulated crash.

The heavy protocol benchmark (Table III) stays in
``benchmarks/bench_table3_overhead.py`` because its timing harness needs
pytest-benchmark.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.core import (
        csuzz_amplified_epsilon,
        efmrtt_amplified_epsilon,
        grr_amplified_epsilon,
    )

    print(f"{'eps_l':>6}  {'EFMRTT19':>10}  {'CSUZZ19':>10}  {'BBGN19':>10}")
    for eps_l in args.eps:
        try:
            efmrtt = f"{efmrtt_amplified_epsilon(eps_l, args.n, args.delta):10.4f}"
        except ValueError:
            efmrtt = f"{'n/a':>10}"
        csuzz = csuzz_amplified_epsilon(eps_l, args.n, args.delta)
        bbgn = grr_amplified_epsilon(eps_l, args.n, 2, args.delta)
        print(f"{eps_l:6.2f}  {efmrtt}  {csuzz:10.4f}  {bbgn:10.4f}")
    return 0


def _session(args: argparse.Namespace, mechanism: str, d: int):
    """One facade session per CLI experiment (the single front door)."""
    from repro.api import DeploymentConfig, PrivacyBudget, ShuffleSession

    eps = min(args.eps) if getattr(args, "eps", None) else args.eps1
    return ShuffleSession(
        DeploymentConfig(
            mechanism=mechanism,
            d=d,
            backend=getattr(args, "backend", "plain"),
            r=getattr(args, "shufflers", 3),
            composition=getattr(args, "composition", "basic"),
        ),
        PrivacyBudget(eps=eps, delta=args.delta),
    )


def _fold_layout(args: argparse.Namespace) -> dict:
    """The execution layout ``stream`` and ``serve`` share, as facade options.

    Shards, fold executor, transport and fault tolerance: none of them
    changes an estimate, so a resume picks them fresh from the same dict.
    """
    return dict(
        shards=args.shards,
        backend=args.fold_backend,
        fold_workers=args.fold_workers,
        transport="pickle" if args.no_shm else "shm",
        fold_timeout=args.fold_timeout,
        fold_retries=args.fold_retries,
        degrade=not args.no_degrade,
    )


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.analysis import FIGURE3_METHODS
    from repro.data import ipums_like

    rng = np.random.default_rng(args.seed)
    data = ipums_like(rng, scale=args.scale)
    sweep = _session(args, "SOLH", data.d).sweep(
        data.histogram, args.eps, methods=FIGURE3_METHODS,
        repeats=args.repeats, workers=args.workers, rng=rng,
    )
    print(sweep.table(caption=f"IPUMS-like n={data.n}, d={data.d}, MSE"))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.core import solh_optimal_d_prime
    from repro.data import kosarak_like

    rng = np.random.default_rng(args.seed)
    data = kosarak_like(rng, scale=args.scale)
    sweep = _session(args, "SOLH", data.d).sweep(
        data.histogram, args.eps, methods=("SOLH", "RAP_R"),
        repeats=args.repeats, workers=args.workers, rng=rng,
    )
    solh_row, rap_r_row = sweep["SOLH"].means, sweep["RAP_R"].means
    print(f"Kosarak-like n={data.n}, d={data.d}")
    print(f"{'eps_c':>6}  {'d-prime':>8}  {'SOLH MSE':>12}  {'RAP_R MSE':>12}")
    for i, eps_c in enumerate(args.eps):
        d_prime = solh_optimal_d_prime(eps_c, data.n, args.delta)
        print(f"{eps_c:>6.2f}  {d_prime:>8}  {solh_row[i]:>12.3e}  "
              f"{rap_r_row[i]:>12.3e}")
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from repro.analysis import precision_at_k, treehist
    from repro.data import aol_like

    rng = np.random.default_rng(args.seed)
    data = aol_like(rng, scale=args.scale)
    truth = data.top_k(args.k)
    print(f"AOL-like n={data.n}; top-{args.k} precision")
    print(f"{'method':<7}" + "".join(f"  eps={e:<6}" for e in args.eps))
    for method in args.methods:
        cells = []
        for eps in args.eps:
            try:
                result = treehist(
                    data, method, eps, args.delta, rng, k=args.k,
                    composition=args.composition,
                )
                cells.append(f"{precision_at_k(truth, result.discovered):<10.2f}")
            except ValueError:
                cells.append(f"{'n/a':<10}")
        print(f"{method:<7}  " + "  ".join(cells))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.core import plan_peos

    plan = plan_peos(
        args.eps1, args.eps2, args.eps3, args.n, args.d, args.delta
    )
    print(f"mechanism : {plan.mechanism}")
    print(f"eps_l     : {plan.eps_l:.4f}")
    print(f"d'        : {plan.d_prime}")
    print(f"n_r       : {plan.n_r}")
    print(f"variance  : {plan.variance:.3e}")
    print(f"achieved  : Adv={plan.eps_server:.4f}  Adv_u={plan.eps_collusion:.4f}  "
          f"Adv_a={plan.eps_local:.4f}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.api import ConfigError
    from repro.api.session import _resume_stream
    from repro.data import zipf_histogram
    from repro.data.synthetic import values_from_histogram
    from repro.persistence import SqliteStateStore
    from repro.service import flushes_per_epoch
    from repro.service.pipeline import check_sizes

    if args.resume and args.state_db is None:
        raise ConfigError("state_db", "--resume requires --state-db")
    if args.crash_after_epoch is not None and args.crash_after_epoch < 1:
        raise ConfigError(
            "crash_after_epoch", f"must be >= 1, got {args.crash_after_epoch}"
        )
    budget_epochs = (
        args.budget_epochs
        if args.budget_epochs is not None
        else max(1, args.epochs - 1)
    )
    # Raises ConfigError naming state_db on a missing parent directory or
    # an unwritable path.
    store = SqliteStateStore(args.state_db) if args.state_db else None
    layout = _fold_layout(args)
    pipeline = None
    try:
        if args.resume:
            # The stored run ignores the sizing flags, but they still size
            # the synthetic workload and the admitted-flush count below.
            check_sizes(
                flush_size=args.flush_size, epoch_size=args.epoch_size,
                admitted_epochs=budget_epochs,
            )
            pipeline = _resume_stream(store, layout)
            print(f"resumed from {args.state_db}: "
                  f"{pipeline.epochs_completed} epoch(s) and "
                  f"{pipeline.n_submits} submission(s) already applied")
        else:
            # The facade plans the deployment ("auto" lets Section VI-D
            # pick the mechanism) and returns the wired pipeline — sharded
            # across fold processes when --shards/--fold-backend say so.
            pipeline = _session(args, "auto", args.d).stream(
                args.flush_size,
                eps_targets=(args.eps1, args.eps2, args.eps3),
                epoch_size=args.epoch_size,
                admitted_epochs=budget_epochs,
                rng=np.random.default_rng(args.seed),
                crypto_rng=args.seed,
                store=store,
                **layout,
            )
        config = pipeline.config
        plan = config.plan
        admitted = budget_epochs * flushes_per_epoch(
            args.epoch_size, args.flush_size
        )
        # The workload generator and the pipeline's ingest share one rng
        # (restored from the checkpoint on resume), so a resumed run's
        # synthetic epochs continue the uninterrupted run's exact stream.
        rng = pipeline.rng

        sharding = (
            f", {args.shards} shard(s) folded via {args.fold_backend}"
            if args.shards > 1 or args.fold_backend != "serial"
            else ""
        )
        print(f"plan (per flush of {config.flush_size} reports): "
              f"mechanism={plan.mechanism.upper()}  eps_l={plan.eps_l:.3f}  "
              f"d'={plan.d_prime}  n_r={plan.n_r}")
        print(f"per-flush release: eps={plan.eps_server:.4f}  delta={plan.delta:.2g}")
        print(f"lifetime budget  : eps={config.eps_budget:.4f}  "
              f"delta={config.delta_budget:.2g}  "
              f"({args.composition} composition, admits {admitted} flushes; "
              f"backend={args.backend}{sharding})\n")

        submitted: list[np.ndarray] = []
        print(f"{'epoch':>5}  {'flushes':>7}  {'rejected':>8}  {'released':>8}  "
              f"{'fakes':>7}  {'latency_s':>9}  {'reports/s':>10}  {'eps_spent':>9}")
        start_epoch = pipeline.epochs_completed if args.resume else 0
        for epoch in range(start_epoch, args.epochs):
            # The submit cursor: one submission per epoch, so a crash
            # between a submit's commit and its epoch close resumes with
            # the epoch already fed — close it without re-submitting.
            if not (epoch == start_epoch
                    and pipeline.n_submits > start_epoch):
                histogram = zipf_histogram(
                    args.epoch_size, args.d, args.exponent, rng
                )
                values = values_from_histogram(histogram, rng)
                submitted.append(values)
                pipeline.submit(values)
            report = pipeline.end_epoch()
            print(f"{report.epoch:>5}  {report.n_flushes:>7}  "
                  f"{report.n_rejected:>8}  "
                  f"{report.n_reports:>8}  {report.n_fake:>7}  "
                  f"{report.flush_latency_s:>9.3f}  {report.reports_per_sec:>10.0f}  "
                  f"{report.eps_spent:>9.4f}")
            if (args.crash_after_epoch is not None
                    and pipeline.epochs_completed >= args.crash_after_epoch):
                # Honest kill semantics: no flush, no close, no atexit —
                # exactly what the crash-recovery protocol must survive.
                print(f"simulated crash after epoch {report.epoch}",
                      file=sys.stderr)
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(3)

        result = pipeline.result()
        if result.rejections:
            first = result.rejections[0]
            print(f"\nbudget refusals: {result.n_rejected} flush(es) dropped "
                  f"(first at epoch {first.epoch}, flush {first.sequence}):")
            print(f"  {first.reason}")

        print(f"\nfinal estimates over {result.n_genuine} released reports "
              f"(+{result.n_fake} fakes):")
        if result.n_genuine > 0 and not args.resume:
            released = pipeline.released_values(np.concatenate(submitted))
            truth = np.bincount(released, minlength=args.d) / result.n_genuine
            mse = float(np.mean((result.estimates - truth) ** 2))
            top = np.argsort(truth)[::-1][:5]
            print(f"  MSE vs released-population truth: {mse:.3e}")
            for v in top:
                print(f"  value {v:>4}: true {truth[v]:.4f}  "
                      f"estimated {result.estimates[v]:.4f}")
        elif result.n_genuine > 0:
            # The crashed run's raw values died with it — by design, the
            # store persists only privatized reports and counts.
            print("  (MSE vs truth unavailable on resume: raw workload "
                  "values are never persisted)")
        else:
            print("  (no flush was admitted)")

        # Transport / fault telemetry, so operators see how the folds ran
        # without running benches.
        stats = pipeline.transport_stats()
        print(f"\ntransport ({stats['transport']}): "
              f"{stats['bytes_moved']:,} payload bytes moved, "
              f"shm peak {stats['shm_peak_bytes']:,} bytes")
        stats = pipeline.fault_stats()
        if any(stats[k] for k in ("fold_retries", "fold_timeouts",
                                  "worker_deaths", "pool_rebuilds",
                                  "degradations")):
            print(f"faults absorbed: {stats['fold_retries']} retried "
                  f"fold(s), {stats['fold_timeouts']} timeout(s), "
                  f"{stats['worker_deaths']} worker death(s), "
                  f"{stats['pool_rebuilds']} pool rebuild(s)")
            for hop in stats["degradations"]:
                print(f"  transport degraded {hop['from']} -> "
                      f"{hop['to']}: {hop['reason']}")

        if args.estimates_out:
            payload = {
                "estimates": [float(x) for x in result.estimates],
                "eps_spent": result.eps_spent,
                "delta_spent": result.delta_spent,
                "n_genuine": result.n_genuine,
                "n_fake": result.n_fake,
                "n_rejected": result.n_rejected,
                "epochs": len(result.epochs),
            }
            with open(args.estimates_out, "w") as sink:
                json.dump(payload, sink, indent=2)
                sink.write("\n")
    finally:
        # The pipeline may hold a process pool and shm; never leak them.
        if pipeline is not None:
            pipeline.close()
        if store is not None:
            store.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from functools import partial

    from repro.persistence import SqliteStateStore

    # A store factory: the store opens on the server's ingest thread, so
    # the SQLite connection is owned by the thread that uses it.
    store = partial(SqliteStateStore, args.state_db) if args.state_db else None
    server = _session(args, "auto", args.d).serve(
        args.flush_size,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        max_body_bytes=args.max_body_bytes,
        retry_after_s=args.retry_after,
        store=store,
        eps_targets=(args.eps1, args.eps2, args.eps3),
        epoch_size=args.epoch_size,
        admitted_epochs=args.budget_epochs,
        max_recoveries=args.max_recoveries,
        seed=args.seed,
        crypto_rng=args.seed,
        **_fold_layout(args),
    )
    return asyncio.run(_serve_until_signal(server))


async def _serve_until_signal(server) -> int:
    """Run the front door until SIGTERM/SIGINT, then shut down cleanly.

    Clean shutdown is the contract ``tests/test_cli.py`` pins against a
    separate ``repro serve`` process: drain accepted uploads into the
    pipeline, close it (releasing fold workers and unlinking every
    shared-memory segment), close the state store, exit 0.
    """
    import asyncio
    import signal

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    try:
        await server.start()
        plan = server.pipeline.config.plan
        print(f"serving on http://{server.config.host}:{server.port}  "
              f"(mechanism={plan.mechanism.upper()}, d'={plan.d_prime}, "
              f"max_pending={server.config.max_pending})", flush=True)
        print("endpoints: POST /api/reports  POST /api/epochs  "
              "GET /api/health  GET /api/config  GET /api/estimates",
              flush=True)
        await stop.wait()
        print("signal received; draining the ingest queue", flush=True)
    finally:
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.remove_signal_handler(signum)
        await server.stop()
    print("shutdown complete", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from the shuffle-DP paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=2020)
        p.add_argument("--delta", type=float, default=1e-9)
        p.add_argument("--scale", type=float, default=0.1,
                       help="population scale vs the paper's n")
        p.add_argument("--repeats", type=int, default=5)

    p = sub.add_parser("table1", help="amplification-bound comparison")
    p.add_argument("--eps", type=float, nargs="+",
                   default=[0.1, 0.25, 0.49, 1.0, 2.0])
    p.add_argument("--n", type=int, default=602_325)
    p.add_argument("--delta", type=float, default=1e-9)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("fig3", help="MSE vs eps_c on IPUMS")
    common(p)
    p.add_argument("--eps", type=float, nargs="+",
                   default=[0.1, 0.2, 0.4, 0.6, 0.8, 1.0])
    p.add_argument("--workers", type=int, default=1,
                   help="trial-plan worker threads (results are "
                        "bit-identical at any worker count)")
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("table2", help="SOLH vs RAP_R on Kosarak")
    common(p)
    p.add_argument("--eps", type=float, nargs="+", default=[0.2, 0.4, 0.6, 0.8])
    p.add_argument("--workers", type=int, default=1,
                   help="trial-plan worker threads (results are "
                        "bit-identical at any worker count)")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("fig4", help="succinct-histogram precision on AOL")
    common(p)
    p.add_argument("--eps", type=float, nargs="+", default=[0.2, 0.6, 1.0])
    p.add_argument("--k", type=int, default=32)
    p.add_argument("--methods", nargs="+",
                   default=["OLH", "SH", "SOLH", "RAP_R", "Lap"])
    p.add_argument("--composition", choices=["basic", "advanced"],
                   default="basic")
    p.set_defaults(func=_cmd_fig4)

    def deployment(p: argparse.ArgumentParser) -> None:
        # The flags stream and serve share: one deployment, two front ends.
        p.add_argument("--seed", type=int, default=2020)
        p.add_argument("--delta", type=float, default=1e-9)
        p.add_argument("--d", type=int, default=32)
        p.add_argument("--flush-size", type=int, default=1000)
        p.add_argument("--epoch-size", type=int, default=2000,
                       help="reports per epoch (serve: expected); prices "
                            "the lifetime budget with --budget-epochs")
        p.add_argument("--eps1", type=float, default=1.0)
        p.add_argument("--eps2", type=float, default=3.0)
        p.add_argument("--eps3", type=float, default=6.0)
        p.add_argument("--backend", choices=["plain", "sequential", "peos"],
                       default="plain")
        p.add_argument("--shufflers", type=int, default=3)
        p.add_argument("--composition", choices=["basic", "advanced"],
                       default="basic")
        p.add_argument("--shards", type=int, default=1,
                       help="fold-aggregator shards (estimates are "
                            "bit-identical at any shard count)")
        p.add_argument("--fold-backend", choices=["serial", "process"],
                       default="serial",
                       help="fold executor: inline, or a spawn-safe process "
                            "pool (requires --backend plain)")
        p.add_argument("--no-shm", action="store_true",
                       help="ship process-fold batches by pickling instead "
                            "of zero-copy shared memory (bit-identical, "
                            "slower)")
        p.add_argument("--fold-workers", type=int, default=None,
                       help="fold worker processes (default: "
                            "min(shards, cores))")
        p.add_argument("--fold-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="treat a process fold exceeding this wall time "
                            "as hung and retry it (default: no timeout)")
        p.add_argument("--fold-retries", type=int, default=2,
                       help="consecutive retries of a failed fold before "
                            "the transport degrades one rung "
                            "(shm -> pickle -> serial)")
        p.add_argument("--no-degrade", action="store_true",
                       help="fail hard when the fold retry budget is spent "
                            "instead of degrading the transport")
        p.add_argument("--fail-point", action="append", default=None,
                       metavar="SPEC",
                       help="chaos testing: arm a failpoint, e.g. "
                            "'fold.worker:kill:every=3', "
                            "'store.commit:raise:once' or "
                            "'server.ingest:raise:at=1' (repeatable; "
                            "estimates stay bit-identical when the run "
                            "survives)")
        p.add_argument("--state-db", default=None, metavar="PATH",
                       help="journal budget charges, the flush log and "
                            "epoch snapshots to this SQLite file "
                            "(crash-safe; requires --backend plain)")

    p = sub.add_parser("stream", help="streaming telemetry service demo")
    deployment(p)
    p.add_argument("--epochs", type=int, default=4)
    p.add_argument("--budget-epochs", type=int, default=None,
                   help="epochs the lifetime budget admits (default one "
                        "fewer than --epochs, so a rejection is shown)")
    p.add_argument("--exponent", type=float, default=1.3,
                   help="Zipf exponent of the synthetic workload")
    p.add_argument("--resume", action="store_true",
                   help="resume the run stored in --state-db instead of "
                        "starting fresh (pass the same flags as the "
                        "original run)")
    p.add_argument("--crash-after-epoch", type=int, default=None,
                   metavar="N",
                   help="testing hook: hard-exit (os._exit, status 3) once "
                        "N epochs have completed")
    p.add_argument("--estimates-out", default=None, metavar="PATH",
                   help="write final estimates and spend totals as JSON")
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("serve", help="HTTP front door over the pipeline")
    deployment(p)
    p.add_argument("--budget-epochs", type=int, default=4,
                   help="epochs the lifetime budget admits")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8000,
                   help="listen port (0 picks a free one, printed at start)")
    p.add_argument("--max-pending", type=int, default=64,
                   help="ingest-queue bound; beyond it uploads get HTTP "
                        "429 with a Retry-After header")
    p.add_argument("--max-body-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="per-request body cap (HTTP 413 beyond it; "
                        "default 8 MiB)")
    p.add_argument("--retry-after", type=float, default=1.0,
                   metavar="SECONDS",
                   help="delay advertised in the 429 Retry-After header")
    p.add_argument("--max-recoveries", type=int, default=3,
                   help="ingest-crash recovery attempts from --state-db "
                        "before the server fails hard (0 disables "
                        "self-healing)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "lint",
        help="static invariant linter (determinism, ownership, resources, "
             "error discipline; see repro.devtools)",
    )
    from repro.devtools.cli import build_lint_parser, run_lint

    build_lint_parser(p)
    p.set_defaults(func=run_lint)

    p = sub.add_parser("plan", help="Section VI-D PEOS planner")
    p.add_argument("--eps1", type=float, required=True)
    p.add_argument("--eps2", type=float, required=True)
    p.add_argument("--eps3", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=float, default=1e-9)
    p.set_defaults(func=_cmd_plan)

    return parser


def main(argv=None) -> int:
    """Run one command: the one place that arms failpoints and exits 2."""
    args = build_parser().parse_args(argv)
    from repro.api import ConfigError
    from repro.core import InfeasiblePlanError
    from repro.persistence import StateStoreError

    try:
        if getattr(args, "fail_point", None):
            from repro.faults import install

            # Arms this process and exports REPRO_FAIL_POINTS so spawned
            # fold workers self-arm; a junk spec is a ConfigError.
            install(args.fail_point)
        return args.func(args)
    except (ConfigError, InfeasiblePlanError, StateStoreError) as refused:
        # A field the library names, targets no plan meets, or a store
        # that holds the wrong run: a clean exit 2, never a traceback.
        print(f"error: {refused}", file=sys.stderr)
        if isinstance(refused, InfeasiblePlanError):
            print("hint: relax the eps targets or enlarge the population "
                  "(--flush-size; --n for plan)", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
