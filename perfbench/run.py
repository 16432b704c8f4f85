"""The repository benchmark: four workloads through the public API.

Run from the repository root::

    python3 perfbench/run.py --workload wide-fold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` makes one
untraced pass and one traced pass of the same workload and reports the
per-layer metrics of the traced pass plus ``trace.overhead_frac``.  The
last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``); the lines before it are a
human-readable table of every metric with its unit and sample count.
``--capacity`` runs http-mixed closed loop instead and prints its
capacity in uploads per second.  The exit code is 0 only when every
correctness gate and teardown check passed.

Everything runs in this one process: the server on its event loop, the
fold pool as its own children.  After every run the benchmark checks
that ``multiprocessing.active_children()`` is empty, that no
``repro_shm`` segment this process created remains in ``/dev/shm``,
and that every port a server listened on refuses connections.
SIGINT and SIGTERM close everything before the process exits.

Workloads
---------
Each takes its seed as an argument and generates its inputs before
timing starts.  Measured loops run for ``--seconds`` and then to the
end of the current epoch; they go on (up to three times as long) until
there are twenty epoch closes, so the epoch median always has ten
samples beyond it.

``wide-fold``
    SOLH, d=1024, memory store, process folds on two workers (the
    reference box has ``nproc`` = 2) over shared memory, 2048-value
    client batches, closed loop; 8192-report flushes, 16 submits per
    epoch.  The support-count kernel and the fold transport do almost
    all the work here, ingest and store almost none.  Gate: the first
    two epochs' estimates are byte-identical to a same-seed serial
    single-shard run, computed after the timed section.
``durable-ingest``
    SOLH, d=64, sqlite store in a scratch directory, serial folds,
    200-value submits, 45 per epoch, 2000-report flushes (so each
    epoch close also flushes a 1000-report remainder), closed loop.
    The ingest side (privatize, encode, journal commits) carries a
    large share of the cost, and it is the single-threaded baseline of
    a streaming job.  Gate: the first two epochs' estimates equal a
    memory-store run at the same seed.
``http-mixed``
    ``ShuffleSession.serve(port=0)``, SOLH, d=64, serial folds, sqlite
    store factory.  An open-loop generator sends 200-value uploads at a
    fixed offered rate of 270 uploads/s (54,000 reports/s) over two
    keep-alive connections, 4000-report flushes; a third connection
    closes an epoch every 0.25 s, reads one 64-row page of ``GET
    /api/estimates`` every 12.5 ms and polls ``/api/health`` every
    100 ms.  Only this workload
    exercises the front door's parse, validate and enqueue steps, the
    bounded queue, and reads competing with writes: ``GET
    /api/estimates`` runs ``epoch_log()`` on the single ingest thread
    that applies uploads.  Gate: the served estimates equal a replay
    of the accepted batches in ``submit_seq`` order.
``peos-secure``
    The PEOS backend with r=3 shufflers, 512-bit Paillier, d=8 and
    relaxed targets (12, 14, 16), which plan GRR with 20 fake reports
    per flush.  Ten one-value submits per epoch and a 20-report flush
    size, so each epoch's crypto runs once, inside ``end_epoch()``.
    Folds are serial.  The ``crypto`` and ``protocol`` layers (the
    paper's Table III) do almost all the work here and no work
    anywhere else.  Gate: every released multiset has ``n + n_fake``
    entries and contains the genuine encoded reports.

Every workload also fails its run on a refused flush, on any fold
retry, timeout, worker death or transport degradation (each skips or
reroutes work and would read as a speed-up), and when the reports
released differ from the reports submitted.

The offered rate of http-mixed
------------------------------
``--capacity`` runs the same pass with both upload connections in a
closed loop (pausing 5 ms after a 429) and counts accepted uploads.
On a 2-core x86-64 container it accepted 524 and 545 uploads/s in two
15-second runs (about 107,000 reports/s) with the analyst schedule
running, so the offered rate is fixed at about half of that, 270
uploads/s.  In ten 20-second runs at that rate
``ack_p99_ms`` read 6 to 13 ms against a 1.2 ms median, so queue wait
shows in the tail, and no upload was refused.  The rate is not searched per
run: on a coarse ladder of rates the highest sustainable step flips
from run to run.

End-to-end metrics
------------------
``setup_s`` is the median of seven set-ups per run (planning, pipeline
and store construction, fold-pool spawn plus ``warmup()``, server start
until ``/api/health`` is ok, PEOS key generation, always of the same
key).  ``reports_per_s`` counts genuine reports released per
second: on the closed loops it is the median over epochs of the
epoch's reports over the time from its first submit until its
estimate is out, which keeps a short stall of the shared machine from
moving the whole run; on http-mixed it is every accepted report over
the time from the first upload until the final estimates are out.  ``submit_p50_ms``/``submit_p99_ms`` time in-process
``submit()`` calls (on http-mixed, the ones the ingest thread makes);
submits that trigger a flush fold inline, so flush cost shows in the
tail.  ``epoch_close_p50_ms`` is ``end_epoch()`` in process and ``POST
/api/epochs`` over HTTP.  ``ack_p50_ms``/``ack_p99_ms`` time uploads
from when they were due, not when they were sent.  ``query_p50_ms``/
``query_p99_ms`` time page reads.  ``failed_frac`` is refused or failed
operations over attempted ones (a 429 is refused and not retried).
``peak_rss_mb`` is the peak resident memory of this process.

A percentile is printed only when at least ten samples lie beyond it;
otherwise the table says ``n/a`` beside the sample count.
``BENCHMARK.json`` gates the metrics that every workload reports with
enough samples and steadily enough: ``setup_s``, ``reports_per_s``,
``epoch_close_p50_ms`` and ``peak_rss_mb``.  ``submit_p50_ms`` is
printed but not gated: on peos-secure a submit takes about 30
microseconds and its median moved by 19% between runs.  The HTTP-only
metrics and the p99s cannot be gated because other workloads do not
have them.  ``failed_frac`` travels as the result's ``attempted`` and
``failed`` fields.

Per-layer metrics and what they should move
-------------------------------------------
The traced pass wraps, from this directory, the public methods of
``fo``, ``buffer``, ``accountant``, ``store``, ``backend``,
``shards[i]`` (``aggregator`` for the single-shard pipeline) and the
pipeline itself; ``submit`` and ``end_epoch`` are the root spans.
Each timed layer reports ``<name>.calls`` and ``<name>.s`` (self time).

* ``frequency_oracles.privatize``, ``frequency_oracles.encode_reports``,
  ``service.buffer.submit``, ``persistence.record_ingest``: move
  ``submit_p50_ms`` on durable-ingest, and ``ack_p99_ms`` and
  ``query_p99_ms`` on http-mixed through ``server.ingest_busy_frac``;
  they should not move wide-fold.
* ``hashing.support_counts``, ``frequency_oracles.decode_reports``,
  ``service.backends.shuffle``, ``service.aggregator.fold_counts``: move
  ``submit_p99_ms`` on durable-ingest; on wide-fold they run in the
  workers and are measured through ``service.sharded.fold_busy_s``,
  the sum of ``EpochReport.flush_latency_s``.
* ``service.sharded.fold_busy_s``, ``service.sharded.worker_busy_frac``,
  ``service.sharded.drain_wait_s``, ``service.shm.bytes_moved``,
  ``service.shm.peak_bytes``, ``hashing.seed_cache.hit_rate`` (from
  ``transport_stats()`` and ``seed_cache_stats()``): move
  ``reports_per_s`` and ``epoch_close_p50_ms`` on wide-fold.  On the
  serial workloads the first two measure the inline folds.
* ``persistence.record_flushes``, ``persistence.record_release``,
  ``persistence.record_epoch``, ``persistence.db_bytes``: move
  ``epoch_close_p50_ms`` and ``submit_p99_ms`` on durable-ingest.
* ``persistence.epoch_log``: moves ``query_p50_ms`` and
  ``query_p99_ms`` on http-mixed.
* ``server.pending.p50``/``server.pending.max`` (sampled from
  ``/api/health``), ``server.rejected_429``,
  ``server.ingest_busy_frac``, ``loadgen.late_p99_ms``: move
  ``ack_p99_ms`` and ``failed_frac`` on http-mixed.
* ``protocol.user_s``, ``protocol.shuffler_s`` (the busiest shuffler),
  ``protocol.server_s``, the matching ``*_bytes``, and
  ``crypto.keygen_s``: move ``reports_per_s``, ``epoch_close_p50_ms``
  and ``setup_s`` on peos-secure.
* ``service.accountant.charge``: should move nothing; it is kept for
  the refusal check.

Measured split (traced passes, seed 7, 20 s, 2-core x86-64 container):
on wide-fold the parent spends 99% of its time waiting in ``drain()``
while the two workers are 96-97% busy folding.  On durable-ingest
``hashing.support_counts`` takes 64-65% of the time and the ingest
side about a quarter (``privatize`` 12%, ``record_ingest`` 7%, the
rest of ``submit`` and ``encode_reports`` 4%), so there the kernel,
not ingest, is the largest cost.  On http-mixed the ingest thread is
busy 63% of the time; the kernel takes 27% of the wall time, and
``record_ingest`` took 4% in one run and 19% in another (its sqlite
commits share the file with the page reads).  On peos-secure
``service.backends.shuffle`` (the PEOS protocol) takes 99.9%, the
busiest shuffler a third of it.

A layer a workload does not exercise reports 0.  ``trace.overhead_frac``
is one minus the traced pass's reports per second (over the whole
pass) over the untraced pass's.  Spans are written to ``.bench_out/``
at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import resource
import shutil
import signal
import socket
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: set-ups per untraced run; the median is ``setup_s``
SETUP_REPEATS = 7

#: (name, unit) of the end-to-end metrics BENCHMARK.json gates
GATED = (
    ("setup_s", "s"),
    ("reports_per_s", "1/s"),
    ("epoch_close_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: span names whose ``.calls`` and ``.s`` are per-layer metrics
SPAN_LAYERS = (
    "submit",
    "end_epoch",
    "frequency_oracles.privatize",
    "frequency_oracles.encode_reports",
    "frequency_oracles.decode_reports",
    "hashing.support_counts",
    "service.buffer.submit",
    "service.accountant.charge",
    "service.backends.shuffle",
    "service.aggregator.fold_counts",
    "persistence.record_ingest",
    "persistence.record_flushes",
    "persistence.record_release",
    "persistence.record_epoch",
    "persistence.epoch_log",
)

#: (name, unit) of the per-layer metrics that are not span times
OTHER_LAYERS = (
    ("service.sharded.fold_busy_s", "s"),
    ("service.sharded.worker_busy_frac", "frac"),
    ("service.sharded.drain_wait_s", "s"),
    ("service.shm.bytes_moved", "B"),
    ("service.shm.peak_bytes", "B"),
    ("hashing.seed_cache.hit_rate", "frac"),
    ("persistence.db_bytes", "B"),
    ("server.pending.p50", "count"),
    ("server.pending.max", "count"),
    ("server.rejected_429", "count"),
    ("server.ingest_busy_frac", "frac"),
    ("loadgen.late_p99_ms", "ms"),
    ("protocol.user_s", "s"),
    ("protocol.shuffler_s", "s"),
    ("protocol.server_s", "s"),
    ("protocol.user_bytes", "B"),
    ("protocol.shuffler_bytes", "B"),
    ("protocol.server_bytes", "B"),
    ("crypto.keygen_s", "s"),
    ("trace.overhead_frac", "frac"),
)


def percentile(samples, q: float):
    """Nearest-rank ``q`` quantile, or None with fewer than ten beyond it."""
    if len(samples) * (1.0 - q) < 10:
        return None
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median(samples):
    return percentile(samples, 0.5) if samples else None


def end_to_end(result) -> dict:
    """Every end-to-end metric: ``name -> (value or None, unit, samples)``."""
    def ms(samples, q):
        value = percentile(samples, q)
        return (None if value is None else value * 1e3, "ms", len(samples))

    ordered_setups = sorted(result.setup_s)
    attempted = max(result.attempted, 1)
    return {
        "setup_s": (
            ordered_setups[(len(ordered_setups) - 1) // 2], "s",
            len(ordered_setups),
        ),
        "reports_per_s": (
            median(result.epoch_rates) if result.epoch_rates
            else result.reports / result.wall_s,
            "1/s", len(result.epoch_rates) or 1,
        ),
        "submit_p50_ms": ms(result.submit_s, 0.50),
        "submit_p99_ms": ms(result.submit_s, 0.99),
        "epoch_close_p50_ms": ms(result.close_s, 0.50),
        "ack_p50_ms": ms(result.ack_s, 0.50),
        "ack_p99_ms": ms(result.ack_s, 0.99),
        "query_p50_ms": ms(result.query_s, 0.50),
        "query_p99_ms": ms(result.query_s, 0.99),
        "failed_frac": (result.failed / attempted, "frac", attempted),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB", 1,
        ),
    }


def per_layer(tracer, traced, untraced) -> dict:
    """Every per-layer metric: ``name -> (value, unit)``."""
    times = tracer.layer_times()
    metrics = {}
    for name in SPAN_LAYERS:
        calls, __, self_s = times.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.s"] = (self_s, "s")
    values = dict(traced.layers)
    values["service.sharded.drain_wait_s"] = times.get(
        "service.sharded.drain", (0, 0.0, 0.0)
    )[2]
    if traced.pending:
        values["server.pending.p50"] = sorted(traced.pending)[
            (len(traced.pending) - 1) // 2
        ]
        values["server.pending.max"] = max(traced.pending)
    late = percentile(traced.late_s, 0.99)
    values["loadgen.late_p99_ms"] = 0.0 if late is None else late * 1e3
    values["trace.overhead_frac"] = 1.0 - (
        (traced.reports / traced.wall_s) / (untraced.reports / untraced.wall_s)
    )
    for name, unit in OTHER_LAYERS:
        metrics[name] = (values.get(name, 0), unit)
    return metrics


def print_layer_table(tracer, traced) -> None:
    times = tracer.layer_times()
    print(f"traced pass: {traced.wall_s:.3f} s wall")
    print(f"  {'layer':<36} {'calls':>9} {'total s':>10} {'self s':>10} "
          f"{'self %':>7}")
    for name, (calls, total, self_s) in sorted(
        times.items(), key=lambda item: -item[1][2]
    ):
        print(f"  {name:<36} {calls:>9} {total:>10.4f} {self_s:>10.4f} "
              f"{100.0 * self_s / traced.wall_s:>6.1f}%")


def teardown_problems(ports) -> list:
    """Children, shm segments or listening ports this process left."""
    from repro.service.shm import SEGMENT_PREFIX, leaked_segments

    problems = []
    children = multiprocessing.active_children()
    if children:
        problems.append(f"child processes still alive: {children}")
    ours = f"{SEGMENT_PREFIX}_{os.getpid()}_"
    leaked = [name for name in leaked_segments() if name.startswith(ours)]
    if leaked:
        problems.append(f"shared-memory segments left: {leaked}")
    for port in ports:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1.0):
                problems.append(f"port {port} still accepts connections")
        except OSError:
            pass
    return problems


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared memory started, if any."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(
        "wide-fold", "durable-ingest", "http-mixed", "peos-secure",
    ))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capacity", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import spans
        import workloads
    except ImportError as missing:
        print(f"cannot import the program under test: {missing}",
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, interrupt)
    signal.signal(signal.SIGINT, interrupt)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    ports: list = []

    def one_pass(tracer, setup_repeats, **options):
        files = tempfile.mkdtemp(dir=scratch)
        if args.workload == "http-mixed":
            return workloads.http_mixed(
                args.seed, args.seconds, tracer, setup_repeats, files,
                ports, **options,
            )
        run = {
            "wide-fold": workloads.wide_fold,
            "durable-ingest": workloads.durable_ingest,
            "peos-secure": workloads.peos_secure,
        }[args.workload]
        return run(args.seed, args.seconds, tracer, setup_repeats, files)

    tracer = None
    try:
        if args.capacity:
            result = one_pass(None, 1, rate=None)
        elif args.trace:
            untraced = one_pass(None, 1)
            tracer = spans.Tracer()
            result = one_pass(tracer, 1)
        else:
            result = one_pass(None, SETUP_REPEATS)
    except KeyboardInterrupt as stop:
        print(f"interrupted ({stop}); everything opened was closed",
              file=sys.stderr)
        for problem in teardown_problems(ports):
            print(f"FAILED: {problem}", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        stop_resource_tracker()
    problems = list(result.problems)
    if args.trace:
        problems += untraced.problems
    problems += teardown_problems(ports)

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    if args.capacity:
        uploads = result.reports / workloads.HTTP_BATCH / result.wall_s
        print(f"closed-loop capacity: {uploads:.1f} uploads/s over "
              f"{workloads.HTTP_CONNECTIONS} connections")
    e2e = end_to_end(untraced if args.trace else result)
    for name, (value, unit, samples) in e2e.items():
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"  {name:<20} {shown:>14} {unit:<5} n={samples}")
    if args.trace:
        print_layer_table(tracer, result)
        metrics = per_layer(tracer, result, untraced)
        for name, __ in OTHER_LAYERS:
            value, unit = metrics[name]
            print(f"  {name:<36} {value:>14.6g} {unit}")
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.dump(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {}
        for name, unit in GATED:
            value = e2e[name][0]
            if value is None:
                problems.append(f"{name} has too few samples")
                value = 0.0
            metrics[name] = (value, unit)
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
