"""Shared plumbing for the benchmark harness.

Every ``bench_*`` module reproduces one table or figure of the paper.  The
experiments run once per pytest invocation (``benchmark.pedantic`` with a
single round — re-running a full sweep dozens of times would measure
nothing new), print the paper-style table to stdout, and persist **two**
artifacts per bench through one shared writer:

* ``benchmarks/results/<name>.txt`` — the human-readable table;
* ``benchmarks/results/<name>.json`` — a machine-readable record in the
  single shared envelope (:data:`BENCH_SCHEMA`): run parameters, elapsed
  time, the table text, an optional structured sweep in the facade's
  ``SweepResultSet.to_dict()`` schema, and a free-form ``extra`` dict.
  Every bench emits this same schema (``tests/test_bench_schema.py``
  enforces both the envelope shape and that no bench writes JSON on the
  side).

An experiment callable returns either a plain table string or a
:class:`BenchResult` carrying the structured parts.

The streaming service's speed (process folds, sqlite ingest, the HTTP
front door) is measured and gated by the repo benchmark,
``perfbench/run.py``, not by a bench here.

Environment knobs:

* ``REPRO_BENCH_SCALE``  — population scale factor (default 0.1; ``1.0``
  reproduces the paper's n exactly and takes correspondingly longer).
* ``REPRO_BENCH_REPEATS`` — per-point repetitions (default 5; the paper
  used 100).
* ``REPRO_BENCH_SEED``   — RNG seed (default 2020, the paper's year).
* ``REPRO_BENCH_WORKERS`` — trial-plan worker threads for the sweep
  benches (default 1; results are bit-identical at any worker count).

Sweep benches are also runnable standalone (``python
benchmarks/bench_fig3_frequency_estimation.py --workers 4 --json out``),
which is what the CI benchmark smoke job uses; :func:`standalone_main`
implements the shared argument parsing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Union

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"

#: schema tag of the shared benchmark JSON envelope
BENCH_SCHEMA = "repro.bench/1"


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))


def bench_repeats() -> int:
    return int(os.environ.get("REPRO_BENCH_REPEATS", "5"))


def bench_workers() -> int:
    return int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


def bench_seed() -> int:
    return int(os.environ.get("REPRO_BENCH_SEED", "2020"))


def bench_rng() -> np.random.Generator:
    return np.random.default_rng(bench_seed())


@dataclass
class BenchResult:
    """What one benchmark experiment produced.

    ``table`` is the paper-style text; ``sweep`` (optional) is a
    ``repro.api.SweepResultSet`` — anything with a matching ``to_dict()``
    — for structured downstream consumption; ``extra`` holds bench-specific
    machine-readable values (throughput numbers, shape-check verdicts).
    """

    table: str
    sweep: Optional[object] = None
    extra: dict = field(default_factory=dict)


def _coerce(result: Union[str, BenchResult]) -> BenchResult:
    if isinstance(result, BenchResult):
        return result
    return BenchResult(table=str(result))


def _portable(value):
    """Map non-finite floats to null recursively: bare ``NaN`` tokens are
    invalid JSON (RFC 8259) and break non-Python consumers of the CI
    artifacts (jq, JSON.parse, ...)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _portable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_portable(item) for item in value]
    return value


def write_bench_json(
    name: str,
    result: BenchResult,
    elapsed: Optional[float] = None,
    path: Optional[str] = None,
) -> Path:
    """Persist one bench's machine-readable record — the single JSON schema.

    Every key is always present (None/{} when not applicable), so
    consumers never need per-bench special cases.  Output is strict
    RFC-8259 JSON: non-finite floats (infeasible sweep cells) serialize
    as null.
    """
    payload = {
        "schema": BENCH_SCHEMA,
        "name": name,
        "params": {
            "scale": bench_scale(),
            "repeats": bench_repeats(),
            "seed": bench_seed(),
            "workers": bench_workers(),
        },
        "elapsed_seconds": elapsed,
        "table": result.table,
        "sweep": result.sweep.to_dict() if result.sweep is not None else None,
        "extra": dict(result.extra),
    }
    target = Path(path) if path else RESULTS_DIR / f"{name}.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w") as handle:
        json.dump(_portable(payload), handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")
    return target


def emit(
    name: str,
    result: Union[str, BenchResult],
    elapsed: Optional[float] = None,
    json_path: Optional[str] = None,
) -> Path:
    """Print a result table and persist both artifacts (.txt + .json)."""
    result = _coerce(result)
    banner = f"\n=== {name} ===\n{result.table}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / f"{name}.txt", "w") as handle:
        handle.write(banner)
    return write_bench_json(name, result, elapsed=elapsed, path=json_path)


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def standalone_main(
    name: str,
    experiment: Callable[[], Union[str, BenchResult]],
    argv=None,
) -> int:
    """Shared CLI for running one sweep bench outside pytest.

    Parses the common knobs, exports them through the ``REPRO_BENCH_*``
    environment (the single configuration channel, so pytest and
    standalone runs read identical settings), runs the experiment once,
    prints the table, and writes the shared-schema JSON record — the
    artifact the CI benchmark smoke job uploads.
    """
    parser = argparse.ArgumentParser(
        prog=name, description=f"Run the {name} benchmark standalone."
    )
    parser.add_argument("--scale", type=float, default=bench_scale(),
                        help="population scale vs the paper's n")
    parser.add_argument("--repeats", type=int, default=bench_repeats())
    parser.add_argument("--seed", type=int, default=bench_seed())
    parser.add_argument("--workers", type=int, default=bench_workers(),
                        help="trial-plan worker threads (bit-identical "
                             "results at any worker count)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the shared-schema JSON record here "
                             f"(default benchmarks/results/{name}.json)")
    args = parser.parse_args(argv)

    os.environ["REPRO_BENCH_SCALE"] = repr(args.scale)
    os.environ["REPRO_BENCH_REPEATS"] = str(args.repeats)
    os.environ["REPRO_BENCH_SEED"] = str(args.seed)
    os.environ["REPRO_BENCH_WORKERS"] = str(args.workers)

    started = time.perf_counter()
    result = _coerce(experiment())
    elapsed = time.perf_counter() - started
    target = emit(name, result, elapsed=elapsed, json_path=args.json)
    print(f"[{name}] {elapsed:.2f}s with workers={args.workers}; "
          f"JSON written to {target}")
    return 0
