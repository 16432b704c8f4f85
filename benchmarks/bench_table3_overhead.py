"""Table III — computation and communication overhead of SS and PEOS.

The paper measures n = 10^6 users on a Xeon with C-backed crypto; this
reproduction runs the *same protocols* (real crypto, pure Python) at a
reduced ``n`` and extrapolates linearly — every per-report cost in both
protocols is linear in the number of reports for a fixed ``r`` (the
``C(r, floor(r/2)+1)`` round structure depends only on ``r``).

Reported per party, for r = 3 and r = 7:
  user comp (ms) / user comm (B) — per user;
  aux comp (s) / aux comm (MB)   — busiest shuffler, extrapolated to 10^6;
  server comp (s) / server comm (MB) — extrapolated to 10^6.

The paper's absolute numbers (Table III) are printed alongside for
comparison; the *shape* to check is PEOS shuffler compute orders of
magnitude below SS shuffler compute (no per-report public-key decryptions)
at the price of more shuffler communication.
"""

from __future__ import annotations

import os

import numpy as np

from repro.costs import CostTracker
from repro.crypto import dgk
from repro.frequency_oracles import SOLH
from repro.hashing import XXHash32Family
from repro.protocol import run_peos
from repro.shuffle import generate_keys, sequential_shuffle
from repro.shuffle.eos import plaintext_bits

from bench_common import bench_rng, bench_scale, emit, run_once

TARGET_N = 1_000_000

#: Paper's Table III (n = 10^6): metric -> {(protocol, r): value}
PAPER = {
    "user comp (ms)": {("SS", 3): 0.24, ("SS", 7): 0.49, ("PEOS", 3): 1.6, ("PEOS", 7): 1.6},
    "user comm (B)": {("SS", 3): 416, ("SS", 7): 800, ("PEOS", 3): 400, ("PEOS", 7): 432},
    "aux comp (s)": {("SS", 3): 49, ("SS", 7): 50, ("PEOS", 3): 0.2, ("PEOS", 7): 0.7},
    "aux comm (MB)": {("SS", 3): 224, ("SS", 7): 416, ("PEOS", 3): 429.8, ("PEOS", 7): 3293.3},
    "server comp (s)": {("SS", 3): 49, ("SS", 7): 49, ("PEOS", 3): 65, ("PEOS", 7): 65},
    "server comm (MB)": {("SS", 3): 128, ("SS", 7): 128, ("PEOS", 3): 392, ("PEOS", 7): 408},
}


def _bench_n() -> int:
    return int(os.environ.get("REPRO_BENCH_TABLE3_N", max(60, int(600 * bench_scale()))))


def _key_bits() -> int:
    return int(os.environ.get("REPRO_BENCH_KEYBITS", "512"))


def _run_ss(r: int, n: int, rng) -> CostTracker:
    keys = generate_keys(r, rng=2020 + r)
    fo = SOLH(64, 2.0, 8, family=XXHash32Family())
    reports = fo.encode_reports(fo.privatize(rng.integers(0, 64, n), rng))
    tracker = CostTracker()
    sequential_shuffle(
        [int(x) for x in reports], fo.report_space, keys,
        n_fake=0, rng=rng, crypto_rng=7, tracker=tracker,
    )
    return tracker


def _run_peos(r: int, n: int, rng) -> CostTracker:
    fo = SOLH(64, 2.0, 8, family=XXHash32Family())
    # The paper's AHE (Section VI-A3): DGK over Z_{2^l}, l sized for the
    # report space exactly as the streaming PEOS backend sizes it.
    pub, priv = dgk.generate_keypair(
        l=plaintext_bits(fo.report_space, r), key_bits=_key_bits(), rng=2020 + r
    )
    tracker = CostTracker()
    # rerandomize=False reproduces the paper's shuffler cost model
    # ("C(r,t) n/r homomorphic additions"); see the EOS docstring.
    run_peos(
        rng.integers(0, 64, n), fo, r=r, n_fake=0, ahe_public=pub,
        ahe_decrypt=priv.decrypt, rng=rng, crypto_rng=7, tracker=tracker,
        rerandomize=False,
    )
    return tracker


def _rows(tracker: CostTracker, n: int) -> dict[str, float]:
    factor = TARGET_N / n
    user = tracker.cost("user")
    aux = tracker.max_cost("shuffler")
    server = tracker.cost("server")
    return {
        "user comp (ms)": user.compute_seconds / n * 1000,
        "user comm (B)": user.bytes_sent / n,
        "aux comp (s)": aux.compute_seconds * factor,
        "aux comm (MB)": aux.bytes_sent * factor / 1e6,
        "server comp (s)": server.compute_seconds * factor,
        "server comm (MB)": server.bytes_received * factor / 1e6,
    }


def _experiment() -> str:
    rng = bench_rng()
    n = _bench_n()
    measured: dict[tuple[str, int], dict[str, float]] = {}
    for r in (3, 7):
        measured[("SS", r)] = _rows(_run_ss(r, n, rng), n)
        measured[("PEOS", r)] = _rows(_run_peos(r, n, rng), n)

    columns = [("SS", 3), ("SS", 7), ("PEOS", 3), ("PEOS", 7)]
    header = f"{'metric':<18}" + "".join(f"  {p}(r={r}):<meas/paper>" for p, r in columns)
    lines = [
        f"Measured at n={n} (pure-Python crypto, {_key_bits()}-bit DGK), "
        f"extrapolated linearly to n={TARGET_N}.",
        f"Paper: n=10^6, C crypto, 3072-bit DGK — absolute numbers differ; "
        f"compare shapes.",
        "",
        f"{'metric':<18}" + "".join(f"  {p}-r{r:<14}" for p, r in columns),
    ]
    for metric in PAPER:
        cells = []
        for column in columns:
            meas = measured[column][metric]
            paper = PAPER[metric][column]
            cells.append(f"  {meas:>7.2f}/{paper:<8g}")
        lines.append(f"{metric:<18}" + "".join(cells))
    lines.append("")
    lines.append("cells are measured/paper")

    checks = [
        (
            "PEOS aux compute << SS aux compute (r=3)",
            measured[("PEOS", 3)]["aux comp (s)"]
            < measured[("SS", 3)]["aux comp (s)"] / 5,
        ),
        (
            "PEOS aux communication > SS aux communication (r=7)",
            measured[("PEOS", 7)]["aux comm (MB)"]
            > measured[("SS", 7)]["aux comm (MB)"],
        ),
        (
            "SS user cost grows with r, PEOS user cost does not",
            measured[("SS", 7)]["user comm (B)"]
            > measured[("SS", 3)]["user comm (B)"] * 1.5
            and measured[("PEOS", 7)]["user comm (B)"]
            < measured[("PEOS", 3)]["user comm (B)"] * 1.5,
        ),
    ]
    lines += [f"  [{'ok' if ok else 'MISMATCH'}] {label}" for label, ok in checks]
    return "\n".join(lines)


def bench_table3(benchmark):
    """Regenerate Table III (protocol overhead, measured + extrapolated)."""
    table = run_once(benchmark, _experiment)
    emit("table3_overhead", table)
    assert "MISMATCH" not in table
