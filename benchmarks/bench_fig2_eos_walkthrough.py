"""Figure 2 — the EOS walkthrough (r = 3 shufflers, n = 3 values a, b, c).

Reproduces the figure's scenario end to end: three secrets secret-shared
across three shufflers with one encrypted share, one full EOS execution,
and the server-side reconstruction — asserting the defining properties the
figure illustrates (multiset preserved, ciphertext share migrates, every
single shuffler remains blind to the permutation).
"""

from __future__ import annotations

import numpy as np

from repro.crypto import dgk
from repro.crypto.secret_sharing import share_vector
from repro.shuffle import encrypted_oblivious_shuffle, server_reconstruct
from repro.shuffle.eos import plaintext_bits

from bench_common import bench_rng, emit, run_once

M = 1 << 16


def _experiment() -> str:
    rng = bench_rng()
    pub, priv = dgk.generate_keypair(
        l=plaintext_bits(M, 3), key_bits=512, rng=2020
    )
    a, b, c = 0x0A, 0x0B, 0x0C
    values = np.array([a, b, c], dtype=np.int64)
    shares = share_vector(values, 3, M, rng)
    encrypted = [pub.encrypt(int(s), 1 + i) for i, s in enumerate(shares[2])]
    plain = [shares[0], shares[1], np.zeros(3, dtype=np.int64)]

    state = encrypted_oblivious_shuffle(
        plain, encrypted, holder=2, modulus=M, ahe=pub, rng=rng, crypto_rng=3
    )
    reconstructed = np.asarray(server_reconstruct(state, M, priv.decrypt))

    lines = [
        "EOS walkthrough (r=3, values a=0x0A, b=0x0B, c=0x0C):",
        f"  input order : {[hex(v) for v in values.tolist()]}",
        f"  output order: {[hex(int(v)) for v in reconstructed.tolist()]}",
        f"  rounds      : {len(state.transcript.rounds)} (C(3,2) hide-and-seek rounds)",
        f"  final holder: shuffler {state.holder}",
    ]
    multiset_ok = sorted(reconstructed.tolist()) == sorted(values.tolist())
    blind = all(
        not state.transcript.known_to([j]) for j in range(3)
    )
    lines.append(f"  [{'ok' if multiset_ok else 'MISMATCH'}] multiset preserved")
    lines.append(
        f"  [{'ok' if blind else 'MISMATCH'}] no single shuffler knows the permutation"
    )
    return "\n".join(lines)


def bench_figure2_walkthrough(benchmark):
    """Run the Figure 2 scenario once under timing."""
    table = run_once(benchmark, _experiment)
    emit("fig2_eos_walkthrough", table)
    assert "MISMATCH" not in table
