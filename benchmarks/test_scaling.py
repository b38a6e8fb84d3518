"""Scaling behaviour of the encode path.

Not a paper artefact: establishes that encode cost grows linearly in the
point count and sub-linearly in the bin count, which is what makes the
method viable at checkpoint scale.  The k-means fit sorts its sample once
(O(n log n)) and then costs O(k log n + n) per Lloyd sweep; the encoder's
nearest-bin assignment of every point is O(n log k).
"""

import time

import numpy as np

from repro.analysis import format_table
from repro.core import NumarckConfig, encode_pair


def _pair(n, rng):
    prev = rng.uniform(1.0, 2.0, n)
    return prev, prev * (1.0 + rng.normal(0.0, 0.003, n))


def _time_encode(prev, curr, cfg, repeats=3):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        encode_pair(prev, curr, cfg)
        best = min(best, time.perf_counter() - t0)
    return best


def _run():
    rng = np.random.default_rng(0)
    sizes = (50_000, 200_000, 800_000)
    cfg = NumarckConfig(error_bound=1e-3, nbits=8, strategy="clustering")
    by_n = {}
    for n in sizes:
        prev, curr = _pair(n, rng)
        by_n[n] = _time_encode(prev, curr, cfg)

    prev, curr = _pair(200_000, rng)
    by_k = {}
    for b in (6, 8, 10):
        by_k[b] = _time_encode(prev, curr, cfg.with_(nbits=b))
    return by_n, by_k


def test_scaling(benchmark, report):
    by_n, by_k = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = [[f"n={n:,}", t * 1e3, n / t / 1e6] for n, t in by_n.items()]
    rows += [[f"B={b} (n=200k)", t * 1e3, 0.2 / t] for b, t in by_k.items()]
    report(format_table(
        ["configuration", "encode ms", "Mpts/s"], rows, precision=2,
        title="Scaling: clustering encode vs point count and index width",
    ))
    sizes = sorted(by_n)
    # Growing 16x in points should grow time by < 64x (roughly linear with
    # generous slack for fixed model-fit costs and timer noise).
    assert by_n[sizes[-1]] < 64 * max(by_n[sizes[0]], 1e-4)
    # Quadrupling the bin count (B 8 -> 10) must not quadruple time: the
    # assignment is O(n log k) and a Lloyd sweep O(k log n + n), with
    # k << n.
    assert by_k[10] < 3 * by_k[8] + 0.05
    # Throughput at the large size should be practical (hundreds of
    # kpts/s on a single modest core; C implementations would be ~100x).
    assert sizes[-1] / by_n[sizes[-1]] > 3e5
