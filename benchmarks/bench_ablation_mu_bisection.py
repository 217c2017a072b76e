"""Ablation — canonical-ensemble μ adjustment on cached eigendecompositions.

Paper, Sec. IV-G / Algorithm 1: adjusting the chemical potential for a fixed
electron count would normally require recomputing the sign function in every
bisection step; caching the per-submatrix eigendecompositions makes the
adjustment almost free.  This ablation measures the canonical solve and
compares it against the naïve alternative (one full grand-canonical solve per
bisection step).
"""

from __future__ import annotations

import time

import pytest

from repro.api import EngineConfig, SubmatrixContext

from common import report

EPS_FILTER = 1e-5


def run_ablation(pair):
    n_electrons = 8 * pair.blocks.n_blocks

    start = time.perf_counter()
    grand = SubmatrixContext(EngineConfig(eps_filter=EPS_FILTER)).density(
        pair.K, pair.S, pair.blocks, mu=-3.25
    )
    grand_seconds = time.perf_counter() - start

    start = time.perf_counter()
    canonical = SubmatrixContext(EngineConfig(eps_filter=EPS_FILTER)).density(
        pair.K, pair.S, pair.blocks, n_electrons=n_electrons
    )
    canonical_seconds = time.perf_counter() - start

    naive_estimate = grand_seconds * max(1, canonical.mu_iterations)
    rows = [
        ["grand-canonical solve (fixed mu)", grand_seconds, 0],
        [
            "canonical solve (Algorithm 1, cached eigendecompositions)",
            canonical_seconds,
            canonical.mu_iterations,
        ],
        [
            "naive canonical (one full solve per bisection step, estimated)",
            naive_estimate,
            canonical.mu_iterations,
        ],
    ]
    return rows, canonical


@pytest.mark.benchmark(group="ablation")
def test_ablation_mu_bisection(benchmark, water64_pair):
    _, pair = water64_pair
    rows, canonical = benchmark.pedantic(
        lambda: run_ablation(pair), rounds=1, iterations=1
    )
    report(
        "ablation_mu_bisection",
        ["strategy", "seconds", "mu bisection iterations"],
        rows,
        "Ablation: canonical-ensemble chemical-potential adjustment (Alg. 1)",
    )
    grand_seconds = rows[0][1]
    canonical_seconds = rows[1][1]
    naive_seconds = rows[2][1]
    # Algorithm 1 makes the canonical solve cost a small multiple of the
    # grand-canonical solve, far below the naive per-step recomputation
    assert canonical_seconds < 3.0 * grand_seconds
    if canonical.mu_iterations > 3:
        assert canonical_seconds < naive_seconds
    # the electron count is actually matched
    assert abs(canonical.n_electrons - 8 * pair.blocks.n_blocks) < 0.5
