"""Micro-benchmark — the submatrix engine and both sign kernels.

Times a full block-level sign evaluation (extraction + eigendecomposition
sign + scatter) on a 256-block-column water system through
:meth:`repro.api.context.SubmatrixContext.apply` — cached extraction plan plus
bucketed 3-D stack evaluation with one batched eigendecomposition per
stack — cold (first call builds and caches the plan) and warm.  The
``naive``/``plan`` engines this file used to race it against are gone
(batched won 6.7×/2.5× at ``max_abs_diff 0.0`` with no size where either
won); the per-submatrix reference loop now lives in
``tests/submatrix_reference.py``.

A second phase sweeps **both sign kernels**
(:func:`repro.signfn.registry.available_kernels`: ``eigen`` and
``newton_schulz``) through the grand-canonical density driver on the same
system, reporting each kernel's cost and its density error against the
eigendecomposition reference.

The system uses a short-decay SZV variant: at reproduction scale this stands
in for the paper's saturated linear-scaling regime (Fig. 4 — submatrix
dimensions stop growing once the interaction radius fits the box), i.e.
many small submatrices, where stacking them pays most.

Writes ``BENCH_submatrix_engine.json`` at the repository root (median wall
times, plan-cache cost, kernel sweep) so future PRs can track the
trajectory, plus the usual tables under ``benchmarks/results``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import sys
import time

import numpy as np
import pytest

from repro.api import EngineConfig, SubmatrixContext
from repro.chem import (
    HamiltonianModel,
    build_matrices,
    orthogonalized_ks,
    water_box,
)
from repro.chem.basis import SZV
from repro.dbcsr import CooBlockList
from repro.dbcsr.convert import block_matrix_from_csr
from repro.signfn import (
    sign_via_eigendecomposition,
    sign_via_eigendecomposition_batched,
)
from repro.signfn.registry import available_kernels

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from common import bench_scale, report  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ROOT_JSON = REPO_ROOT / "BENCH_submatrix_engine.json"

EPS_FILTER = 1e-4
NREP = (8, 1, 1)  # 256 molecules = 256 block columns

#: SZV with a shortened decay length: the reproduction-scale stand-in for
#: the saturated linear-scaling regime (small submatrices, many of them).
SHORT_SZV = dataclasses.replace(
    SZV,
    name="SZV-short-decay",
    decay_length=0.20,
    overlap_decay_length=0.16,
)


def build_system():
    """Orthogonalized Kohn–Sham matrix of the benchmark system, blocked."""
    model = HamiltonianModel(basis=SHORT_SZV)
    system = water_box(NREP)
    pair = build_matrices(system, model=model)
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=EPS_FILTER)
    blocked = block_matrix_from_csr(
        k_ortho, pair.blocks.block_sizes, threshold=0.0
    )
    coo = CooBlockList.from_block_matrix(blocked)
    mu = model.homo_lumo_gap_center()
    return system, pair, blocked, coo, mu


def run_kernel_sweep(pair, mu, repeats):
    """Both sign kernels through the density driver at fixed μ.

    Grand-canonical on purpose: Newton–Schulz does not support the
    canonical μ-bisection (Algorithm 1 needs the cached
    eigendecompositions), so a fixed μ is the one ensemble every kernel
    can run.  Accuracy is measured against the eigen kernel's density.
    """
    sweep = {}
    with SubmatrixContext(
        EngineConfig(backend="thread", eps_filter=EPS_FILTER)
    ) as context:
        reference = None
        for kernel in available_kernels():
            run = lambda: context.density(  # noqa: E731
                pair.K, pair.S, pair.blocks, mu=mu, solver=kernel
            )
            result = run()  # warm-up (plans, pipelines)
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                result = run()
                samples.append(time.perf_counter() - start)
            if kernel == "eigen":
                reference = result
            sweep[kernel] = {
                "median_wall_time_s": float(np.median(samples)),
                "result": result,
            }
    for kernel, entry in sweep.items():
        result = entry.pop("result")
        entry["max_abs_diff_vs_eigen"] = float(
            np.max(np.abs(result.density_ao - reference.density_ao))
        )
        entry["cost_vs_eigen"] = (
            entry["median_wall_time_s"] / sweep["eigen"]["median_wall_time_s"]
        )
    return sweep


def run_engine_benchmark():
    system, pair, blocked, coo, mu = build_system()
    repeats = max(3, int(round(5 * bench_scale())))
    context = SubmatrixContext()
    cache = context.plan_cache
    sign = dict(
        function=lambda a: sign_via_eigendecomposition(a, mu),
        batch_function=lambda stack: sign_via_eigendecomposition_batched(stack, mu),
    )

    # cold plan construction cost (the first call builds + caches the plan)
    start = time.perf_counter()
    outcome = context.apply(blocked, coo=coo, **sign)
    cold_seconds = time.perf_counter() - start

    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        outcome = context.apply(blocked, coo=coo, **sign)
        samples.append(time.perf_counter() - start)
    warm_seconds = float(np.median(samples))

    dimensions = outcome.submatrix_dimensions
    kernel_repeats = max(1, repeats // 3)
    kernels = run_kernel_sweep(pair, mu, kernel_repeats)
    payload = {
        "benchmark": "submatrix_engine",
        "system": {
            "molecules": int(system.n_molecules),
            "n_block_cols": int(blocked.n_block_cols),
            "nnz_blocks": int(blocked.nnz_blocks),
            "basis": SHORT_SZV.name,
            "decay_length": SHORT_SZV.decay_length,
            "eps_filter": EPS_FILTER,
            "max_submatrix_dimension": int(max(dimensions)),
            "mean_submatrix_dimension": float(np.mean(dimensions)),
        },
        "repeats": repeats,
        "median_wall_time_s": warm_seconds,
        "plan_cache": {
            "cold_first_call_s": cold_seconds,
            "warm_call_s": warm_seconds,
            "stats": cache.stats,
        },
        "kernel_repeats": kernel_repeats,
        "kernels": kernels,
    }
    with open(ROOT_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    rows = [[int(max(dimensions)), cold_seconds, warm_seconds]]
    return rows, payload


def kernel_rows(payload):
    return [
        [
            kernel,
            entry["median_wall_time_s"],
            entry["cost_vs_eigen"],
            entry["max_abs_diff_vs_eigen"],
        ]
        for kernel, entry in payload["kernels"].items()
    ]


def report_all(payload, rows):
    report(
        "submatrix_engine",
        ["max dim(SM)", "cold first call seconds", "warm median seconds"],
        rows,
        "Submatrix engine, cached plan + bucketed stacks "
        f"({payload['system']['molecules']} molecules, eps_filter={EPS_FILTER:g})",
    )
    report(
        "submatrix_kernels",
        ["kernel", "median seconds", "cost vs eigen", "max |diff| vs eigen"],
        kernel_rows(payload),
        "Sign kernels through the grand-canonical density driver",
    )


@pytest.mark.benchmark(group="engine")
def test_submatrix_engine(benchmark):
    rows, payload = benchmark.pedantic(
        run_engine_benchmark, rounds=1, iterations=1
    )
    report_all(payload, rows)
    assert payload["plan_cache"]["stats"]["builds"] == 1
    # both kernels must have been swept and produced a density
    # close to the eigen reference
    assert set(payload["kernels"]) == set(available_kernels())
    for entry in payload["kernels"].values():
        assert entry["max_abs_diff_vs_eigen"] < 1e-5


if __name__ == "__main__":
    table_rows, result_payload = run_engine_benchmark()
    report_all(result_payload, table_rows)
    print(f"wrote {ROOT_JSON}")
