"""Benchmark — multi-observable evaluation vs. N separate calls.

The observable-generic pipeline's economic argument: requesting
{density, pdos, energy_weighted_density} together runs **one**
eigendecomposition pass per submatrix stack and assembles all three
observables from the shared cache, where three separate session calls
would prepare, plan and decompose three times.  This benchmark measures
that speedup on the 32-molecule water system (acceptance: ≥ 1.5×).

Writes ``BENCH_observables.json`` at the repository root and the usual
table under ``benchmarks/results``.
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np
import pytest

from repro.api import EngineConfig, SubmatrixContext
from repro.chem import build_matrices, water_box
from repro.chem.basis import SZV

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
from common import bench_scale, report  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
ROOT_JSON = REPO_ROOT / "BENCH_observables.json"

OBSERVABLES = ("density", "pdos", "energy_weighted_density")
N_ELECTRONS = 8.0 * 32


def median_time(run, repeats):
    run()  # warm-up: plans, pipelines, executors
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def run_observables_benchmark():
    pair = build_matrices(water_box(1), basis=SZV)
    repeats = max(2, int(round(4 * bench_scale())))
    config = EngineConfig(engine="batched", backend="thread")

    with SubmatrixContext(config) as ctx:
        # one bundled call: single decomposition pass, three observables
        bundled_s = median_time(
            lambda: ctx.observables(
                pair.K,
                pair.S,
                pair.blocks,
                observables=OBSERVABLES,
                n_electrons=N_ELECTRONS,
            ),
            repeats,
        )
        # the counterfactual: three separate single-observable calls
        separate_s = median_time(
            lambda: [
                ctx.observables(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    observables=(name,),
                    n_electrons=N_ELECTRONS,
                )
                for name in OBSERVABLES
            ],
            repeats,
        )
        bundle = ctx.observables(
            pair.K,
            pair.S,
            pair.blocks,
            observables=OBSERVABLES,
            n_electrons=N_ELECTRONS,
        )

    speedup = separate_s / bundled_s
    payload = {
        "benchmark": "observables",
        "system": {
            "molecules": 32,
            "basis": SZV.name,
            "n_basis": int(pair.blocks.n_basis),
        },
        "observables": list(OBSERVABLES),
        "repeats": repeats,
        "multi_observable": {
            "bundled_s": bundled_s,
            "separate_calls_s": separate_s,
            "speedup": speedup,
            "stack_decompositions": int(bundle.stack_decompositions),
        },
    }
    with open(ROOT_JSON, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    rows = [
        ["bundled (3 observables)", bundled_s, 1.0],
        ["3 separate calls", separate_s, speedup],
    ]
    return rows, payload


def report_all(rows, payload):
    report(
        "observables",
        ["evaluation", "median seconds", "speedup of bundling"],
        rows,
        "Multi-observable bundling vs separate calls "
        f"({payload['system']['molecules']} molecules, "
        f"{len(OBSERVABLES)} observables)",
    )


@pytest.mark.benchmark(group="observables")
def test_observables_benchmark(benchmark):
    rows, payload = benchmark.pedantic(
        run_observables_benchmark, rounds=1, iterations=1
    )
    report_all(rows, payload)
    # acceptance: bundling must beat three separate calls by ≥ 1.5×
    assert payload["multi_observable"]["speedup"] >= 1.5


if __name__ == "__main__":
    table_rows, result_payload = run_observables_benchmark()
    report_all(table_rows, result_payload)
    print(f"wrote {ROOT_JSON}")
