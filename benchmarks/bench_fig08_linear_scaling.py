"""Figure 8 — runtime of the submatrix method vs. system size (linear scaling).

Paper: scaling the water system from 768 atoms (NREP = 2) to 49,152 atoms
(NREP = 8) at fixed resources (80 cores) and eps_filter = 1e-5, the runtime
matches a linear function of the atom count very well.

Reproduction: the distributed cost model at 80 simulated ranks over
pattern-level systems of 256-4000 molecules, plus a measured-wall-clock
series on small systems; both series are fitted to a line and the coefficient
of determination is reported.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import linear_fit
from repro.chem import build_block_pattern, build_matrices, water_box
from repro.core import submatrix_method_cost
from repro.api import EngineConfig, SubmatrixContext

from common import bench_scale, report

EPS_FILTER = 1e-5
MODEL_RANKS = 80


def run_cost_model(machine):
    replications = [2, 3, 4, 5] if bench_scale() >= 1.0 else [2, 3]
    rows = []
    for nrep in replications:
        system = water_box(nrep)
        pattern, blocks = build_block_pattern(system, eps_filter=EPS_FILTER)
        cost = submatrix_method_cost(
            pattern,
            blocks.block_sizes,
            MODEL_RANKS,
            machine,
            exact_transfers=False,
        )
        rows.append([system.n_atoms, cost.simulated.total])
    return rows


def run_measured(szv_model, mu):
    rows = []
    for factors in [(1, 1, 1), (2, 1, 1), (2, 2, 1)]:
        system = water_box(factors)
        pair = build_matrices(system, model=szv_model)
        start = time.perf_counter()
        config = EngineConfig(eps_filter=EPS_FILTER, backend="thread", max_workers=2)
        with SubmatrixContext(config) as context:
            context.density(pair.K, pair.S, pair.blocks, mu=mu)
        rows.append([system.n_atoms, time.perf_counter() - start])
    return rows


@pytest.mark.benchmark(group="fig08")
def test_fig08_linear_scaling_cost_model(benchmark, machine):
    rows = benchmark.pedantic(lambda: run_cost_model(machine), rounds=1, iterations=1)
    slope, intercept, r_squared = linear_fit(
        [row[0] for row in rows], [row[1] for row in rows]
    )
    report(
        "fig08_linear_scaling_cost_model",
        ["atoms", "simulated time (s)"],
        rows + [["linear fit R^2", r_squared]],
        f"Figure 8 (cost model, {MODEL_RANKS} ranks, eps={EPS_FILTER:g}): "
        "runtime vs. system size",
    )
    # linear scaling: an affine fit describes the data well and time grows
    assert r_squared > 0.9
    assert rows[-1][1] > rows[0][1]
    # sub-quadratic: doubling atoms should far less than quadruple the time
    atoms = np.array([row[0] for row in rows], dtype=float)
    times = np.array([row[1] for row in rows], dtype=float)
    growth = (times[-1] / times[0]) / (atoms[-1] / atoms[0]) ** 2
    assert growth < 1.0


@pytest.mark.benchmark(group="fig08")
def test_fig08_linear_scaling_measured(benchmark, szv_model, gap_mu):
    rows = benchmark.pedantic(
        lambda: run_measured(szv_model, gap_mu), rounds=1, iterations=1
    )
    slope, intercept, r_squared = linear_fit(
        [row[0] for row in rows], [row[1] for row in rows]
    )
    report(
        "fig08_linear_scaling_measured",
        ["atoms", "wall-clock (s)"],
        rows + [["linear fit R^2", r_squared]],
        f"Figure 8 (measured, 2 threads, eps={EPS_FILTER:g}): runtime vs. system size",
    )
    assert rows[-1][1] > rows[0][1]
