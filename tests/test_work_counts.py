"""Golden model counts, and the one work function against what it replaced.

Every modeled number of the reproduction reads :mod:`repro.work`.  This
module pins, on small versions of the ledger's inputs (the block patterns
of water-32/64 boxes at the ledger's ε values, K̃ as the engine filters it),
what the models derive from them:

* the submatrix dimensions and Σ c·d³;
* the Newton–Schulz baseline's block-multiply count and total;
* the exact transfer bytes and the FLOP imbalance at 1, 2 and 4 ranks.

A change of any of them shows as a diff of ``golden_work_counts.json``: re-pin
it with ``PYTHONPATH=src python tests/test_work_counts.py`` and list the
change, with its reason, in CHANGES.md.

The second half holds the work function to the formulas each site derived
on its own before, on the same inputs: c·n³ of the load balance, Σd³ of
Eq. 15 and of ``flop_estimate``, the block-multiply sum of the baseline
model, 2n³ per GEMM of the Padé loop and the accelerator model, and the
max/mean imbalance of ``load_imbalance`` and ``TrafficLog``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import re

import numpy as np
import pytest

from repro.accel import RTX_2080_TI, model_sign_algorithm_performance
from repro.api.observables import prepare_step
from repro.chem import SZV, HamiltonianModel, build_matrices, water_box
from repro.core import (
    DistributedSubmatrixModel,
    assign_consecutive_chunks,
    estimated_speedup,
    group_columns_greedy_chunks,
    load_imbalance,
    newton_schulz_cost,
)
from repro.core.runner import estimate_newton_schulz_iterations
from repro.parallel import MachineModel
from repro.signfn import sign_pade
from repro.work import (
    EIGENSOLVE_FLOP_CONSTANT,
    block_multiply_flops,
    gemm_flops,
    imbalance,
    newton_schulz_flops,
    submatrix_flop_costs,
)

GOLDEN = pathlib.Path(__file__).with_name("golden_work_counts.json")
RANKS = (1, 2, 4)
SHORT_DECAY = HamiltonianModel(
    basis=dataclasses.replace(SZV, decay_length=0.20, overlap_decay_length=0.16)
)

#: name -> (replication, model, eps_filter): the ledger rows' systems at
#: water-32/64 size (served_water32, cold_water64, the water-128 rows at
#: their 1e-2, gc_sparse128's short-decay model at 1e-4), ledger seed 0
CASES = {
    "water32_eps1e-5": (1, HamiltonianModel(), 1e-5),
    "water64_eps1e-3": ((2, 1, 1), HamiltonianModel(), 1e-3),
    "water64_eps1e-2": ((2, 1, 1), HamiltonianModel(), 1e-2),
    "sparse64_eps1e-4": ((2, 1, 1), SHORT_DECAY, 1e-4),
}


@functools.lru_cache(maxsize=None)
def block_pattern(name):
    """``(coo, block_sizes, eps)`` of K̃ as the engine filters it."""
    nrep, model, eps = CASES[name]
    pair = build_matrices(water_box(nrep, seed=2020), model=model)
    prepared = prepare_step(pair.K, pair.S, pair.blocks, eps)
    return prepared.coo, np.asarray(pair.blocks.block_sizes), eps


def model_counts(name):
    """The golden record of one case, from the models as they are."""
    coo, sizes, eps = block_pattern(name)
    iterations = estimate_newton_schulz_iterations(eps)
    newton = newton_schulz_cost(coo, sizes, 1, MachineModel(), n_iterations=iterations)
    ranks = {}
    for n_ranks in RANKS:
        model = DistributedSubmatrixModel(coo, sizes, n_ranks)
        ranks[str(n_ranks)] = {
            "fetch_bytes": model.transfer_plan.total_fetch_bytes,
            "writeback_bytes": model.transfer_plan.total_writeback_bytes,
            "flop_imbalance": model.traffic_log().flop_imbalance(),
        }
    dims = [int(d) for d in model.dimensions]
    return {
        "dims": dims,
        "sum_c_d3": float(submatrix_flop_costs(dims).sum()),
        "newton_schulz": {
            "iterations": iterations,
            "multiply_flops": newton.details["multiply_flops"],
            "total_flops": newton.total_flops,
        },
        "ranks": ranks,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_model_counts_are_pinned(golden, name):
    assert model_counts(name) == golden[name]


# --------------------------------------------------------------------------- #
# the work function reproduces every formula it replaced
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(CASES))
def test_submatrix_solve_count(name):
    """c·n³ of the load balance (Eq. 14), Σd³ of ``flop_estimate`` times the
    one constant, and Eq. 15's Σñ³/Σn³, in which the constant cancels."""
    coo, sizes, _ = block_pattern(name)
    dims = DistributedSubmatrixModel(coo, sizes, 1).dimensions
    cubes = np.asarray(dims, dtype=float) ** 3
    assert np.array_equal(submatrix_flop_costs(dims), EIGENSOLVE_FLOP_CONSTANT * cubes)
    assert float(submatrix_flop_costs(dims).sum()) == EIGENSOLVE_FLOP_CONSTANT * float(
        sum(float(d) ** 3 for d in dims)
    )
    pairs = group_columns_greedy_chunks(coo.n_block_cols, 2)
    grouped = np.asarray(pairs.submatrix_dimensions(coo, sizes), dtype=float)
    assert estimated_speedup(coo, sizes, pairs) == float(np.sum(cubes)) / float(
        np.sum(grouped**3)
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_block_multiply_count(name):
    """The Newton–Schulz baseline's 2·Σ_k b_k·(Σ_i P[i,k] b_i)·(Σ_j P[k,j] b_j)
    on the modeled iterate pattern."""
    coo, sizes, _ = block_pattern(name)
    base = coo.to_pattern().astype(bool)
    iterate = ((base @ base) + base).astype(bool)
    b = sizes.astype(float)
    col_weight = np.asarray(iterate.T.astype(float) @ b).ravel()
    row_weight = np.asarray(iterate.astype(float) @ b).ravel()
    expected = 2.0 * float(np.sum(b * col_weight * row_weight))
    assert block_multiply_flops(iterate, sizes) == expected
    cost = newton_schulz_cost(coo, sizes, 1, MachineModel(), n_iterations=7)
    assert cost.total_flops == 2.0 * expected * 7


@pytest.mark.parametrize("name", sorted(CASES))
def test_gemm_counts(name):
    """2n³ per GEMM: the accelerator model's order GEMMs per iteration and
    the Padé loop's order + 1, at every submatrix dimension."""
    coo, sizes, _ = block_pattern(name)
    for n in sorted(set(DistributedSubmatrixModel(coo, sizes, 1).dimensions)):
        for order in (2, 3):
            assert gemm_flops(n, n, n) * order * 8 == 2.0 * float(n) ** 3 * order * 8
            assert (order + 1) * gemm_flops(n, n, n) == 2.0 * n**3 * (order + 1)
    row = model_sign_algorithm_performance(RTX_2080_TI, "FP64", 3972, 8)
    flops = 2.0 * 3972.0**3 * 3 * 8
    assert row.overall_tflops == flops / row.total_seconds / 1e12
    matrix = np.diag(np.linspace(-1.0, 1.0, 12))
    pade = sign_pade(matrix, order=3)
    assert pade.flops == pade.iterations * 2.0 * 12**3 * 4


def test_newton_schulz_kernel_steps():
    """3·d³ per full step (``syrk`` X·Xᵀ and S·X), d³ + 2·d²·w for the last."""
    assert newton_schulz_flops(10, 1, 10) == 3.0 * 10**3
    assert newton_schulz_flops(10, 5, 4) == 4 * 3.0 * 10**3 + 10**3 + 2.0 * 10**2 * 4


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("n_ranks", RANKS)
def test_one_imbalance_formula(name, n_ranks):
    """``TrafficLog.flop_imbalance`` and ``load_imbalance`` both equal the
    max/mean each computed on its own before."""
    coo, sizes, _ = block_pattern(name)
    model = DistributedSubmatrixModel(coo, sizes, n_ranks)
    log = model.traffic_log()
    loads = [rank.total_flops for rank in log.ranks]
    assert log.flop_imbalance() == max(loads) / (sum(loads) / n_ranks)
    chunks = assign_consecutive_chunks(model.costs, n_ranks)
    per_chunk = np.asarray([model.costs[start:stop].sum() for start, stop in chunks])
    expected = float(per_chunk.max() / (float(per_chunk.sum()) / len(per_chunk)))
    assert load_imbalance(model.costs, chunks) == expected == imbalance(per_chunk)


def test_imbalance_of_nothing_is_one():
    assert imbalance([0.0, 0.0]) == 1.0
    assert load_imbalance([], []) == 1.0


if __name__ == "__main__":
    # re-pin: write the models' current counts to the golden file
    counts = {name: model_counts(name) for name in sorted(CASES)}
    text = json.dumps(counts, indent=1)
    # each list of dimensions on one line
    text = re.sub(r"\[\s+([\d,\s]+?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]", text)
    GOLDEN.write_text(text + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
