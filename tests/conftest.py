"""Shared fixtures for the test suite.

The fixtures build small water systems and their model matrices once per
session, because matrix construction and the dense reference solutions are by
far the most expensive parts of the test suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chem import (
    HamiltonianModel,
    build_matrices,
    reference_density_matrix,
    water_box,
)
from repro.chem.basis import DZVP, SZV


@pytest.fixture(scope="session")
def water32():
    """The 32-molecule base water cell (96 atoms)."""
    return water_box(1)


@pytest.fixture(scope="session")
def water64():
    """A 64-molecule slab (2x1x1 replication of the base cell)."""
    return water_box((2, 1, 1))


@pytest.fixture(scope="session")
def szv_model():
    """Default SZV Hamiltonian model."""
    return HamiltonianModel(basis=SZV)


@pytest.fixture(scope="session")
def dzvp_model():
    """DZVP Hamiltonian model."""
    return HamiltonianModel(basis=DZVP)


@pytest.fixture(scope="session")
def water32_matrices(water32, szv_model):
    """K, S and block structure of the 32-molecule system (SZV)."""
    return build_matrices(water32, model=szv_model)


@pytest.fixture(scope="session")
def water64_matrices(water64, szv_model):
    """K, S and block structure of the 64-molecule slab (SZV)."""
    return build_matrices(water64, model=szv_model)


@pytest.fixture(scope="session")
def gap_mu(szv_model):
    """Chemical potential in the middle of the molecular HOMO-LUMO gap."""
    return szv_model.homo_lumo_gap_center()


@pytest.fixture(scope="session")
def water32_reference(water32_matrices, gap_mu):
    """Dense reference density matrix of the 32-molecule system."""
    return reference_density_matrix(
        water32_matrices.K, water32_matrices.S, mu=gap_mu
    )


@pytest.fixture()
def rng():
    """Fresh seeded random generator per test."""
    return np.random.default_rng(42)


def make_decay_matrix(n: int, bandwidth: float = 6.0, seed: int = 3) -> np.ndarray:
    """Symmetric test matrix with exponentially decaying off-diagonals.

    Matrices of this kind (diagonally dominant with spatial decay) are the
    natural habitat of the submatrix method; several tests use them when a
    physical Hamiltonian would be overkill.
    """
    generator = np.random.default_rng(seed)
    indices = np.arange(n)
    decay = np.exp(-np.abs(indices[:, None] - indices[None, :]) / bandwidth)
    noise = generator.normal(size=(n, n))
    matrix = decay * (noise + noise.T) / 2.0
    diagonal = 3.0 + generator.random(n)
    matrix[np.diag_indices(n)] = np.where(
        generator.random(n) < 0.5, diagonal, -diagonal
    )
    return matrix


def reachable_array_bytes(root):
    """``nbytes`` of every distinct array buffer reachable from ``root``."""
    seen, buffers, todo = set(), {}, [root]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            base = item
            while isinstance(base.base, np.ndarray):
                base = base.base
            buffers[id(base)] = base.nbytes
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif isinstance(item, (list, tuple, set)):
            todo.extend(item)
        elif hasattr(item, "__dict__"):
            todo.extend(vars(item).values())
    return sum(buffers.values())


def run_pipeline(pipeline, matrix, function, mapper=None, **kernel_params):
    """f(A) through an explicitly built pipeline and the one rank loop.

    What ``SubmatrixContext.apply(matrix, function, ranks=n, **kernel_params)``
    does with its cached pipeline, for tests that construct the pipeline
    themselves: ``function`` is a kernel name or a bare per-matrix callable,
    solved by the one stack solver; ``mapper`` dispatches the rank tasks
    (:func:`~repro.core.runner.run_stacks`).  Returns the block-sparse f(A).
    """
    from repro.core.runner import run_stacks
    from repro.signfn.registry import KernelStackSolver, resolve_kernel

    plan, _ = pipeline.prepare()
    out = plan.new_output()
    run_stacks(
        plan,
        plan.pack(matrix),
        KernelStackSolver(resolve_kernel(function, **kernel_params)),
        out,
        pipeline=pipeline,
        mapper=mapper,
    )
    return plan.finalize(out)
