"""The session pool runs every request's stacks, bitwise the serial evaluation.

A default :class:`~repro.api.EngineConfig` maps a request's submatrix stacks
over the session's thread pool (one worker per usable CPU over the pinned
BLAS threads, one worker while BLAS is unpinned), and every stack task is
capped at :data:`~repro.core.batch.MAX_BATCH_ELEMENTS`.  Neither the worker
count nor the split of a bucket into stacks may change a value: ``eigh`` and
the Newton–Schulz kernel work one matrix at a time.  A request issued from
one of the pool's own workers maps its stacks inline instead of queueing
them behind itself.
"""

from __future__ import annotations

import concurrent.futures

import numpy as np
import pytest

import repro.core.batch
from repro.api import EngineConfig, SubmatrixContext
from repro.chem import orthogonalized_ks
from repro.dbcsr.convert import block_matrix_from_csr, block_matrix_to_csr

from submatrix_reference import reference_apply_blockwise, reference_apply_elementwise

#: sparse enough for mixed submatrix dimensions (several buckets), so the
#: stack caps below give one stack per matrix, several per bucket, or one
EPS = 1e-3
N_ELECTRONS = 8.0 * 32
ALL_OBSERVABLES = ("density", "pdos", "energy_weighted_density")

WORKERS = {"default": {}, "one": {"max_workers": 1}, "two": {"max_workers": 2}}
STACK_CAPS = {"one_matrix": 1, "default": None, "parent": 1 << 24}


def _dense(value):
    return value.toarray() if hasattr(value, "toarray") else np.asarray(value)


def _density_fields(result):
    return [
        result.density_ao,
        result.density_ortho,
        result.band_energy,
        result.mu,
        result.mu_iterations,
    ]


def inverse_sqrt(a):
    """A bare per-matrix kernel: (|A| + I)^{-1/2} from one ``eigh``."""
    values, vectors = np.linalg.eigh(a)
    return (vectors / np.sqrt(np.abs(values) + 1.0)) @ vectors.T


def run_every_route(config, pair, mu):
    """Every value of the seven routes, as ``{route: [arrays and scalars]}``."""
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=EPS)
    blocked = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes, threshold=0.0)
    steps = [(pair.K * (1.0 + 1e-4 * step), pair.S) for step in range(3)]
    with SubmatrixContext(config) as context:
        eigen = context.density(pair.K, pair.S, pair.blocks, mu=mu)
        newton_schulz = context.density(
            pair.K, pair.S, pair.blocks, mu=mu, solver="newton_schulz"
        )
        applied = context.apply(blocked, "eigen", mu=mu)
        applied_newton_schulz = context.apply(blocked, "newton_schulz", mu=mu)
        applied_callable = context.apply(blocked, inverse_sqrt)
        trajectory = context.trajectory(steps, pair.blocks, mu=mu)
    with SubmatrixContext(config.replace(temperature=3000.0)) as context:
        bundle = context.observables(
            pair.K,
            pair.S,
            pair.blocks,
            observables=ALL_OBSERVABLES,
            n_electrons=N_ELECTRONS,
            observable_params={"pdos": {"n_points": 64}},
        )
    pdos, weighted = bundle["pdos"], bundle["energy_weighted_density"]
    return {
        "eigen": _density_fields(eigen),
        "newton_schulz": _density_fields(newton_schulz),
        "bundle": _density_fields(bundle["density"])
        + [pdos.energies, pdos.dos, pdos.projections, pdos.eigenvalues]
        + [pdos.weights, weighted.energy_weighted_ao]
        + [weighted.energy_weighted_ortho, weighted.band_energy],
        "apply": [block_matrix_to_csr(applied.result)],
        "apply_newton_schulz": [
            block_matrix_to_csr(applied_newton_schulz.result),
            applied_newton_schulz.kernel_fallbacks,
        ],
        "apply_callable": [block_matrix_to_csr(applied_callable.result)],
        "trajectory": [
            value for result in trajectory.results for value in _density_fields(result)
        ],
    }


@pytest.fixture(scope="module")
def serial_values(water32_matrices, gap_mu):
    return run_every_route(
        EngineConfig(backend="serial", eps_filter=EPS), water32_matrices, gap_mu
    )


@pytest.mark.slow
@pytest.mark.parametrize("cap", sorted(STACK_CAPS))
@pytest.mark.parametrize("workers", sorted(WORKERS))
def test_any_worker_count_and_stack_cap_is_bitwise_serial(
    water32_matrices, gap_mu, serial_values, monkeypatch, workers, cap
):
    if STACK_CAPS[cap] is not None:
        monkeypatch.setattr(repro.core.batch, "MAX_BATCH_ELEMENTS", STACK_CAPS[cap])
    config = EngineConfig(eps_filter=EPS, **WORKERS[workers])
    values = run_every_route(config, water32_matrices, gap_mu)
    assert values.keys() == serial_values.keys()
    for route, expected in serial_values.items():
        assert len(values[route]) == len(expected), route
        for index, (ours, theirs) in enumerate(zip(values[route], expected)):
            assert np.array_equal(_dense(ours), _dense(theirs)), (route, index)


@pytest.mark.slow
def test_request_from_a_session_worker_maps_its_stacks_inline(
    water64_matrices, gap_mu
):
    """Two requests submitted to the session's own two-worker pool finish:
    each maps its stacks inline instead of queueing them behind both
    workers (which then waited on each other forever)."""
    pair = water64_matrices
    context = SubmatrixContext(EngineConfig(backend="thread", max_workers=2, eps_filter=EPS))
    direct = context.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
    pool = context.executor
    futures = [
        pool.submit(context.density, pair.K, pair.S, pair.blocks, mu=gap_mu)
        for _ in range(2)
    ]
    _, pending = concurrent.futures.wait(futures, timeout=60)
    if pending:
        # unblock the stuck workers (their stack tasks are cancelled) so the
        # test process can still exit
        pool.shutdown(wait=False, cancel_futures=True)
    assert not pending, "requests on the session's own workers deadlocked"
    for future in futures:
        result = future.result()
        assert np.array_equal(result.density_ao, direct.density_ao)
        assert np.array_equal(result.density_ortho.toarray(), direct.density_ortho.toarray())
    context.close()


@pytest.mark.slow
@pytest.mark.parametrize("workers", sorted(WORKERS))
@pytest.mark.parametrize("form", ["block", "scipy"])
def test_bare_callable_through_apply_is_the_per_matrix_loop(
    water32_matrices, workers, form
):
    """A bare callable is wrapped once into a slice-by-slice stack function:
    through ``apply`` — block or SciPy input, serial or on the session pool —
    it is bitwise the per-submatrix reference loop."""
    pair = water32_matrices
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=1e-2)
    if form == "scipy":
        matrix = k_ortho
        reference, dimensions = reference_apply_elementwise(matrix, inverse_sqrt)
    else:
        matrix = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes, threshold=0.0)
        reference, dimensions = reference_apply_blockwise(matrix, inverse_sqrt)
        reference = block_matrix_to_csr(reference)
    with SubmatrixContext(EngineConfig(**WORKERS[workers])) as context:
        result = context.apply(matrix, inverse_sqrt)
    applied = result.result if form == "scipy" else block_matrix_to_csr(result.result)
    assert np.array_equal(applied.toarray(), reference.toarray())
    assert result.submatrix_dimensions == dimensions
