"""One request skeleton: the direct, trajectory and served entry points agree.

``context.observables``, a one-step ``context.trajectory`` and
``DensityService.submit`` (which runs that same ``context.observables``
call on the service's dispatch pool) all run the same
:func:`~repro.api.observables.compute_observables` skeleton behind the same
:func:`~repro.api.observables.validate_request` check, so the same request
yields bitwise-equal results from all three — and an invalid request the
same exception, before any work is done.  A trajectory step is a
density-only request, so the trajectory takes part only in those; it runs
on a session only, and the service serves single requests.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import EngineConfig, SubmatrixContext
from repro.core.combination import ColumnGrouping
from repro.dbcsr import BlockDistribution, ProcessGrid2D
from repro.serve import DensityService

CONFIG = EngineConfig(backend="thread", max_workers=2)
#: water32 has 32 block columns
TWO_RANKS = BlockDistribution(32, 32, ProcessGrid2D(2, (1, 2)))
N_ELECTRONS = 8.0 * 32
ALL_OBSERVABLES = ("density", "pdos", "energy_weighted_density")


def run_direct(pair, **request):
    with SubmatrixContext(CONFIG) as context:
        return context.observables(pair.K, pair.S, pair.blocks, **request)


def takes_trajectory(request):
    """Whether a trajectory can make ``request``: density alone, no
    observable parameters."""
    return (
        tuple(request.get("observables", ("density",))) == ("density",)
        and "observable_params" not in request
    )


def run_trajectory(pair, observables=("density",), **request):
    with SubmatrixContext(CONFIG) as context:
        run = context.trajectory([(pair.K, pair.S)], pair.blocks, **request)
    (result,) = run.results
    return result


def run_served(pair, **request):
    with DensityService(config=CONFIG) as service:
        return service.submit(pair.K, pair.S, pair.blocks, **request).result()


ENTRY_POINTS = (run_direct, run_trajectory, run_served)


def assert_same_arrays(ours, theirs, fields):
    for field in fields:
        a, b = getattr(ours, field), getattr(theirs, field)
        a = a.toarray() if hasattr(a, "toarray") else a
        b = b.toarray() if hasattr(b, "toarray") else b
        assert np.array_equal(a, b), field


def assert_same_result(result, reference, observables):
    # a density-only served future resolves to the plain density result; a
    # bundle falls through to its density fields, so both read the same way
    assert_same_arrays(result, reference, ("density_ao", "density_ortho"))
    for field in ("mu", "mu_iterations", "n_electrons", "band_energy"):
        assert getattr(result, field) == getattr(reference, field), field
    if "pdos" in observables:
        assert_same_arrays(
            result["pdos"],
            reference["pdos"],
            ("energies", "dos", "projections", "eigenvalues", "weights"),
        )
    if "energy_weighted_density" in observables:
        ours = result["energy_weighted_density"]
        theirs = reference["energy_weighted_density"]
        assert_same_arrays(
            ours, theirs, ("energy_weighted_ao", "energy_weighted_ortho")
        )
        assert ours.band_energy == theirs.band_energy


@pytest.mark.slow
@pytest.mark.parametrize(
    "request_name", ["grand_canonical", "canonical", "three_observables"]
)
def test_same_request_is_bitwise_equal_through_every_entry_point(
    water32_matrices, gap_mu, request_name
):
    request = {
        "grand_canonical": dict(observables=("density",), mu=gap_mu),
        "canonical": dict(observables=("density",), n_electrons=N_ELECTRONS),
        "three_observables": dict(
            observables=ALL_OBSERVABLES,
            n_electrons=N_ELECTRONS,
            observable_params={"pdos": {"n_points": 64}},
        ),
    }[request_name]
    reference = run_direct(water32_matrices, **request)
    for entry_point in (run_trajectory, run_served):
        if entry_point is run_trajectory and not takes_trajectory(request):
            continue
        assert_same_result(
            entry_point(water32_matrices, **request),
            reference,
            request["observables"],
        )


INVALID_REQUESTS = {
    # 192 basis functions, spin degeneracy 2: capacity 384 electrons
    "n_electrons_nan": dict(n_electrons=float("nan")),
    "n_electrons_above_capacity": dict(n_electrons=394.0),
    "n_electrons_negative": dict(n_electrons=-5.0),
    "n_electrons_inf": dict(n_electrons=float("inf")),
    "mu_nan": dict(mu=float("nan")),
    "mu_inf": dict(mu=float("inf")),
    # one μ for the whole request, not one per submatrix or per step
    "mu_sequence": dict(mu=[0.0, 0.1]),
    "both_mu_and_n_electrons": dict(mu=0.0, n_electrons=N_ELECTRONS),
    "neither_mu_nor_n_electrons": dict(),
    "canonical_newton_schulz": dict(
        n_electrons=N_ELECTRONS, solver="newton_schulz"
    ),
    "pdos_newton_schulz": dict(
        mu=0.0, solver="newton_schulz", observables=("density", "pdos")
    ),
    "unknown_observable": dict(mu=0.0, observables=("density", "densty")),
    "no_observables": dict(mu=0.0, observables=()),
    "unknown_solver": dict(mu=0.0, solver="eigne"),
    "params_for_unrequested_observable": dict(
        mu=0.0, observable_params={"pdos": {"n_points": 64}}
    ),
    # parameter values are checked with the keys, before any work: each
    # of these once raised from the assembly, after the whole engine pass
    "pdos_broadening_nan": dict(
        mu=0.0,
        observables=("density", "pdos"),
        observable_params={"pdos": {"broadening": float("nan")}},
    ),
    "pdos_n_points_float": dict(
        mu=0.0,
        observables=("density", "pdos"),
        observable_params={"pdos": {"n_points": 2.9}},
    ),
    "pdos_window_reversed": dict(
        mu=0.0,
        observables=("density", "pdos"),
        observable_params={"pdos": {"energy_window": (1.0, 0.0)}},
    ),
    "pdos_n_points_one": dict(
        mu=0.0,
        observables=("density", "pdos"),
        observable_params={"pdos": {"n_points": 1}},
    ),
    "pdos_unknown_parameter": dict(
        mu=0.0,
        observables=("density", "pdos"),
        observable_params={"pdos": {"n_pts": 64}},
    ),
    "density_params": dict(mu=0.0, observable_params={"density": {"n_points": 64}}),
    "energy_weighted_params": dict(
        mu=0.0,
        observables=("density", "energy_weighted_density"),
        observable_params={"energy_weighted_density": {"broadening": 0.1}},
    ),
    # a rank count is a positive integer: a float or bool must not
    # silently truncate to some rank count
    "ranks_zero": dict(mu=0.0, ranks=0),
    "ranks_float": dict(mu=0.0, ranks=1.7),
    "ranks_bool": dict(mu=0.0, ranks=True),
    "ranks_negative": dict(mu=0.0, ranks=-2),
    "mu_tolerance_nan": dict(n_electrons=N_ELECTRONS, mu_tolerance=float("nan")),
    "mu_tolerance_inf": dict(n_electrons=N_ELECTRONS, mu_tolerance=float("inf")),
    "mu_tolerance_negative": dict(n_electrons=N_ELECTRONS, mu_tolerance=-1e-9),
    # keywords a request no longer takes: ranks always get the default
    # round-robin grid, and the μ search stops at MAX_MU_ITERATIONS
    "distribution_removed": dict(mu=0.0, ranks=2, distribution=TWO_RANKS),
    "max_mu_iterations_removed": dict(n_electrons=N_ELECTRONS, max_mu_iterations=200),
    # a grouping must be a ColumnGrouping partitioning the 32 block columns
    "grouping_uncovered": dict(mu=0.0, grouping=ColumnGrouping([[0]])),
    "grouping_duplicate": dict(
        mu=0.0, grouping=ColumnGrouping([[c] for c in range(32)] + [[0]])
    ),
    "grouping_empty_group": dict(
        mu=0.0, grouping=ColumnGrouping([[c] for c in range(32)] + [[]])
    ),
    "grouping_str": dict(mu=0.0, grouping="x"),
    "grouping_column_out_of_range": dict(
        mu=0.0, grouping=ColumnGrouping([[c] for c in range(32)] + [[32]])
    ),
}


@pytest.mark.parametrize("name", sorted(INVALID_REQUESTS))
def test_invalid_request_is_refused_before_any_work(water32_matrices, name):
    """A direct request raises before it looks a plan or an overlap root up,
    and ``DensityService.submit`` raises from the call itself: the service
    admits, fails and holds nothing."""
    request = INVALID_REQUESTS[name]
    pair = water32_matrices
    with SubmatrixContext(CONFIG) as context:
        with pytest.raises((ValueError, TypeError)):
            context.observables(pair.K, pair.S, pair.blocks, **request)
        assert context.plan_cache.stats["misses"] == 0
        assert context.stats()["overlap_roots"]["misses"] == 0
    with DensityService(config=CONFIG) as service:
        with pytest.raises((ValueError, TypeError)):
            service.submit(pair.K, pair.S, pair.blocks, **request)
        snapshot = service.stats()
    assert snapshot["metrics"]["total"]["admitted"] == 0
    assert snapshot["metrics"]["total"]["failed"] == 0
    assert service.admission._total == 0


@pytest.mark.parametrize("name", sorted(INVALID_REQUESTS))
def test_invalid_trajectory_is_refused_before_admission(water32_matrices, name):
    """``context.trajectory`` runs a request's checks once, before it admits
    its first step: a two-step trajectory raises before any step looks a
    plan or an overlap root up.  A request for more than the density is a
    ``TypeError`` naming the observable keyword a trajectory does not take."""
    request = INVALID_REQUESTS[name]
    pair = water32_matrices
    if takes_trajectory(request):
        refused = pytest.raises((ValueError, TypeError))
    else:
        refused = pytest.raises(TypeError, match="'observable(s|_params)'")
    with SubmatrixContext(CONFIG) as context:
        with refused:
            context.trajectory(
                [(pair.K, pair.S), (pair.K, pair.S)], pair.blocks, **request
            )
        assert context.plan_cache.stats["misses"] == 0
        assert context.stats()["overlap_roots"]["misses"] == 0


@pytest.mark.parametrize("keyword", ["distribution", "max_mu_iterations"])
def test_removed_keyword_is_a_type_error_naming_it(water32_matrices, keyword):
    """A removed request keyword is refused by name from every entry point,
    before a plan or an overlap root is looked up and with nothing admitted —
    never accepted and ignored."""
    request = INVALID_REQUESTS[f"{keyword}_removed"]
    assert keyword in request
    pair = water32_matrices
    refused = pytest.raises(TypeError, match=f"'{keyword}'")
    with SubmatrixContext(CONFIG) as context:
        with refused:
            context.observables(pair.K, pair.S, pair.blocks, **request)
        with refused:
            context.density(pair.K, pair.S, pair.blocks, **request)
        with refused:
            context.trajectory([(pair.K, pair.S)], pair.blocks, **request)
        assert context.plan_cache.stats["misses"] == 0
        assert context.stats()["overlap_roots"]["misses"] == 0
    with DensityService(config=CONFIG) as service:
        with refused:
            service.submit(pair.K, pair.S, pair.blocks, **request)
        snapshot = service.stats()
    assert snapshot["metrics"]["total"]["admitted"] == 0
    assert service.context.plan_cache.stats["misses"] == 0


@pytest.mark.parametrize("name", sorted(INVALID_REQUESTS))
def test_invalid_request_raises_the_same_error_from_every_entry_point(
    water32_matrices, name
):
    request = INVALID_REQUESTS[name]
    raised = []
    for entry_point in ENTRY_POINTS:
        if entry_point is run_trajectory and not takes_trajectory(request):
            continue
        with pytest.raises((ValueError, TypeError)) as info:
            entry_point(water32_matrices, **request)
        raised.append((type(info.value), str(info.value)))
    assert len(set(raised)) == 1, raised


def _asymmetric_K(pair):
    """A grossly asymmetric Kohn–Sham matrix: one triangle doubled."""
    K = pair.K.toarray()
    return np.triu(K) + 2.0 * np.tril(K, -1)


def _slightly_asymmetric_S(pair):
    """5e-6 relative asymmetry in one off-diagonal pair of the overlap: inside
    ``np.allclose``'s default ``rtol``, outside the stated symmetry rule."""
    S = pair.S.toarray()
    row, col = max(
        zip(*np.nonzero(np.triu(S, 1))), key=lambda index: abs(S[index])
    )
    S[row, col] *= 1.0 + 5e-6
    return S


HOSTILE_MATRICES = {
    "asymmetric_K": (lambda pair: (_asymmetric_K(pair), pair.S), "K must be symmetric"),
    "asymmetric_S": (
        lambda pair: (pair.K, _slightly_asymmetric_S(pair)),
        "S must be symmetric",
    ),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_MATRICES))
def test_asymmetric_matrix_raises_the_same_error_from_every_entry_point(
    water32_matrices, gap_mu, name
):
    """A density is never computed from a symmetrised stand-in of an
    asymmetric input: every entry point names the matrix and refuses."""
    build, message = HOSTILE_MATRICES[name]
    K, S = build(water32_matrices)
    hostile = dataclasses.replace(water32_matrices, K=K, S=S)
    raised = []
    for entry_point in ENTRY_POINTS:
        with pytest.raises(ValueError, match=message) as info:
            entry_point(hostile, mu=gap_mu)
        raised.append(str(info.value))
    # a served request is the direct call, so its message is the same text
    assert raised[0] == raised[1] == raised[2]
