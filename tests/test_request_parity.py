"""One request skeleton: the direct, trajectory and served entry points agree.

``context.observables``, a one-step ``context.trajectory`` and
``DensityService.submit`` (which runs that same ``context.observables``
call on the service's dispatch pool) all end in the same
:func:`~repro.api.observables.evaluate_request` tail behind the same
:func:`~repro.api.observables.validate_request` check, so the same request
yields bitwise-equal results from all three — and an invalid request the
same exception, before any work is done.  ``DensityService.submit_trajectory``
raises that exception from the call itself, before admission.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.api import EngineConfig, SubmatrixContext
from repro.serve import DensityService

CONFIG = EngineConfig(backend="thread", max_workers=2)
N_ELECTRONS = 8.0 * 32
ALL_OBSERVABLES = ("density", "pdos", "energy_weighted_density")


def run_direct(pair, **request):
    with SubmatrixContext(CONFIG) as context:
        return context.observables(pair.K, pair.S, pair.blocks, **request)


def run_trajectory(pair, **request):
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
    "mu_nan": dict(mu=float("nan")),
    "mu_inf": dict(mu=float("inf")),
    "both_mu_and_n_electrons": dict(mu=0.0, n_electrons=N_ELECTRONS),
    "neither_mu_nor_n_electrons": dict(),
    "canonical_newton_schulz": dict(
        n_electrons=N_ELECTRONS, solver="newton_schulz"
    ),
    "pdos_newton_schulz": dict(
        mu=0.0, solver="newton_schulz", observables=("density", "pdos")
    ),
    "unknown_observable": dict(mu=0.0, observables=("density", "densty")),
    "unknown_solver": dict(mu=0.0, solver="eigne"),
    "params_for_unrequested_observable": dict(
        mu=0.0, observable_params={"pdos": {"n_points": 64}}
    ),
    # a rank count is a positive integer: a float or bool must not
    # silently truncate to some rank count
    "ranks_zero": dict(mu=0.0, ranks=0),
    "ranks_float": dict(mu=0.0, ranks=1.7),
    "ranks_bool": dict(mu=0.0, ranks=True),
}


@pytest.mark.parametrize("name", sorted(INVALID_REQUESTS))
def test_invalid_request_raises_the_same_error_from_every_entry_point(
    water32_matrices, name
):
    request = INVALID_REQUESTS[name]
    raised = []
    for entry_point in ENTRY_POINTS:
        with pytest.raises((ValueError, TypeError)) as info:
            entry_point(water32_matrices, **request)
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1] == raised[2]


@pytest.mark.parametrize("name", sorted(INVALID_REQUESTS))
def test_invalid_trajectory_is_refused_before_admission(water32_matrices, name):
    """``DensityService.submit_trajectory`` runs a trajectory's checks before
    admission: the call itself raises what a direct trajectory raises, and
    the service admits, fails and holds nothing."""
    request = INVALID_REQUESTS[name]
    with pytest.raises((ValueError, TypeError)) as direct:
        run_trajectory(water32_matrices, **request)
    pair = water32_matrices
    with DensityService(config=CONFIG) as service:
        with pytest.raises(type(direct.value)) as served:
            service.submit_trajectory([(pair.K, pair.S)], pair.blocks, **request)
        snapshot = service.stats()
    assert str(served.value) == str(direct.value)
    assert snapshot["metrics"]["total"]["admitted"] == 0
    assert snapshot["metrics"]["total"]["failed"] == 0
    assert snapshot["admission"]["in_flight"] == 0


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
