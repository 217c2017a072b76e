"""Collect mode: per-stack spectra, delivered by the streamed route's former.

A request that reads spectra — a canonical one, whose μ is bisected on them
(Algorithm 1), or a bundle with ``pdos``/``energy_weighted_density`` — keeps
the rank loop's ``(members, λ, Q)`` of every stack with the generating
weights Σ Q[rows]² formed in the stack task, and once μ is known delivers
every stack with the same panel former and the same one scatter the
fixed-μ route runs inside its tasks.  What reads the spectra across stacks
(the bisection, the PDOS arrays) reads them gathered back into plan group
order.

All of it must stay bitwise what the per-entry route gives
(:func:`submatrix_reference.reference_collect`: one ``eigh``, one panel and
one PDOS projection per submatrix, group by group) — on the ragged input
whose stacks mix generating widths, under every stack cap, from the direct,
sharded, served and trajectory entry points — and must not depend on the
order the stacks come in.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api.observables
import repro.core.batch
from repro.api import EngineConfig, SubmatrixContext
from repro.core.batch import make_stack_tasks
from repro.core.plan import SubmatrixPlan
from repro.serve import DensityService

from submatrix_reference import (
    STACK_CAPS,
    assert_same_spectral_bits,
    ragged_blocks,
    reference_collect,
)

#: the md ledger row's electronic temperature: fractional occupations, so
#: the bisection's electron count sums every weight
CONFIG = EngineConfig(eps_filter=0.0, temperature=3000.0)
N_ELECTRONS = 8.0 * 32
ALL_OBSERVABLES = ("density", "pdos", "energy_weighted_density")
#: (observables, ensemble) of each collect-mode request
REQUESTS = {
    "canonical": (("density",), "n_electrons"),
    "bundle": (ALL_OBSERVABLES, "mu"),
    "canonical_bundle": (ALL_OBSERVABLES, "n_electrons"),
}


def ensemble(kind, gap_mu):
    return {"n_electrons": N_ELECTRONS} if kind == "n_electrons" else {"mu": gap_mu}


@pytest.fixture(scope="module")
def ragged(water32_matrices):
    pair = water32_matrices
    return pair.K, pair.S, ragged_blocks(pair.blocks)


@pytest.fixture(scope="module")
def references(ragged, gap_mu):
    return {
        name: reference_collect(
            CONFIG, *ragged, observables, **ensemble(kind, gap_mu)
        )
        for name, (observables, kind) in REQUESTS.items()
    }


def set_cap(monkeypatch, cap):
    if STACK_CAPS[cap] is not None:
        monkeypatch.setattr(repro.core.batch, "MAX_BATCH_ELEMENTS", STACK_CAPS[cap])


@pytest.mark.slow
@pytest.mark.parametrize("cap", sorted(STACK_CAPS))
@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_every_entry_point_is_the_per_entry_route(
    ragged, gap_mu, references, monkeypatch, name, cap
):
    """density AO/ortho, μ, ``mu_iterations``, both W arrays and every PDOS
    array, bitwise the per-entry route's."""
    set_cap(monkeypatch, cap)
    observables, kind = REQUESTS[name]
    request = dict(observables=observables, **ensemble(kind, gap_mu))
    reference = references[name]
    with SubmatrixContext(CONFIG) as context:
        assert_same_spectral_bits(context.observables(*ragged, **request), reference)
        assert_same_spectral_bits(
            context.observables(*ragged, ranks=2, **request), reference
        )
        if observables == ("density",):
            run = context.trajectory([ragged[:2]], ragged[2], **ensemble(kind, gap_mu))
            assert_same_spectral_bits(run.results[0], reference)
    with DensityService(CONFIG) as service:
        served = service.submit(*ragged, **request).result(120)
    assert_same_spectral_bits(served, reference)


def test_ragged_stacks_mix_generating_widths(ragged, monkeypatch):
    """The input holds what the parity test needs: every submatrix 192 wide,
    widths 12 and 6 in one stack under the ``three`` cap."""
    set_cap(monkeypatch, "three")
    with SubmatrixContext(CONFIG) as context:
        context.density(*ragged, n_electrons=N_ELECTRONS)
        [plan] = context.plan_cache._plans.values()
    assert set(plan.dimensions) == {192}
    tasks = make_stack_tasks(plan.dimensions)
    assert [len(task.members) for task in tasks] == [3] * 8
    widths = [{plan.groups[m].panel_rows.size for m in task.members} for task in tasks]
    assert all(width == {6, 12} for width in widths)


@pytest.mark.parametrize(
    "observables, writes_per_stack",
    [(("density",), 1), (("density", "energy_weighted_density"), 2)],
    ids=["density", "density_and_w"],
)
def test_a_warm_collect_call_writes_once_per_stack(
    ragged, monkeypatch, observables, writes_per_stack
):
    """One gather and one ``write_panels`` per stack and scattered
    observable, not one per submatrix."""
    set_cap(monkeypatch, "three")
    counts = {"extract_stack": 0, "write_panels": 0}

    def counting(name):
        original = getattr(SubmatrixPlan, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return counted

    request = dict(observables=observables, n_electrons=N_ELECTRONS)
    with SubmatrixContext(CONFIG) as context:
        context.observables(*ragged, **request)
        for name in counts:
            monkeypatch.setattr(SubmatrixPlan, name, counting(name))
        context.observables(*ragged, **request)
        [plan] = context.plan_cache._plans.values()
    stacks = len(make_stack_tasks(plan.dimensions))
    assert stacks == 8  # 24 block columns, three per stack
    assert counts == {
        "extract_stack": stacks,
        "write_panels": writes_per_stack * stacks,
    }


@pytest.mark.parametrize(
    "observables, copies_per_stack",
    [(("density",), 0), (("density", "energy_weighted_density"), 1), (ALL_OBSERVABLES, 1)],
    ids=["density", "density_and_w", "all"],
)
def test_only_a_later_reader_of_q_copies_it(
    ragged, monkeypatch, observables, copies_per_stack
):
    """A scatter copies a stack's kept Q only while a later observable of the
    request reads Q again (the PDOS reads λ and the weights only); the last
    reader forms its panels in Q itself.  Every array is bitwise the route
    that copies Q for every scatter."""
    set_cap(monkeypatch, "three")
    request = dict(observables=observables, n_electrons=N_ELECTRONS)
    former = repro.api.observables.spectral_panels
    decompose = repro.api.observables._decompose
    kept, in_kept_q = [], []

    def copying(eigenvalues, eigenvectors, function):
        return former(eigenvalues, eigenvectors.copy(), function)

    def keeping(*args, **kwargs):
        decomposition = decompose(*args, **kwargs)
        kept.extend(stack.eigenvectors for stack in decomposition.spectra)
        return decomposition

    def counting(eigenvalues, eigenvectors, function):
        in_kept_q.append(any(eigenvectors is q for q in kept))
        return former(eigenvalues, eigenvectors, function)

    with SubmatrixContext(CONFIG) as context:
        with monkeypatch.context() as patch:
            patch.setattr(repro.api.observables, "spectral_panels", copying)
            copied = context.observables(*ragged, **request)
        monkeypatch.setattr(repro.api.observables, "_decompose", keeping)
        monkeypatch.setattr(repro.api.observables, "spectral_panels", counting)
        result = context.observables(*ragged, **request)
    stacks = len(kept)
    assert stacks == 8
    assert in_kept_q == [False] * copies_per_stack * stacks + [True] * stacks
    assert_same_spectral_bits(result, copied)


@pytest.mark.slow
@pytest.mark.parametrize("cap", ["one", "three"])
def test_stacks_in_reverse_order_change_no_bit(ragged, gap_mu, monkeypatch, cap):
    """The group-order gather: the same request with its stack records
    reversed before the bisection and the assembly gives the same bits."""
    set_cap(monkeypatch, cap)
    request = dict(observables=ALL_OBSERVABLES, n_electrons=N_ELECTRONS)
    with SubmatrixContext(CONFIG) as context:
        forward = context.observables(*ragged, **request)
        decompose = repro.api.observables._decompose

        def reversed_stacks(*args, **kwargs):
            decomposition = decompose(*args, **kwargs)
            assert len(decomposition.spectra) > 1
            decomposition.spectra.reverse()
            return decomposition

        monkeypatch.setattr(repro.api.observables, "_decompose", reversed_stacks)
        backward = context.observables(*ragged, **request)
    assert_same_spectral_bits(backward, forward)


@pytest.mark.parametrize("slots_per_pass", [1, 2, 5, 24])
def test_pdos_passes_change_no_bit(ragged, references, monkeypatch, slots_per_pass):
    """The PDOS projections in passes of any number of a stack's slots (a
    partial last pass included) are the per-submatrix sums' bits."""
    monkeypatch.setattr(
        repro.api.observables, "PDOS_PASS_ELEMENTS", slots_per_pass * 192 * 400
    )
    set_cap(monkeypatch, "all")
    with SubmatrixContext(CONFIG) as context:
        bundle = context.observables(
            *ragged, observables=ALL_OBSERVABLES, n_electrons=N_ELECTRONS
        )
    assert_same_spectral_bits(bundle, references["canonical_bundle"])
