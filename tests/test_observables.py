"""Tests for the observable-generic execution pipeline.

Covers the PR's contracts:

* ``density`` through :func:`~repro.api.observables.compute_observables` is
  **bitwise identical** to ``context.density`` on every execution path
  (batched, sharded ranks {1, 2, 4, 8}, both ensembles) and to the serial
  reference loop over the ``core/submatrix.py`` kernels;
* requesting {density, pdos, energy_weighted_density} together performs
  exactly the same number of eigendecomposition calls as density alone —
  N observables, one decomposition pass per stack;
* a fixed-μ density request streams ``eigh → occupy → scatter`` per stack
  and holds no spectra: bitwise the collected, served and sharded result,
  right against the dense oracle, and — asserted with
  ``tracemalloc`` — below Σdᵢ²·8 B of peak memory where a canonical request
  is not;
* PDOS and the energy-weighted density matrix agree with a dense reference
  on a system whose submatrices are the full matrix;
* the serving layer returns multi-observable bundles bitwise identical to
  direct ``context.observables`` calls;
* table lookups and validation errors are specific and early.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import repro.api.observables
from repro.api import (
    EngineConfig,
    ObservableBundle,
    SubmatrixContext,
    UnknownObservableError,
    available_observables,
    get_observable,
)
from repro.api.observables import normalize_observables, prepare_step
from repro.core.batch import make_stack_tasks
from repro.chem import reference_density_matrix
from repro.chem.density import SPIN_DEGENERACY, fermi_occupation
from repro.chem.hamiltonian import BlockStructure
from repro.serve import DensityService

from submatrix_reference import assert_matches_reference_density, reference_density

N_ELECTRONS = 8.0 * 32
EPS = 1e-4
ALL_OBSERVABLES = ("density", "pdos", "energy_weighted_density")

CONFIG = EngineConfig(engine="batched", backend="thread", max_workers=2)


def assert_density_identical(result, reference):
    assert np.array_equal(result.density_ao, reference.density_ao)
    assert np.array_equal(
        result.density_ortho.toarray(), reference.density_ortho.toarray()
    )
    assert result.mu == reference.mu
    assert result.band_energy == reference.band_energy
    assert result.n_electrons == reference.n_electrons


def assert_bundle_identical(bundle, reference):
    assert tuple(bundle.observables) == tuple(reference.observables)
    assert_density_identical(bundle["density"], reference["density"])
    if "pdos" in bundle:
        ours, theirs = bundle["pdos"], reference["pdos"]
        assert np.array_equal(ours.energies, theirs.energies)
        assert np.array_equal(ours.dos, theirs.dos)
        assert np.array_equal(ours.projections, theirs.projections)
        assert np.array_equal(ours.eigenvalues, theirs.eigenvalues)
        assert np.array_equal(ours.weights, theirs.weights)
        assert ours.mu == theirs.mu
    if "energy_weighted_density" in bundle:
        ours = bundle["energy_weighted_density"]
        theirs = reference["energy_weighted_density"]
        assert np.array_equal(ours.energy_weighted_ao, theirs.energy_weighted_ao)
        assert np.array_equal(
            ours.energy_weighted_ortho.toarray(),
            theirs.energy_weighted_ortho.toarray(),
        )
        assert ours.band_energy == theirs.band_energy
        assert ours.mu == theirs.mu


@pytest.fixture(scope="module")
def reference_bundle(water32_matrices):
    """Direct batched multi-observable result every path is checked against."""
    pair = water32_matrices
    with SubmatrixContext(CONFIG) as ctx:
        bundle = ctx.observables(
            pair.K,
            pair.S,
            pair.blocks,
            observables=ALL_OBSERVABLES,
            n_electrons=N_ELECTRONS,
        )
        density = ctx.density(pair.K, pair.S, pair.blocks, n_electrons=N_ELECTRONS)
    return bundle, density


# --------------------------------------------------------------------------- #
# tentpole: density through the generic pipeline is the old density, bitwise
# --------------------------------------------------------------------------- #
class TestDensityThroughPipeline:
    @pytest.mark.slow
    def test_batched_canonical(self, water32_matrices, reference_bundle):
        bundle, density = reference_bundle
        assert isinstance(bundle, ObservableBundle)
        assert_density_identical(bundle["density"], density)

    @pytest.mark.slow
    def test_batched_grand_canonical(self, water32_matrices, gap_mu):
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            density = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
            bundle = ctx.observables(pair.K, pair.S, pair.blocks, mu=gap_mu)
        assert_density_identical(bundle["density"], density)

    @pytest.mark.slow
    def test_reference_loop(self, water32_matrices, gap_mu):
        """The bundled density equals, to rounding, the serial loop over the
        ``core/submatrix.py`` kernels (one ``eigh`` and one full product per
        submatrix)."""
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            bundle = ctx.observables(
                pair.K, pair.S, pair.blocks, observables=ALL_OBSERVABLES, mu=gap_mu
            )
        reference = reference_density(
            pair.K, pair.S, pair.blocks, gap_mu, eps_filter=CONFIG.eps_filter
        )
        assert_matches_reference_density(bundle["density"], reference)

    @pytest.mark.slow
    @pytest.mark.parametrize("ranks", [1, 2, 4, 8])
    def test_sharded_ranks(self, water32_matrices, ranks, reference_bundle):
        pair = water32_matrices
        _, density_reference = reference_bundle
        with SubmatrixContext(CONFIG) as ctx:
            density = ctx.density(
                pair.K, pair.S, pair.blocks, n_electrons=N_ELECTRONS, ranks=ranks
            )
            bundle = ctx.observables(
                pair.K,
                pair.S,
                pair.blocks,
                observables=ALL_OBSERVABLES,
                n_electrons=N_ELECTRONS,
                ranks=ranks,
            )
        assert_density_identical(bundle["density"], density)
        # sharding itself must not perturb the result either
        assert_density_identical(bundle["density"], density_reference)

    def test_bundle_quacks_like_density(self, reference_bundle):
        bundle, density = reference_bundle
        # attribute fall-through keeps bundles drop-in where density flowed
        assert bundle.mu == density.mu
        assert bundle.band_energy == density.band_energy
        assert np.array_equal(bundle.density_ao, density.density_ao)


# --------------------------------------------------------------------------- #
# tentpole: N observables, one eigendecomposition pass per stack
# --------------------------------------------------------------------------- #
class TestSharedDecomposition:
    def _count_eigh_calls(self, monkeypatch, run):
        """(Löwdin eigh calls, submatrix-stack eigh calls, result).

        The batched engine decomposes whole 3-D stacks, so stack calls are
        the ``ndim == 3`` ones; 2-D calls are the Löwdin orthogonalization.
        """
        loewdin, stacks = [], []
        true_eigh = np.linalg.eigh

        def counting_eigh(matrix, *args, **kwargs):
            (stacks if np.asarray(matrix).ndim == 3 else loewdin).append(1)
            return true_eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        result = run()
        monkeypatch.undo()
        return len(loewdin), len(stacks), result

    def test_three_observables_one_pass(
        self, water32_matrices, reference_bundle, monkeypatch
    ):
        pair = water32_matrices
        config = EngineConfig(engine="batched", backend="serial")
        with SubmatrixContext(config) as ctx:
            density_loewdin, density_stacks, _ = self._count_eigh_calls(
                monkeypatch,
                lambda: ctx.density(
                    pair.K, pair.S, pair.blocks, n_electrons=N_ELECTRONS
                ),
            )
            bundle_loewdin, bundle_stacks, bundle = self._count_eigh_calls(
                monkeypatch,
                lambda: ctx.observables(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    observables=ALL_OBSERVABLES,
                    n_electrons=N_ELECTRONS,
                ),
            )
        # the acceptance assertion: three observables cost exactly as many
        # eigendecomposition calls as density alone — one per stack
        assert bundle_stacks == density_stacks
        assert bundle.stack_decompositions == bundle_stacks >= 1
        assert len(bundle.results) == 3
        # and the session diagonalises an overlap content once, not per call
        assert (density_loewdin, bundle_loewdin) == (1, 0)
        # the stack count is the plan's, not the backend's: the pooled
        # two-worker session counts the same stacks
        assert reference_bundle[0].stack_decompositions == bundle_stacks


# --------------------------------------------------------------------------- #
# tentpole: a fixed-μ request keeps no spectra (eigh → occupy → scatter)
# --------------------------------------------------------------------------- #
class TestStreamedRoute:
    #: water-32 at this filter has eight distinct submatrix dimensions
    #: (126…168): eight stacks, several per rank
    EPS = 1e-2

    @staticmethod
    def count_kept(monkeypatch):
        """Count the submatrices whose spectra are kept from here on (0:
        nothing collected): the members of every stack the collect-mode
        solver decomposes."""
        kept = []
        collect = repro.api.observables._collect_spectra

        def counting(stack):
            kept.append(len(stack))
            return collect(stack)

        monkeypatch.setattr(repro.api.observables, "_collect_spectra", counting)
        return kept

    @pytest.mark.slow
    @pytest.mark.parametrize("temperature", [0.0, 3000.0])
    def test_bitwise_chain_over_every_route(
        self, water32_matrices, gap_mu, temperature, monkeypatch
    ):
        """streamed == collected == served == two ranks."""
        pair = water32_matrices
        request = (pair.K, pair.S, pair.blocks)
        config = EngineConfig(eps_filter=self.EPS, temperature=temperature)
        kept = self.count_kept(monkeypatch)
        with SubmatrixContext(config) as ctx:
            streamed = ctx.density(*request, mu=gap_mu)
            sharded = ctx.density(*request, mu=gap_mu, ranks=2)
            assert kept == []  # neither call held a spectrum
            collected = ctx.observables(
                *request, observables=("density", "pdos"), mu=gap_mu
            )
            assert sum(kept) == len(streamed.submatrix_dimensions) == 32
            assert len(kept) == 8  # one record per stack
        assert len(set(streamed.submatrix_dimensions)) == 8
        assert_density_identical(collected["density"], streamed)
        assert_density_identical(sharded, streamed)
        with DensityService(config) as service:
            served = service.submit(*request, mu=gap_mu).result(120)
        assert sum(kept) == 32  # a served fixed-μ call streams too
        assert_density_identical(served, streamed)

    def test_against_the_dense_oracle(self, water32_matrices, gap_mu):
        """Not path-vs-path: the invariants of a T = 0 density matrix and the
        dense eigenvector projector, within the filter's envelope."""
        pair = water32_matrices
        envelope = self.EPS / 10.0  # measured: 4.3e-4, 4.5e-5, 2.8e-7
        with SubmatrixContext(EngineConfig(eps_filter=self.EPS)) as ctx:
            result = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
        oracle = reference_density_matrix(pair.K, pair.S, mu=gap_mu)
        assert oracle.n_electrons == pytest.approx(N_ELECTRONS, abs=1e-9)
        assert np.max(np.abs(result.density_ao - oracle.density_ao)) <= envelope
        # Tr(D̃) = N: 128 doubly occupied orbitals
        occupation = result.density_ortho.toarray()
        assert 2.0 * np.trace(occupation) == pytest.approx(N_ELECTRONS, abs=envelope)
        assert result.n_electrons == pytest.approx(N_ELECTRONS, abs=envelope)
        # D̃² = D̃
        assert np.max(np.abs(occupation @ occupation - occupation)) <= envelope

    @pytest.mark.parametrize("ranks", [None, 2])
    def test_stack_decompositions_counts_the_streamed_stacks(
        self, water32_matrices, gap_mu, ranks, monkeypatch
    ):
        pair = water32_matrices
        stacks = []
        eigh = np.linalg.eigh

        def counting_eigh(matrix, *args, **kwargs):
            stacks.append(np.asarray(matrix).ndim == 3)
            return eigh(matrix, *args, **kwargs)

        with SubmatrixContext(EngineConfig(eps_filter=self.EPS)) as ctx:
            ctx.overlap_root(pair.S)  # its 2-D eigh happens before counting
            monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
            bundle = ctx.observables(
                pair.K, pair.S, pair.blocks, mu=gap_mu, ranks=ranks
            )
            monkeypatch.undo()
        assert all(stacks)
        # eight dimensions; two ranks split some of them into a stack each
        assert bundle.stack_decompositions == len(stacks) >= 8

    @pytest.mark.slow
    def test_peak_memory_stays_below_the_spectra(self, water64_matrices, gap_mu):
        """The design as an assertion (``tracemalloc``: deterministic, no
        RSS): a fixed-μ density call never holds Σdᵢ²·8 B — the eigenvectors
        of all submatrices — above its pre-call level; the canonical call,
        which bisects on them, does."""
        pair = water64_matrices
        request = (pair.K, pair.S, pair.blocks)
        config = EngineConfig(eps_filter=1e-3, backend="serial")
        with SubmatrixContext(config) as ctx:
            warm = ctx.density(*request, mu=gap_mu)  # plan and S^{-1/2} cached
            spectra_bytes = 8 * sum(d * d for d in warm.submatrix_dimensions)
            assert spectra_bytes > 30 * 2**20
            peaks = {}
            for name, ensemble in (
                ("fixed_mu", dict(mu=gap_mu)),
                ("canonical", dict(n_electrons=8.0 * 64)),
            ):
                tracemalloc.start()
                try:
                    before = tracemalloc.get_traced_memory()[0]
                    ctx.density(*request, **ensemble)
                    peaks[name] = tracemalloc.get_traced_memory()[1] - before
                finally:
                    tracemalloc.stop()
        assert peaks["fixed_mu"] < spectra_bytes < peaks["canonical"]


class TestStackSpectra:
    """The per-stack records are read by every bisection step and every
    observable of a request: complete and read-only when built, until the
    request's last reader of Q forms its panels in Q."""

    def test_records_are_complete_and_read_only(self, water32_matrices, gap_mu):
        pair = water32_matrices
        records = []
        decompose = repro.api.observables._decompose

        def spying_decompose(*args, **kwargs):
            decomposition = decompose(*args, **kwargs)
            for record in decomposition.spectra:
                for name in ("eigenvalues", "eigenvectors", "weights"):
                    array = getattr(record, name)
                    assert not array.flags.writeable, name
                    with pytest.raises(ValueError, match="read-only"):
                        array[...] = 0.0
                # the density scatters in Q itself: keep it as built
                records.append(record._replace(eigenvectors=record.eigenvectors.copy()))
            return decomposition

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.api.observables, "_decompose", spying_decompose)
            with SubmatrixContext(EngineConfig(eps_filter=1e-2)) as ctx:
                ctx.density(pair.K, pair.S, pair.blocks, n_electrons=N_ELECTRONS)
                prepared = prepare_step(pair.K, pair.S, pair.blocks, 1e-2)
                plan = ctx.block_plan_for(
                    prepared.coo,
                    prepared.block_k.row_block_sizes,
                    [[column] for column in range(prepared.block_k.n_block_cols)],
                )
        assert ctx.plan_cache.stats["misses"] == 1  # the request's own plan
        assert len(records) == len(make_stack_tasks(plan.dimensions)) == 8
        members = np.concatenate([record.members for record in records])
        assert sorted(members.tolist()) == list(range(plan.n_groups))
        assert plan.n_groups == 32
        for record in records:
            k, d = record.members.size, plan.groups[record.members[0]].dimension
            assert record.eigenvalues.shape == record.weights.shape == (k, d)
            assert record.eigenvectors.shape == (k, d, d)
            for slot, member in enumerate(record.members.tolist()):
                group = plan.groups[member]
                assert group.dimension == d
                # the generating rows, one arange per generating block column
                offsets = np.concatenate(([0], np.cumsum(group.block_sizes)))
                rows = np.concatenate(
                    [
                        np.arange(offsets[column], offsets[column + 1])
                        for column in group.local_columns
                    ]
                )
                q_rows = record.eigenvectors[slot][rows, :]
                assert np.array_equal(record.weights[slot], np.sum(q_rows**2, axis=0))


# --------------------------------------------------------------------------- #
# satellite: PDOS and energy-weighted density vs a dense reference
# --------------------------------------------------------------------------- #
def full_matrix_system(n_blocks=4, block_size=3, seed=7):
    """Small system whose block pattern is fully dense.

    Every submatrix is then the entire matrix, so the submatrix method's
    spectral data must reproduce a dense diagonalization exactly — the
    regime where PDOS and W have a closed dense reference.
    """
    generator = np.random.default_rng(seed)
    n = n_blocks * block_size
    dense = generator.normal(size=(n, n))
    dense = (dense + dense.T) / 2.0
    sizes = np.asarray([block_size] * n_blocks)
    starts = np.concatenate(([0], np.cumsum(sizes)))
    blocks = BlockStructure(
        block_sizes=sizes,
        block_starts=starts,
        atom_offsets=starts[:-1].copy(),
        n_basis=n,
    )
    return sp.csr_matrix(dense), sp.identity(n, format="csr"), blocks, dense


class TestAgainstDenseReference:
    @pytest.fixture(scope="class")
    def dense_case(self):
        K, S, blocks, dense = full_matrix_system()
        mu = 0.1
        config = EngineConfig(engine="batched", backend="serial", eps_filter=1e-12)
        with SubmatrixContext(config) as ctx:
            bundle = ctx.observables(
                K,
                S,
                blocks,
                observables=ALL_OBSERVABLES,
                mu=mu,
                observable_params={"pdos": {"broadening": 0.2, "n_points": 300}},
            )
        eigenvalues, eigenvectors = np.linalg.eigh(dense)
        return bundle, dense, eigenvalues, eigenvectors, mu, config

    def test_pdos_matches_dense_spectrum(self, dense_case):
        bundle, _, eigenvalues, _, _, config = dense_case
        pdos = bundle["pdos"]
        # each dense eigenvalue carries total spectral weight 1 (eigenvector
        # normalization), so the broadened DOS has a closed dense form
        norm = SPIN_DEGENERACY / (
            pdos.broadening * np.sqrt(2.0 * np.pi)
        )
        delta = (pdos.energies[None, :] - eigenvalues[:, None]) / pdos.broadening
        dense_dos = norm * np.sum(np.exp(-0.5 * delta * delta), axis=0)
        np.testing.assert_allclose(pdos.dos, dense_dos, rtol=1e-10, atol=1e-12)
        # the integrated DOS counts all states
        assert pdos.integrated_states() == pytest.approx(
            SPIN_DEGENERACY * len(eigenvalues), rel=1e-6
        )

    def test_energy_weighted_matches_dense(self, dense_case):
        bundle, _, eigenvalues, eigenvectors, mu, config = dense_case
        result = bundle["energy_weighted_density"]
        occupations = fermi_occupation(eigenvalues, mu, config.temperature)
        dense_w = (
            eigenvectors * (eigenvalues * occupations)
        ) @ eigenvectors.T
        np.testing.assert_allclose(
            result.energy_weighted_ao, dense_w, atol=1e-12
        )
        assert result.band_energy == pytest.approx(
            SPIN_DEGENERACY * float(np.sum(eigenvalues * occupations)),
            abs=1e-10,
        )

    def test_density_band_energy_consistent(self, dense_case):
        """Tr(D·K) (density result) equals g_s·Tr(W) on the exact system."""
        bundle = dense_case[0]
        assert bundle["density"].band_energy == pytest.approx(
            bundle["energy_weighted_density"].band_energy, rel=1e-9
        )


# --------------------------------------------------------------------------- #
# satellite: served multi-observable requests
# --------------------------------------------------------------------------- #
class TestServedObservables:
    @pytest.mark.slow
    def test_served_bundle_bitwise_vs_direct(
        self, water32_matrices, reference_bundle
    ):
        pair = water32_matrices
        bundle_reference, density_reference = reference_bundle
        with DensityService(CONFIG) as service:
            served_density = service.submit(
                pair.K, pair.S, pair.blocks, n_electrons=N_ELECTRONS
            ).result(120)
            served_bundle = service.submit(
                pair.K,
                pair.S,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                observables=ALL_OBSERVABLES,
            ).result(120)
        assert_density_identical(served_density, density_reference)
        assert isinstance(served_bundle, ObservableBundle)
        assert_bundle_identical(served_bundle, bundle_reference)

    @pytest.mark.slow
    def test_served_direct_path_bundle(self, water32_matrices):
        """Rank-sharded requests are served observable-keyed too."""
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            direct = ctx.observables(
                pair.K,
                pair.S,
                pair.blocks,
                observables=ALL_OBSERVABLES,
                n_electrons=N_ELECTRONS,
                ranks=2,
            )
        with DensityService(CONFIG) as service:
            served = service.submit(
                pair.K,
                pair.S,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                ranks=2,
                observables=ALL_OBSERVABLES,
            ).result(120)
        assert_bundle_identical(served, direct)

    def test_unknown_served_observable_fails_fast(self, water32_matrices):
        pair = water32_matrices
        with DensityService(CONFIG) as service:
            with pytest.raises(UnknownObservableError):
                service.submit(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    n_electrons=N_ELECTRONS,
                    observables=("dentisy",),
                )


# --------------------------------------------------------------------------- #
# satellite: table lookups and error messages
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_registered(self):
        assert available_observables() == tuple(sorted(ALL_OBSERVABLES))
        for name in ALL_OBSERVABLES:
            observable = get_observable(name)
            assert observable.name == name and callable(observable.assemble)
            # only density can come from the iterative sign kernel
            assert observable.supports_iterative == (name == "density")

    def test_unknown_observable_did_you_mean(self):
        with pytest.raises(UnknownObservableError, match="did you mean"):
            get_observable("dentisy")

    def test_normalize_deduplicates_preserving_order(self):
        assert normalize_observables(("pdos", "density", "pdos")) == (
            "pdos",
            "density",
        )
        assert normalize_observables("density") == ("density",)
        with pytest.raises(ValueError, match="at least one"):
            normalize_observables(())

    def test_iterative_kernel_refuses_spectral_observables(
        self, water32_matrices, gap_mu
    ):
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            with pytest.raises(ValueError, match="spectral data"):
                ctx.observables(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    observables=("density", "pdos"),
                    mu=gap_mu,
                    solver="newton_schulz",
                )

    def test_params_for_unrequested_observable_raise(
        self, water32_matrices, gap_mu
    ):
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            with pytest.raises(ValueError, match="not in the requested"):
                ctx.observables(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    observables=("density",),
                    mu=gap_mu,
                    observable_params={"pdos": {"broadening": 0.1}},
                )

    def test_bad_pdos_params_raise(self, water32_matrices, gap_mu):
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            with pytest.raises(ValueError, match="broadening"):
                ctx.observables(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    observables=("pdos",),
                    mu=gap_mu,
                    observable_params={"pdos": {"broadening": -1.0}},
                )
            with pytest.raises(ValueError, match="unknown pdos parameters"):
                ctx.observables(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    observables=("pdos",),
                    mu=gap_mu,
                    observable_params={"pdos": {"sigma": 0.1}},
                )

    @pytest.mark.parametrize(
        "params, error, match",
        [
            # a non-finite width gave an all-NaN DOS and only a RuntimeWarning
            ({"broadening": float("nan")}, ValueError, "broadening"),
            ({"broadening": float("inf")}, ValueError, "broadening"),
            ({"broadening": 0.0}, ValueError, "broadening"),
            # a float or bool grid size truncated silently
            ({"n_points": 2.9}, TypeError, "n_points"),
            ({"n_points": 64.0}, TypeError, "n_points"),
            ({"n_points": True}, TypeError, "n_points"),
            ({"n_points": 1}, ValueError, "n_points"),
            ({"n_points": 0}, ValueError, "n_points"),
            ({"energy_window": (0.0,)}, ValueError, "energy_window"),
            ({"energy_window": (0.0, 1.0, 2.0)}, ValueError, "energy_window"),
            ({"energy_window": (0.0, float("nan"))}, ValueError, "energy_window"),
            ({"energy_window": (float("-inf"), 0.0)}, ValueError, "energy_window"),
            ({"energy_window": (1.0, 0.0)}, ValueError, "energy_window"),
        ],
        ids=repr,
    )
    def test_hostile_pdos_params_raise(
        self, water32_matrices, gap_mu, params, error, match
    ):
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            with pytest.raises(error, match=match):
                ctx.observables(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    observables=("pdos",),
                    mu=gap_mu,
                    observable_params={"pdos": params},
                )

    def test_integer_pdos_grid_of_any_integer_type(self, water32_matrices, gap_mu):
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            pdos = [
                ctx.observables(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    observables=("pdos",),
                    mu=gap_mu,
                    observable_params={
                        "pdos": {"n_points": n_points, "energy_window": [-1, 1]}
                    },
                )["pdos"]
                for n_points in (2, np.int64(2))
            ]
        for result in pdos:
            assert np.array_equal(result.energies, [-1.0, 1.0])
        assert np.array_equal(pdos[0].dos, pdos[1].dos)

    def test_density_takes_no_params(self, water32_matrices, gap_mu):
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            with pytest.raises(ValueError, match="no parameters"):
                ctx.observables(
                    pair.K,
                    pair.S,
                    pair.blocks,
                    observables=("density",),
                    mu=gap_mu,
                    observable_params={"density": {"broadening": 0.1}},
                )
