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
* trajectory steps and checkpoints round-trip the full multi-observable
  payload, and density-only checkpoints from a pre-refactor layout resume
  unchanged;
* the density-mixing SCF driver converges a nontrivial fixed-point map;
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
    TrajectoryCheckpoint,
    UnknownObservableError,
    available_observables,
    get_observable,
    run_scf,
)
from repro.api.checkpoint import CheckpointError
from repro.api.observables import compute_observables, normalize_observables
from repro.chem import reference_density_matrix
from repro.chem.density import fermi_occupation
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
    def test_batched_canonical(self, water32_matrices, reference_bundle):
        bundle, density = reference_bundle
        assert isinstance(bundle, ObservableBundle)
        assert_density_identical(bundle["density"], density)

    def test_batched_grand_canonical(self, water32_matrices, gap_mu):
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            density = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
            bundle = ctx.observables(pair.K, pair.S, pair.blocks, mu=gap_mu)
        assert_density_identical(bundle["density"], density)

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

    def test_three_observables_one_pass(self, water32_matrices, monkeypatch):
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

    def test_counter_survives_checkpoint(self, reference_bundle):
        bundle, _ = reference_bundle
        assert bundle.stack_decompositions >= 1


# --------------------------------------------------------------------------- #
# tentpole: a fixed-μ request keeps no spectra (eigh → occupy → scatter)
# --------------------------------------------------------------------------- #
class TestStreamedRoute:
    #: water-32 at this filter has eight distinct submatrix dimensions
    #: (126…168): eight stacks, several per rank
    EPS = 1e-2

    @staticmethod
    def count_entries(monkeypatch):
        """Count the cache entries built from here on (0: nothing collected)."""
        built = []
        make_entry = repro.api.observables._make_entry

        def counting(*args):
            built.append(1)
            return make_entry(*args)

        monkeypatch.setattr(repro.api.observables, "_make_entry", counting)
        return built

    @pytest.mark.parametrize("temperature", [0.0, 3000.0])
    def test_bitwise_chain_over_every_route(
        self, water32_matrices, gap_mu, temperature, monkeypatch
    ):
        """streamed == collected == served == two ranks."""
        pair = water32_matrices
        request = (pair.K, pair.S, pair.blocks)
        config = EngineConfig(eps_filter=self.EPS, temperature=temperature)
        built = self.count_entries(monkeypatch)
        with SubmatrixContext(config) as ctx:
            streamed = ctx.density(*request, mu=gap_mu)
            sharded = ctx.density(*request, mu=gap_mu, ranks=2)
            assert built == []  # neither call held a spectrum
            collected = ctx.observables(
                *request, observables=("density", "pdos"), mu=gap_mu
            )
            assert len(built) == len(streamed.submatrix_dimensions) == 32
        assert len(set(streamed.submatrix_dimensions)) == 8
        assert_density_identical(collected["density"], streamed)
        assert_density_identical(sharded, streamed)
        with DensityService(config) as service:
            served = service.density(*request, mu=gap_mu)
        assert len(built) == 32  # a served fixed-μ call streams too
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


class TestCacheEntries:
    """Entries are read by every bisection step and every observable of a
    request: complete when built, read-only afterwards."""

    def test_entries_are_complete_and_read_only(self, water32_matrices, gap_mu):
        pair = water32_matrices
        entries = []
        bisect = repro.api.observables._bisect_mu

        def spying_bisect(config, decomposed, *args, **kwargs):
            entries.extend(decomposed)
            return bisect(config, decomposed, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(repro.api.observables, "_bisect_mu", spying_bisect)
            with SubmatrixContext(EngineConfig(eps_filter=1e-2)) as ctx:
                ctx.density(pair.K, pair.S, pair.blocks, n_electrons=N_ELECTRONS)
        assert len(entries) == 32
        for entry in entries:
            # the generating rows, one arange per generating block column
            offsets = np.concatenate(([0], np.cumsum(entry.submatrix.block_sizes)))
            rows = np.concatenate(
                [
                    np.arange(offsets[column], offsets[column + 1])
                    for column in entry.submatrix.local_columns
                ]
            )
            q_rows = entry.eigenvectors[rows, :]
            assert entry.generating_slice.flags.c_contiguous
            assert np.array_equal(entry.generating_slice, q_rows)
            assert np.array_equal(entry.generating_weights, np.sum(q_rows**2, axis=0))
            for name in (
                "eigenvalues",
                "eigenvectors",
                "generating_slice",
                "generating_weights",
            ):
                array = getattr(entry, name)
                assert not array.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0.0


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
        norm = config.spin_degeneracy / (
            pdos.broadening * np.sqrt(2.0 * np.pi)
        )
        delta = (pdos.energies[None, :] - eigenvalues[:, None]) / pdos.broadening
        dense_dos = norm * np.sum(np.exp(-0.5 * delta * delta), axis=0)
        np.testing.assert_allclose(pdos.dos, dense_dos, rtol=1e-10, atol=1e-12)
        # the integrated DOS counts all states
        assert pdos.integrated_states() == pytest.approx(
            config.spin_degeneracy * len(eigenvalues), rel=1e-6
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
            config.spin_degeneracy * float(np.sum(eigenvalues * occupations)),
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
    def test_served_bundle_bitwise_vs_direct(
        self, water32_matrices, reference_bundle
    ):
        pair = water32_matrices
        bundle_reference, density_reference = reference_bundle
        with DensityService(CONFIG) as service:
            served_density = service.density(
                pair.K, pair.S, pair.blocks, n_electrons=N_ELECTRONS
            )
            served_bundle = service.density(
                pair.K,
                pair.S,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                observables=ALL_OBSERVABLES,
            )
        assert_density_identical(served_density, density_reference)
        assert isinstance(served_bundle, ObservableBundle)
        assert_bundle_identical(served_bundle, bundle_reference)

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
            served = service.density(
                pair.K,
                pair.S,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                ranks=2,
                observables=ALL_OBSERVABLES,
            )
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
# satellite: trajectory steps and checkpoints carry the full payload
# --------------------------------------------------------------------------- #
def value_steps(pair, n_steps, scale=1e-4):
    return [(pair.K * (1.0 + scale * step), pair.S) for step in range(n_steps)]


class TestTrajectoryObservables:
    def test_steps_are_bundles_matching_fresh_calls(self, water32_matrices):
        pair = water32_matrices
        steps = value_steps(pair, 3)
        with SubmatrixContext(CONFIG) as ctx:
            traj = ctx.trajectory(
                steps,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                observables=ALL_OBSERVABLES,
            )
            for index, (K, S) in enumerate(steps):
                fresh = ctx.observables(
                    K,
                    S,
                    pair.blocks,
                    observables=ALL_OBSERVABLES,
                    n_electrons=N_ELECTRONS,
                )
                assert isinstance(traj.results[index], ObservableBundle)
                assert_bundle_identical(traj.results[index], fresh)

    def test_checkpoint_round_trips_bundles(self, water32_matrices, tmp_path):
        pair = water32_matrices
        steps = value_steps(pair, 2)
        with SubmatrixContext(CONFIG) as ctx:
            first = ctx.trajectory(
                steps,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                observables=ALL_OBSERVABLES,
                checkpoint=tmp_path / "bundles",
            )
        with SubmatrixContext(CONFIG) as ctx:
            replay = ctx.trajectory(
                steps,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                observables=ALL_OBSERVABLES,
                checkpoint=tmp_path / "bundles",
            )
        assert replay.stats.steps_resumed == len(steps)
        for before, after in zip(first.results, replay.results):
            assert isinstance(after, ObservableBundle)
            assert_bundle_identical(after, before)

    def test_bundle_step_missing_an_observable_array_raises(
        self, water32_matrices, gap_mu, tmp_path
    ):
        """A bundle step whose pdos arrays lost one is a corrupt checkpoint:
        the observable's load hook fails inside the same guard as the
        density arrays, so the caller sees a CheckpointError, not a KeyError."""
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            bundle = ctx.observables(
                pair.K, pair.S, pair.blocks, observables=("density", "pdos"), mu=gap_mu
            )
        checkpoint = TrajectoryCheckpoint(tmp_path / "bundle")
        checkpoint.save_step(0, bundle)
        assert_bundle_identical(checkpoint.load_step(0), bundle)
        with np.load(checkpoint._step_path(0)) as data:
            arrays = {key: data[key] for key in data.files}
        del arrays["obs_pdos__scalars"]
        np.savez(checkpoint._step_path(0), **arrays)
        with pytest.raises(CheckpointError, match="corrupt checkpoint step file"):
            checkpoint.load_step(0)

    def test_density_only_checkpoint_layout_unchanged(
        self, water32_matrices, tmp_path
    ):
        """Pre-refactor compatibility: density-only runs write the native
        layout (no ``observables`` key) and resume as plain results — also
        from step files that still carry the trailing mixed-precision
        scalar and counters of the 8-scalar/8-counter layout."""
        pair = water32_matrices
        steps = value_steps(pair, 2)
        with SubmatrixContext(CONFIG) as ctx:
            first = ctx.trajectory(
                steps,
                pair.blocks,
                n_electrons=N_ELECTRONS,
                checkpoint=tmp_path / "legacy",
            )
        checkpoint = TrajectoryCheckpoint(tmp_path / "legacy")
        with np.load(checkpoint._step_path(0)) as data:
            assert "observables" not in data.files
            assert not any(key.startswith("obs_") for key in data.files)
            assert data["scalars"].size == 7 and data["counters"].size == 6
        for with_precision_tail in (False, True):
            if with_precision_tail:
                for index in range(len(steps)):
                    with np.load(checkpoint._step_path(index)) as data:
                        arrays = {key: data[key] for key in data.files}
                    arrays["scalars"] = np.append(arrays["scalars"], np.nan)
                    arrays["counters"] = np.append(arrays["counters"], [0, 0])
                    np.savez(checkpoint._step_path(index), **arrays)
            loaded = checkpoint.load_step(0)
            assert not isinstance(loaded, ObservableBundle)
            with SubmatrixContext(CONFIG) as ctx:
                resumed = ctx.trajectory(
                    steps,
                    pair.blocks,
                    n_electrons=N_ELECTRONS,
                    checkpoint=tmp_path / "legacy",
                )
            assert resumed.stats.steps_resumed == len(steps)
            for before, after in zip(first.results, resumed.results):
                assert np.array_equal(after.density_ao, before.density_ao)
                assert after.mu == before.mu
                assert after.band_energy == before.band_energy

    def test_trajectory_requires_density(self, water32_matrices):
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            with pytest.raises(ValueError, match="must include 'density'"):
                ctx.trajectory(
                    value_steps(pair, 1),
                    pair.blocks,
                    n_electrons=N_ELECTRONS,
                    observables=("pdos",),
                )


# --------------------------------------------------------------------------- #
# tentpole: the density-mixing SCF driver
# --------------------------------------------------------------------------- #
class TestSCFDriver:
    def test_converges_nontrivial_fixed_point(self, water32_matrices):
        pair = water32_matrices
        coupling = 0.05

        def update(density_ao, iteration):
            # K(D) = K0 + c·diag(diag(D)): a genuine self-consistent
            # coupling (symmetric, density-dependent), weak enough for the
            # damped fixed-point iteration to contract
            return pair.K + coupling * sp.diags(np.diag(density_ao))

        with SubmatrixContext(CONFIG) as ctx:
            result = run_scf(
                ctx,
                pair.K,
                pair.S,
                pair.blocks,
                update,
                n_electrons=N_ELECTRONS,
                mixing=0.6,
                tolerance=1e-8,
                max_iterations=40,
            )
        assert result.converged
        # the map moves the density: convergence must take several passes
        assert result.n_iterations >= 3
        assert result.density_changes[-1] < 1e-8
        assert np.isinf(result.density_changes[0])
        assert result.mixed_density.shape == result.final.density_ao.shape
        assert len(result.band_energies) == result.n_iterations
        assert len(result.mus) == result.n_iterations
        # with the density fixed, the updated K must reproduce itself
        fixed_K = update(result.mixed_density, result.n_iterations)
        with SubmatrixContext(CONFIG) as ctx:
            check = ctx.density(
                fixed_K, pair.S, pair.blocks, n_electrons=N_ELECTRONS
            )
        assert (
            float(np.max(np.abs(check.density_ao - result.mixed_density))) < 1e-6
        )

    def test_scf_with_observables(self, water32_matrices):
        pair = water32_matrices

        def update(density_ao, iteration):
            return pair.K + 0.05 * sp.diags(np.diag(density_ao))

        with SubmatrixContext(CONFIG) as ctx:
            result = run_scf(
                ctx,
                pair.K,
                pair.S,
                pair.blocks,
                update,
                n_electrons=N_ELECTRONS,
                mixing=0.6,
                tolerance=1e-6,
                max_iterations=25,
                observables=("density", "energy_weighted_density"),
            )
        assert result.converged
        assert isinstance(result.final, ObservableBundle)
        assert "energy_weighted_density" in result.final

    def test_iteration_budget_returns_unconverged(self, water32_matrices):
        pair = water32_matrices

        def update(density_ao, iteration):
            return pair.K + 0.05 * sp.diags(np.diag(density_ao))

        with SubmatrixContext(CONFIG) as ctx:
            result = run_scf(
                ctx,
                pair.K,
                pair.S,
                pair.blocks,
                update,
                n_electrons=N_ELECTRONS,
                mixing=0.6,
                tolerance=1e-14,  # unreachable
                max_iterations=3,
            )
        assert not result.converged
        assert result.n_iterations == 3

    def test_parameter_validation(self, water32_matrices):
        pair = water32_matrices
        with SubmatrixContext(CONFIG) as ctx:
            with pytest.raises(ValueError, match="mixing"):
                run_scf(
                    ctx, pair.K, pair.S, pair.blocks, lambda d, i: pair.K,
                    n_electrons=N_ELECTRONS, mixing=1.5,
                )
            with pytest.raises(ValueError, match="tolerance"):
                run_scf(
                    ctx, pair.K, pair.S, pair.blocks, lambda d, i: pair.K,
                    n_electrons=N_ELECTRONS, tolerance=0.0,
                )
            with pytest.raises(TypeError, match="callable"):
                run_scf(
                    ctx, pair.K, pair.S, pair.blocks, "not-a-function",
                    n_electrons=N_ELECTRONS,
                )


# --------------------------------------------------------------------------- #
# satellite: table lookups and error messages
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_builtins_registered(self):
        assert available_observables() == tuple(sorted(ALL_OBSERVABLES))
        # every observable but density persists through its own hooks
        for name in ALL_OBSERVABLES:
            observable = get_observable(name)
            hooks = (observable.checkpoint_save, observable.checkpoint_load)
            if name == "density":
                assert hooks == (None, None)
            else:
                assert all(callable(hook) for hook in hooks)

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
                compute_observables(
                    ctx,
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
