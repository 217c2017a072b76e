#!/usr/bin/env python
"""Canonical ensembles and finite temperature with the submatrix method.

The submatrix method is intrinsically grand-canonical (fixed chemical
potential μ).  Sec. IV-G of the paper shows how solving the submatrices by
eigendecomposition makes canonical calculations cheap: the electron count can
be evaluated for any μ from the cached eigendecompositions (Algorithm 1), so
a bisection on μ costs almost nothing compared to recomputing the sign
function at every step.

This example mimics the usage pattern of an ab-initio MD driver:

* solve the neutral system canonically (fixed electron count),
* remove a few electrons (a charged system) and watch μ drop into the
  occupied band,
* repeat the neutral solve at a finite electronic temperature, where the
  Heaviside occupations are replaced by the Fermi function.

Run with:  python examples/canonical_ensemble_md.py
"""

from repro.chem import HamiltonianModel, build_matrices, water_box
from repro.api import EngineConfig, SubmatrixContext


def describe(tag: str, result) -> None:
    print(
        f"{tag:<34s}  mu = {result.mu:+8.4f} eV   "
        f"N_elec = {result.n_electrons:9.4f}   "
        f"E_band = {result.band_energy:12.4f} eV   "
        f"(mu bisection iterations: {result.mu_iterations})"
    )


def main() -> None:
    system = water_box((2, 1, 1))
    model = HamiltonianModel()
    pair = build_matrices(system, model=model)
    electrons_neutral = 8 * system.n_molecules
    print(
        f"system: {system.n_molecules} H2O, {system.n_atoms} atoms, "
        f"{pair.n_basis} basis functions, {electrons_neutral} valence electrons\n"
    )

    config = EngineConfig(eps_filter=1e-6, backend="thread")
    solver = SubmatrixContext(config)

    # canonical solve of the neutral system: mu is found by Algorithm 1
    neutral = solver.density(
        pair.K, pair.S, pair.blocks, n_electrons=electrons_neutral
    )
    describe("neutral, T = 0", neutral)

    # charged system: remove 8 electrons -> mu moves towards the occupied band
    cation = solver.density(
        pair.K, pair.S, pair.blocks, n_electrons=electrons_neutral - 8
    )
    describe("8 electrons removed, T = 0", cation)

    # grand-canonical run at the mu found above reproduces the same state
    grand = solver.density(pair.K, pair.S, pair.blocks, mu=neutral.mu)
    describe("grand canonical at canonical mu", grand)

    # finite electronic temperature: Fermi occupations instead of Heaviside
    with SubmatrixContext(config.replace(temperature=5000.0)) as hot_solver:
        hot = hot_solver.density(
            pair.K, pair.S, pair.blocks, n_electrons=electrons_neutral
        )
    describe("neutral, T = 5000 K", hot)
    solver.close()

    print(
        "\nThe canonical solves adjust mu without recomputing any "
        "eigendecomposition (Algorithm 1 of the paper)."
    )


if __name__ == "__main__":
    main()
