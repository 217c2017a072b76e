#!/usr/bin/env python
"""Quickstart: density matrix of a liquid-water box via the submatrix method.

This example walks through the full pipeline of the paper on a small system:

1. build a periodic liquid-water benchmark system (32 molecules),
2. construct the model Kohn–Sham matrix K and overlap matrix S (SZV basis),
3. compute the density matrix with the submatrix method — the orthogonalized
   Kohn–Sham matrix is filtered at ``eps_filter``, one dense submatrix is
   built per molecule block column, the matrix sign function is evaluated by
   eigendecomposition on each submatrix, and the relevant columns are
   scattered back (Eq. 16/17 of the paper),
4. compare energy and electron count against the cubic-scaling dense
   reference.

Run with:  python examples/quickstart.py
"""

from repro.chem import (
    HamiltonianModel,
    build_matrices,
    reference_density_matrix,
    water_box,
)
from repro.api import EngineConfig, SubmatrixContext


def main() -> None:
    # 1. benchmark system: one 32-molecule building block (96 atoms)
    system = water_box(1)
    print(f"system: {system.n_molecules} H2O molecules, {system.n_atoms} atoms")

    # 2. model Kohn-Sham and overlap matrices in the SZV-like basis
    model = HamiltonianModel()
    pair = build_matrices(system, model=model)
    print(
        f"matrices: dimension {pair.n_basis}, "
        f"K has {pair.K.nnz} stored elements "
        f"({pair.K.nnz / pair.n_basis**2:.1%} of dense)"
    )

    # 3. submatrix-method density matrix (grand canonical: fixed mu in the gap)
    mu = model.homo_lumo_gap_center()
    with SubmatrixContext(EngineConfig(eps_filter=1e-6, backend="thread")) as context:
        result = context.density(pair.K, pair.S, pair.blocks, mu=mu)
    print(
        f"submatrix method: {result.n_submatrices} submatrices, "
        f"largest dimension {result.max_submatrix_dimension}, "
        f"wall time {result.wall_time:.2f} s"
    )
    print(
        f"  band-structure energy = {result.band_energy:.6f} eV, "
        f"electrons = {result.n_electrons:.3f}"
    )

    # 4. cubic-scaling dense reference for comparison
    reference = reference_density_matrix(pair.K, pair.S, mu=mu)
    error_mev_per_atom = (
        abs(result.band_energy - reference.band_energy) / system.n_atoms * 1000.0
    )
    print(
        f"dense reference:  band-structure energy = {reference.band_energy:.6f} eV, "
        f"electrons = {reference.n_electrons:.3f}"
    )
    print(f"energy error of the submatrix method: {error_mev_per_atom:.4f} meV/atom")


if __name__ == "__main__":
    main()
