"""Quantum-chemistry substrate.

This subpackage replaces CP2K/Quickstep as the source of Kohn–Sham and overlap
matrices.  It provides

* atomistic containers with periodic boundary conditions (:mod:`repro.chem.atoms`),
* the liquid-water benchmark-system generator used throughout the paper
  (:mod:`repro.chem.water`),
* single-zeta and double-zeta basis-set models (:mod:`repro.chem.basis`),
* a distance-decay model Hamiltonian / overlap builder producing matrices with
  the same block structure, sparsity and spectral features as the CP2K
  matrices (:mod:`repro.chem.hamiltonian`),
* Löwdin symmetric orthogonalization (:mod:`repro.chem.orthogonalize`), and
* dense reference density-matrix solvers and energy expressions
  (:mod:`repro.chem.density`).
"""

from repro.chem.atoms import Atom, Cell, System
from repro.chem.basis import BasisSet, DZVP, SZV
from repro.chem.water import water_box, water_molecule, base_water_cell
from repro.chem.hamiltonian import (
    HamiltonianModel,
    BlockStructure,
    MatrixPair,
    block_structure,
    build_matrices,
    build_block_pattern,
    cutoff_radius,
)
from repro.chem.orthogonalize import loewdin_inverse_sqrt, orthogonalized_ks
from repro.chem.density import (
    reference_density_matrix,
    band_structure_energy,
    electron_count,
    density_from_sign,
)

__all__ = [
    "Atom",
    "Cell",
    "System",
    "BasisSet",
    "SZV",
    "DZVP",
    "water_box",
    "water_molecule",
    "base_water_cell",
    "HamiltonianModel",
    "BlockStructure",
    "MatrixPair",
    "block_structure",
    "build_matrices",
    "build_block_pattern",
    "cutoff_radius",
    "loewdin_inverse_sqrt",
    "orthogonalized_ks",
    "reference_density_matrix",
    "band_structure_energy",
    "electron_count",
    "density_from_sign",
]
