"""Model Kohn–Sham / overlap matrix builder.

The reproduction cannot run CP2K/Quickstep, so this module generates matrices
that share every property the submatrix method and the paper's evaluation
depend on:

* **block structure** — one DBCSR block per molecule, with block sizes given
  by the basis set (6 for SZV water, 23 for DZVP water);
* **distance decay** — matrix elements between basis functions on different
  molecules decay exponentially with the interatomic distance, so applying a
  filter threshold ``eps_filter`` produces the banded block-sparsity pattern
  of Fig. 2 and the linear-scaling saturation of Fig. 4;
* **spectrum** — each molecule contributes a fixed set of occupied and
  virtual levels (4 doubly-occupied valence orbitals for water), broadened
  into bands by the intermolecular couplings, with a clear gap in which the
  chemical potential μ can be placed;
* **symmetry / definiteness** — K is symmetric and S is symmetric positive
  definite, as required by the Löwdin orthogonalization (Eq. 16) and by the
  eigendecomposition-based sign evaluation (Sec. IV-F).

All energies are in eV and all lengths in Å.  Construction is fully
vectorised over atom pairs grouped by element pair, so systems with tens of
thousands of atoms can be assembled in seconds.
"""

from __future__ import annotations

import dataclasses
import math
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.chem.atoms import System
from repro.chem.basis import BasisSet, SZV

__all__ = [
    "HamiltonianModel",
    "BlockStructure",
    "MatrixPair",
    "block_structure",
    "cutoff_radius",
    "build_matrices",
    "build_block_pattern",
]

#: Occupied molecular-orbital-like levels per water molecule (eV).
#: Four doubly-occupied valence orbitals => 8 valence electrons per molecule,
#: matching H2O with GTH pseudopotentials (O: 6, H: 1 each).
DEFAULT_OCCUPIED_LEVELS = (-25.5, -13.5, -12.2, -11.0)

#: Range (eV) over which the virtual levels of a molecule are spread.
DEFAULT_VIRTUAL_RANGE = (4.5, 24.0)


@dataclasses.dataclass(frozen=True)
class HamiltonianModel:
    """Parameters of the distance-decay model Hamiltonian.

    Parameters
    ----------
    basis:
        Basis set providing per-element block sizes and decay lengths.
    occupied_levels:
        Per-molecule occupied orbital energies (eV).  Their number sets the
        number of occupied orbitals per molecule.
    virtual_range:
        (low, high) energies (eV) over which the remaining per-molecule levels
        are distributed.
    coupling_amplitude:
        Prefactor (eV) of the intermolecular Hamiltonian couplings.
    overlap_amplitude:
        Prefactor (dimensionless) of the intermolecular overlap elements.
        Must be small enough to keep S diagonally dominant and hence positive
        definite.
    seed:
        Seed for the deterministic per-block orthogonal transformations.
    """

    basis: BasisSet = SZV
    occupied_levels: Tuple[float, ...] = DEFAULT_OCCUPIED_LEVELS
    virtual_range: Tuple[float, float] = DEFAULT_VIRTUAL_RANGE
    coupling_amplitude: float = 2.0
    overlap_amplitude: float = 0.08
    seed: int = 7

    @property
    def n_occupied_per_molecule(self) -> int:
        """Number of occupied orbitals contributed by each molecule."""
        return len(self.occupied_levels)

    def molecular_levels(self, n_functions: int) -> np.ndarray:
        """Per-molecule orbital energies for a block of ``n_functions``."""
        n_occ = self.n_occupied_per_molecule
        if n_functions < n_occ:
            raise ValueError(
                f"molecule block of size {n_functions} cannot host "
                f"{n_occ} occupied orbitals"
            )
        n_virt = n_functions - n_occ
        if n_virt == 0:
            virtual = np.empty(0)
        else:
            virtual = np.linspace(self.virtual_range[0], self.virtual_range[1], n_virt)
        return np.concatenate([np.asarray(self.occupied_levels, dtype=float), virtual])

    def homo_lumo_gap_center(self) -> float:
        """Energy (eV) in the middle of the molecular HOMO–LUMO gap.

        A convenient default for the chemical potential μ of grand-canonical
        calculations; the intermolecular couplings broaden the levels by well
        under half the molecular gap, so this value always lies in the gap of
        the full system.
        """
        return 0.5 * (max(self.occupied_levels) + self.virtual_range[0])


@dataclasses.dataclass(frozen=True)
class BlockStructure:
    """Block (molecule) structure of the matrices for a given system/basis.

    Attributes
    ----------
    block_sizes:
        Number of basis functions per molecule block.
    block_starts:
        Offset of each block in the global basis-function index, with a final
        sentinel equal to the total dimension.
    atom_offsets:
        Global basis-function offset of each atom.
    n_basis:
        Total number of basis functions.
    """

    block_sizes: np.ndarray
    block_starts: np.ndarray
    atom_offsets: np.ndarray
    n_basis: int

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)


@dataclasses.dataclass
class MatrixPair:
    """Kohn–Sham and overlap matrices plus their block structure."""

    K: sp.csr_matrix
    S: sp.csr_matrix
    blocks: BlockStructure
    model: HamiltonianModel

    @property
    def n_basis(self) -> int:
        return self.blocks.n_basis


def block_structure(system: System, basis: BasisSet) -> BlockStructure:
    """Compute the molecule-block structure for ``system`` under ``basis``."""
    n_mol = system.n_molecules
    block_sizes = np.zeros(n_mol, dtype=int)
    atom_offsets = np.zeros(system.n_atoms, dtype=int)
    # first pass: sizes
    per_atom = np.array(
        [basis.functions_for(sym) for sym in system.symbols], dtype=int
    )
    for m in range(n_mol):
        idx = system.atoms_in_molecule(m)
        block_sizes[m] = per_atom[idx].sum()
    block_starts = np.concatenate(([0], np.cumsum(block_sizes)))
    # second pass: atom offsets (within-block order follows atom order)
    for m in range(n_mol):
        idx = system.atoms_in_molecule(m)
        offsets = np.concatenate(([0], np.cumsum(per_atom[idx])[:-1]))
        atom_offsets[idx] = block_starts[m] + offsets
    return BlockStructure(
        block_sizes=block_sizes,
        block_starts=block_starts,
        atom_offsets=atom_offsets,
        n_basis=int(block_starts[-1]),
    )


def cutoff_radius(model: HamiltonianModel, eps: float) -> float:
    """Distance (Å) beyond which intermolecular couplings fall below ``eps``.

    This is the finite interaction radius R_max of Sec. III-C of the paper:
    for a fixed filter threshold the number of basis-function centres inside
    this radius — and hence the submatrix dimension — is independent of the
    overall system size.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps >= model.coupling_amplitude:
        return 0.0
    return model.basis.decay_length * math.log(model.coupling_amplitude / eps)


def _element_vector(symbol: str, basis: BasisSet, rng: np.random.Generator) -> np.ndarray:
    """Deterministic per-element coupling vector over that atom's functions.

    The intermolecular coupling block between atoms a and b is the outer
    product of these vectors scaled by the distance decay; the vectors are
    normalised so the largest coupling equals the model amplitude.
    """
    n = basis.functions_for(symbol)
    # deterministic: derive from a child generator keyed by the element
    # symbol.  ``hash()`` on strings is salted per process (PYTHONHASHSEED),
    # which silently made every Hamiltonian — and every benchmark built on
    # one — differ between runs; crc32 is stable across processes.
    child = np.random.default_rng(
        zlib.crc32(f"{symbol}/{basis.name}".encode("utf-8"))
    )
    v = 0.5 + child.random(n)
    v /= np.max(np.abs(v))
    return v


def _molecular_block(
    n_functions: int, model: HamiltonianModel, rng: np.random.Generator
) -> np.ndarray:
    """Intramolecular Hamiltonian block with the model's designed spectrum."""
    levels = model.molecular_levels(n_functions)
    # fixed orthogonal transformation so the block is dense in the AO basis
    m = rng.normal(size=(n_functions, n_functions))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    return (q * levels) @ q.T


def _element_pairs(symbols: np.ndarray, i_atoms: np.ndarray, j_atoms: np.ndarray):
    """The distinct ``(symbols[i], symbols[j])`` of the atom pairs, sorted:
    one ``np.unique`` over the pairs' element codes."""
    elements, codes = np.unique(symbols, return_inverse=True)
    pairs = np.unique(codes[i_atoms] * elements.size + codes[j_atoms])
    first, second = np.divmod(pairs, max(elements.size, 1))
    return list(zip(elements[first], elements[second]))


def build_matrices(
    system: System,
    model: Optional[HamiltonianModel] = None,
    basis: Optional[BasisSet] = None,
    eps_pair: float = 1e-12,
) -> MatrixPair:
    """Assemble the Kohn–Sham matrix K and the overlap matrix S.

    Parameters
    ----------
    system:
        Atomistic system (molecule assignment defines the block structure).
    model:
        Hamiltonian model; if omitted one is created from ``basis``.
    basis:
        Convenience parameter to select the basis set when ``model`` is not
        given.
    eps_pair:
        Intermolecular couplings weaker than this (eV) are not generated at
        all.  This is *not* the CP2K ``eps_filter`` — it only bounds the
        construction cost; filtering of the orthogonalized Kohn–Sham matrix is
        applied separately (see :func:`repro.chem.orthogonalize.orthogonalized_ks`).

    Returns
    -------
    MatrixPair
        ``K`` and ``S`` as ``scipy.sparse.csr_matrix`` plus block structure.
    """
    if model is None:
        model = HamiltonianModel(basis=basis if basis is not None else SZV)
    elif basis is not None and basis is not model.basis:
        raise ValueError("pass either model or basis, not conflicting values")
    basis = model.basis
    blocks = block_structure(system, basis)
    n = blocks.n_basis
    rng = np.random.default_rng(model.seed)

    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    k_vals: List[np.ndarray] = []
    s_vals: List[np.ndarray] = []

    # ------------------------------------------------------------------ #
    # intramolecular blocks: identical for molecules of identical size
    # ------------------------------------------------------------------ #
    unique_sizes = np.unique(blocks.block_sizes)
    intra_blocks: Dict[int, np.ndarray] = {
        int(size): _molecular_block(int(size), model, rng) for size in unique_sizes
    }
    for size in unique_sizes:
        size = int(size)
        mols = np.flatnonzero(blocks.block_sizes == size)
        if mols.size == 0:
            continue
        block = intra_blocks[size]
        local_r, local_c = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        starts = blocks.block_starts[mols]
        r = (starts[:, None, None] + local_r[None, :, :]).ravel()
        c = (starts[:, None, None] + local_c[None, :, :]).ravel()
        rows.append(r)
        cols.append(c)
        k_vals.append(np.tile(block.ravel(), mols.size))
        # intramolecular overlap: orthonormal within the molecule
        s_vals.append(np.tile(np.eye(size).ravel(), mols.size))

    # ------------------------------------------------------------------ #
    # intermolecular couplings: outer-product blocks with distance decay
    # ------------------------------------------------------------------ #
    r_cut = cutoff_radius(model, eps_pair)
    if r_cut > 0.0:
        i_atoms, j_atoms, dists = system.neighbor_pairs(r_cut)
        mol_i = system.molecule_index[i_atoms]
        mol_j = system.molecule_index[j_atoms]
        inter = mol_i != mol_j
        i_atoms, j_atoms, dists = i_atoms[inter], j_atoms[inter], dists[inter]

        symbols = np.array(system.symbols)
        element_vectors = {
            sym: _element_vector(sym, basis, rng) for sym in np.unique(symbols)
        }
        decay_k = basis.decay_length
        decay_s = basis.overlap_decay_length

        for ea, eb in _element_pairs(symbols, i_atoms, j_atoms):
            mask = (symbols[i_atoms] == ea) & (symbols[j_atoms] == eb)
            if not np.any(mask):
                continue
            pa = i_atoms[mask]
            pb = j_atoms[mask]
            pr = dists[mask]
            va = element_vectors[ea]
            vb = element_vectors[eb]
            na, nb = va.size, vb.size
            outer = np.outer(va, vb)  # (na, nb)
            k_scale = -model.coupling_amplitude * np.exp(-pr / decay_k)
            s_scale = model.overlap_amplitude * np.exp(-pr / decay_s)
            # values for all pairs at once: (npairs, na, nb)
            k_block = k_scale[:, None, None] * outer[None, :, :]
            s_block = s_scale[:, None, None] * outer[None, :, :]
            off_a = blocks.atom_offsets[pa]
            off_b = blocks.atom_offsets[pb]
            local_r = np.arange(na)
            local_c = np.arange(nb)
            r = np.broadcast_to(
                (off_a[:, None, None] + local_r[None, :, None]), k_block.shape
            ).ravel()
            c = np.broadcast_to(
                (off_b[:, None, None] + local_c[None, None, :]), k_block.shape
            ).ravel()
            # upper block (a, b)
            rows.append(r)
            cols.append(c)
            k_vals.append(k_block.ravel())
            s_vals.append(s_block.ravel())
            # symmetric counterpart (b, a)
            rows.append(c)
            cols.append(r)
            k_vals.append(k_block.ravel())
            s_vals.append(s_block.ravel())

    row_arr = np.concatenate(rows)
    col_arr = np.concatenate(cols)
    k_arr = np.concatenate(k_vals)
    s_arr = np.concatenate(s_vals)

    K = sp.coo_matrix((k_arr, (row_arr, col_arr)), shape=(n, n)).tocsr()
    S = sp.coo_matrix((s_arr, (row_arr, col_arr)), shape=(n, n)).tocsr()
    K.sum_duplicates()
    S.sum_duplicates()
    # remove explicitly stored zeros from the identity tiling
    S.eliminate_zeros()
    K.eliminate_zeros()
    return MatrixPair(K=K, S=S, blocks=blocks, model=model)


def build_block_pattern(
    system: System,
    model: Optional[HamiltonianModel] = None,
    basis: Optional[BasisSet] = None,
    eps_filter: float = 1e-5,
    margin: float = 2.5,
) -> Tuple[sp.csr_matrix, BlockStructure]:
    """Block-level sparsity pattern of the (orthogonalized) Kohn–Sham matrix.

    For the pattern-level analyses of the paper (Figs. 2, 4, 5, 11 and the
    cost models behind Figs. 6, 8, 9, 10) only the information *which
    molecule blocks interact above the filter threshold* is needed, not the
    numerical values.  A block (i, j) is non-zero when the molecule centres
    are closer than the interaction radius implied by ``eps_filter`` plus a
    geometric ``margin`` accounting for the extent of the molecules.

    Returns
    -------
    (pattern, blocks):
        ``pattern`` is a boolean CSR matrix of shape (n_molecules,
        n_molecules) including the diagonal; ``blocks`` is the corresponding
        block structure.
    """
    if model is None:
        model = HamiltonianModel(basis=basis if basis is not None else SZV)
    basis = model.basis
    blocks = block_structure(system, basis)
    n_mol = system.n_molecules
    centers = system.molecule_centers()
    r_cut = cutoff_radius(model, eps_filter) + margin
    from repro.chem.atoms import neighbor_pairs as _np_pairs

    i, j, _ = _np_pairs(centers, system.cell, r_cut)
    data = np.ones(2 * len(i) + n_mol, dtype=bool)
    rows = np.concatenate([i, j, np.arange(n_mol)])
    cols = np.concatenate([j, i, np.arange(n_mol)])
    pattern = sp.coo_matrix((data, (rows, cols)), shape=(n_mol, n_mol)).tocsr()
    pattern.data[:] = True
    return pattern, blocks
