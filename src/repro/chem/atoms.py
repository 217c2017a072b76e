"""Atomistic containers with orthorhombic periodic boundary conditions.

The paper's benchmark systems are cubes (and, for weak scaling, slabs) of
liquid water described with atom-centred basis sets.  The only structural
information the submatrix method consumes is

* atom positions and elements,
* the assignment of atoms to molecules (DBCSR blocks correspond to molecules
  in the water benchmarks, cf. Fig. 2 of the paper),
* periodic minimum-image distances between atoms and between molecule centres.

This module provides exactly that, plus an O(N) cell-list neighbour search so
that sparsity patterns of systems with tens of thousands of atoms can be
generated without forming the full pairwise distance matrix.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Atom",
    "Cell",
    "System",
    "minimum_image_displacement",
    "neighbor_pairs",
]


@dataclasses.dataclass(frozen=True)
class Atom:
    """A single atom.

    Parameters
    ----------
    symbol:
        Chemical element symbol, e.g. ``"O"`` or ``"H"``.
    position:
        Cartesian position in Ångström as a length-3 array.
    molecule:
        Index of the molecule this atom belongs to.  Molecules define the
        DBCSR block structure used throughout the reproduction.
    """

    symbol: str
    position: np.ndarray
    molecule: int = 0

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,):
            raise ValueError(f"position must have shape (3,), got {pos.shape}")
        object.__setattr__(self, "position", pos)


@dataclasses.dataclass(frozen=True)
class Cell:
    """An orthorhombic simulation cell.

    Parameters
    ----------
    lengths:
        Cell edge lengths (a, b, c) in Ångström.
    periodic:
        Periodicity flags per direction.  The water benchmarks in the paper
        use full 3D periodic boundary conditions; the weak-scaling slabs are
        periodic as well but replicated in a single direction.
    """

    lengths: np.ndarray
    periodic: Tuple[bool, bool, bool] = (True, True, True)

    def __post_init__(self) -> None:
        lengths = np.asarray(self.lengths, dtype=float)
        if lengths.shape != (3,):
            raise ValueError(f"lengths must have shape (3,), got {lengths.shape}")
        if np.any(lengths <= 0):
            raise ValueError("cell lengths must be positive")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "periodic", tuple(bool(p) for p in self.periodic))

    def wrap(self, positions: np.ndarray) -> np.ndarray:
        """Wrap positions into the primary cell along periodic directions."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float)).copy()
        for axis in range(3):
            if self.periodic[axis]:
                positions[:, axis] = np.mod(positions[:, axis], self.lengths[axis])
        return positions

    def replicate(self, factors: Sequence[int]) -> "Cell":
        """Return a cell enlarged by integer replication factors per axis."""
        factors = np.asarray(factors, dtype=int)
        if factors.shape != (3,) or np.any(factors < 1):
            raise ValueError("replication factors must be three positive integers")
        return Cell(self.lengths * factors, self.periodic)


def minimum_image_displacement(
    delta: np.ndarray, cell: Optional[Cell]
) -> np.ndarray:
    """Apply the minimum-image convention to displacement vectors.

    Parameters
    ----------
    delta:
        Array of displacement vectors, shape (..., 3).
    cell:
        Simulation cell, or ``None`` for an isolated (non-periodic) system.
    """
    delta = np.asarray(delta, dtype=float)
    if cell is None:
        return delta
    delta = delta.copy()
    for axis in range(3):
        if cell.periodic[axis]:
            length = cell.lengths[axis]
            delta[..., axis] -= length * np.round(delta[..., axis] / length)
    return delta


class System:
    """A collection of atoms in a periodic cell.

    The class caches per-molecule bookkeeping (atom indices per molecule,
    molecule centres) because the Hamiltonian builder and the submatrix
    grouping heuristics use molecule-level quantities heavily.
    """

    def __init__(self, atoms: Iterable[Atom], cell: Cell):
        self.atoms: List[Atom] = list(atoms)
        if not self.atoms:
            raise ValueError("a System needs at least one atom")
        self.cell = cell
        self._positions = np.array([a.position for a in self.atoms], dtype=float)
        self._symbols = [a.symbol for a in self.atoms]
        self._molecule_index = np.array([a.molecule for a in self.atoms], dtype=int)
        if np.any(self._molecule_index < 0):
            raise ValueError("molecule indices must be non-negative")
        # Molecules must be numbered 0..n_molecules-1 without gaps so that
        # molecule indices can directly serve as block indices.
        unique = np.unique(self._molecule_index)
        expected = np.arange(unique.size)
        if not np.array_equal(unique, expected):
            raise ValueError(
                "molecule indices must be consecutive integers starting at 0"
            )
        self._n_molecules = int(unique.size)
        self._atoms_per_molecule: List[np.ndarray] = [
            np.flatnonzero(self._molecule_index == m) for m in range(self._n_molecules)
        ]

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.atoms)

    @property
    def n_atoms(self) -> int:
        """Total number of atoms."""
        return len(self.atoms)

    @property
    def n_molecules(self) -> int:
        """Total number of molecules (DBCSR block columns)."""
        return self._n_molecules

    @property
    def positions(self) -> np.ndarray:
        """Atom positions as an (n_atoms, 3) array (Å)."""
        return self._positions

    @property
    def symbols(self) -> List[str]:
        """Element symbols in atom order."""
        return list(self._symbols)

    @property
    def molecule_index(self) -> np.ndarray:
        """Molecule index per atom."""
        return self._molecule_index

    def atoms_in_molecule(self, molecule: int) -> np.ndarray:
        """Indices of the atoms belonging to ``molecule``."""
        return self._atoms_per_molecule[molecule]

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def molecule_centers(self) -> np.ndarray:
        """Geometric centres of all molecules, shape (n_molecules, 3).

        Centres are computed with the first atom of each molecule as the
        reference so that molecules broken across periodic boundaries are
        re-assembled before averaging.
        """
        centers = np.empty((self._n_molecules, 3), dtype=float)
        for m, idx in enumerate(self._atoms_per_molecule):
            ref = self._positions[idx[0]]
            delta = minimum_image_displacement(self._positions[idx] - ref, self.cell)
            centers[m] = ref + delta.mean(axis=0)
        return self.cell.wrap(centers)

    def neighbor_pairs(self, cutoff: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All atom pairs (i < j) within ``cutoff`` and their distances.

        Uses an O(N) cell-list search, see :func:`neighbor_pairs`.
        """
        return neighbor_pairs(self._positions, self.cell, cutoff)

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    def replicate(self, factors: Sequence[int]) -> "System":
        """Replicate the system by integer factors along the cell axes.

        Atom ordering is consecutive within each replica (building block),
        which is exactly the ordering the paper relies on for the banded
        structure of the Kohn–Sham matrix (Sec. IV-B2).
        """
        factors = np.asarray(factors, dtype=int)
        if factors.shape != (3,) or np.any(factors < 1):
            raise ValueError("replication factors must be three positive integers")
        new_cell = self.cell.replicate(factors)
        new_atoms: List[Atom] = []
        mol_offset = 0
        for ix in range(factors[0]):
            for iy in range(factors[1]):
                for iz in range(factors[2]):
                    shift = self.cell.lengths * np.array([ix, iy, iz], dtype=float)
                    for atom in self.atoms:
                        new_atoms.append(
                            Atom(
                                atom.symbol,
                                atom.position + shift,
                                atom.molecule + mol_offset,
                            )
                        )
                    mol_offset += self._n_molecules
        return System(new_atoms, new_cell)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"System(n_atoms={self.n_atoms}, n_molecules={self.n_molecules}, "
            f"cell={self.cell.lengths.tolist()})"
        )


def _cell_list_bins(
    positions: np.ndarray, cell: Cell, cutoff: float
) -> Tuple[np.ndarray, np.ndarray, Dict[Tuple[int, int, int], np.ndarray]]:
    """Assign atoms to spatial bins of edge length >= cutoff."""
    n_bins = np.maximum(1, np.floor(cell.lengths / cutoff).astype(int))
    wrapped = cell.wrap(positions)
    bin_size = cell.lengths / n_bins
    bin_idx = np.minimum((wrapped / bin_size).astype(int), n_bins - 1)
    contents: Dict[Tuple[int, int, int], np.ndarray] = {}
    order = np.lexsort((bin_idx[:, 2], bin_idx[:, 1], bin_idx[:, 0]))
    sorted_bins = bin_idx[order]
    boundaries = np.flatnonzero(np.any(np.diff(sorted_bins, axis=0) != 0, axis=1)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [len(order)]))
    for s, e in zip(starts, ends):
        key = tuple(int(v) for v in sorted_bins[s])
        contents[key] = order[s:e]
    return n_bins, bin_idx, contents


def neighbor_pairs(
    positions: np.ndarray, cell: Optional[Cell], cutoff: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Find all pairs of points within ``cutoff`` under minimum image.

    Parameters
    ----------
    positions:
        (n, 3) array of positions in Å.
    cell:
        Periodic cell or ``None`` for an isolated system.
    cutoff:
        Distance cutoff in Å.

    Returns
    -------
    (i, j, r):
        Arrays of pair indices with ``i < j`` and the corresponding
        minimum-image distances.  Pairs are sorted lexicographically by
        ``(i, j)`` to make downstream construction deterministic.

    Notes
    -----
    For small systems (or when the cutoff exceeds half the shortest periodic
    cell edge, where cell lists would be incorrect) a dense O(N²) computation
    is used; otherwise an O(N) cell-list search keeps memory bounded.
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=int)
        return empty, empty, np.empty(0, dtype=float)

    use_dense = n <= 2048
    if cell is not None and not use_dense:
        # cell lists need at least 3 bins per periodic direction to be valid
        min_bins = np.floor(cell.lengths / cutoff)
        if np.any(min_bins < 3):
            use_dense = True

    if use_dense:
        delta = positions[None, :, :] - positions[:, None, :]
        delta = minimum_image_displacement(delta, cell)
        dist = np.linalg.norm(delta, axis=-1)
        iu, ju = np.triu_indices(n, k=1)
        mask = dist[iu, ju] <= cutoff
        i, j, r = iu[mask], ju[mask], dist[iu, ju][mask]
        order = np.lexsort((j, i))
        return i[order], j[order], r[order]

    assert cell is not None
    n_bins, bin_idx, contents = _cell_list_bins(positions, cell, cutoff)
    wrapped = cell.wrap(positions)
    pair_i: List[np.ndarray] = []
    pair_j: List[np.ndarray] = []
    pair_r: List[np.ndarray] = []
    neighbor_offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
    ]
    for key, atoms_a in contents.items():
        for off in neighbor_offsets:
            nkey = tuple((np.array(key) + np.array(off)) % n_bins)
            if nkey not in contents:
                continue
            atoms_b = contents[nkey]
            delta = wrapped[atoms_b][None, :, :] - wrapped[atoms_a][:, None, :]
            delta = minimum_image_displacement(delta, cell)
            dist = np.linalg.norm(delta, axis=-1)
            ia = np.repeat(atoms_a, len(atoms_b))
            jb = np.tile(atoms_b, len(atoms_a))
            dd = dist.ravel()
            mask = (dd <= cutoff) & (ia < jb)
            if np.any(mask):
                pair_i.append(ia[mask])
                pair_j.append(jb[mask])
                pair_r.append(dd[mask])
    if not pair_i:
        empty = np.empty(0, dtype=int)
        return empty, empty, np.empty(0, dtype=float)
    i = np.concatenate(pair_i)
    j = np.concatenate(pair_j)
    r = np.concatenate(pair_r)
    # duplicates can arise when a bin pair is visited from both sides
    keys = i.astype(np.int64) * n + j
    _, unique_idx = np.unique(keys, return_index=True)
    i, j, r = i[unique_idx], j[unique_idx], r[unique_idx]
    order = np.lexsort((j, i))
    return i[order], j[order], r[order]
