"""Tests for the liquid-water benchmark-system generator."""

import numpy as np
import pytest

from repro.chem.water import (
    BASE_CELL_LENGTH,
    MOLECULES_PER_CELL,
    base_water_cell,
    water_box,
    water_molecule,
)


class TestWaterMolecule:
    def test_geometry(self):
        oxygen, h1, h2 = water_molecule([0.0, 0.0, 0.0])
        assert oxygen.symbol == "O"
        assert h1.symbol == h2.symbol == "H"
        d1 = np.linalg.norm(h1.position - oxygen.position)
        d2 = np.linalg.norm(h2.position - oxygen.position)
        assert d1 == pytest.approx(0.9572, abs=1e-6)
        assert d2 == pytest.approx(0.9572, abs=1e-6)
        cos_angle = np.dot(
            h1.position - oxygen.position, h2.position - oxygen.position
        ) / (d1 * d2)
        assert np.degrees(np.arccos(cos_angle)) == pytest.approx(104.52, abs=1e-3)

    def test_rotation_preserves_geometry(self):
        angle = np.pi / 3
        rotation = np.array(
            [
                [np.cos(angle), -np.sin(angle), 0.0],
                [np.sin(angle), np.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        oxygen, h1, _ = water_molecule([1.0, 2.0, 3.0], rotation)
        assert np.linalg.norm(h1.position - oxygen.position) == pytest.approx(
            0.9572, abs=1e-6
        )

    def test_invalid_rotation_shape(self):
        with pytest.raises(ValueError):
            water_molecule([0, 0, 0], np.eye(2))

    def test_molecule_index_propagates(self):
        atoms = water_molecule([0, 0, 0], molecule_index=7)
        assert all(a.molecule == 7 for a in atoms)


class TestBaseCell:
    def test_composition(self):
        system = base_water_cell()
        assert system.n_molecules == MOLECULES_PER_CELL
        assert system.n_atoms == 3 * MOLECULES_PER_CELL
        symbols = system.symbols
        assert symbols.count("O") == MOLECULES_PER_CELL
        assert symbols.count("H") == 2 * MOLECULES_PER_CELL

    def test_cell_size(self):
        system = base_water_cell()
        assert np.allclose(system.cell.lengths, BASE_CELL_LENGTH)

    def test_deterministic_for_fixed_seed(self):
        a = base_water_cell(seed=11)
        b = base_water_cell(seed=11)
        assert np.allclose(a.positions, b.positions)

    def test_different_seeds_differ(self):
        a = base_water_cell(seed=1)
        b = base_water_cell(seed=2)
        assert not np.allclose(a.positions, b.positions)

    def test_no_unphysically_short_intermolecular_contacts(self):
        system = base_water_cell()
        i, j, r = system.neighbor_pairs(1.5)
        mol = system.molecule_index
        intermolecular = mol[i] != mol[j]
        # all contacts below 1.5 Å must be intramolecular O-H bonds
        assert not np.any(intermolecular)


class TestWaterBox:
    def test_isotropic_replication_counts(self):
        system = water_box(2)
        assert system.n_molecules == 32 * 8
        assert system.n_atoms == 96 * 8
        assert np.allclose(system.cell.lengths, 2 * BASE_CELL_LENGTH)

    def test_anisotropic_replication(self):
        system = water_box((3, 1, 1))
        assert system.n_molecules == 96
        assert system.cell.lengths[0] == pytest.approx(3 * BASE_CELL_LENGTH)
        assert system.cell.lengths[1] == pytest.approx(BASE_CELL_LENGTH)

    def test_nrep_one_returns_base_cell(self):
        assert water_box(1).n_molecules == MOLECULES_PER_CELL

    def test_invalid_nrep(self):
        with pytest.raises(ValueError):
            water_box(0)
        with pytest.raises(ValueError):
            water_box((1, 2))

    def test_building_block_ordering(self):
        """Atoms of each 32-molecule building block are consecutive."""
        system = water_box((2, 1, 1))
        first_block = system.molecule_index[: 3 * MOLECULES_PER_CELL]
        second_block = system.molecule_index[3 * MOLECULES_PER_CELL :]
        assert first_block.max() < MOLECULES_PER_CELL
        assert second_block.min() >= MOLECULES_PER_CELL

    def test_paper_system_sizes(self):
        """NREP^3 * 32 molecules * 3 atoms, as in Sec. V of the paper."""
        assert water_box(2).n_atoms == 768
        # NREP=6 would be 20,736 atoms; verify the formula without building it
        assert 32 * 6**3 * 3 == 20736
