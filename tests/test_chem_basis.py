"""Tests for the basis-set models."""

import pytest

from repro.chem.basis import DZVP, SZV, BasisSet


class TestRegisteredBasisSets:
    def test_szv_block_sizes(self):
        """SZV: 1 function on H, 4 on O -> 6 per water molecule."""
        assert SZV.functions_for("H") == 1
        assert SZV.functions_for("O") == 4

    def test_dzvp_block_sizes(self):
        """DZVP: 5 functions on H, 13 on O -> 23 per water molecule."""
        assert DZVP.functions_for("H") == 5
        assert DZVP.functions_for("O") == 13

    def test_dzvp_is_more_long_ranged(self):
        """Larger basis sets are more long-ranged (paper Sec. V-C)."""
        assert DZVP.decay_length > SZV.decay_length

    def test_unknown_element(self):
        with pytest.raises(KeyError):
            SZV.functions_for("Zz")


class TestCustomBasis:
    def test_custom_basis_set(self):
        basis = BasisSet(
            name="custom",
            functions_per_element={"H": 2, "O": 5},
            decay_length=1.1,
            overlap_decay_length=0.8,
        )
        assert basis.functions_for("H") == 2
        assert basis.functions_for("O") == 5
