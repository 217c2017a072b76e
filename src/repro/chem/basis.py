"""Basis-set models.

The paper uses the MOLOPT short-range GTH basis sets of CP2K:

* SZV-MOLOPT-SR-GTH — single-zeta valence: 1 basis function on H (1s) and
  4 on O (2s, 2p), i.e. 6 functions per water molecule;
* DZVP-MOLOPT-SR-GTH — double-zeta valence plus polarization: 5 functions on
  H (2x 1s + 1p) and 13 on O (2x 2s + 2x 2p + 1d), i.e. 23 functions per
  water molecule.

The submatrix method only needs three properties of the basis: the number of
basis functions per atom (which sets the DBCSR block sizes), the decay length
of matrix elements with interatomic distance (which sets the sparsity and the
submatrix dimension; larger basis sets are more long-ranged, cf. Sec. V-C),
and the number of occupied orbitals (electron count).  These are captured in
:class:`BasisSet`.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping

__all__ = ["BasisSet", "SZV", "DZVP"]


@dataclasses.dataclass(frozen=True)
class BasisSet:
    """A minimal atom-centred basis-set description.

    Parameters
    ----------
    name:
        Identifier, e.g. ``"SZV-MOLOPT-SR-GTH"``.
    functions_per_element:
        Number of basis functions per element symbol.
    decay_length:
        Characteristic decay length (Å) of Hamiltonian/overlap matrix elements
        between basis functions on different atoms.  Larger basis sets are
        more long-ranged (paper Sec. V-C), so DZVP uses a larger value.
    overlap_decay_length:
        Characteristic decay length (Å) of overlap matrix elements; overlaps
        decay faster than the Hamiltonian couplings in this model.
    """

    name: str
    functions_per_element: Mapping[str, int]
    decay_length: float
    overlap_decay_length: float

    def functions_for(self, symbol: str) -> int:
        """Number of basis functions carried by an atom of ``symbol``."""
        try:
            return int(self.functions_per_element[symbol])
        except KeyError as exc:
            raise KeyError(
                f"basis set {self.name!r} has no entry for element {symbol!r}"
            ) from exc


#: Single-zeta valence basis (6 functions per water molecule).
SZV = BasisSet(
    name="SZV-MOLOPT-SR-GTH",
    functions_per_element={"H": 1, "O": 4},
    decay_length=1.00,
    overlap_decay_length=0.70,
)

#: Double-zeta valence + polarization basis (23 functions per water molecule).
DZVP = BasisSet(
    name="DZVP-MOLOPT-SR-GTH",
    functions_per_element={"H": 5, "O": 13},
    decay_length=1.30,
    overlap_decay_length=0.90,
)
