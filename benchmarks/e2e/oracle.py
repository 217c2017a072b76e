"""Dense oracle and the per-op correctness check of the ledger.

"Correct" here never means "equal to the other engine path": every op is
compared with the independent dense eigenvector projector
(:func:`repro.chem.reference_density_matrix`, the ``get_1RDM_from_OEI``
idiom) and with the invariants of a density matrix.  Only the two workloads
whose layer promises it (rank sharding, serving) are additionally compared
bit for bit with a direct single-process call on the same input.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional

import numpy as np

from repro.chem import reference_density_matrix

@dataclasses.dataclass(frozen=True)
class Ceilings:
    """Per-workload error ceilings: 2x the value first measured (seed 0), or
    an absolute floor (1e-9 meV/atom, 1e-12, 1e-9 e) where that value is at
    rounding level."""

    energy_error_mev_per_atom: float
    density_max_abs_error: float
    electron_count_error: float


@dataclasses.dataclass
class Oracle:
    """Dense reference of one input, and what it cost to compute."""

    density_ao: np.ndarray
    band_energy: float
    n_electrons: float
    mu: float
    seconds: float


def dense_oracle(K, S, mu=None, n_electrons=None, temperature: float = 0.0) -> Oracle:
    """Dense reference at fixed μ, or at the oracle's own μ for ``n_electrons``."""
    start = time.perf_counter()
    reference = reference_density_matrix(
        K, S, mu=mu, n_electrons=n_electrons, temperature=temperature
    )
    return Oracle(
        density_ao=reference.density_ao,
        band_energy=reference.band_energy,
        n_electrons=reference.n_electrons,
        mu=reference.mu,
        seconds=time.perf_counter() - start,
    )


@dataclasses.dataclass
class Check:
    """Outcome of checking one op; ``reasons`` is empty when it passed."""

    reasons: List[str]
    energy_error_mev_per_atom: Optional[float] = None
    density_max_abs_error: Optional[float] = None
    electron_count_error: Optional[float] = None

    @property
    def ok(self) -> bool:
        return not self.reasons


def bitwise_equal(result, direct) -> bool:
    """The served/sharded contract: same bits as a direct single-process call."""
    return bool(
        np.array_equal(result.density_ao, direct.density_ao)
        and np.array_equal(
            result.density_ortho.toarray(), direct.density_ortho.toarray()
        )
        and result.mu == direct.mu
        and result.band_energy == direct.band_energy
    )


def check_result(
    result,
    ceilings: Ceilings,
    n_atoms: int,
    oracle: Optional[Oracle] = None,
    n_target: Optional[float] = None,
    direct=None,
) -> Check:
    """Invariants, oracle errors under their ceilings, optional bitwise identity.

    ``oracle=None`` skips the two oracle errors (MD steps are compared with a
    fresh dense solve only every few steps); the electron count is then still
    checked against ``n_target``.
    """
    reasons: List[str] = []
    density = result.density_ao
    if not (
        np.all(np.isfinite(density))
        and np.isfinite(result.band_energy)
        and np.isfinite(result.n_electrons)
        and np.all(np.isfinite(result.density_ortho.data))
    ):
        return Check(["non-finite result"])
    # the method assembles D column by column from different submatrices, so
    # D - D^T is an approximation error and is bounded like the density error
    ortho = result.density_ortho
    asymmetry = abs(ortho - ortho.T)
    if asymmetry.nnz and asymmetry.max() > ceilings.density_max_abs_error:
        reasons.append(f"density_ortho asymmetric by {asymmetry.max():.3e}")

    check = Check(reasons)
    target = n_target if n_target is not None else oracle.n_electrons
    check.electron_count_error = abs(result.n_electrons - target)
    if oracle is not None:
        check.energy_error_mev_per_atom = (
            abs(result.band_energy - oracle.band_energy) / n_atoms * 1000.0
        )
        check.density_max_abs_error = float(np.max(np.abs(density - oracle.density_ao)))
    for name in (
        "energy_error_mev_per_atom",
        "density_max_abs_error",
        "electron_count_error",
    ):
        value = getattr(check, name)
        ceiling = getattr(ceilings, name)
        if value is not None and not value <= ceiling:
            reasons.append(f"{name} {value:.3e} above ceiling {ceiling:.3e}")
    if direct is not None and not bitwise_equal(result, direct):
        reasons.append("not bitwise identical to the direct single-process call")
    return check
