"""Density-matrix utilities and dense reference solvers.

At zero temperature the one-particle reduced density matrix is a projector on
the occupied subspace,

    D = 1/2 (I - sign(S^{-1/2} K S^{-1/2} - μ I))        (orthogonal basis)
    D_AO = S^{-1/2} D S^{-1/2}                            (Eq. 16)

and the band-structure energy is E_band = Tr(D_AO K) (Eq. 10).  At finite
temperature the Heaviside occupation is replaced by the Fermi function.  This
module provides dense reference implementations used for validation and as
the ground truth in the accuracy experiments (Figs. 1 and 7), plus the small
helpers shared by the sparse solvers (electron counting, energy evaluation).
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.dbcsr.product import DENSE_FILL, stored_fill

__all__ = [
    "fermi_occupation",
    "density_from_sign",
    "reference_density_matrix",
    "band_structure_energy",
    "electron_count",
    "find_mu_for_electron_count",
    "ReferenceResult",
]

#: Boltzmann constant in eV/K.
KB_EV = 8.617333262e-5

#: Closed-shell spin degeneracy: each orbital holds two electrons.
SPIN_DEGENERACY = 2.0


def fermi_occupation(
    energies: np.ndarray, mu: float, temperature: float = 0.0
) -> np.ndarray:
    """Fermi–Dirac occupations of orbital ``energies`` at chemical potential μ.

    At ``temperature == 0`` this is the Heaviside function with the paper's
    extension f(μ) = 1/2 for states exactly at the chemical potential
    (Eq. 12/13), which is the zero-temperature limit of the Fermi function.
    """
    energies = np.asarray(energies, dtype=float)
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    # temperatures below ~1e-10 K are indistinguishable from zero and would
    # only produce overflow in the exponential
    if temperature <= 1e-10:
        occ = np.where(energies < mu, 1.0, 0.0)
        occ = np.where(energies == mu, 0.5, occ)
        return occ
    x = (energies - mu) / (KB_EV * temperature)
    # clip to avoid overflow in exp for far-from-mu states
    x = np.clip(x, -700.0, 700.0)
    return 1.0 / (np.exp(x) + 1.0)


def density_from_sign(
    sign_matrix: Union[np.ndarray, sp.spmatrix],
    s_inv_sqrt: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Density matrix from a computed matrix sign function.

    Implements D = 1/2 (I - sign(K̃ - μI)) and, if ``s_inv_sqrt`` is given,
    the back-transformation to the non-orthogonal AO basis of Eq. 16.

    Parameters
    ----------
    sign_matrix:
        sign(K̃ - μ I), dense or sparse.
    s_inv_sqrt:
        Optional dense S^{-1/2}; if given the returned density matrix is in
        the AO basis, otherwise in the orthogonalized basis.
    """
    sign_dense = (
        sign_matrix.toarray() if sp.issparse(sign_matrix) else np.asarray(sign_matrix)
    )
    n = sign_dense.shape[0]
    density = 0.5 * (np.eye(n) - sign_dense)
    if s_inv_sqrt is not None:
        density = s_inv_sqrt @ density @ s_inv_sqrt
    return density


@dataclasses.dataclass
class ReferenceResult:
    """Result of the dense reference density-matrix calculation."""

    density_ao: np.ndarray
    density_ortho: np.ndarray
    orbital_energies: np.ndarray
    occupations: np.ndarray
    mu: float
    n_electrons: float
    band_energy: float


def reference_density_matrix(
    K: Union[np.ndarray, sp.spmatrix],
    S: Union[np.ndarray, sp.spmatrix],
    mu: Optional[float] = None,
    n_electrons: Optional[float] = None,
    temperature: float = 0.0,
    spin_degeneracy: float = SPIN_DEGENERACY,
) -> ReferenceResult:
    """Dense reference solution of the density matrix.

    Either ``mu`` (grand-canonical) or ``n_electrons`` (canonical) must be
    given.  The generalized eigenvalue problem is solved exactly via Löwdin
    orthogonalization and dense diagonalization — the cubic-scaling reference
    against which the linear-scaling methods are compared.
    """
    from repro.chem.orthogonalize import loewdin_inverse_sqrt

    K_dense = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
    s_inv_sqrt = loewdin_inverse_sqrt(S)
    k_ortho = s_inv_sqrt @ K_dense @ s_inv_sqrt
    k_ortho = 0.5 * (k_ortho + k_ortho.T)
    energies, vectors = np.linalg.eigh(k_ortho)

    if mu is None and n_electrons is None:
        raise ValueError("either mu or n_electrons must be specified")
    if mu is None:
        mu = find_mu_for_electron_count(
            energies, n_electrons, temperature, spin_degeneracy
        )

    occ = fermi_occupation(energies, mu, temperature)
    density_ortho = (vectors * occ) @ vectors.T
    density_ao = s_inv_sqrt @ density_ortho @ s_inv_sqrt
    n_elec = float(spin_degeneracy * occ.sum())
    band = band_structure_energy(density_ao, K_dense, spin_degeneracy)
    return ReferenceResult(
        density_ao=density_ao,
        density_ortho=density_ortho,
        orbital_energies=energies,
        occupations=occ,
        mu=float(mu),
        n_electrons=n_elec,
        band_energy=band,
    )


def band_structure_energy(
    density_ao: Union[np.ndarray, sp.spmatrix],
    K: Union[np.ndarray, sp.spmatrix],
    spin_degeneracy: float = SPIN_DEGENERACY,
) -> float:
    """Band-structure energy E_band = g_s · Tr(D K) (Eq. 10).

    ``spin_degeneracy`` (g_s) defaults to 2 for closed-shell systems; the
    paper's Eq. 10 absorbs the factor into D, here it is kept explicit.

    A sparse ``K`` that stores less than
    :data:`~repro.dbcsr.product.DENSE_FILL` of its elements is contracted
    over its stored entries, Σ K_ij·D_ji, without densifying it; a fuller
    one is densified and contracted in full.
    """
    if sp.issparse(density_ao) and sp.issparse(K):
        return float(spin_degeneracy * density_ao.multiply(K.T).sum())
    if sp.issparse(K) and stored_fill(K) < DENSE_FILL:
        D = np.ascontiguousarray(density_ao, dtype=float)
        entries = K.tocoo()
        # D_ji of every stored K_ij, gathered from the flat row-major D
        flat_index = entries.col.astype(np.intp) * D.shape[1] + entries.row
        return float(spin_degeneracy * np.dot(entries.data, D.reshape(-1)[flat_index]))
    D = density_ao.toarray() if sp.issparse(density_ao) else np.asarray(density_ao)
    K_dense = K.toarray() if sp.issparse(K) else np.asarray(K)
    return float(spin_degeneracy * np.tensordot(D, K_dense.T, axes=2))


def electron_count(
    density_ortho: Union[np.ndarray, sp.spmatrix],
    spin_degeneracy: float = SPIN_DEGENERACY,
) -> float:
    """Number of electrons from the orthogonal-basis density matrix (Eq. 18).

    In the orthogonalized basis the electron count is simply the trace of the
    density matrix (times the spin degeneracy).
    """
    if sp.issparse(density_ortho):
        trace = density_ortho.diagonal().sum()
    else:
        trace = np.trace(np.asarray(density_ortho))
    return float(spin_degeneracy * trace)


def find_mu_for_electron_count(
    orbital_energies: np.ndarray,
    n_electrons: float,
    temperature: float = 0.0,
    spin_degeneracy: float = SPIN_DEGENERACY,
    tolerance: float = 1e-10,
    max_iterations: int = 200,
) -> float:
    """Chemical potential μ reproducing ``n_electrons`` by bisection.

    This is the orbital-space analogue of the paper's Algorithm 1 and is used
    by the dense reference solver for canonical-ensemble calculations.
    """
    energies = np.sort(np.asarray(orbital_energies, dtype=float))
    if n_electrons < 0 or n_electrons > spin_degeneracy * energies.size:
        raise ValueError(
            f"cannot place {n_electrons} electrons in "
            f"{energies.size} orbitals with degeneracy {spin_degeneracy}"
        )

    def count(mu: float) -> float:
        return float(
            spin_degeneracy * fermi_occupation(energies, mu, temperature).sum()
        )

    lo = energies[0] - 10.0
    hi = energies[-1] + 10.0
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        c = count(mid)
        if abs(c - n_electrons) <= tolerance:
            return mid
        if c < n_electrons:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
