"""Result types of the unified session API.

One f(A) result (:class:`SubmatrixMethodResult`), one density result
(:class:`SubmatrixDFTResult`) and the observable bundle around it — shared
by the session layer (:mod:`repro.api.context`,
:mod:`repro.api.observables`), the trajectory driver and the serving layer.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

if TYPE_CHECKING:
    from repro.core.submatrix import Submatrix
    from repro.dbcsr.block_matrix import BlockSparseMatrix

__all__ = [
    "SubmatrixMethodResult",
    "SubmatrixDFTResult",
    "DecomposedSubmatrix",
    "PDOSResult",
    "EnergyWeightedDensityResult",
    "ObservableBundle",
]


@dataclasses.dataclass
class SubmatrixMethodResult:
    """Result of an approximate matrix-function evaluation.

    Attributes
    ----------
    result:
        The approximate f(A) with the stored pattern of A, in A's format: a
        CSR matrix for a SciPy input (evaluated as a grid of 1×1 blocks), a
        :class:`BlockSparseMatrix` for a block-sparse one.
    submatrix_dimensions:
        Dense dimension of every submatrix that was solved.
    wall_time:
        Wall-clock seconds spent (extraction + evaluation + scatter).
    flop_estimate:
        Σ c·n_i³ estimate of the evaluation cost with c = 1 (callers rescale
        with their solver's constant); this is the cost model used for load
        balancing and for the combination heuristic (Eq. 14).
    n_ranks:
        Simulated rank count the submatrices were sharded over (1 for
        single-process runs).  Per-rank work and traffic of a sharded run
        live on its pipeline: ``context.pipeline(...).traffic_log()``,
        ``.transfer_plan``, ``.rank_of_group``, ``.rank_flops``.
    kernel_fallbacks:
        Submatrices an iterative kernel did not converge within its
        budget, evaluated by ``eigen`` instead
        (:class:`~repro.signfn.registry.KernelStackSolver`).
    """

    result: Union[sp.csr_matrix, BlockSparseMatrix]
    submatrix_dimensions: List[int]
    wall_time: float
    flop_estimate: float
    n_ranks: int = 1
    kernel_fallbacks: int = 0

    @property
    def n_submatrices(self) -> int:
        return len(self.submatrix_dimensions)

    @property
    def max_dimension(self) -> int:
        return max(self.submatrix_dimensions) if self.submatrix_dimensions else 0


@dataclasses.dataclass
class SubmatrixDFTResult:
    """Result of a submatrix-method density-matrix calculation.

    Attributes
    ----------
    density_ao:
        Density matrix in the original (non-orthogonal) AO basis, Eq. 16.
    density_ortho:
        Density matrix in the Löwdin-orthogonalized basis (sparse, with the
        sparsity pattern of the filtered orthogonalized Kohn–Sham matrix).
    mu:
        Chemical potential used (fixed for grand-canonical, bisected for
        canonical calculations).
    n_electrons:
        Electron count of the computed density matrix (Eq. 18, times the
        spin degeneracy).
    band_energy:
        Band-structure energy Tr(D K) (Eq. 10, times the spin degeneracy).
    submatrix_dimensions:
        Dense dimensions of all solved submatrices.
    mu_iterations:
        Bisection iterations spent adjusting μ (0 for grand-canonical runs).
    eps_filter:
        Filter threshold applied to the orthogonalized Kohn–Sham matrix.
    wall_time:
        Wall-clock seconds for the full computation.
    n_ranks:
        Simulated rank count the eigendecomposition cache was sharded over
        (1 for single-process runs).
    pattern_fingerprint:
        Content hash of the (filtered, orthogonalized) block-sparsity
        pattern the calculation planned against — the same hash that keys
        the plan cache, so trajectory drivers can detect pattern changes
        between steps without rehashing.
    segment_fetch_bytes:
        Deduplicated packed-segment volume of the sharded pipeline's
        initialization exchange (``None`` for single-process runs or when
        segment volumes were not planned).
    block_fetch_bytes:
        Whole-block volume of the same exchange (``None`` for
        single-process runs).
    kernel_fallbacks:
        Submatrices whose iterative sign solve did not converge within the
        kernel's budget and were evaluated by ``eigen`` instead (0 for the
        spectral route).
    """

    density_ao: np.ndarray
    density_ortho: sp.csr_matrix
    mu: float
    n_electrons: float
    band_energy: float
    submatrix_dimensions: List[int]
    mu_iterations: int
    eps_filter: float
    wall_time: float
    n_ranks: int = 1
    pattern_fingerprint: Optional[str] = None
    segment_fetch_bytes: Optional[float] = None
    block_fetch_bytes: Optional[float] = None
    kernel_fallbacks: int = 0

    @property
    def n_submatrices(self) -> int:
        return len(self.submatrix_dimensions)

    @property
    def max_submatrix_dimension(self) -> int:
        return max(self.submatrix_dimensions) if self.submatrix_dimensions else 0


@dataclasses.dataclass
class PDOSResult:
    """Projected / total density of states from the cached decompositions.

    The submatrix method's electron-count machinery (Eq. 18) already carries
    a spectral measure: every decomposed submatrix contributes its
    eigenvalues with generating-row weights ``Σ_rows Q²``.  Broadening that
    measure with Gaussians of width ``broadening`` yields the density of
    states; keeping the per-column-group contributions separate yields the
    projected DOS.

    Attributes
    ----------
    energies:
        Uniform energy grid the DOS was sampled on.
    dos:
        Total broadened density of states on ``energies`` (states per unit
        energy, including the spin degeneracy).
    projections:
        ``(n_groups, n_points)`` per-column-group projected DOS; rows sum to
        ``dos``.
    eigenvalues:
        Concatenated submatrix eigenvalues (the raw spectral nodes).
    weights:
        Matching concatenated generating weights (spin degeneracy *not*
        applied; ``Σ weights`` ≈ number of orbitals).
    mu:
        Chemical potential of the run (for occupation integrals).
    broadening:
        Gaussian σ used.
    n_electrons:
        ``spin_degeneracy · Σ weights · f(λ − μ)`` — identical (up to
        summation order) to the density result's electron count.
    """

    energies: np.ndarray
    dos: np.ndarray
    projections: np.ndarray
    eigenvalues: np.ndarray
    weights: np.ndarray
    mu: float
    broadening: float
    n_electrons: float

    @property
    def n_points(self) -> int:
        return int(self.energies.size)

    @property
    def n_groups(self) -> int:
        return int(self.projections.shape[0])

    def integrated_states(self) -> float:
        """∫ dos dE via the trapezoid rule (≈ spin_degeneracy · n_orbitals)."""
        return float(np.trapezoid(self.dos, self.energies))

    def payload_nbytes(self) -> int:
        return int(
            self.energies.nbytes
            + self.dos.nbytes
            + self.projections.nbytes
            + self.eigenvalues.nbytes
            + self.weights.nbytes
        )


@dataclasses.dataclass
class EnergyWeightedDensityResult:
    """Energy-weighted density matrix W = Q (λ·f(λ−μ)) Qᵀ and band energy.

    Shares the eigendecomposition pass of the density observable: instead of
    scattering occupations ``f(λ−μ)`` per submatrix, it scatters
    ``λ·f(λ−μ)``.  The trace of the orthogonal-basis result times the spin
    degeneracy is the band-structure energy computed *spectrally* —
    a cross-check of the density path's ``Tr(D K)`` (Eq. 10).

    Attributes
    ----------
    energy_weighted_ao:
        Energy-weighted density matrix in the AO basis
        (``S^{-1/2} W S^{-1/2}``), the quantity entering Pulay-force
        contractions with ``dS/dR``.
    energy_weighted_ortho:
        Sparse orthogonal-basis energy-weighted density matrix with the
        pattern of the filtered orthogonalized Kohn–Sham matrix.
    band_energy:
        ``spin_degeneracy · Tr(W)`` — spectral band-structure energy.
    mu:
        Chemical potential used.
    """

    energy_weighted_ao: np.ndarray
    energy_weighted_ortho: sp.csr_matrix
    band_energy: float
    mu: float

    def payload_nbytes(self) -> int:
        return int(
            self.energy_weighted_ao.nbytes + self.energy_weighted_ortho.data.nbytes
        )


@dataclasses.dataclass
class ObservableBundle:
    """Results of one multi-observable evaluation sharing a decomposition.

    Maps observable name → result.  Attribute access falls through to the
    density result when one is present, so a bundle quacks like a
    :class:`SubmatrixDFTResult` everywhere the trajectory/serving layers
    only need density fields (``mu``, ``band_energy``, ``density_ao``, …).
    """

    results: Dict[str, Any]
    observables: Tuple[str, ...]
    stack_decompositions: int = 0

    @property
    def density(self) -> Optional[SubmatrixDFTResult]:
        return self.results.get("density")

    def __getitem__(self, name: str) -> Any:
        return self.results[name]

    def __contains__(self, name: str) -> bool:
        return name in self.results

    def keys(self):
        return self.results.keys()

    def __getattr__(self, name: str) -> Any:
        # dataclass fields and methods resolve normally; anything else is
        # delegated to the density result so bundle-producing paths stay
        # drop-in where a plain density result used to flow
        results = self.__dict__.get("results")
        if results is not None:
            density = results.get("density")
            if density is not None:
                try:
                    return getattr(density, name)
                except AttributeError:
                    pass
        raise AttributeError(
            f"{type(self).__name__!s} has no attribute {name!r}"
        )

    def payload_nbytes(self) -> int:
        total = 0
        for result in self.results.values():
            if isinstance(result, SubmatrixDFTResult):
                total += int(result.density_ao.nbytes)
                total += int(result.density_ortho.data.nbytes)
            elif hasattr(result, "payload_nbytes"):
                total += int(result.payload_nbytes())
        return total


@dataclasses.dataclass
class DecomposedSubmatrix:
    """Cached eigendecomposition of one submatrix (input to Algorithm 1).

    Complete when built and only ever read afterwards — by the μ-bisection
    and by every observable assembled from the same pass — so every array is
    marked read-only.
    """

    submatrix: Submatrix
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    # Q[generating rows, :] — the local dense rows of the generating columns —
    # as one contiguous (w × d) array: the right-hand operand of every
    # generating-column panel (Q·g(λ)) @ Q[rows]ᵀ
    generating_slice: np.ndarray
    # Σ_rows Q²[generating rows, :] — the electron count at chemical potential
    # μ is just weights · f(λ − μ), so the whole bisection works on two flat
    # vectors instead of re-slicing the eigenvectors every iteration
    generating_weights: np.ndarray
