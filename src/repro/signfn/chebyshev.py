"""Chebyshev polynomial-expansion sign kernel (diagonalization-free).

A third accuracy/cost point next to Newton–Schulz (Eq. 11) and Padé
(Eq. 19): approximate ``sign(A)`` by a Chebyshev expansion of the smoothed
sign function

    f(x) = erf(x / λ)     on  [−1, 1],

evaluated with the three-term recurrence ``T_{j+1} = 2 X T_j − T_{j−1}``.
The iteration is GEMM-only (one stacked matrix product per term — no
inversions, no eigendecompositions), which is exactly the operation mix
linear-scaling codes favor on accelerators and the reason polynomial
expansions are the classic alternative to sign iterations in this
literature.

Contract with the bucketed/sharded engines (mirrors
:func:`~repro.signfn.newton_schulz.sign_newton_schulz_batched`):

* every matrix is prescaled **individually** by the
  ``sqrt(‖A‖₁·‖A‖_∞)`` spectral-radius bound, mapping its spectrum into
  ``[−1, 1]`` where the expansion lives;
* convergence — the involutority residual ``‖S² − I‖_F / √n`` — is
  measured per matrix in float64 every ``check_interval`` terms, and a
  converged matrix freezes (stops accumulating terms);
* hence the per-matrix term sequences are independent of the stack
  composition, and the rank-sharded evaluation through ``run_stacks`` is
  bitwise identical to the single-process batched path.

Unlike the quadratically converging Newton–Schulz map, the expansion's
accuracy is limited by the smoothing width λ relative to the (scaled)
spectral gap at the shift: eigenvalues at distance ``g`` from 0 incur an
occupation error ``≈ erfc(g/λ)/2``.  The defaults below resolve the water
benchmark systems' HOMO–LUMO gap to ~1e-9; systems with tighter gaps
need a smaller ``smoothing`` and correspondingly more terms.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.special import erf

__all__ = [
    "BatchedChebyshevResult",
    "ChebyshevSignResult",
    "DEFAULT_CHEBYSHEV_DEGREE",
    "DEFAULT_CHEBYSHEV_SMOOTHING",
    "chebyshev_sign_coefficients",
    "sign_chebyshev",
    "sign_chebyshev_batched",
]

#: Default polynomial degree (= GEMMs per matrix).  Sized so the
#: coefficient tail at the default smoothing is far below the convergence
#: threshold; a matrix that still misses it is evaluated by ``eigen``.
DEFAULT_CHEBYSHEV_DEGREE = 600

#: Default smoothing width λ of erf(x/λ), relative to the scaled spectrum
#: [−1, 1].  Occupations are exact to ~erfc(g/λ)/2 for a scaled gap g.
DEFAULT_CHEBYSHEV_SMOOTHING = 0.02

#: Involutority residual ``‖S² − I‖_F / √n`` below which a matrix freezes.
DEFAULT_CHEBYSHEV_THRESHOLD = 1e-8

#: Terms between convergence checks (each check costs one stacked GEMM).
DEFAULT_CHECK_INTERVAL = 25

_COEFFICIENT_CACHE: Dict[Tuple[int, float], np.ndarray] = {}


def chebyshev_sign_coefficients(
    degree: int, smoothing: float = DEFAULT_CHEBYSHEV_SMOOTHING
) -> np.ndarray:
    """Chebyshev coefficients of erf(x/λ) on [−1, 1] up to ``degree``.

    Computed by Chebyshev–Gauss quadrature at the ``degree + 1`` Chebyshev
    nodes — deterministic, cached per ``(degree, smoothing)``.  The
    integrand is odd, so even coefficients vanish to rounding.
    """
    degree = int(degree)
    if degree < 1:
        raise ValueError("chebyshev degree must be at least 1")
    smoothing = float(smoothing)
    if smoothing <= 0.0:
        raise ValueError("chebyshev smoothing must be positive")
    key = (degree, smoothing)
    cached = _COEFFICIENT_CACHE.get(key)
    if cached is not None:
        return cached
    n_nodes = degree + 1
    theta = (np.arange(n_nodes) + 0.5) * np.pi / n_nodes
    values = erf(np.cos(theta) / smoothing)
    orders = np.arange(n_nodes)
    coefficients = (2.0 / n_nodes) * (np.cos(np.outer(orders, theta)) @ values)
    coefficients[0] *= 0.5
    # the expansion of an odd function: zero the even orders exactly so the
    # evaluation result cannot pick up quadrature rounding in them
    coefficients[0::2] = 0.0
    _COEFFICIENT_CACHE[key] = coefficients
    return coefficients


def coefficient_tail_bound(
    degree: int, smoothing: float = DEFAULT_CHEBYSHEV_SMOOTHING
) -> float:
    """Σ |c_j| of the truncated tail beyond ``degree`` (a-priori accuracy).

    Estimated from a higher-degree expansion; useful for picking a degree
    for a target accuracy before running anything.
    """
    probe = chebyshev_sign_coefficients(2 * int(degree), smoothing)
    return float(np.abs(probe[int(degree) + 1 :]).sum())


@dataclasses.dataclass
class ChebyshevSignResult:
    """Result of a single-matrix Chebyshev sign evaluation."""

    sign: np.ndarray
    terms: int
    converged: bool
    residual: float


@dataclasses.dataclass
class BatchedChebyshevResult:
    """Result of a batched Chebyshev sign evaluation.

    Attributes
    ----------
    sign:
        ``(k, n, n)`` stack of smoothed-sign estimates.
    terms:
        Per-matrix number of accumulated series terms, shape ``(k,)``.
    converged:
        Per-matrix involutority-convergence flags, shape ``(k,)``.
    """

    sign: np.ndarray
    terms: np.ndarray
    converged: np.ndarray


def sign_chebyshev_batched(
    stack: np.ndarray,
    degree: int = DEFAULT_CHEBYSHEV_DEGREE,
    smoothing: float = DEFAULT_CHEBYSHEV_SMOOTHING,
    convergence_threshold: float = DEFAULT_CHEBYSHEV_THRESHOLD,
    check_interval: int = DEFAULT_CHECK_INTERVAL,
) -> BatchedChebyshevResult:
    """Evaluate sign(A) on a ``(k, n, n)`` stack by Chebyshev expansion.

    Forward three-term recurrence with one stacked GEMM per term; the
    partial sums accumulate in place.  Every ``check_interval`` terms the
    involutority residual of each still-active matrix is measured in
    float64 and converged matrices freeze — the same per-matrix freeze
    discipline as the batched Newton–Schulz iteration, so the results are
    independent of the stack composition.
    """
    x = np.array(stack, dtype=float)
    if x.ndim != 3 or x.shape[-1] != x.shape[-2]:
        raise ValueError("expected a (k, n, n) stack of square matrices")
    count, n, _ = x.shape
    coefficients = chebyshev_sign_coefficients(degree, smoothing)
    abs_x = np.abs(x)
    one_norm = abs_x.sum(axis=1).max(axis=1)
    inf_norm = abs_x.sum(axis=2).max(axis=1)
    scale = np.sqrt(one_norm * inf_norm)
    scale[scale == 0.0] = 1.0
    x /= scale[:, None, None]
    # erf(x/λ) is odd, so only odd orders contribute and the recurrence can
    # step by two — T_{m+2} = 2·T_2·T_m − T_{m−2} with T_2 = 2X² − I —
    # at ONE stacked GEMM per accumulated term (half of the naive cost)
    identity = np.eye(n)
    doubler = 2.0 * (x @ x) - identity  # T_2, per matrix
    sign = np.zeros((count, n, n), dtype=np.float64)
    terms = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)

    # compacted working set: global indices of still-active matrices plus
    # their recurrence/partial-sum state; frozen matrices are written back
    # at the check boundary they converge on, so per-matrix results do not
    # depend on the stack composition
    active = np.arange(count)
    t_prev = x  # T_1
    series = coefficients[1] * t_prev
    order = 1
    t_curr = None  # highest odd Chebyshev iterate (lazily T_3 on first step)

    def residuals_of(sample: np.ndarray) -> np.ndarray:
        residual = sample @ sample
        residual[:, np.arange(n), np.arange(n)] -= 1.0
        return np.linalg.norm(residual, axis=(1, 2)) / np.sqrt(n)

    def flush(done: np.ndarray) -> None:
        nonlocal active, t_prev, t_curr, series
        sign[active] = series
        terms[active] = order
        converged[active[done]] = True
        keep = ~done
        if keep.all():
            return
        active = active[keep]
        t_prev = t_prev[keep]
        if t_curr is not None:
            t_curr = t_curr[keep]
        series = series[keep]

    next_check = min(
        ((order // check_interval) + 1) * check_interval, degree
    )
    while order + 2 <= degree and active.size > 0:
        order += 2
        if t_curr is None:
            # T_3 = 2·T_2·T_1 − T_1
            t_next = 2.0 * (doubler[active] @ t_prev) - t_prev
        else:
            t_next = 2.0 * (doubler[active] @ t_curr) - t_prev
            t_prev = t_curr
        t_curr = t_next
        series += coefficients[order] * t_next
        if order >= next_check:
            flush(residuals_of(series) < convergence_threshold)
            next_check = min(next_check + check_interval, degree)
    if active.size > 0:
        flush(residuals_of(series) < convergence_threshold)
    return BatchedChebyshevResult(sign=sign, terms=terms, converged=converged)


def sign_chebyshev(
    matrix: np.ndarray,
    degree: int = DEFAULT_CHEBYSHEV_DEGREE,
    smoothing: float = DEFAULT_CHEBYSHEV_SMOOTHING,
    convergence_threshold: float = DEFAULT_CHEBYSHEV_THRESHOLD,
    check_interval: int = DEFAULT_CHECK_INTERVAL,
) -> ChebyshevSignResult:
    """Single-matrix convenience wrapper over :func:`sign_chebyshev_batched`."""
    dense = np.asarray(matrix, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError("sign function requires a square matrix")
    batched = sign_chebyshev_batched(
        dense[None, :, :],
        degree=degree,
        smoothing=smoothing,
        convergence_threshold=convergence_threshold,
        check_interval=check_interval,
    )
    sign = batched.sign[0]
    residual_matrix = sign @ sign - np.eye(dense.shape[0])
    residual = float(np.linalg.norm(residual_matrix)) / np.sqrt(dense.shape[0])
    return ChebyshevSignResult(
        sign=sign,
        terms=int(batched.terms[0]),
        converged=bool(batched.converged[0]),
        residual=residual,
    )
