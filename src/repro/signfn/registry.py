"""The two sign kernels of the paper — the fixed table behind every solver string.

The paper compares two per-submatrix sign solvers: the dense symmetric
eigendecomposition (Eq. 12/17), which it uses, and the 2nd-order
Newton–Schulz iteration (Eq. 11), CP2K's baseline.  :data:`KERNELS` holds
exactly these two as :class:`MatrixFunction` entries (how to build the
per-matrix callable and the batched ``(k, d, d)`` variant for the bucketed
stack evaluator); :func:`get_kernel` resolves a ``solver=`` or ``apply``
name against it with a "did you mean" suggestion on typos, and
:func:`resolve_kernel` turns either user-facing spec — a kernel name or a
bare callable — into a :class:`BoundKernel` ready for the submatrix engine.

Every evaluation of a bound kernel on ``(k, d, d)`` stacks — f(A) and
densities alike — goes through one :class:`KernelStackSolver`: Newton–Schulz
gets one convergence-checked attempt at its default budget, and every
submatrix it did not converge is evaluated by ``eigen`` instead and counted.
"""

from __future__ import annotations

import dataclasses
import difflib
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.signfn.eigen import (
    sign_via_eigendecomposition,
    sign_via_eigendecomposition_batched,
)
from repro.signfn.newton_schulz import (
    sign_newton_schulz,
    sign_newton_schulz_batched,
)

__all__ = [
    "MatrixFunction",
    "BoundKernel",
    "UnknownKernelError",
    "KernelStackSolver",
    "KERNELS",
    "get_kernel",
    "available_kernels",
    "resolve_kernel",
    "DEFAULT_SIGN_MAX_ITERATIONS",
]

#: Iteration budget of the one convergence-checked attempt of the
#: Newton–Schulz kernel; a submatrix that has not converged within it is
#: evaluated by ``eigen``.
DEFAULT_SIGN_MAX_ITERATIONS = 100

#: Padding anchor of the bucketed stack evaluator for μ-shifted evaluations:
#: a submatrix embedded block-diagonally *before* the shift ``A − μI`` uses
#: ``SHIFT_PAD + μ`` on its padding diagonal, so the shifted padding
#: eigenvalues sit at exactly 1.0 — the sign/occupation fixed point, well
#: inside the Newton–Schulz convergence region and mapped to occupation 0, so
#: the padded rows are exact and never reach the scatter.
SHIFT_PAD = 1.0


@dataclasses.dataclass(frozen=True)
class BoundKernel:
    """A kernel with its parameters already baked in.

    Attributes
    ----------
    name:
        Kernel name (or the callable's name for ad-hoc functions).
    function:
        Per-matrix callable ``(d, d) -> (d, d)``.
    batch_function:
        Optional batched callable ``(k, d, d) -> (k, d, d)``; ``None`` falls
        back to one ``function`` call per stack slice.
    checked_function:
        ``(k, d, d) -> (results, fallbacks)`` for kernels with a
        :attr:`MatrixFunction.make_checked_batched`: the kernel's one
        convergence-checked attempt, every submatrix it did not converge
        replaced by ``eigen``'s sign(a − μI) (μ: the kernel's ``mu``
        parameter) and ``fallbacks`` the number of them.  When set it is
        what :class:`KernelStackSolver` evaluates; ``None`` otherwise.
    """

    name: str
    function: Callable[[np.ndarray], np.ndarray]
    batch_function: Optional[Callable[[np.ndarray], np.ndarray]] = None
    checked_function: Optional[
        Callable[[np.ndarray], Tuple[np.ndarray, int]]
    ] = None


@dataclasses.dataclass(frozen=True)
class MatrixFunction:
    """A named, parameterizable matrix-function kernel.

    Attributes
    ----------
    name:
        Table key (``"eigen"`` or ``"newton_schulz"``).
    make:
        Factory ``make(**params)`` returning the per-matrix callable.
    make_batched:
        Optional factory returning the batched ``(k, d, d)`` callable.  It
        returns a stack of its own: the density driver maps sign →
        occupation in place on what it gets back.
    make_checked_batched:
        Optional factory (same parameters as ``make``) returning a
        *convergence-checked* batched callable ``checked(stack) ->
        (results, converged)`` with ``converged`` a per-matrix boolean
        array; it runs the kernel once at :data:`DEFAULT_SIGN_MAX_ITERATIONS`
        and must not write to ``stack``.  Every submatrix it fails to
        converge is evaluated by ``eigen`` instead — counted in
        ``kernel_fallbacks``, never raised (see
        :attr:`BoundKernel.checked_function`).
    supports_mu_bisection:
        Declares the kernel *spectrally equivalent* to the eigendecomposition
        evaluation: its result equals ``Q f(Λ − μ) Qᵀ`` with f the
        occupation/signum family.  The DFT density driver satisfies such a
        kernel through its shared eigendecomposition cache (Algorithm 1) —
        including the canonical μ-search — **instead of calling the kernel's
        factories**, with μ and the electronic temperature taken from the
        session config.  ``False`` runs the kernel through the iterative sign
        path (grand-canonical only).
    description:
        One-line human-readable summary.
    """

    name: str
    make: Callable[..., Callable[[np.ndarray], np.ndarray]]
    make_batched: Optional[Callable[..., Callable[[np.ndarray], np.ndarray]]] = None
    supports_mu_bisection: bool = False
    description: str = ""
    make_checked_batched: Optional[Callable[..., Callable]] = None

    def padding_value(self, mu: float = 0.0) -> float:
        """Safe padding diagonal for a μ-shifted evaluation of this kernel.

        The bucketed stack evaluator embeds a small submatrix as
        ``blockdiag(a, p·I)`` *before* the caller applies the shift
        ``· − μI``; this returns the ``p`` for which the shifted padding
        eigenvalues land exactly on :data:`SHIFT_PAD`.
        """
        return SHIFT_PAD + mu

    def bind(self, **params) -> BoundKernel:
        """Build the callables for one parameter set (e.g. ``mu=0.2``)."""
        function = self.make(**params)
        batch = self.make_batched(**params) if self.make_batched is not None else None
        checked = None
        if self.make_checked_batched is not None:
            checked = _with_eigen_fallback(
                self.make_checked_batched(**params), params.get("mu", 0.0)
            )
        return BoundKernel(
            name=self.name,
            function=function,
            batch_function=batch,
            checked_function=checked,
        )


def _with_eigen_fallback(checked: Callable, mu: float):
    """:attr:`BoundKernel.checked_function` of a kernel's ``checked`` callable."""

    def solve(stack: np.ndarray) -> Tuple[np.ndarray, int]:
        results, converged = checked(stack)
        failed = np.flatnonzero(~np.asarray(converged, dtype=bool))
        if failed.size:
            results = np.asarray(results, dtype=float)
            results[failed] = sign_via_eigendecomposition_batched(
                stack[failed], mu=mu
            )
        return results, int(failed.size)

    return solve


class UnknownKernelError(ValueError, TypeError):
    """Raised when a kernel name is not in :data:`KERNELS`.

    Both a :class:`ValueError` (a bad ``solver=`` string) and a
    :class:`TypeError` (a bad function spec): callers catch either.
    """

    def __init__(self, name: str, known: List[str]):
        self.name = name
        self.known = list(known)
        suggestion = difflib.get_close_matches(name, known, n=1)
        hint = f"; did you mean {suggestion[0]!r}?" if suggestion else ""
        super().__init__(
            f"unknown matrix-function kernel {name!r}{hint} "
            f"(kernels: {', '.join(sorted(known))})"
        )


def get_kernel(name: str) -> MatrixFunction:
    """Look a kernel up by name (the one shared validation path)."""
    if not isinstance(name, str):
        raise TypeError(f"kernel name must be a string, got {type(name).__name__}")
    kernel = KERNELS.get(name)
    if kernel is None:
        raise UnknownKernelError(name, list(KERNELS))
    return kernel


def available_kernels() -> List[str]:
    """Sorted kernel names."""
    return sorted(KERNELS)


def resolve_kernel(
    spec,
    batch_function: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    **params,
) -> BoundKernel:
    """Turn a kernel spec into a :class:`BoundKernel`.

    ``spec`` is a kernel name or a bare callable (treated as a matrix
    function, so the bucketed evaluator may pad it block-diagonally).
    ``batch_function`` overrides the kernel's batched variant, its
    convergence-checked one included; ``**params`` are forwarded to the
    kernel factories (e.g. ``mu=0.2``).
    """
    if isinstance(spec, str):
        bound = get_kernel(spec).bind(**params)
    elif callable(spec):
        if params:
            raise TypeError(
                "kernel parameters are only supported for named kernels; "
                "bake them into the callable instead"
            )
        bound = BoundKernel(name=getattr(spec, "__name__", "callable"), function=spec)
    else:
        raise TypeError(
            f"function must be a callable or a kernel name, got {type(spec).__name__}"
        )
    if batch_function is not None:
        bound = dataclasses.replace(
            bound, batch_function=batch_function, checked_function=None
        )
    return bound


class KernelStackSolver:
    """The one ``(k, d, d)`` stack solver of a bound kernel.

    ``apply`` and the iterative density route both evaluate every stack
    through one of these.  A kernel with a
    :attr:`~BoundKernel.checked_function` gets its single convergence-checked
    attempt, and the submatrices it did not converge come back from ``eigen``
    and add to :attr:`fallbacks` (stacks may be solved on several threads;
    the count is taken under a lock).  Any other kernel runs its batched
    callable, or its per-matrix one slice by slice.  The result has the
    stack's dtype.
    """

    def __init__(self, kernel: BoundKernel):
        self.kernel = kernel
        self.fallbacks = 0
        self._lock = threading.Lock()

    def __call__(self, stack: np.ndarray) -> np.ndarray:
        kernel = self.kernel
        if kernel.checked_function is not None:
            results, fallbacks = kernel.checked_function(stack)
            if fallbacks:
                with self._lock:
                    self.fallbacks += fallbacks
        elif kernel.batch_function is not None:
            results = kernel.batch_function(stack)
        else:
            results = [kernel.function(matrix) for matrix in stack]
        return np.asarray(results, dtype=stack.dtype)


# --------------------------------------------------------------------------- #
# the two kernels
# --------------------------------------------------------------------------- #
def _make_eigen(mu: float = 0.0, zero_tolerance: float = 0.0):
    return lambda a: sign_via_eigendecomposition(a, mu=mu, zero_tolerance=zero_tolerance)


def _make_eigen_batched(mu: float = 0.0, zero_tolerance: float = 0.0):
    return lambda stack: sign_via_eigendecomposition_batched(
        stack, mu=mu, zero_tolerance=zero_tolerance
    )


def _make_newton_schulz(mu: float = 0.0):
    def solve(a):
        a = np.asarray(a, dtype=float)
        if mu != 0.0:
            a = a - mu * np.eye(a.shape[-1])
        return sign_newton_schulz(a).sign

    return solve


def _make_newton_schulz_batched(mu: float = 0.0):
    # the kernel shifts the diagonal of its own working copy
    return lambda stack: sign_newton_schulz_batched(stack, shift=mu).sign


def _make_newton_schulz_checked(mu: float = 0.0):
    def checked(stack):
        result = sign_newton_schulz_batched(
            stack, max_iterations=DEFAULT_SIGN_MAX_ITERATIONS, shift=mu
        )
        return result.sign, result.converged

    return checked


#: The kernel table: every ``solver=`` string and every kernel name passed to
#: ``apply`` is one of these keys.
KERNELS: Dict[str, MatrixFunction] = {
    "eigen": MatrixFunction(
        name="eigen",
        make=_make_eigen,
        make_batched=_make_eigen_batched,
        supports_mu_bisection=True,
        description="sign(A − μI) via dense symmetric eigendecomposition (Eq. 17)",
    ),
    "newton_schulz": MatrixFunction(
        name="newton_schulz",
        make=_make_newton_schulz,
        make_batched=_make_newton_schulz_batched,
        description="sign(A − μI) via the 2nd-order Newton–Schulz iteration (Eq. 11)",
        make_checked_batched=_make_newton_schulz_checked,
    ),
}
