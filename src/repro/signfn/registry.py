"""The two sign kernels of the paper — the fixed table behind every solver string.

The paper compares two per-submatrix sign solvers: the dense symmetric
eigendecomposition (Eq. 12/17), which it uses, and the 2nd-order
Newton–Schulz iteration (Eq. 11), CP2K's baseline.  :data:`KERNELS` holds
exactly these two as :class:`MatrixFunction` entries — factories of
``(k, d, d)`` stack callables, never of a per-matrix one; :func:`get_kernel`
resolves a ``solver=`` or ``apply`` name against it with a "did you mean"
suggestion on typos, and :func:`resolve_kernel` turns either user-facing
spec — a kernel name or a bare per-matrix callable, wrapped once into a
slice-by-slice stack function — into a :class:`BoundKernel`.

:class:`KernelStackSolver` is the one stack solver of the engine: ``apply``,
the Newton–Schulz density route and
:func:`~repro.core.batch.evaluate_batched` evaluate every stack through it.
Newton–Schulz gets one convergence-checked attempt at its default budget,
and every submatrix it did not converge is evaluated by ``eigen`` instead
(the result's form with ``S = I``) and counted.
"""

from __future__ import annotations

import dataclasses
import difflib
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.signfn.eigen import sign_via_eigendecomposition_batched
from repro.signfn.newton_schulz import (
    BatchedNewtonSchulzResult,
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


@dataclasses.dataclass(frozen=True)
class BoundKernel:
    """A kernel with its parameters already baked in.

    Attributes
    ----------
    name:
        Kernel name (or the callable's name for ad-hoc functions).
    batch_function:
        Stack callable ``(k, d, d) -> (k, d, d)`` (a bare per-matrix
        callable is applied slice by slice).
    checked_function:
        ``(k, d, d) -> (panels, fallbacks)`` for kernels with a
        :attr:`MatrixFunction.make_checked_batched`: the kernel's one
        convergence-checked attempt, every submatrix it did not converge
        finished with ``eigen``'s sign(a − μI) (μ: the kernel's ``mu``
        parameter) and ``fallbacks`` the number of them.  When set it is
        what :class:`KernelStackSolver` evaluates; ``None`` otherwise.
    """

    name: str
    batch_function: Callable[[np.ndarray], np.ndarray]
    checked_function: Optional[
        Callable[[np.ndarray], Tuple[Callable, int]]
    ] = None


@dataclasses.dataclass(frozen=True)
class MatrixFunction:
    """A named, parameterizable matrix-function kernel.

    Attributes
    ----------
    name:
        Table key (``"eigen"`` or ``"newton_schulz"``).
    make_batched:
        Factory ``make_batched(**params)`` returning the batched
        ``(k, d, d)`` callable.  It returns a stack of its own: the density
        driver maps sign → occupation in place on what it gets back.
    make_checked_batched:
        Optional factory (same parameters as ``make_batched``) returning a
        *convergence-checked* batched callable ``checked(stack) ->
        (result, converged)`` with ``result`` a
        :class:`~repro.signfn.newton_schulz.BatchedNewtonSchulzResult` and
        ``converged`` a per-matrix boolean array; it runs the kernel once at
        :data:`DEFAULT_SIGN_MAX_ITERATIONS` and must not write to ``stack``.
        Every submatrix it fails to converge is evaluated by ``eigen``
        instead — counted in ``kernel_fallbacks``, never raised (see
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
    make_batched: Callable[..., Callable[[np.ndarray], np.ndarray]]
    supports_mu_bisection: bool = False
    description: str = ""
    make_checked_batched: Optional[Callable[..., Callable]] = None

    def padding_value(self, mu: float = 0.0) -> float:
        """``1 + μ``: an inert leftover — stacks are never padded, and the
        value feeds only the ignored ``pad_value=`` of
        :meth:`~repro.core.plan.SubmatrixPlan.extract_stack` and
        :func:`~repro.core.batch.evaluate_batched`; it stays only because
        ``benchmarks/e2e`` calls it."""
        return 1.0 + mu

    def bind(self, **params) -> BoundKernel:
        """Build the callables for one parameter set (e.g. ``mu=0.2``)."""
        checked = None
        if self.make_checked_batched is not None:
            checked = _with_eigen_fallback(
                self.make_checked_batched(**params), params.get("mu", 0.0)
            )
        return BoundKernel(
            name=self.name,
            batch_function=self.make_batched(**params),
            checked_function=checked,
        )


def _with_eigen_fallback(checked: Callable, mu: float):
    """:attr:`BoundKernel.checked_function` of a kernel's ``checked`` callable."""

    def solve(stack: np.ndarray):
        result, converged = checked(stack)
        failed = np.flatnonzero(~np.asarray(converged, dtype=bool))
        if failed.size:
            signs = sign_via_eigendecomposition_batched(stack[failed], mu=mu)
            result.finish(failed, signs)
        return result, int(failed.size)

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


def resolve_kernel(spec, **params) -> BoundKernel:
    """Turn a kernel spec into a :class:`BoundKernel`.

    ``spec`` is a kernel name, whose ``**params`` (e.g. ``mu=0.2``) are
    forwarded to its factories, or a bare callable ``(d, d) -> (d, d)``,
    wrapped once into a stack function applying it to every slice at the
    submatrix's own dimension.
    """
    if isinstance(spec, str):
        return get_kernel(spec).bind(**params)
    if not callable(spec):
        raise TypeError(
            f"function must be a callable or a kernel name, got {type(spec).__name__}"
        )
    if params:
        raise TypeError(
            "kernel parameters are only supported for named kernels; "
            "bake them into the callable instead"
        )
    return BoundKernel(
        name=getattr(spec, "__name__", "callable"),
        batch_function=lambda stack: [spec(matrix) for matrix in stack],
    )


class KernelStackSolver:
    """The one ``(k, d, d)`` stack solver of a bound kernel.

    ``apply`` and the iterative density route both evaluate every stack
    through one of these.  A kernel with a
    :attr:`~BoundKernel.checked_function` gets its single convergence-checked
    attempt, and the submatrices it did not converge come back from ``eigen``
    and add to :attr:`fallbacks` (stacks may be solved on several threads;
    the count is taken under a lock); its result is handed back as it is,
    a :class:`~repro.signfn.newton_schulz.BatchedNewtonSchulzResult` as its
    panel former (:meth:`~repro.signfn.newton_schulz.BatchedNewtonSchulzResult.panels`,
    see :func:`~repro.core.batch.map_stacks`).  Any other kernel runs its
    batched callable, and its result has the stack's dtype.
    """

    def __init__(self, kernel: BoundKernel):
        self.kernel = kernel
        self.fallbacks = 0
        self._lock = threading.Lock()

    def __call__(self, stack: np.ndarray):
        kernel = self.kernel
        if kernel.checked_function is None:
            return np.asarray(kernel.batch_function(stack), dtype=stack.dtype)
        results, fallbacks = kernel.checked_function(stack)
        if fallbacks:
            with self._lock:
                self.fallbacks += fallbacks
        if isinstance(results, BatchedNewtonSchulzResult):
            return results.panels
        return results


# --------------------------------------------------------------------------- #
# the two kernels
# --------------------------------------------------------------------------- #
def _make_eigen_batched(mu: float = 0.0, zero_tolerance: float = 0.0):
    return lambda stack: sign_via_eigendecomposition_batched(
        stack, mu=mu, zero_tolerance=zero_tolerance
    )


def _make_newton_schulz_batched(mu: float = 0.0):
    # the kernel shifts the diagonal of its own working copy
    return lambda stack: sign_newton_schulz_batched(stack, shift=mu).sign


def _make_newton_schulz_checked(mu: float = 0.0):
    def checked(stack):
        result = sign_newton_schulz_batched(
            stack, max_iterations=DEFAULT_SIGN_MAX_ITERATIONS, shift=mu
        )
        return result, result.converged

    return checked


#: The kernel table: every ``solver=`` string and every kernel name passed to
#: ``apply`` is one of these keys.
KERNELS: Dict[str, MatrixFunction] = {
    "eigen": MatrixFunction(
        name="eigen",
        make_batched=_make_eigen_batched,
        supports_mu_bisection=True,
        description="sign(A − μI) via dense symmetric eigendecomposition (Eq. 17)",
    ),
    "newton_schulz": MatrixFunction(
        name="newton_schulz",
        make_batched=_make_newton_schulz_batched,
        description=(
            "sign(A − μI) via the 2nd-order Newton–Schulz iteration (Eq. 11); "
            "quadratic-convergence stop, last step on the generating columns"
        ),
        make_checked_batched=_make_newton_schulz_checked,
    ),
}
