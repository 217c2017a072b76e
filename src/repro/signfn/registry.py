"""Named matrix-function kernels — the single registry behind every solver string.

One lookup validates every matrix-function name of the engine: a
:class:`MatrixFunction` describes a named kernel (how to build the
per-matrix callable and, when available, the batched ``(k, d, d)`` variant
for the bucketed stack evaluator), :func:`get_kernel` resolves a name with a
"did you mean" suggestion on typos, and :func:`resolve_kernel` turns any
user-facing spec — a registered name, a :class:`MatrixFunction`, or a bare
callable — into a :class:`BoundKernel` ready for the submatrix engine.

Users plug their own kernels in with :func:`register_kernel` (a full
factory-based kernel) or :func:`register_callable` (a fixed elementwise or
blockwise callable); after registration the name works everywhere a built-in
does: ``SubmatrixContext.apply`` (single-process or ``ranks=``-sharded) and
the ``solver=`` of ``density``/``observables``/``trajectory`` (where custom
sign kernels run through the iterative occupation path; see
``MatrixFunction.supports_mu_bisection`` for the eigendecomposition-cache
contract).

Every evaluation of a bound kernel on ``(k, d, d)`` stacks — f(A) and
densities alike — goes through one :class:`KernelStackSolver`: an iterative
kernel gets one convergence-checked attempt at its default budget, and
every submatrix it did not converge is evaluated by ``eigen`` instead and
counted.
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
from repro.signfn.chebyshev import (
    DEFAULT_CHEBYSHEV_DEGREE,
    DEFAULT_CHEBYSHEV_SMOOTHING,
    sign_chebyshev,
    sign_chebyshev_batched,
)
from repro.signfn.newton_schulz import (
    sign_newton_schulz,
    sign_newton_schulz_batched,
)
from repro.signfn.pade import sign_pade

__all__ = [
    "MatrixFunction",
    "BoundKernel",
    "UnknownKernelError",
    "KernelStackSolver",
    "register_kernel",
    "register_callable",
    "get_kernel",
    "available_kernels",
    "resolve_kernel",
    "SIGN_SOLVERS",
    "DEFAULT_SIGN_MAX_ITERATIONS",
]

#: Iteration budget of the one convergence-checked attempt of the iterative
#: sign kernels; a submatrix that has not converged within it is evaluated
#: by ``eigen``.
DEFAULT_SIGN_MAX_ITERATIONS = 100

#: The built-in per-submatrix sign solvers of the paper's ablation study.
#: The DFT solver accepts any registered matrix-function kernel; canonical
#: ensembles require one with ``supports_mu_bisection`` (Algorithm 1 reuses
#: the cached eigendecompositions during the μ-bisection).
SIGN_SOLVERS = ("eigen", "newton_schulz", "pade")


@dataclasses.dataclass(frozen=True)
class BoundKernel:
    """A kernel with its parameters already baked in.

    Attributes
    ----------
    name:
        Registry name (or the callable's name for ad-hoc functions).
    function:
        Per-matrix callable ``(d, d) -> (d, d)``.
    batch_function:
        Optional batched callable ``(k, d, d) -> (k, d, d)``; ``None`` falls
        back to one ``function`` call per stack slice.
    matrix_function:
        ``True`` for genuine (analytic) matrix functions, which the bucketed
        evaluator may pad block-diagonally; elementwise/blockwise callables
        must keep exact-dimension buckets.
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
    matrix_function: bool = True
    checked_function: Optional[
        Callable[[np.ndarray], Tuple[np.ndarray, int]]
    ] = None


@dataclasses.dataclass(frozen=True)
class MatrixFunction:
    """A named, parameterizable matrix-function kernel.

    Attributes
    ----------
    name:
        Registry name (e.g. ``"eigen"``).
    make:
        Factory ``make(**params)`` returning the per-matrix callable.
    make_batched:
        Optional factory returning the batched ``(k, d, d)`` callable.  It
        returns a stack of its own: the density driver maps sign →
        occupation in place on what it gets back.
    matrix_function:
        Whether the kernel is a genuine matrix function (padding-safe).
    iterative:
        ``True`` for kernels that evaluate f by an iteration on the
        (μ-shifted) matrix itself (Newton–Schulz, Padé) rather than through
        a spectral decomposition.  Iterative kernels cannot serve the
        canonical-ensemble μ-bisection (no cached spectra), but the density
        driver runs them rank-sharded through the distributed pipeline in
        the grand-canonical ensemble.
    shift_pad:
        Padding anchor of the bucketed stack evaluator for μ-shifted
        evaluations: a submatrix embedded block-diagonally *before* the
        shift ``A − μI`` uses ``shift_pad + μ`` on its padding diagonal, so
        the shifted padding eigenvalues sit at exactly ``shift_pad``.  The
        default 1.0 places them at the sign/occupation fixed point — well
        inside the Newton–Schulz/Padé convergence region and mapped to
        occupation 0, so the padded rows are exact and never reach the
        scatter.  See :meth:`padding_value`.
    make_checked_batched:
        Optional factory (same parameters as ``make``) returning a
        *convergence-checked* batched callable ``checked(stack) ->
        (results, converged)`` with ``converged`` a per-matrix boolean
        array; it runs the kernel once at its default budget
        (:data:`DEFAULT_SIGN_MAX_ITERATIONS` for the sign iterations) and
        must not write to ``stack``.  Iterative kernels provide it so that
        every submatrix they fail to converge is evaluated by ``eigen``
        instead — counted in ``kernel_fallbacks``, never raised (see
        :attr:`BoundKernel.checked_function`).
    supports_mu_bisection:
        Declares the kernel *spectrally equivalent* to the built-in
        eigendecomposition evaluation: its result equals
        ``Q f(Λ − μ) Qᵀ`` with f the occupation/signum family.  The DFT
        density driver satisfies such kernels through its shared
        eigendecomposition cache (Algorithm 1) — including the rank-sharded
        canonical μ-search — **instead of calling the kernel's factories**,
        with μ and the electronic temperature taken from the session config.
        Leave it ``False`` for any kernel with different math; those run
        through the iterative sign path (grand-canonical only).
    description:
        One-line human-readable summary.
    """

    name: str
    make: Callable[..., Callable[[np.ndarray], np.ndarray]]
    make_batched: Optional[Callable[..., Callable[[np.ndarray], np.ndarray]]] = None
    matrix_function: bool = True
    iterative: bool = False
    shift_pad: float = 1.0
    supports_mu_bisection: bool = False
    description: str = ""
    make_checked_batched: Optional[Callable[..., Callable]] = None

    def padding_value(self, mu: float = 0.0) -> float:
        """Safe padding diagonal for a μ-shifted evaluation of this kernel.

        The bucketed stack evaluator embeds a small submatrix as
        ``blockdiag(a, p·I)`` *before* the caller applies the shift
        ``· − μI``; this returns the ``p`` for which the shifted padding
        eigenvalues land exactly on :attr:`shift_pad`.
        """
        return self.shift_pad + mu

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
            matrix_function=self.matrix_function,
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
    """Raised when a kernel name is not in the registry.

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
            f"(registered kernels: {', '.join(sorted(known))})"
        )


_REGISTRY: Dict[str, MatrixFunction] = {}


def register_kernel(kernel: MatrixFunction, overwrite: bool = False) -> MatrixFunction:
    """Register ``kernel`` under its name; returns it for chaining."""
    if not isinstance(kernel, MatrixFunction):
        raise TypeError("register_kernel expects a MatrixFunction")
    if kernel.name in _REGISTRY and not overwrite:
        raise ValueError(
            f"kernel {kernel.name!r} is already registered "
            "(pass overwrite=True to replace it)"
        )
    _REGISTRY[kernel.name] = kernel
    return kernel


def register_callable(
    name: str,
    function: Callable[[np.ndarray], np.ndarray],
    batch_function: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    matrix_function: bool = False,
    iterative: bool = False,
    description: str = "",
    overwrite: bool = False,
) -> MatrixFunction:
    """Register a fixed elementwise/blockwise callable as a parameterless kernel.

    The callable is applied to each dense submatrix as-is.  Unless
    ``matrix_function=True`` the kernel is flagged as not padding-safe, so
    the batched engine keeps exact-dimension buckets for it.
    """
    if not callable(function):
        raise TypeError("function must be callable")

    def make(**params):
        if params:
            raise TypeError(
                f"kernel {name!r} accepts no parameters, got {sorted(params)}"
            )
        return function

    def make_batched(**params):
        if params:
            raise TypeError(
                f"kernel {name!r} accepts no parameters, got {sorted(params)}"
            )
        return batch_function

    return register_kernel(
        MatrixFunction(
            name=name,
            make=make,
            make_batched=make_batched if batch_function is not None else None,
            matrix_function=matrix_function,
            iterative=iterative,
            description=description,
        ),
        overwrite=overwrite,
    )


def get_kernel(name: str) -> MatrixFunction:
    """Look up a registered kernel by name (the one shared validation path)."""
    if not isinstance(name, str):
        raise TypeError(f"kernel name must be a string, got {type(name).__name__}")
    kernel = _REGISTRY.get(name)
    if kernel is None:
        raise UnknownKernelError(name, list(_REGISTRY))
    return kernel


def available_kernels() -> List[str]:
    """Sorted names of every registered kernel."""
    return sorted(_REGISTRY)


def resolve_kernel(
    spec,
    batch_function: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    **params,
) -> BoundKernel:
    """Turn a kernel spec into a :class:`BoundKernel`.

    ``spec`` may be a registered name, a :class:`MatrixFunction`, an already
    bound kernel, or a bare callable (treated as a matrix function).
    ``batch_function`` overrides the kernel's batched variant, its
    convergence-checked one included; ``**params`` are forwarded to the
    kernel factories (e.g. ``mu=0.2``).
    """
    if isinstance(spec, BoundKernel):
        if params:
            raise TypeError("a BoundKernel has its parameters baked in already")
        bound = spec
    elif isinstance(spec, MatrixFunction):
        bound = spec.bind(**params)
    elif isinstance(spec, str):
        bound = get_kernel(spec).bind(**params)
    elif callable(spec):
        if params:
            raise TypeError(
                "kernel parameters are only supported for registered kernels; "
                "bake them into the callable instead"
            )
        bound = BoundKernel(
            name=getattr(spec, "__name__", "callable"),
            function=spec,
            batch_function=None,
            matrix_function=True,
        )
    else:
        raise TypeError(
            "function must be a callable, a registered kernel name or a "
            f"MatrixFunction, got {type(spec).__name__}"
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
# built-in kernels
# --------------------------------------------------------------------------- #
def _shift(matrix: np.ndarray, mu: float) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    if mu == 0.0:
        return matrix
    return matrix - mu * np.eye(matrix.shape[-1])


def _make_eigen(mu: float = 0.0, zero_tolerance: float = 0.0):
    return lambda a: sign_via_eigendecomposition(a, mu=mu, zero_tolerance=zero_tolerance)


def _make_eigen_batched(mu: float = 0.0, zero_tolerance: float = 0.0):
    return lambda stack: sign_via_eigendecomposition_batched(
        stack, mu=mu, zero_tolerance=zero_tolerance
    )


def _make_newton_schulz(mu: float = 0.0):
    return lambda a: sign_newton_schulz(_shift(a, mu)).sign


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


def _make_pade(mu: float = 0.0, order: int = 3):
    return lambda a: sign_pade(_shift(a, mu), order=order).sign


def _make_pade_checked(mu: float = 0.0, order: int = 3):
    def checked(stack):
        stack = np.asarray(stack, dtype=float)
        signs = np.empty_like(stack)
        converged = np.zeros(stack.shape[0], dtype=bool)
        for slot in range(stack.shape[0]):
            result = sign_pade(
                _shift(stack[slot], mu),
                order=order,
                max_iterations=DEFAULT_SIGN_MAX_ITERATIONS,
            )
            signs[slot] = result.sign
            converged[slot] = result.converged
        return signs, converged

    return checked


def _make_chebyshev(
    mu: float = 0.0,
    degree: int = DEFAULT_CHEBYSHEV_DEGREE,
    smoothing: float = DEFAULT_CHEBYSHEV_SMOOTHING,
):
    return lambda a: sign_chebyshev(
        _shift(a, mu), degree=degree, smoothing=smoothing
    ).sign


def _make_chebyshev_batched(
    mu: float = 0.0,
    degree: int = DEFAULT_CHEBYSHEV_DEGREE,
    smoothing: float = DEFAULT_CHEBYSHEV_SMOOTHING,
):
    return lambda stack: sign_chebyshev_batched(
        _shift(stack, mu), degree=degree, smoothing=smoothing
    ).sign


def _make_chebyshev_checked(
    mu: float = 0.0,
    degree: int = DEFAULT_CHEBYSHEV_DEGREE,
    smoothing: float = DEFAULT_CHEBYSHEV_SMOOTHING,
):
    def checked(stack):
        result = sign_chebyshev_batched(
            _shift(stack, mu), degree=degree, smoothing=smoothing
        )
        return result.sign, result.converged

    return checked


register_kernel(
    MatrixFunction(
        name="eigen",
        make=_make_eigen,
        make_batched=_make_eigen_batched,
        supports_mu_bisection=True,
        description="sign(A − μI) via dense symmetric eigendecomposition (Eq. 17)",
    )
)
register_kernel(
    MatrixFunction(
        name="newton_schulz",
        make=_make_newton_schulz,
        make_batched=_make_newton_schulz_batched,
        iterative=True,
        description="sign(A − μI) via the 2nd-order Newton–Schulz iteration (Eq. 11)",
        make_checked_batched=_make_newton_schulz_checked,
    )
)
register_kernel(
    MatrixFunction(
        name="pade",
        make=_make_pade,
        iterative=True,
        description="sign(A − μI) via the higher-order Padé iteration (Eq. 19)",
        make_checked_batched=_make_pade_checked,
    )
)
register_kernel(
    MatrixFunction(
        name="chebyshev",
        make=_make_chebyshev,
        make_batched=_make_chebyshev_batched,
        iterative=True,
        description=(
            "sign(A − μI) via Chebyshev expansion of the erf-smoothed sign "
            "(GEMM-only, diagonalization-free)"
        ),
        make_checked_batched=_make_chebyshev_checked,
    )
)
