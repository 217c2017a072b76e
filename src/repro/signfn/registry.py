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
"""

from __future__ import annotations

import dataclasses
import difflib
from typing import Callable, Dict, List, Optional

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
    "KernelConvergenceError",
    "register_kernel",
    "register_callable",
    "get_kernel",
    "available_kernels",
    "resolve_kernel",
    "resilient_stack_solver",
    "SIGN_SOLVERS",
    "DEFAULT_SIGN_MAX_ITERATIONS",
]

#: Iteration budget of the iterative sign kernels' first attempt; kernel
#: retries escalate it by ``ResiliencePolicy.kernel_retry_growth`` per round.
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
    """

    name: str
    function: Callable[[np.ndarray], np.ndarray]
    batch_function: Optional[Callable[[np.ndarray], np.ndarray]] = None
    matrix_function: bool = True


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
        Optional factory returning a *convergence-checked* batched callable
        ``checked(stack, max_iterations=...) -> (results, converged)`` with
        ``converged`` a per-matrix boolean array.  Iterative kernels
        provide it so the resilience layer
        (:func:`resilient_stack_solver`) can retry non-converged
        submatrices with an escalated iteration budget and fall back to a
        robust kernel per matrix — recorded, not raised.
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
        return BoundKernel(
            name=self.name,
            function=function,
            batch_function=batch,
            matrix_function=self.matrix_function,
        )

    def bind_checked(self, **params) -> Optional[Callable]:
        """Build the convergence-checked batched callable (``None`` when
        the kernel does not provide one; see :attr:`make_checked_batched`)."""
        if self.make_checked_batched is None:
            return None
        return self.make_checked_batched(**params)


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


class KernelConvergenceError(RuntimeError):
    """An iterative kernel failed convergence with no fallback configured.

    Only raised when :class:`~repro.api.config.ResiliencePolicy` sets
    ``kernel_fallback=None``; with the default ``"eigen"`` fallback,
    non-convergence is recovered and *recorded* instead.
    """

    def __init__(self, kernel: str, n_failed: int, budget: int):
        self.kernel = kernel
        self.n_failed = int(n_failed)
        self.budget = int(budget)
        super().__init__(
            f"kernel {kernel!r}: {n_failed} submatrix solve(s) did not "
            f"converge within {budget} iterations and no fallback kernel "
            "is configured"
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
    ``batch_function`` overrides the kernel's batched variant; ``**params``
    are forwarded to the kernel factories (e.g. ``mu=0.2``).
    """
    if isinstance(spec, BoundKernel):
        if params:
            raise TypeError("a BoundKernel has its parameters baked in already")
        if batch_function is not None:
            spec = dataclasses.replace(spec, batch_function=batch_function)
        return spec
    if isinstance(spec, MatrixFunction):
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
        bound = dataclasses.replace(bound, batch_function=batch_function)
    return bound


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
    def checked(stack, max_iterations: int = DEFAULT_SIGN_MAX_ITERATIONS):
        result = sign_newton_schulz_batched(
            stack, max_iterations=max_iterations, shift=mu
        )
        return result.sign, result.converged

    return checked


def _make_pade(mu: float = 0.0, order: int = 3):
    return lambda a: sign_pade(_shift(a, mu), order=order).sign


def _make_pade_checked(mu: float = 0.0, order: int = 3):
    def checked(stack, max_iterations: int = DEFAULT_SIGN_MAX_ITERATIONS):
        stack = np.asarray(stack, dtype=float)
        signs = np.empty_like(stack)
        converged = np.zeros(stack.shape[0], dtype=bool)
        for slot in range(stack.shape[0]):
            result = sign_pade(
                _shift(stack[slot], mu), order=order, max_iterations=max_iterations
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
    mu: float = 0.0, smoothing: float = DEFAULT_CHEBYSHEV_SMOOTHING
):
    def checked(stack, max_iterations: int = DEFAULT_SIGN_MAX_ITERATIONS):
        # the resilience ladder's budget is an *iteration* count tuned for
        # the sign iterations; for a polynomial expansion it maps to series
        # terms, so the first attempt always gets the full default degree
        # and escalated retries extend the series beyond it
        result = sign_chebyshev_batched(
            _shift(stack, mu),
            degree=max(DEFAULT_CHEBYSHEV_DEGREE, int(max_iterations)),
            smoothing=smoothing,
        )
        return result.sign, np.asarray(result.converged, dtype=bool)

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


# --------------------------------------------------------------------------- #
# resilience: convergence retry and per-matrix fallback
# --------------------------------------------------------------------------- #
def resilient_stack_solver(kernel: MatrixFunction, policy=None, report=None, **params):
    """Sign-stack solver with convergence retry and per-matrix fallback.

    Returns a callable ``solve(shifted) -> signs`` over already μ-shifted
    ``(k, d, d)`` stacks, or ``None`` when resilience does not apply —
    no ``policy``, or a ``kernel`` without a convergence-checked batched
    variant (:attr:`MatrixFunction.make_checked_batched`) — in which case
    the caller should use the plain bound kernel.

    The solver's recovery ladder, per stack:

    1. **First attempt** with the default iteration budget
       (:data:`DEFAULT_SIGN_MAX_ITERATIONS`).  When the policy carries a
       :class:`~repro.parallel.faults.FaultInjector`, its ``"kernel"``
       site is consulted first and may cap the budget — the deterministic
       way to force a genuine non-convergence in tests.
    2. **Retries** (``policy.kernel_retries`` rounds): every non-converged
       matrix is restarted *from its original shifted values* with the
       budget scaled by ``policy.kernel_retry_growth`` per round.  Because
       the batched iterations prescale and freeze each matrix individually
       and stop at convergence, a retried matrix that converges produces
       exactly the iterates — hence bitwise the result — of a fault-free
       first attempt.
    3. **Fallback**: matrices still non-converged are evaluated by the
       ``policy.kernel_fallback`` kernel (default ``"eigen"``), recorded
       on ``report.kernel_fallbacks`` rather than raised.  With
       ``kernel_fallback=None`` a :class:`KernelConvergenceError` is
       raised instead.

    ``report`` is any object with ``kernel_retries``/``kernel_fallbacks``
    int attributes (e.g. :class:`~repro.core.runner.ResilienceReport`);
    ``**params`` are forwarded to the kernel factories.
    """
    if policy is None:
        return None
    checked = kernel.bind_checked(**params)
    if checked is None:
        return None
    fallback = None
    fallback_name = getattr(policy, "kernel_fallback", None)
    if fallback_name is not None:
        fallback = get_kernel(fallback_name).bind()
    injector = getattr(policy, "fault_injector", None)
    retries = int(getattr(policy, "kernel_retries", 0))
    growth = float(getattr(policy, "kernel_retry_growth", 4.0))

    def solve(shifted: np.ndarray) -> np.ndarray:
        shifted = np.asarray(shifted, dtype=float)
        budget = DEFAULT_SIGN_MAX_ITERATIONS
        cap = injector.kernel_cap(kernel.name) if injector is not None else None
        signs, converged = checked(
            shifted, max_iterations=budget if cap is None else cap
        )
        signs = np.asarray(signs, dtype=float)
        converged = np.asarray(converged, dtype=bool).reshape(shifted.shape[0])
        round_index = 0
        while not converged.all() and round_index < retries:
            round_index += 1
            pending = np.flatnonzero(~converged)
            budget = int(round(DEFAULT_SIGN_MAX_ITERATIONS * growth**round_index))
            redo_signs, redo_converged = checked(
                shifted[pending], max_iterations=budget
            )
            signs[pending] = np.asarray(redo_signs, dtype=float)
            converged[pending] = np.asarray(redo_converged, dtype=bool).reshape(
                pending.size
            )
            if report is not None:
                report.kernel_retries += int(pending.size)
        if not converged.all():
            pending = np.flatnonzero(~converged)
            if fallback is None:
                raise KernelConvergenceError(kernel.name, pending.size, budget)
            if fallback.batch_function is not None:
                signs[pending] = np.asarray(
                    fallback.batch_function(shifted[pending]), dtype=float
                )
            else:
                for index in pending:
                    signs[index] = np.asarray(
                        fallback.function(shifted[index]), dtype=float
                    )
            if report is not None:
                report.kernel_fallbacks += int(pending.size)
        return signs

    return solve
