"""Observable-generic execution pipeline over the submatrix method.

The submatrix method of the paper evaluates an *arbitrary* matrix function
of the Hamiltonian through independent dense submatrix solves (Eq. 17); the
density matrix

    D = 1/2 · S^{-1/2} (I − sign(S^{-1/2} K S^{-1/2} − μ I)) S^{-1/2}   (Eq. 16)

is its application (Sec. IV-F/G), grand-canonical (μ fixed) or canonical
(electron count fixed, μ bisected on the cached eigendecompositions —
Algorithm 1).  This module hosts the one path from a request to its result
plus the fixed table of the three *observables*, sibling to the table of the
two sign kernels (:data:`~repro.signfn.registry.KERNELS`):

* :func:`validate_request` is the one request vocabulary and check of the
  direct, trajectory and served entry points: it takes the request by
  keyword and returns a frozen :class:`Request`;
* :func:`compute_observables` is the one path from that record to its
  result, over one :class:`Decomposition` record: ``_decompose → bisect →
  assemble``.  ``_decompose`` runs the engine **once** — prepare, then the
  session's one engine pass (plan lookup, ``plan.pack``, the rank loop
  :func:`~repro.core.runner.run_stacks`, single-process or rank-sharded) —
  into the record; a canonical request bisects μ on its cached spectra
  (Algorithm 1); and every requested observable is assembled from the same
  record;
* an :class:`Observable` describes what a physical quantity needs from the
  engine (the cached eigendecompositions, μ, the scatter plan) and how to
  assemble its result from that :class:`Decomposition`; its parameter
  check runs in :func:`validate_request`, before any work, so ``assemble``
  reads parameters already normalised; ``density`` is just one entry of
  :data:`OBSERVABLES`.

**Which requests hold spectra.**  The paper keeps Q, Λ of every submatrix
only because the canonical μ search revisits them (Algorithm 1), and copies
only the generating block columns of f(aᵢ) back (Sec. III).  So the engine
pass has two modes, chosen by whether anything downstream reads the spectra:

* *collect* — a canonical request (``n_electrons=``: the bisection runs on
  them) and a bundle with ``pdos`` or ``energy_weighted_density`` (assembled
  from them) keep the rank loop's spectra as one read-only
  :class:`StackSpectra` record per stack — ``(members, λ, Q)`` and the
  generating weights Σ Q[rows]², formed in the stack task — Σdᵢ²·8 B;
* *scatter* — a fixed-``mu=`` request whose observables all have
  ``supports_iterative`` streams ``eigh → occupy → scatter`` per stack inside
  the stack task (rank- and worker-parallel) and keeps nothing: at most one
  stack of eigenvectors is alive per worker.  The Newton–Schulz kernel has
  always run this way.

Both modes deliver a spectral stack with one panel former
(:func:`~repro.core.batch.spectral_panels`: generating columns only, d²·w
flops instead of d³) and one scatter per stack; they differ only in when it
runs — inside the stack task, or on the caller thread once the bisection
has fixed μ — so both, and with them direct, served and sharded calls, are
bitwise equal.  The bisection and the PDOS ``eigenvalues``/``weights`` read
the spectra gathered back into plan group order
(:attr:`Decomposition.spectrum`).

The observables:

``density``
    The one-particle reduced density matrix (Eq. 16) — the historical
    result, a :class:`~repro.api.results.SubmatrixDFTResult`.
``pdos``
    Projected / total density of states from the generating-row spectral
    weights of the cached decompositions (the same measure Algorithm 1's
    electron count integrates), Gaussian-broadened on an energy grid.
``energy_weighted_density``
    The energy-weighted density matrix W = Q (λ·f(λ−μ)) Qᵀ (AO basis via
    the Löwdin back-transform) and the spectral band-structure energy
    ``g_s · Tr(W)`` — the quantity entering Pulay-force contractions.

Only ``density`` is available through the diagonalization-free
Newton–Schulz kernel: the other observables need the spectral data that only
the eigendecomposition cache carries.
"""

from __future__ import annotations

import dataclasses
import difflib
import functools
import math
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
import scipy.sparse as sp

from repro.api.config import check_positive_int
from repro.api.results import (
    EnergyWeightedDensityResult,
    ObservableBundle,
    PDOSResult,
    SubmatrixDFTResult,
)
from repro.chem.density import (
    SPIN_DEGENERACY,
    band_structure_energy,
    electron_count,
    fermi_occupation,
)
from repro.core.batch import spectral_panels
from repro.core.combination import ColumnGrouping, check_grouping
from repro.core.plan import BlockSubmatrixPlan
from repro.chem.orthogonalize import orthogonalized_ks_blocks
from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.convert import block_matrix_to_csr
from repro.dbcsr.coo import CooBlockList, concat_ranges
from repro.dbcsr.product import PanelRuns, triple_product
from repro.parallel.executor import map_parallel
from repro.signfn.registry import KernelStackSolver, get_kernel

__all__ = [
    "Decomposition",
    "Observable",
    "UnknownObservableError",
    "available_observables",
    "compute_observables",
    "get_observable",
    "normalize_observables",
    "OBSERVABLES",
    "MAX_MU_ITERATIONS",
    "Request",
    "validate_request",
    "assemble_result",
    "prepare_step",
    "PreparedStep",
]


#: Most bisection steps of a canonical request's μ search (Algorithm 1).
MAX_MU_ITERATIONS = 200

#: Most elements of one PDOS pass's ``(slots, d, n_points)`` temporaries
#: (1 MiB): a whole water-32 stack in one pass (7 × 192 × 400) made a PDOS
#: bundle 5 % slower and its peak 10 MiB larger (2-core AMD EPYC, 1 MiB L2).
PDOS_PASS_ELEMENTS = 1 << 17


# --------------------------------------------------------------------------- #
# step preparation (pure)
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class PreparedStep:
    """Context-free preparation of one density calculation's inputs.

    Everything here is a pure function of ``(K, S, block_sizes,
    eps_filter)`` — orthogonalization, block conversion, the COO pattern
    and its fingerprint — and touches neither the session's plan cache nor
    its pipelines.  ``s_inv_sqrt`` and its ``outer_runs`` are a pure function
    of ``S``; when the session has seen that overlap content before they are
    its shared pair (:meth:`~repro.api.context.SubmatrixContext.overlap_root`),
    bitwise what a fresh computation gives.  :func:`compute_observables`
    starts from a prepared step.
    """

    s_inv_sqrt: np.ndarray
    outer_runs: PanelRuns
    block_k: BlockSparseMatrix
    coo: CooBlockList


def prepare_step(
    K, S, blocks, eps_filter: float, s_inv_sqrt=None, outer_runs=None, outer_norms=None,
    mapper=None,
) -> PreparedStep:
    """Precompute the pure preparation of one step (see :class:`PreparedStep`).

    ``s_inv_sqrt``, ``outer_runs`` and ``outer_norms`` are the Löwdin root of
    ``S``, its floor runs and block norms when the caller holds them (a
    session passes its cached entry), else computed.  The filtered K̃ goes
    straight into blocks
    (:func:`~repro.chem.orthogonalize.orthogonalized_ks_blocks`), the blocks
    and values :func:`~repro.chem.orthogonalize.orthogonalized_ks`'s CSR form
    would give, K̃'s n×n products in row bands on ``mapper`` (if given).

    Raises :class:`ValueError` naming the matrix when ``K`` or ``S`` holds a
    NaN/Inf or is not symmetric
    (:data:`~repro.chem.orthogonalize.SYMMETRY_ATOL`): one NaN turns the whole
    orthogonalized matrix into NaN, NaN compares below ``eps_filter``, and an
    all-zero density would come back instead of an error; an asymmetric ``K``
    would be symmetrised into a different Hamiltonian without complaint.
    """
    block_k, s_inv_sqrt, outer_runs = orthogonalized_ks_blocks(
        K, S, blocks.block_sizes, eps_filter, s_inv_sqrt, outer_runs, outer_norms,
        mapper,
    )
    coo = CooBlockList.from_block_matrix(block_k)
    return PreparedStep(s_inv_sqrt, outer_runs, block_k, coo)


# --------------------------------------------------------------------------- #
# observable table
# --------------------------------------------------------------------------- #
class UnknownObservableError(ValueError):
    """Raised for an observable name missing from :data:`OBSERVABLES`."""


@dataclasses.dataclass(frozen=True)
class Observable:
    """Table entry describing one physical observable.

    Attributes
    ----------
    name:
        Table key (``observables=("density", "pdos")``).
    assemble:
        ``assemble(decomposition, params) -> result`` — build the
        observable's result object from the request's one
        :class:`Decomposition` (cached decompositions, μ, scatter plan) and
        the observable's parameters as ``parameters`` normalised them.
    description:
        One-line human description.
    supports_iterative:
        Whether the observable can also be produced by the
        diagonalization-free Newton–Schulz kernel (only ``density``) —
        that is, assembled from the scattered occupation matrices alone.  A
        fixed-μ request of only such observables holds no spectra.
    reads_eigenvectors:
        Whether ``assemble`` scatters Q g(λ) Qᵀ from the kept eigenvectors
        (the PDOS reads only λ and the weights; see :func:`_scatter_spectral`).
    parameters:
        ``parameters(params) -> normalised params`` — check the caller's
        per-observable parameter mapping (:func:`validate_request` calls it
        before any work) and return it with every default filled in;
        ``None`` for an observable that takes no parameters.
    """

    name: str
    assemble: Callable[["Decomposition", Mapping[str, Any]], Any]
    description: str
    supports_iterative: bool
    reads_eigenvectors: bool
    parameters: Optional[Callable[[Mapping[str, Any]], Dict[str, Any]]] = None


def get_observable(name: str) -> Observable:
    """Look an observable up by name, with did-you-mean help."""
    try:
        return OBSERVABLES[name]
    except KeyError:
        suggestions = difflib.get_close_matches(str(name), list(OBSERVABLES), n=1)
        hint = f" — did you mean {suggestions[0]!r}?" if suggestions else ""
        raise UnknownObservableError(
            f"unknown observable {name!r}; available: "
            f"{', '.join(sorted(OBSERVABLES))}{hint}"
        ) from None


def available_observables() -> Tuple[str, ...]:
    """Names of all observables, sorted."""
    return tuple(sorted(OBSERVABLES))


def normalize_observables(
    observables: Union[str, Sequence[str]],
) -> Tuple[str, ...]:
    """Validate and canonicalize an observable request to a name tuple."""
    if isinstance(observables, str):
        names: Tuple[str, ...] = (observables,)
    else:
        names = tuple(str(name) for name in observables)
    if not names:
        raise ValueError("request at least one observable")
    seen: Dict[str, None] = {}
    for name in names:
        get_observable(name)  # raises UnknownObservableError with a hint
        seen.setdefault(name, None)
    return tuple(seen)


# --------------------------------------------------------------------------- #
# the one path from a request to its result
# --------------------------------------------------------------------------- #
@dataclasses.dataclass(frozen=True)
class Request:
    """One checked request, as :func:`validate_request` returns it.

    ``names`` are the canonicalized observable names, ``kernel`` the sign
    kernel's :class:`~repro.signfn.registry.MatrixFunction` and ``params``
    every requested observable's parameters, normalised by its
    :attr:`Observable.parameters` (``{}`` for one that takes none).  Exactly
    one of ``mu`` and ``n_electrons`` is set, as a float; ``ranks`` is
    ``None`` (single process) or a positive ``int``.
    """

    names: Tuple[str, ...]
    kernel: Any
    params: Dict[str, Dict[str, Any]]
    mu: Optional[float]
    n_electrons: Optional[float]
    grouping: Optional[ColumnGrouping]
    mu_tolerance: float
    ranks: Optional[int]


def validate_request(
    config,
    blocks,
    shapes: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None,
    /,
    *,
    observables: Union[str, Sequence[str]] = ("density",),
    mu: Optional[float] = None,
    n_electrons: Optional[float] = None,
    solver: str = "eigen",
    grouping: Optional[ColumnGrouping] = None,
    mu_tolerance: float = 1e-9,
    ranks: Optional[int] = None,
    observable_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> Request:
    """Check one request before any work or resource is spent on it.

    The only signature that lists the request keywords: the direct
    (:meth:`~repro.api.context.SubmatrixContext.observables`), trajectory
    (:func:`~repro.api.trajectory.run_trajectory`) and served
    (:meth:`~repro.serve.DensityService.submit`) entry points forward their
    ``**request`` here, so all three accept the same keywords and reject the
    same requests with the same exception (an unknown keyword is the
    :class:`TypeError` of this call).  Returns the checked :class:`Request`.

    Raises :class:`ValueError` (:class:`UnknownObservableError` /
    :class:`~repro.signfn.registry.UnknownKernelError` for unknown
    names) unless exactly one of ``mu`` and ``n_electrons`` is given, it is
    a finite scalar (a sequence is a :class:`TypeError`), an electron count
    lies in ``[0, SPIN_DEGENERACY · n_basis]`` (outside, no μ exists and
    the bisection would return an all-empty or all-full density without
    complaint), and the kernel can serve the
    ensemble and every observable, and every observable's parameters pass
    its own check (:func:`_check_params`; a ``pdos`` grid size that is not
    an integer is a :class:`TypeError`).  ``ranks`` must pass
    :func:`~repro.api.config.check_positive_int`, ``mu_tolerance`` must be
    finite and non-negative, and ``grouping`` must pass
    :func:`~repro.core.combination.check_grouping` on the request's block
    columns.  ``shapes``, positional, are the shapes of ``K`` and ``S``, for
    a caller that must refuse a mismatch before it reserves anything (the
    service's admission slot); :func:`compute_observables` checks them on
    every call.
    """
    ranks = check_positive_int(ranks, "ranks")
    if not (math.isfinite(mu_tolerance) and mu_tolerance >= 0.0):
        raise ValueError(
            f"mu_tolerance must be finite and non-negative, got {mu_tolerance!r}"
        )
    names = normalize_observables(observables)
    observable_params = observable_params or {}
    for key in observable_params:
        if key not in names:
            raise ValueError(
                f"observable_params given for {key!r}, which is not in the "
                f"requested observables {names!r}"
            )
    params = {
        name: _check_params(get_observable(name), observable_params.get(name, {}))
        for name in names
    }
    if (mu is None) == (n_electrons is None):
        raise ValueError("specify exactly one of mu and n_electrons")
    canonical = n_electrons is not None
    # the single (table-backed) solver-string validation path; eigen
    # (supports_mu_bisection) runs through the eigendecomposition cache
    # (Algorithm 1), Newton–Schulz through the iterative sign path
    kernel = get_kernel(solver)
    if not kernel.supports_mu_bisection:
        if canonical:
            raise ValueError(
                "canonical-ensemble calculations require the "
                "eigendecomposition solver (Algorithm 1 reuses the cached "
                "eigendecompositions)"
            )
        unsupported = [
            name for name in names if not get_observable(name).supports_iterative
        ]
        if unsupported:
            raise ValueError(
                f"observables {unsupported!r} need the spectral data of an "
                f"eigendecomposition-cache solver; the iterative kernel "
                f"{kernel.name!r} only supports: "
                + ", ".join(
                    name
                    for name in available_observables()
                    if get_observable(name).supports_iterative
                )
            )
    label = "n_electrons" if canonical else "mu"
    value = n_electrons if canonical else mu
    if np.ndim(value) != 0:
        raise TypeError(f"{label} must be a scalar, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{label} must be finite, got {value!r}")
    if canonical:
        capacity = SPIN_DEGENERACY * float(np.sum(blocks.block_sizes))
        if not 0.0 <= value <= capacity:
            raise ValueError(
                f"n_electrons must lie in [0, {capacity:g}] (spin degeneracy "
                f"times the number of basis functions), got {value!r}"
            )
    check_grouping(grouping, len(blocks.block_sizes))
    if shapes is not None:
        _check_shapes(*shapes, blocks)
    return Request(
        names=names,
        kernel=kernel,
        params=params,
        mu=None if canonical else value,
        n_electrons=value if canonical else None,
        grouping=grouping,
        mu_tolerance=float(mu_tolerance),
        ranks=ranks,
    )


def _check_params(
    observable: Observable, params: Mapping[str, Any]
) -> Dict[str, Any]:
    """``observable``'s parameters, checked and normalised (see
    :attr:`Observable.parameters`): any parameter given to an observable
    that takes none is a :class:`ValueError`."""
    if observable.parameters is not None:
        return observable.parameters(params)
    if params:
        raise ValueError(
            f"the {observable.name} observable takes no parameters, "
            f"got {dict(params)!r}"
        )
    return {}


def _check_shapes(k_shape, s_shape, blocks) -> None:
    """Raise :class:`ValueError` naming the matrix unless ``K`` and ``S`` are
    square 2-D matrices of one non-zero size, the sum of the block sizes."""
    n_basis = int(np.sum(blocks.block_sizes))
    for name, shape in (("K", tuple(k_shape)), ("S", tuple(s_shape))):
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0:
            raise ValueError(
                f"{name} must be a non-empty square 2-D matrix, got shape {shape}"
            )
        if shape[0] != n_basis:
            raise ValueError(
                f"{name} has shape {shape}, but the blocks sum to {n_basis} "
                "basis functions"
            )


class StackSpectra(NamedTuple):
    """The collect mode's record of one solved stack of ``k`` submatrices of
    dimension ``d``; λ, Q and the weights are read-only until the request's
    last reader of Q forms its panels in it (:func:`_scatter_spectral`).

    ``members`` are the stack slots' global plan groups, ``eigenvalues`` and
    ``eigenvectors`` the ``(k, d)`` and ``(k, d, d)`` output of ``eigh``, and
    ``weights`` the ``(k, d)`` generating weights Σ_rows Q[rows]² over each
    member's generating rows: the electron count at μ is ``weights ·
    f(λ − μ)``, so Algorithm 1 never re-slices the eigenvectors.
    """

    members: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    weights: np.ndarray


@dataclasses.dataclass
class Decomposition:
    """The one record of a request: its engine pass, μ, and what assembles.

    Built by ``_decompose`` and completed by :func:`compute_observables`
    (μ, and for a canonical request the bisection's ``mu_iterations``);
    every observable's ``assemble`` hook reads it, and the spectral scatter
    counts down ``eigenvector_readers`` (:func:`_scatter_spectral`).

    In collect mode the per-stack ``spectra`` serve any chemical potential
    and any observable (every bisection step reads the same arrays).  In
    scatter mode (a fixed μ and nothing that reads spectra; every
    Newton–Schulz request) the pass evaluates the occupation matrices at
    that μ (``occupation_block``) and leaves ``spectra`` ``None``.
    ``stack_decompositions`` counts the ``eigh`` stacks solved in either
    mode (0 for Newton–Schulz), ``kernel_fallbacks`` the submatrices
    Newton–Schulz did not converge (evaluated by ``eigen`` instead).
    ``start`` is the ``perf_counter`` reading results' ``wall_time`` counts
    from, ``mapper`` the session mapper every stage of the request shares
    (``None`` for a session without a pool).
    """

    config: Any
    K: Any
    start: float
    prepared: PreparedStep
    plan: BlockSubmatrixPlan
    mapper: Any
    pipeline: Any = None
    mu: Optional[float] = None
    mu_iterations: int = 0
    spectra: Optional[List[StackSpectra]] = None
    occupation_block: Optional[BlockSparseMatrix] = None
    stack_decompositions: int = 0
    kernel_fallbacks: int = 0
    eigenvector_readers: int = 0

    @functools.cached_property
    def spectrum(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every submatrix's eigenvalues and generating weights, each
        concatenated in plan group order: the stacks' flat arrays gathered
        with one index, so the bisection's dot product and the PDOS arrays
        sum in the order of the groups, whatever the order of the stacks."""
        spectra = self.spectra
        dims = np.repeat(
            [stack.eigenvalues.shape[1] for stack in spectra],
            [stack.members.size for stack in spectra],
        )
        order = np.argsort(np.concatenate([stack.members for stack in spectra]))
        index = concat_ranges((np.cumsum(dims) - dims)[order], dims[order])
        return tuple(
            np.concatenate([getattr(stack, name).ravel() for stack in spectra])[index]
            for name in ("eigenvalues", "weights")
        )


def compute_observables(context, K, S, blocks, request: Request) -> ObservableBundle:
    """Evaluate one or more observables from a single decomposition pass.

    The only path from a checked :class:`Request` (:func:`validate_request`)
    to its result, over one :class:`Decomposition`: the shapes of ``K`` and
    ``S`` (:func:`_check_shapes`), then the engine pass (``_decompose``:
    prepare with :func:`prepare_step`, look up the extraction plan, run
    exactly one eigendecomposition pass over the bucketed submatrix stacks,
    single-process or sharded over ``request.ranks``), then — for a
    canonical ensemble — one μ-bisection on the kept spectra, and every
    requested observable assembled from the same per-stack
    :class:`StackSpectra` records.

    ``context`` supplies the engine configuration, plan cache, overlap roots
    and persistent executor.  The Newton–Schulz kernel
    (``supports_mu_bisection == False``) never builds the spectral cache, so
    :func:`validate_request` lets it serve only observables with
    ``supports_iterative`` (``density`` alone).
    """
    start = time.perf_counter()
    _check_shapes(np.shape(K), np.shape(S), blocks)
    decomposition = _decompose(context, K, S, blocks, request, start)
    if request.n_electrons is not None:
        decomposition.mu, decomposition.mu_iterations = _bisect_mu(
            context.config,
            *decomposition.spectrum,
            request.n_electrons,
            request.mu_tolerance,
        )
    return ObservableBundle(
        results={
            name: get_observable(name).assemble(decomposition, request.params[name])
            for name in request.names
        },
        observables=request.names,
        stack_decompositions=decomposition.stack_decompositions,
    )


def _decompose(context, K, S, blocks, request: Request, start) -> Decomposition:
    """The engine pass of one request (see :class:`Decomposition`).

    Prepare, then run the session's one engine pass (plan lookup, pack, the
    rank loop) once, in one of two modes.  *Collect*: when
    something downstream reads the spectra — the μ-bisection of a canonical
    request, an observable without ``supports_iterative`` — every stack's
    eigendecomposition and generating weights are kept as one
    :class:`StackSpectra` record at its global group indices
    (:func:`_collect_spectra`).
    *Scatter*: otherwise the occupation matrices of the request's fixed μ
    are delivered inside the stack tasks and nothing else survives them —
    generating-column panels straight from each stack's ``eigh``
    (:func:`_streamed_occupations`), or whole matrices from an iterative
    sign kernel (:func:`_iterative_occupations`).  ``eigh`` and the sign
    iterations work per matrix, independent of stack composition, so a
    sharded pass is bitwise identical to a single-process one.  One mapper,
    on the session's pool, runs the stack tasks and the Löwdin row bands; a
    session without a pool runs both serially.
    """
    config = context.config
    mu = request.mu
    spectral = request.kernel.supports_mu_bisection
    collect = mu is None or not all(
        get_observable(name).supports_iterative for name in request.names
    )
    executor = context.executor
    mapper = None
    if executor is not None:
        mapper = functools.partial(map_parallel, executor=executor)
    root = context.overlap_root(S, blocks.block_sizes)
    prepared = prepare_step(K, S, blocks, config.eps_filter, *root, mapper)
    if collect:
        solver = _collect_spectra
    elif spectral:
        solver = _streamed_occupations(mu, config.temperature)
    else:
        # the μ-shift is applied by the stack solver, so the kernel is bound
        # without parameters
        sign = KernelStackSolver(request.kernel.bind())
        solver = _iterative_occupations(sign, mu)
    plan, pipeline, stacks, occupation_block = context._engine_pass(
        prepared.block_k,
        solver,
        coo=prepared.coo,
        grouping=request.grouping,
        ranks=request.ranks,
        collect=collect,
        mapper=mapper,
    )
    decomposition = Decomposition(
        config=config,
        K=K,
        start=start,
        prepared=prepared,
        plan=plan,
        mapper=mapper,
        pipeline=pipeline,
        mu=mu,
        occupation_block=occupation_block,
        stack_decompositions=len(stacks) if spectral else 0,
        kernel_fallbacks=0 if spectral else sign.fallbacks,
    )
    if collect:
        decomposition.spectra = [
            StackSpectra(np.asarray(members, dtype=np.int64), *record)
            for members, record in stacks
        ]
        decomposition.eigenvector_readers = sum(
            get_observable(name).reads_eigenvectors for name in request.names
        )
    return decomposition


# --------------------------------------------------------------------------- #
# the observables
# --------------------------------------------------------------------------- #
def _assemble_density(
    decomposition: Decomposition, params: Mapping[str, Any]
) -> SubmatrixDFTResult:
    pipeline = decomposition.pipeline
    occupation_block = decomposition.occupation_block
    if occupation_block is None:
        # D̃ = Q f(λ − μ) Qᵀ per submatrix (Eq. 17)
        occupation_block = _scatter_spectral(
            decomposition,
            lambda eigenvalues: fermi_occupation(
                eigenvalues, decomposition.mu, decomposition.config.temperature
            ),
        )
    return assemble_result(
        decomposition.config,
        decomposition.K,
        decomposition.prepared.s_inv_sqrt,
        occupation_block,
        decomposition.prepared.coo,
        decomposition.mu,
        decomposition.mu_iterations,
        list(decomposition.plan.dimensions),
        wall_time=time.perf_counter() - decomposition.start,
        ranks=pipeline.n_ranks if pipeline is not None else 1,
        pipeline=pipeline,
        kernel_fallbacks=decomposition.kernel_fallbacks,
        outer_runs=decomposition.prepared.outer_runs,
        mapper=decomposition.mapper,
    )


def _pdos_parameters(params: Mapping[str, Any]) -> Dict[str, Any]:
    """The PDOS grid: Gaussian ``broadening`` (finite, positive; default
    0.1), ``n_points`` (an integer ≥ 2; default 400) and ``energy_window``
    (``None``, the spectrum's span plus five widths, or finite ``lo < hi``)."""
    known = {"broadening", "n_points", "energy_window"}
    unknown = set(params) - known
    if unknown:
        raise ValueError(
            f"unknown pdos parameters {sorted(unknown)!r}; known: {sorted(known)!r}"
        )
    broadening = float(params.get("broadening", 0.1))
    if not (math.isfinite(broadening) and broadening > 0.0):
        raise ValueError(
            f"pdos broadening must be finite and positive, got {broadening!r}"
        )
    n_points = check_positive_int(params.get("n_points", 400), "pdos n_points")
    if n_points < 2:
        raise ValueError("pdos n_points must be at least 2")
    window = params.get("energy_window")
    if window is not None:
        window = np.asarray(window, dtype=float)
        if window.shape != (2,) or not np.isfinite(window).all():
            raise ValueError("pdos energy_window must be two finite values (lo, hi)")
        window = (float(window[0]), float(window[1]))
        if not window[0] < window[1]:
            raise ValueError("pdos energy_window must satisfy lo < hi")
    return {"broadening": broadening, "n_points": n_points, "energy_window": window}


def _assemble_pdos(
    decomposition: Decomposition, params: Mapping[str, Any]
) -> PDOSResult:
    config = decomposition.config
    broadening, n_points = params["broadening"], params["n_points"]
    eigenvalues, weights = decomposition.spectrum
    if params["energy_window"] is None:
        lo = float(eigenvalues.min()) - 5.0 * broadening
        hi = float(eigenvalues.max()) + 5.0 * broadening
    else:
        lo, hi = params["energy_window"]
    energies = np.linspace(lo, hi, n_points)
    norm = SPIN_DEGENERACY / (broadening * np.sqrt(2.0 * np.pi))
    projections = np.zeros((decomposition.plan.n_groups, n_points))
    for stack in decomposition.spectra:
        # vectorised over a stack's slots in capped passes, summed over the
        # eigenvalue axis in order: bitwise the per-submatrix sum
        k, d = stack.eigenvalues.shape
        step = max(1, PDOS_PASS_ELEMENTS // (d * n_points))
        for first in range(0, k, step):
            part = slice(first, first + step)
            delta = energies - stack.eigenvalues[part, :, None]
            delta /= broadening
            gauss = -0.5 * delta
            gauss *= delta
            np.exp(gauss, out=gauss)
            gauss *= stack.weights[part, :, None]
            projections[stack.members[part]] = norm * np.sum(gauss, axis=1)
    occupations = fermi_occupation(eigenvalues, decomposition.mu, config.temperature)
    n_elec = SPIN_DEGENERACY * float(np.dot(weights, occupations))
    return PDOSResult(
        energies=energies,
        dos=projections.sum(axis=0),
        projections=projections,
        eigenvalues=eigenvalues,
        weights=weights,
        mu=decomposition.mu,
        broadening=broadening,
        n_electrons=n_elec,
    )


def _assemble_energy_weighted(
    decomposition: Decomposition, params: Mapping[str, Any]
) -> EnergyWeightedDensityResult:
    config = decomposition.config
    mu = decomposition.mu
    ortho, ao = _back_transform(
        decomposition.prepared.s_inv_sqrt,
        _scatter_spectral(
            decomposition,
            lambda eigenvalues: eigenvalues
            * fermi_occupation(eigenvalues, mu, config.temperature),
        ),
        decomposition.prepared.outer_runs,
        decomposition.mapper,
    )
    # same g_s·trace contraction electron_count uses, applied to W:
    # E_band = g_s Σ w·λ·f(λ−μ) = g_s Tr(W)
    band = electron_count(ortho)
    return EnergyWeightedDensityResult(
        energy_weighted_ao=ao,
        energy_weighted_ortho=ortho,
        band_energy=float(band),
        mu=mu,
    )


#: The observable table: every ``observables=`` name is one of these keys.
OBSERVABLES: Dict[str, Observable] = {
    "density": Observable(
        name="density",
        assemble=_assemble_density,
        description=(
            "one-particle reduced density matrix D = 1/2·(I − sign(K̃ − μI)) "
            "(Eq. 16), AO and orthogonal basis"
        ),
        supports_iterative=True,
        reads_eigenvectors=True,
    ),
    "pdos": Observable(
        name="pdos",
        assemble=_assemble_pdos,
        description=(
            "projected/total density of states from the generating-row "
            "spectral weights, Gaussian-broadened"
        ),
        supports_iterative=False,
        reads_eigenvectors=False,
        parameters=_pdos_parameters,
    ),
    "energy_weighted_density": Observable(
        name="energy_weighted_density",
        assemble=_assemble_energy_weighted,
        description=(
            "energy-weighted density matrix W = Q(λ·f(λ−μ))Qᵀ and spectral "
            "band-structure energy g_s·Tr(W)"
        ),
        supports_iterative=False,
        reads_eigenvectors=True,
    ),
}


# --------------------------------------------------------------------------- #
# the density observable's assembly
# --------------------------------------------------------------------------- #
def _back_transform(
    s_inv_sqrt: np.ndarray, ortho_block: BlockSparseMatrix, outer_runs=None, mapper=None
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Outer products of Eq. 16: the scattered orthogonal-basis blocks as CSR
    and their AO-basis form ``S^{-1/2} · X̃ · S^{-1/2}`` (dense, one
    :func:`~repro.dbcsr.product.triple_product` over the stored blocks, in
    row bands on ``mapper``)."""
    ortho = block_matrix_to_csr(ortho_block)
    dense = ortho.toarray()
    return ortho, triple_product(s_inv_sqrt, ortho_block, dense, outer_runs, mapper)


def assemble_result(
    config,
    K,
    s_inv_sqrt: np.ndarray,
    occupation_block: BlockSparseMatrix,
    coo: CooBlockList,
    mu: float,
    mu_iterations: int,
    dimensions: List[int],
    wall_time: float,
    ranks: int = 1,
    pipeline=None,
    kernel_fallbacks: int = 0,
    outer_runs: Optional[PanelRuns] = None,
    mapper=None,
) -> SubmatrixDFTResult:
    """Finalize a density calculation from its scattered occupation matrix.

    Convert the packed occupation blocks to CSR, back-transform to the AO
    basis, evaluate the band-structure energy (over ``K``'s stored entries
    when it is sparse, :func:`~repro.chem.density.band_structure_energy`)
    and electron count, and collect the transfer accounting of an optional
    sharded ``pipeline``.  ``outer_runs``: the root's floor runs, if kept;
    ``mapper``: the session mapper the back-transform's row bands run on.
    """
    density_ortho, density_ao = _back_transform(
        s_inv_sqrt, occupation_block, outer_runs, mapper
    )
    energy = band_structure_energy(density_ao, K)
    n_elec = electron_count(density_ortho)
    block_fetch_bytes = None
    if pipeline is not None:
        block_fetch_bytes = pipeline.transfer_plan.total_fetch_bytes
    return SubmatrixDFTResult(
        density_ao=density_ao,
        density_ortho=density_ortho,
        mu=float(mu),
        n_electrons=n_elec,
        band_energy=energy,
        submatrix_dimensions=dimensions,
        mu_iterations=mu_iterations,
        eps_filter=config.eps_filter,
        wall_time=wall_time,
        n_ranks=ranks,
        pattern_fingerprint=coo.fingerprint(),
        block_fetch_bytes=block_fetch_bytes,
        kernel_fallbacks=kernel_fallbacks,
    )


# --------------------------------------------------------------------------- #
# the spectral routes: bisection on kept spectra, the stack solvers, delivery
# --------------------------------------------------------------------------- #
def _bisect_mu(
    config,
    all_eigenvalues: np.ndarray,
    all_weights: np.ndarray,
    n_electrons: float,
    tolerance: float,
) -> Tuple[float, int]:
    """Adjust μ by bisection on the cached eigendecompositions (Alg. 1).

    Implements Algorithm 1: only the rows of Q that correspond to the
    generating block columns contribute (only those columns enter the
    sparse result), and the contribution of one submatrix reduces to
    ``weights · f(λ − μ)``.  The eigenvalues and weights of all
    submatrices come concatenated in group order
    (:attr:`Decomposition.spectrum`), so every bisection step is a single
    vectorized occupation evaluation plus a dot product.

    The search starts from the spectrum bounds (widened by one energy
    unit) on every call, so μ depends only on the request's own spectra.
    It ends when ``|ΔN| ≤ tolerance``, when the bracket has shrunk to
    adjacent floats (billed as one more iteration for the comparison of its
    two ends) or after :data:`MAX_MU_ITERATIONS` steps.
    """
    def electron_count_at(mu: float) -> float:
        occupations = fermi_occupation(all_eigenvalues, mu, config.temperature)
        return SPIN_DEGENERACY * float(np.dot(all_weights, occupations))

    lo = float(all_eigenvalues.min()) - 1.0
    hi = float(all_eigenvalues.max()) + 1.0
    iterations = 0
    mu = 0.5 * (lo + hi)
    while iterations < MAX_MU_ITERATIONS:
        iterations += 1
        mu = 0.5 * (lo + hi)
        error = electron_count_at(mu) - n_electrons
        if abs(error) <= tolerance:
            break
        if mu <= lo or mu >= hi:
            # bracket exhausted: the count is a step function at T = 0, so
            # no μ may meet the tolerance, and every further midpoint is
            # this same endpoint — settle for the end with the smaller |ΔN|
            other = hi if mu <= lo else lo
            iterations += 1
            if abs(electron_count_at(other) - n_electrons) < abs(error):
                mu = other
            break
        if error < 0:
            lo = mu
        else:
            hi = mu
    return mu, iterations


def _scatter_spectral(
    decomposition: Decomposition,
    spectral_function: Callable[[np.ndarray], np.ndarray],
) -> BlockSparseMatrix:
    """Scatter the generating columns of Q g(λ) Qᵀ of every kept stack.

    The streamed route's delivery once μ is known, on the caller thread (see
    :mod:`repro.core.batch`): per stack the same former
    (:func:`~repro.core.batch.spectral_panels`) and the same
    :meth:`~repro.core.plan.SubmatrixPlan.scatter_panels` into one output.
    The former scales Q in place: in a copy while a later observable of the
    request reads Q (``eigenvector_readers`` counts them), in the kept Q
    itself for the last reader, which spends it.  The bits are the same.
    """
    plan = decomposition.plan
    decomposition.eigenvector_readers -= 1
    last = decomposition.eigenvector_readers == 0
    out = plan.new_output()
    for members, eigenvalues, eigenvectors, _ in decomposition.spectra:
        if last:
            eigenvectors.setflags(write=True)
        form = spectral_panels(
            eigenvalues, eigenvectors if last else eigenvectors.copy(), spectral_function
        )
        plan.scatter_panels(out, members, form)
        del form  # one copy of Q alive at a time
    return plan.finalize(out)


def _collect_spectra(stack: np.ndarray):
    """Per-stack solver of the collect mode: ``eigh``, then, handed the
    stack's generating rows per width (:func:`~repro.core.batch.map_stacks`),
    the stack's read-only ``(λ, Q, weights)`` (see :class:`StackSpectra`)."""
    eigenvalues, eigenvectors = np.linalg.eigh(stack)

    def record(parts):
        weights = np.empty_like(eigenvalues)
        for slots, rows in parts:
            weights[slots] = np.sum(eigenvectors[slots[:, None], rows] ** 2, axis=1)
        for array in (eigenvalues, eigenvectors, weights):
            array.setflags(write=False)
        return eigenvalues, eigenvectors, weights

    return record


def _streamed_occupations(mu: float, temperature: float):
    """Per-stack solver ``eigh → f(λ − μ)`` of the streamed spectral route.

    Returns the occupation matrices D̃ = Q f(λ − μ) Qᵀ (Eq. 17) of a stack as
    a panel former (:func:`~repro.core.batch.spectral_panels`); the bucket loop
    (:func:`~repro.core.batch.map_stacks`) has it form their
    generating-column panels and scatters them, so neither the full
    matrices nor — past the stack task — the eigenvectors ever exist.
    """

    def occupation(eigenvalues: np.ndarray) -> np.ndarray:
        return fermi_occupation(eigenvalues, mu, temperature)

    def solve(stack: np.ndarray):
        return spectral_panels(*np.linalg.eigh(stack), occupation)

    return solve


# --------------------------------------------------------------------------- #
# iterative path (grand-canonical only, used for the solver ablation)
# --------------------------------------------------------------------------- #
def _iterative_occupations(sign: KernelStackSolver, mu: float):
    """Per-stack occupation solver 1/2·(I − sign(A − μI)).

    ``sign`` solves stacks with the kernel that has no eigendecomposition
    cache — the Newton–Schulz iteration — bound without parameters, because
    μ comes off the diagonal of the task's own freshly extracted stack here,
    in place.  Every unit of the rank loop maps this same closure over its
    stacks, and the kernel prescales and freezes each matrix individually,
    so the results are independent of the stack composition (the basis of
    the sharded route's bitwise-identity guarantee).  Submatrices the kernel
    does not converge come from ``eigen`` and are counted on ``sign``.  Each
    member's last step is taken on its generating columns only, and
    sign → occupation is mapped in place on that panel.
    """

    def solve(stack: np.ndarray):
        diagonal = np.arange(stack.shape[-1])
        stack[:, diagonal, diagonal] -= mu
        signs = sign(stack)

        def occupations(parts) -> None:
            signs(parts)
            for slots, rows, into in parts:
                into *= -0.5
                diagonal = np.arange(rows.shape[1])
                into[np.arange(slots.size)[:, None], rows, diagonal] += 0.5

        return occupations

    return solve
