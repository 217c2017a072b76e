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

* :func:`validate_request` is the one request check of the direct,
  trajectory and served entry points;
* :func:`compute_observables` runs the engine **once** — prepare, plan
  lookup, one pass of the rank loop (:func:`~repro.core.runner.run_stacks`,
  single-process or rank-sharded) over the submatrix stacks — into a
  :class:`Decomposition`, and hands it to
* :func:`evaluate_request`, the μ-dependent tail: one μ-bisection, one
  :class:`SharedEvaluation`, every requested observable assembled from the
  same cached spectra;
* an :class:`Observable` describes what a physical quantity needs from the
  engine (the cached eigendecompositions, μ, the scatter plan) and how to
  assemble its result from that :class:`SharedEvaluation`; ``density`` is
  just one entry of :data:`OBSERVABLES`.

**Which requests hold spectra.**  The paper keeps Q, Λ of every submatrix
only because the canonical μ search revisits them (Algorithm 1), and copies
only the generating block columns of f(aᵢ) back (Sec. III).  So the engine
pass has two modes, chosen by whether anything downstream reads the spectra:

* *collect* — a canonical request (``n_electrons=``: the bisection runs on
  them) and a bundle with ``pdos`` or ``energy_weighted_density`` (assembled
  from them) keep every ``(λ, Q)`` as read-only :class:`DecomposedSubmatrix`
  entries, Σdᵢ²·8 B;
* *scatter* — a fixed-``mu=`` request whose observables all have
  ``supports_iterative`` streams ``eigh → occupy → scatter`` per stack inside
  the stack task (rank- and worker-parallel) and keeps nothing: at most one
  stack of eigenvectors is alive per worker.  The Newton–Schulz kernel has
  always run this way.

Either way a spectral product forms only the generating-column panel
(:func:`~repro.core.batch.spectral_panel`: d²·w flops, not d³) and writes it
with :meth:`~repro.core.plan.SubmatrixPlan.scatter_columns`, so both modes —
and with them direct, served and sharded calls — are bitwise equal.

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
import time
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
import scipy.sparse as sp

from repro.api.config import check_positive_int
from repro.api.results import (
    DecomposedSubmatrix,
    EnergyWeightedDensityResult,
    ObservableBundle,
    PDOSResult,
    SubmatrixDFTResult,
)
from repro.chem.density import (
    band_structure_energy,
    electron_count,
    fermi_occupation,
)
from repro.core.batch import spectral_panel
from repro.core.combination import ColumnGrouping, single_column_groups
from repro.core.plan import BlockSubmatrixPlan
from repro.chem.orthogonalize import orthogonalized_ks
from repro.core.runner import run_stacks
from repro.dbcsr.block_matrix import BlockSparseMatrix
from repro.dbcsr.convert import block_matrix_from_csr, block_matrix_to_csr
from repro.dbcsr.coo import CooBlockList
from repro.signfn.registry import KernelStackSolver, get_kernel

__all__ = [
    "Decomposition",
    "Observable",
    "SharedEvaluation",
    "UnknownObservableError",
    "available_observables",
    "compute_observables",
    "evaluate_request",
    "get_observable",
    "normalize_observables",
    "OBSERVABLES",
    "validate_request",
    "assemble_result",
    "prepare_step",
    "PreparedStep",
]


# --------------------------------------------------------------------------- #
# step preparation (pure)
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class PreparedStep:
    """Context-free preparation of one density calculation's inputs.

    Everything here is a pure function of ``(K, S, block_sizes,
    eps_filter)`` — orthogonalization, block conversion, the COO pattern
    and its fingerprint — and touches neither the session's plan cache nor
    its pipelines.  ``s_inv_sqrt`` is itself a pure function of ``S``; when
    the session has seen that overlap content before it is the session's
    shared read-only array
    (:meth:`~repro.api.context.SubmatrixContext.overlap_root`), bitwise the
    one a fresh computation gives.  :func:`compute_observables` starts from
    a prepared step.
    """

    k_ortho: sp.csr_matrix
    s_inv_sqrt: np.ndarray
    block_k: BlockSparseMatrix
    coo: CooBlockList


def prepare_step(
    K, S, blocks, eps_filter: float, s_inv_sqrt: Optional[np.ndarray] = None
) -> PreparedStep:
    """Precompute the pure preparation of one step (see :class:`PreparedStep`).

    ``s_inv_sqrt`` is the Löwdin root of ``S`` when the caller already holds
    it (a session passes its cached one); by default it is computed here.

    Raises :class:`ValueError` naming the matrix when ``K`` or ``S`` holds a
    NaN/Inf or is not symmetric
    (:data:`~repro.chem.orthogonalize.SYMMETRY_ATOL`): one NaN turns the whole
    orthogonalized matrix into NaN, NaN compares below ``eps_filter``, and an
    all-zero density would come back instead of an error; an asymmetric ``K``
    would be symmetrised into a different Hamiltonian without complaint.
    """
    k_ortho, s_inv_sqrt = orthogonalized_ks(
        K, S, eps_filter=eps_filter, s_inv_sqrt=s_inv_sqrt
    )
    block_k = block_matrix_from_csr(k_ortho, blocks.block_sizes, threshold=0.0)
    coo = CooBlockList.from_block_matrix(block_k)
    return PreparedStep(
        k_ortho=k_ortho, s_inv_sqrt=s_inv_sqrt, block_k=block_k, coo=coo
    )


# --------------------------------------------------------------------------- #
# shared evaluation state
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class SharedEvaluation:
    """Everything one pass over the engine produced, ready for assembly.

    One :class:`SharedEvaluation` is built per request by
    :func:`evaluate_request` and handed to every requested observable's
    ``assemble`` hook — the cached per-submatrix eigendecompositions are
    computed exactly once no matter how many observables consume them.
    Exactly one of ``decomposed`` and ``occupation_block`` is set: the
    spectra when something reads them (μ-bisection, ``pdos``,
    ``energy_weighted_density``), else the occupation
    matrices the engine pass already scattered at the request's fixed μ.
    """

    config: Any
    K: Any
    s_inv_sqrt: np.ndarray
    coo: CooBlockList
    mu: float
    mu_iterations: int
    plan: BlockSubmatrixPlan
    start: float
    decomposed: Optional[Sequence[DecomposedSubmatrix]] = None
    pipeline: Any = None
    kernel_fallbacks: int = 0
    # scattered during the engine pass (scatter mode); in collect mode this
    # is None and density's assembly scatters from the cached decompositions
    occupation_block: Optional[BlockSparseMatrix] = None
    stack_decompositions: int = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


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
        ``assemble(evaluation, params) -> result`` — build the observable's
        result object from one :class:`SharedEvaluation` (cached
        decompositions, μ, scatter plan) and the caller's per-observable
        parameter mapping.
    description:
        One-line human description.
    supports_iterative:
        Whether the observable can also be produced by the
        diagonalization-free Newton–Schulz kernel (only ``density``) —
        that is, assembled from the scattered occupation matrices alone.  A
        fixed-μ request of only such observables holds no spectra.
    checkpoint_save / checkpoint_load:
        npz (de)serialization hooks for trajectory checkpoints:
        ``checkpoint_save(result) -> {suffix: ndarray}`` and
        ``checkpoint_load({suffix: ndarray}) -> result``.  ``None`` only for
        ``density``, which uses the checkpoint's native layout
        (:mod:`repro.api.checkpoint`).
    """

    name: str
    assemble: Callable[[SharedEvaluation, Mapping[str, Any]], Any]
    description: str
    supports_iterative: bool
    checkpoint_save: Optional[Callable[[Any], Dict[str, np.ndarray]]]
    checkpoint_load: Optional[Callable[[Dict[str, np.ndarray]], Any]]


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
def validate_request(
    config,
    blocks,
    observables: Union[str, Sequence[str]],
    mu,
    n_electrons,
    solver: str,
    observable_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
    ranks=None,
):
    """Check one request before any work or resource is spent on it.

    The single validator of the direct (:func:`compute_observables`),
    trajectory (:func:`~repro.api.trajectory.run_trajectory`) and served
    (:meth:`~repro.serve.server.DensityService.submit`) entry points, so
    all three reject the same requests with the same exception.  ``mu`` /
    ``n_electrons`` are scalars, or a trajectory's per-step sequences.
    Returns ``(names, kernel)``: the canonicalized observable names and
    the sign kernel.

    Raises :class:`ValueError` (:class:`UnknownObservableError` /
    :class:`~repro.signfn.registry.UnknownKernelError` for unknown
    names) unless exactly one of ``mu`` and ``n_electrons`` is given, it is
    finite, an electron count lies in ``[0, spin_degeneracy · n_basis]``
    (outside, no μ exists and the bisection would return an all-empty or
    all-full density without complaint), and the kernel can serve the
    ensemble and every observable; ``ranks`` must pass
    :func:`~repro.api.config.check_positive_int`.
    """
    check_positive_int(ranks, "ranks")
    names = normalize_observables(observables)
    for key in observable_params or {}:
        if key not in names:
            raise ValueError(
                f"observable_params given for {key!r}, which is not in the "
                f"requested observables {names!r}"
            )
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
    values = np.asarray(n_electrons if canonical else mu, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError(f"{label} must be finite, got {values.tolist()!r}")
    if canonical:
        capacity = config.spin_degeneracy * float(np.sum(blocks.block_sizes))
        if (values < 0.0).any() or (values > capacity).any():
            raise ValueError(
                f"n_electrons must lie in [0, {capacity:g}] (spin degeneracy "
                f"times the number of basis functions), got {values.tolist()!r}"
            )
    return names, kernel


@dataclasses.dataclass
class Decomposition:
    """What one pass over the engine produced for one ``(K, S)`` content.

    In collect mode this is μ-independent — the cached per-submatrix
    spectra ``decomposed`` serve any chemical potential and any observable
    (every bisection step reads the same entries).  In scatter
    mode (a fixed μ and nothing that reads spectra; every Newton–Schulz
    request) the pass evaluates the occupation matrices at that μ
    (``occupation_block``) and leaves ``decomposed`` ``None``.
    ``stack_decompositions`` counts the ``eigh`` stacks solved in either mode
    (0 for Newton–Schulz), ``kernel_fallbacks`` the submatrices
    Newton–Schulz did not converge (evaluated by ``eigen`` instead).
    """

    prepared: PreparedStep
    plan: BlockSubmatrixPlan
    decomposed: Optional[List[DecomposedSubmatrix]] = None
    stack_decompositions: int = 0
    occupation_block: Optional[BlockSparseMatrix] = None
    pipeline: Any = None
    kernel_fallbacks: int = 0


def compute_observables(
    context,
    K,
    S,
    blocks,
    observables: Union[str, Sequence[str]] = ("density",),
    mu: Optional[float] = None,
    n_electrons: Optional[float] = None,
    solver: str = "eigen",
    grouping: Optional[ColumnGrouping] = None,
    mu_tolerance: float = 1e-9,
    max_mu_iterations: int = 200,
    ranks: Optional[int] = None,
    distribution=None,
    mu_bracket: Optional[Tuple[float, float]] = None,
    observable_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> ObservableBundle:
    """Evaluate one or more observables from a single decomposition pass.

    The only path from a request to its result: :func:`validate_request`,
    then the engine pass — prepare (:func:`prepare_step`), look up
    the extraction plan, run exactly one eigendecomposition pass over the
    bucketed submatrix stacks (single-process or rank-sharded) — then
    :func:`evaluate_request`: bisect μ once for canonical ensembles and
    assemble every requested observable from the same cached
    :class:`~repro.api.results.DecomposedSubmatrix` entries.

    Exactly one of ``mu`` (grand-canonical) and ``n_electrons`` (canonical)
    must be provided.  ``observables`` names
    :data:`OBSERVABLES` entries (order-preserving, duplicates dropped);
    ``observable_params`` optionally maps observable name → keyword
    parameters for its assembly (e.g. the PDOS grid).

    ``context`` supplies the engine configuration, plan cache and
    persistent executor; ``ranks`` overrides ``context.config.n_ranks`` for
    the sharded stack evaluation and ``distribution`` fixes the block
    ownership of its transfer plan.  ``mu_bracket`` optionally seeds
    the μ-bisection with a warm ``(lo, hi)`` bracket (expanded automatically
    if it does not bracket the electron count); a warm bracket changes the
    bisection's iterate sequence, so the resulting μ is not bitwise
    reproducible against a cold start — both converge the electron count to
    within ``mu_tolerance``, but at T = 0 the μ values may settle at
    different points of a degenerate gap plateau.

    The Newton–Schulz kernel (``supports_mu_bisection == False``) never
    builds the spectral cache, so it only supports observables with
    ``supports_iterative`` (``density`` alone).
    """
    start = time.perf_counter()
    names, kernel = validate_request(
        context.config,
        blocks,
        observables,
        mu,
        n_electrons,
        solver,
        observable_params,
        ranks,
    )
    decomposition = _decompose(
        context, K, S, blocks, kernel, names, mu, grouping, ranks, distribution
    )
    return evaluate_request(
        context.config,
        K,
        decomposition,
        names,
        start,
        mu=mu,
        n_electrons=n_electrons,
        mu_tolerance=mu_tolerance,
        max_mu_iterations=max_mu_iterations,
        mu_bracket=mu_bracket,
        observable_params=observable_params,
    )


def _decompose(
    context, K, S, blocks, kernel, names, mu, grouping, ranks, distribution
) -> Decomposition:
    """The engine pass of one request (see :class:`Decomposition`).

    Prepare, look the plan (and, for a sharded request, its pipeline) up,
    and run the one rank loop once, in one of two modes.  *Collect*: when
    something downstream reads the spectra — the μ-bisection of a canonical
    request, an observable without ``supports_iterative`` — the per-stack
    eigendecompositions become cache entries at their global group index.
    *Scatter*: otherwise the occupation matrices of the request's fixed μ
    are delivered inside the stack tasks and nothing else survives them —
    generating-column panels straight from each stack's ``eigh``
    (:func:`_spectral_stack_solver`), or whole matrices from an iterative
    sign kernel (:func:`_occupation_stack_solver`).  ``eigh`` and the sign
    iterations work per matrix, independent of stack composition, so a
    sharded pass is bitwise identical to a single-process one.
    """
    config = context.config
    spectral = kernel.supports_mu_bisection
    collect = mu is None or not all(
        get_observable(name).supports_iterative for name in names
    )

    prepared = prepare_step(
        K, S, blocks, config.eps_filter, s_inv_sqrt=context.overlap_root(S)
    )
    block_k, coo = prepared.block_k, prepared.coo
    grouping = grouping or single_column_groups(block_k.n_block_cols)
    grouping.validate(block_k.n_block_cols)
    plan, pipeline = context._lookup(
        coo,
        block_k.row_block_sizes,
        grouping,
        ranks,
        distribution,
        # a padded block-diagonal embedding has a different spectrum
        # bookkeeping (Algorithm 1 reuses the cached per-submatrix spectra)
        # and another eigh than the exact-dimension stack, so every
        # spectral request — collected or streamed, hence bitwise alike —
        # keeps exact-dimension buckets.  Newton–Schulz pads safely.
        None if spectral else config.bucket_pad,
    )
    decomposition = Decomposition(prepared, plan, pipeline=pipeline)
    packed = plan.pack(block_k)
    run = dict(pipeline=pipeline, mapper=context._map)
    if collect:
        spectra = run_stacks(plan, packed, np.linalg.eigh, **run)
        entries: List[Optional[DecomposedSubmatrix]] = [None] * plan.n_groups
        for group_indices, (eigenvalues, eigenvectors) in spectra:
            for slot, group_index in enumerate(group_indices):
                entries[group_index] = _make_entry(
                    plan, group_index, eigenvalues[slot], eigenvectors[slot]
                )
        decomposition.decomposed = entries  # type: ignore[assignment]
        decomposition.stack_decompositions = len(spectra)
        return decomposition
    out = plan.new_output()
    if spectral:
        solver, padding = _spectral_stack_solver(float(mu), config.temperature), {}
    else:
        # the μ-shift is applied by the stack solver, so the kernel is bound
        # without parameters; bucket padding embeds a small submatrix
        # block-diagonally with the kernel's padding_value (1 + μ), so after
        # the shift the padding eigenvalues sit at exactly 1 — inside the
        # convergence region — and the padded rows never reach the scatter
        sign = KernelStackSolver(kernel.bind())
        solver = _occupation_stack_solver(sign, float(mu))
        padding = dict(
            pad_to=context._bucket_pad_for(plan),
            pad_value=kernel.padding_value(float(mu)),
        )
    stacks = run_stacks(plan, packed, solver, out, **padding, **run)
    decomposition.occupation_block = plan.finalize(out)
    if spectral:
        decomposition.stack_decompositions = len(stacks)
    else:
        decomposition.kernel_fallbacks = sign.fallbacks
    return decomposition


def evaluate_request(
    config,
    K,
    decomposition: Decomposition,
    names: Tuple[str, ...],
    start: float,
    mu: Optional[float] = None,
    n_electrons: Optional[float] = None,
    mu_tolerance: float = 1e-9,
    max_mu_iterations: int = 200,
    mu_bracket: Optional[Tuple[float, float]] = None,
    observable_params: Optional[Mapping[str, Mapping[str, Any]]] = None,
) -> ObservableBundle:
    """The μ-dependent tail of a validated request.

    Bisect μ on the cached spectra when the ensemble is canonical
    (Algorithm 1), then assemble every observable in ``names`` from one
    :class:`SharedEvaluation`; the :class:`Decomposition` entries are only
    ever read.  :func:`compute_observables` ends here.  ``start`` is the
    ``perf_counter`` reading the result's ``wall_time`` counts from.
    """
    mu_iterations = 0
    if n_electrons is not None:
        mu, mu_iterations = _bisect_mu(
            config,
            decomposition.decomposed,
            float(n_electrons),
            mu_tolerance,
            max_mu_iterations,
            bracket=mu_bracket,
        )
    prepared = decomposition.prepared
    evaluation = SharedEvaluation(
        config=config,
        K=K,
        s_inv_sqrt=prepared.s_inv_sqrt,
        coo=prepared.coo,
        mu=float(mu),
        mu_iterations=mu_iterations,
        plan=decomposition.plan,
        start=start,
        decomposed=decomposition.decomposed,
        pipeline=decomposition.pipeline,
        kernel_fallbacks=decomposition.kernel_fallbacks,
        occupation_block=decomposition.occupation_block,
        stack_decompositions=decomposition.stack_decompositions,
    )
    params_by_name = observable_params or {}
    return ObservableBundle(
        results={
            name: get_observable(name).assemble(
                evaluation, params_by_name.get(name, {})
            )
            for name in names
        },
        observables=names,
        stack_decompositions=decomposition.stack_decompositions,
    )


# --------------------------------------------------------------------------- #
# the observables
# --------------------------------------------------------------------------- #
def _assemble_density(
    evaluation: SharedEvaluation, params: Mapping[str, Any]
) -> SubmatrixDFTResult:
    if params:
        raise ValueError(
            f"the density observable takes no parameters, got {dict(params)!r}"
        )
    pipeline = evaluation.pipeline
    occupation_block = evaluation.occupation_block
    if occupation_block is None:
        # D̃ = Q f(λ − μ) Qᵀ per submatrix (Eq. 17)
        occupation_block = _scatter_spectral(
            evaluation,
            lambda eigenvalues: fermi_occupation(
                eigenvalues, evaluation.mu, evaluation.config.temperature
            ),
        )
    return assemble_result(
        evaluation.config,
        evaluation.K,
        evaluation.s_inv_sqrt,
        occupation_block,
        evaluation.coo,
        evaluation.mu,
        evaluation.mu_iterations,
        list(evaluation.plan.dimensions),
        wall_time=evaluation.elapsed(),
        ranks=pipeline.n_ranks if pipeline is not None else 1,
        pipeline=pipeline,
        kernel_fallbacks=evaluation.kernel_fallbacks,
    )


def _assemble_pdos(
    evaluation: SharedEvaluation, params: Mapping[str, Any]
) -> PDOSResult:
    if evaluation.decomposed is None:
        raise ValueError(
            "the pdos observable needs the eigendecomposition cache"
        )
    known = {"broadening", "n_points", "energy_window"}
    unknown = set(params) - known
    if unknown:
        raise ValueError(
            f"unknown pdos parameters {sorted(unknown)!r}; known: {sorted(known)!r}"
        )
    config = evaluation.config
    broadening = float(params.get("broadening", 0.1))
    if broadening <= 0.0:
        raise ValueError("pdos broadening must be positive")
    n_points = int(params.get("n_points", 400))
    if n_points < 2:
        raise ValueError("pdos n_points must be at least 2")
    eigenvalues = np.concatenate(
        [entry.eigenvalues for entry in evaluation.decomposed]
    )
    weights = np.concatenate(
        [entry.generating_weights for entry in evaluation.decomposed]
    )
    window = params.get("energy_window")
    if window is None:
        lo = float(eigenvalues.min()) - 5.0 * broadening
        hi = float(eigenvalues.max()) + 5.0 * broadening
    else:
        lo, hi = float(window[0]), float(window[1])
        if not lo < hi:
            raise ValueError("pdos energy_window must satisfy lo < hi")
    energies = np.linspace(lo, hi, n_points)
    norm = config.spin_degeneracy / (broadening * np.sqrt(2.0 * np.pi))
    projections = np.zeros((len(evaluation.decomposed), n_points))
    for group_index, entry in enumerate(evaluation.decomposed):
        delta = (energies[None, :] - entry.eigenvalues[:, None]) / broadening
        projections[group_index] = norm * np.sum(
            entry.generating_weights[:, None] * np.exp(-0.5 * delta * delta),
            axis=0,
        )
    occupations = fermi_occupation(eigenvalues, evaluation.mu, config.temperature)
    n_elec = config.spin_degeneracy * float(np.dot(weights, occupations))
    return PDOSResult(
        energies=energies,
        dos=projections.sum(axis=0),
        projections=projections,
        eigenvalues=eigenvalues,
        weights=weights,
        mu=evaluation.mu,
        broadening=broadening,
        n_electrons=n_elec,
    )


def _assemble_energy_weighted(
    evaluation: SharedEvaluation, params: Mapping[str, Any]
) -> EnergyWeightedDensityResult:
    if params:
        raise ValueError(
            "the energy_weighted_density observable takes no parameters, "
            f"got {dict(params)!r}"
        )
    if evaluation.decomposed is None:
        raise ValueError(
            "the energy_weighted_density observable needs the "
            "eigendecomposition cache"
        )
    config = evaluation.config
    mu = evaluation.mu
    ortho, ao = _back_transform(
        evaluation.s_inv_sqrt,
        _scatter_spectral(
            evaluation,
            lambda eigenvalues: eigenvalues
            * fermi_occupation(eigenvalues, mu, config.temperature),
        ),
    )
    # same g_s·trace contraction electron_count uses, applied to W:
    # E_band = g_s Σ w·λ·f(λ−μ) = g_s Tr(W)
    band = electron_count(ortho, config.spin_degeneracy)
    return EnergyWeightedDensityResult(
        energy_weighted_ao=ao,
        energy_weighted_ortho=ortho,
        band_energy=float(band),
        mu=mu,
    )


# --- checkpoint (de)serialization hooks ------------------------------------ #
def _save_pdos(result: PDOSResult) -> Dict[str, np.ndarray]:
    return {
        "energies": np.asarray(result.energies, dtype=np.float64),
        "dos": np.asarray(result.dos, dtype=np.float64),
        "projections": np.asarray(result.projections, dtype=np.float64),
        "eigenvalues": np.asarray(result.eigenvalues, dtype=np.float64),
        "weights": np.asarray(result.weights, dtype=np.float64),
        "scalars": np.array(
            [result.mu, result.broadening, result.n_electrons], dtype=np.float64
        ),
    }


def _load_pdos(arrays: Dict[str, np.ndarray]) -> PDOSResult:
    scalars = arrays["scalars"]
    return PDOSResult(
        energies=arrays["energies"],
        dos=arrays["dos"],
        projections=arrays["projections"],
        eigenvalues=arrays["eigenvalues"],
        weights=arrays["weights"],
        mu=float(scalars[0]),
        broadening=float(scalars[1]),
        n_electrons=float(scalars[2]),
    )


def _save_energy_weighted(
    result: EnergyWeightedDensityResult,
) -> Dict[str, np.ndarray]:
    ortho = result.energy_weighted_ortho
    return {
        "ao": np.asarray(result.energy_weighted_ao, dtype=np.float64),
        "ortho_data": np.asarray(ortho.data, dtype=np.float64),
        "ortho_indices": np.asarray(ortho.indices, dtype=np.int64),
        "ortho_indptr": np.asarray(ortho.indptr, dtype=np.int64),
        "ortho_shape": np.asarray(ortho.shape, dtype=np.int64),
        "scalars": np.array([result.band_energy, result.mu], dtype=np.float64),
    }


def _load_energy_weighted(
    arrays: Dict[str, np.ndarray],
) -> EnergyWeightedDensityResult:
    shape = tuple(int(n) for n in arrays["ortho_shape"])
    ortho = sp.csr_matrix(
        (arrays["ortho_data"], arrays["ortho_indices"], arrays["ortho_indptr"]),
        shape=shape,
    )
    scalars = arrays["scalars"]
    return EnergyWeightedDensityResult(
        energy_weighted_ao=arrays["ao"],
        energy_weighted_ortho=ortho,
        band_energy=float(scalars[0]),
        mu=float(scalars[1]),
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
        checkpoint_save=None,
        checkpoint_load=None,
    ),
    "pdos": Observable(
        name="pdos",
        assemble=_assemble_pdos,
        description=(
            "projected/total density of states from the generating-row "
            "spectral weights, Gaussian-broadened"
        ),
        supports_iterative=False,
        checkpoint_save=_save_pdos,
        checkpoint_load=_load_pdos,
    ),
    "energy_weighted_density": Observable(
        name="energy_weighted_density",
        assemble=_assemble_energy_weighted,
        description=(
            "energy-weighted density matrix W = Q(λ·f(λ−μ))Qᵀ and spectral "
            "band-structure energy g_s·Tr(W)"
        ),
        supports_iterative=False,
        checkpoint_save=_save_energy_weighted,
        checkpoint_load=_load_energy_weighted,
    ),
}


# --------------------------------------------------------------------------- #
# the density observable's assembly
# --------------------------------------------------------------------------- #
def _back_transform(
    s_inv_sqrt: np.ndarray, ortho_block: BlockSparseMatrix
) -> Tuple[sp.csr_matrix, np.ndarray]:
    """Outer products of Eq. 16: the scattered orthogonal-basis blocks as CSR
    and their AO-basis form ``S^{-1/2} · X̃ · S^{-1/2}`` (dense)."""
    ortho = block_matrix_to_csr(ortho_block)
    return ortho, s_inv_sqrt @ ortho.toarray() @ s_inv_sqrt


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
) -> SubmatrixDFTResult:
    """Finalize a density calculation from its scattered occupation matrix.

    Convert the packed occupation blocks to CSR, back-transform to the AO
    basis, evaluate the band-structure energy and electron count, and
    collect the transfer accounting of an optional sharded ``pipeline``.
    """
    density_ortho, density_ao = _back_transform(s_inv_sqrt, occupation_block)
    k_dense = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
    energy = band_structure_energy(density_ao, k_dense, config.spin_degeneracy)
    n_elec = electron_count(density_ortho, config.spin_degeneracy)
    segment_fetch_bytes = None
    block_fetch_bytes = None
    if pipeline is not None:
        transfer = pipeline.transfer_plan
        block_fetch_bytes = float(transfer.total_fetch_bytes)
        if transfer.has_segments:
            segment_fetch_bytes = float(transfer.total_segment_fetch_bytes)
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
        segment_fetch_bytes=segment_fetch_bytes,
        block_fetch_bytes=block_fetch_bytes,
        kernel_fallbacks=kernel_fallbacks,
    )


# --------------------------------------------------------------------------- #
# eigendecomposition cache (grand-canonical and canonical)
# --------------------------------------------------------------------------- #
def _make_entry(
    plan: BlockSubmatrixPlan,
    group_index: int,
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
) -> DecomposedSubmatrix:
    """The cache entry of one submatrix, complete and read-only.

    Entries are read by every bisection step and every observable of the
    request and never written, so everything a reader needs — the
    generating-row slice of Q and the weights Algorithm 1 sums — is derived
    here, once, and the arrays are frozen as a safety property.
    """
    group = plan.groups[group_index]
    generating_slice = eigenvectors[group.generating_rows()]
    weights = np.sum(generating_slice**2, axis=0)
    for array in (eigenvalues, eigenvectors, generating_slice, weights):
        array.setflags(write=False)
    return DecomposedSubmatrix(
        submatrix=group.make_submatrix(),
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        generating_slice=generating_slice,
        generating_weights=weights,
    )


def _bisect_mu(
    config,
    decomposed: Sequence[DecomposedSubmatrix],
    n_electrons: float,
    tolerance: float,
    max_iterations: int,
    bracket: Optional[Tuple[float, float]] = None,
) -> Tuple[float, int]:
    """Adjust μ by bisection on the cached eigendecompositions (Alg. 1).

    Implements Algorithm 1: only the rows of Q that correspond to the
    generating block columns contribute (only those columns enter the
    sparse result), and the contribution of one submatrix reduces to
    ``weights · f(λ − μ)``.  The eigenvalues and weights of all
    submatrices are concatenated once, so every bisection step is a
    single vectorized occupation evaluation plus a dot product.

    ``bracket`` optionally warm-starts the search (SCF/MD trajectories seed
    it from the previous step's μ): the bracket is clipped to the spectrum
    bounds and expanded geometrically — each expansion's electron-count
    evaluation billed as an iteration — until it encloses the target
    electron count, so convergence never depends on the seed's quality.
    Warm starts change the iterate sequence and therefore the exact
    floating-point μ; without a bracket the iterates are identical to the
    cold-start search.

    The search ends when ``|ΔN| ≤ tolerance`` or, failing that, when the
    bracket has shrunk to adjacent floats (billed as one more iteration for
    the comparison of its two ends).
    """
    all_eigenvalues = np.concatenate([d.eigenvalues for d in decomposed])
    all_weights = np.concatenate([d.generating_weights for d in decomposed])
    full_lo = float(all_eigenvalues.min()) - 1.0
    full_hi = float(all_eigenvalues.max()) + 1.0

    def electron_count_at(mu: float) -> float:
        occupations = fermi_occupation(all_eigenvalues, mu, config.temperature)
        return config.spin_degeneracy * float(np.dot(all_weights, occupations))

    lo, hi = full_lo, full_hi
    iterations = 0
    if bracket is not None:
        warm_lo = max(float(bracket[0]), full_lo)
        warm_hi = min(float(bracket[1]), full_hi)
        if warm_lo < warm_hi:
            width = warm_hi - warm_lo
            # expand until count(lo) ≤ N ≤ count(hi) (occupation is
            # nondecreasing in μ), falling back to the spectrum bounds
            while warm_lo > full_lo and electron_count_at(warm_lo) > n_electrons:
                iterations += 1
                warm_lo = max(full_lo, warm_lo - width)
                width *= 2.0
            while warm_hi < full_hi and electron_count_at(warm_hi) < n_electrons:
                iterations += 1
                warm_hi = min(full_hi, warm_hi + width)
                width *= 2.0
            lo, hi = warm_lo, warm_hi
    mu = 0.5 * (lo + hi)
    while iterations < max_iterations:
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
    evaluation: SharedEvaluation,
    spectral_function: Callable[[np.ndarray], np.ndarray],
) -> BlockSparseMatrix:
    """Scatter the generating columns of Q g(λ) Qᵀ of every cached submatrix.

    One generating-column panel (:func:`~repro.core.batch.spectral_panel`,
    the expression the streamed route evaluates) and one vectorized write
    per submatrix into the plan's preallocated packed output buffer; the
    result blocks are zero-copy views into that buffer.
    """
    plan = evaluation.plan
    out = plan.new_output()
    for group_index, entry in enumerate(evaluation.decomposed):
        panel = spectral_panel(
            entry.eigenvectors,
            spectral_function(entry.eigenvalues),
            entry.generating_slice,
        )
        plan.scatter_columns(out, group_index, panel)
    return plan.finalize(out)


def _spectral_stack_solver(mu: float, temperature: float):
    """Per-stack solver ``eigh → f(λ − μ)`` of the streamed spectral route.

    Returns the occupation matrices D̃ = Q f(λ − μ) Qᵀ (Eq. 17) of a stack in
    spectral form ``(occupations, Q)``; the bucket loop
    (:func:`~repro.core.batch.map_stacks`) forms and scatters their
    generating-column panels, so neither the full matrices nor — past the
    stack task — the eigenvectors ever exist.  The occupations are evaluated
    per matrix, exactly as :func:`_scatter_spectral` evaluates them per cache
    entry, so the two routes run the same elementwise code on the same
    shapes whatever the platform's vector dispatch.
    """

    def solve(stack: np.ndarray):
        eigenvalues, eigenvectors = np.linalg.eigh(stack)
        occupations = np.stack(
            [fermi_occupation(values, mu, temperature) for values in eigenvalues]
        )
        return occupations, eigenvectors

    return solve


# --------------------------------------------------------------------------- #
# iterative path (grand-canonical only, used for the solver ablation)
# --------------------------------------------------------------------------- #
def _occupation_stack_solver(sign: KernelStackSolver, mu: float):
    """Per-stack occupation solver 1/2·(I − sign(A − μI)).

    ``sign`` solves stacks with the kernel that has no eigendecomposition
    cache — the Newton–Schulz iteration — bound without parameters, because
    μ is shifted off here.  Every unit of the rank loop maps this same
    closure over its ``(k, d, d)`` stacks, so all routes
    perform identical per-submatrix arithmetic — and because the batched
    sign iterations prescale and freeze each matrix individually, the
    results are independent of the stack composition (the basis of the
    sharded route's bitwise-identity guarantee).  Submatrices the kernel
    does not converge come from ``eigen`` and are counted on ``sign``.

    No stack-sized temporary is built around the kernel: the stack is the
    task's own freshly extracted buffer (:func:`~repro.core.batch.map_stacks`),
    so μ comes off its diagonal in place, and sign → occupation is mapped in
    place on the stack the kernel returned.
    """

    def solve(stack: np.ndarray) -> np.ndarray:
        diagonal = np.arange(stack.shape[-1])
        stack[:, diagonal, diagonal] -= mu
        signs = sign(stack)
        np.subtract(np.eye(stack.shape[-1]), signs, out=signs)
        signs *= 0.5
        return signs

    return solve
