"""Tests for the unified session API: EngineConfig, kernel registry, context.

Covers the acceptance criteria of the API consolidation:

* ``SubmatrixContext.apply`` / ``.density`` are bitwise identical to the
  reference loop of ``tests/submatrix_reference.py`` (including a
  hypothesis property test over random sparse symmetric matrices);
* one plan build and one worker pool across N repeated ``context.apply``
  calls (plan-cache statistics and executor reuse through the session);
* rank-sharded μ-bisection matches the single-process solver bitwise for
  ranks {1, 2, 4};
* the two-kernel table resolves names everywhere and produces one unified
  lookup error with a "did you mean" suggestion.
"""

import ast
import dataclasses
import importlib.util
import inspect
import pathlib
import re
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.api import (
    BACKENDS,
    ENGINES,
    EngineConfig,
    SubmatrixContext,
    UnknownKernelError,
    available_kernels,
    get_kernel,
    resolve_kernel,
    run_scf,
)
from repro.chem import (
    loewdin_inverse_sqrt,
    orthogonalized_ks,
    reference_density_matrix,
)
from repro.chem.hamiltonian import BlockStructure
from repro.dbcsr import BlockSparseMatrix, CooBlockList
from repro.core.batch import evaluate_batched, stack_solver
from repro.core.plan import PlanCache
from repro.dbcsr.convert import block_matrix_from_csr, block_matrix_to_dense
from repro.serve import DensityService
from repro.signfn import (
    DEFAULT_SIGN_MAX_ITERATIONS,
    BoundKernel,
    KernelStackSolver,
    sign_newton_schulz_batched,
    sign_pade,
    sign_via_eigendecomposition,
    sign_via_eigendecomposition_batched,
)

from submatrix_reference import (
    assert_matches_reference_density,
    reference_apply_blockwise,
    reference_apply_elementwise,
    reference_density,
)

EPS = 1e-5


def orthogonalized_block(pair, eps=EPS):
    k_ortho, _ = orthogonalized_ks(pair.K, pair.S, eps_filter=eps)
    blocked = block_matrix_from_csr(k_ortho, pair.blocks.block_sizes, threshold=0.0)
    return k_ortho, blocked


# --------------------------------------------------------------------------- #
# EngineConfig
# --------------------------------------------------------------------------- #
class TestEngineConfig:
    def test_defaults_validate(self):
        config = EngineConfig()
        assert config.validate() is config
        # one engine, two worker backends: nothing dispatches on `engine`,
        # the reference implementation is tests/submatrix_reference.py
        assert config.engine == "batched"
        assert ENGINES == ("batched",)
        assert BACKENDS == ("serial", "thread")
        for removed in (
            {"engine": "naive"},
            {"engine": "plan"},
            {"backend": "process"},
            {"balance": "round_robin"},
        ):
            with pytest.raises(ValueError):
                EngineConfig(**removed)
        assert importlib.util.find_spec("repro.api.density") is None
        assert "engine" not in inspect.signature(SubmatrixContext.apply).parameters
        # the engine has one numeric path (float64 NumPy): no precision
        # policy, no array-backend package, no xp= seam on the kernels
        with pytest.raises(TypeError):
            EngineConfig(precision=object())
        assert importlib.util.find_spec("repro.backend") is None
        for function in (
            sign_newton_schulz_batched,
            sign_pade,
            sign_via_eigendecomposition_batched,
            stack_solver,
            evaluate_batched,
        ):
            assert "xp" not in inspect.signature(function).parameters

    def test_one_front_door_one_rank_loop(self):
        """Structure guard: one entry class, one plan kind, one executor, no
        simulated communicator, no way back."""
        for module in (
            "repro.core.method",
            "repro.core.sign_dft",
            "repro.parallel.faults",
            "repro.parallel.comm",
            "repro.dbcsr.multiply",
            "repro.dbcsr.filtering",
            "repro.core.splitting",
        ):
            assert importlib.util.find_spec(module) is None
        deleted = {
            "SubmatrixMethod",
            "SubmatrixDFTSolver",
            "DistributedSession",
            "PipelineResult",
            "PipelineRankReport",
            "DEFAULT_PLAN_CACHE",
            "ElementSubmatrixPlan",
            "element_plan",
            "apply_elementwise",
            "apply_blockwise",
            "SimComm",
            "cannon_multiply",
        }
        for package in (
            repro,
            repro.api,
            repro.core,
            repro.core.plan,
            repro.parallel,
            repro.dbcsr,
            SubmatrixContext,
            PlanCache,
        ):
            assert not deleted & set(dir(package)), package.__name__
        assert len(dataclasses.fields(EngineConfig)) == 10
        for removed in ("flop_constant", "exact_transfers"):
            with pytest.raises(TypeError):
                EngineConfig(**{removed: 1})

        def outermost_functions(tree):
            for node in tree.body:
                if isinstance(node, ast.FunctionDef):
                    yield node.name, node
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            yield f"{node.name}.{item.name}", item

        source = pathlib.Path(repro.__file__).parent
        executor_callers = set()
        for path in sorted(source.rglob("*.py")):
            relative = path.relative_to(source).as_posix()
            for name, function in outermost_functions(ast.parse(path.read_text())):
                for node in ast.walk(function):
                    if isinstance(node, ast.Call):
                        callee = getattr(
                            node.func, "attr", getattr(node.func, "id", None)
                        )
                        if (
                            callee in ("map_stacks", "execute_ranks")
                            and relative != "core/batch.py"
                        ):
                            executor_callers.add((relative, name, callee))
                    elif relative.startswith("core/") and isinstance(
                        node, (ast.Import, ast.ImportFrom)
                    ):
                        # repro.core sits below the session layer: no lazy
                        # import from a function body to dodge a cycle
                        modules = (
                            [node.module or ""]
                            if isinstance(node, ast.ImportFrom)
                            else [alias.name for alias in node.names]
                        )
                        assert not any(
                            module.startswith("repro.api") for module in modules
                        ), (relative, name)
        assert executor_callers == {
            ("core/runner.py", "run_stacks", "map_stacks"),
            ("core/runner.py", "run_stacks", "execute_ranks"),
        }

    def test_two_kernels_three_observables(self):
        """Structure guard: the paper's two sign kernels and the three
        observables are fixed tables; nothing registers more at run time."""
        from repro.api import available_observables

        assert importlib.util.find_spec("repro.signfn.chebyshev") is None
        assert available_kernels() == ["eigen", "newton_schulz"]
        assert available_observables() == (
            "density",
            "energy_weighted_density",
            "pdos",
        )
        source = pathlib.Path(repro.__file__).parent
        for path in sorted(source.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    assert not node.name.startswith("register"), (path, node.name)
        for module in sorted(sys.modules):
            if module == "repro" or module.startswith("repro."):
                exported = set(dir(sys.modules[module]))
                assert not exported & {
                    "register_kernel",
                    "register_callable",
                    "register_observable",
                    "SIGN_SOLVERS",
                }, module
        with pytest.raises(UnknownKernelError, match="pade"):
            get_kernel("pade")
        # a kernel spec is a table name or a bare callable, nothing else
        with pytest.raises(TypeError, match="callable or a kernel name"):
            resolve_kernel(get_kernel("eigen"))
        with SubmatrixContext() as ctx:
            with pytest.raises(UnknownKernelError):
                ctx.density(None, None, None, mu=0.0, solver="pade")

    def test_one_planning_path(self):
        """Structure guard: a changed pattern is a build; nothing patches."""
        gone = re.compile(r"patch|Patch|Delta|anchor|REPLAN|dirty")
        inert = {"plans_patched"}  # constant 0, read by benchmarks/e2e
        takes_replan = set()
        source = pathlib.Path(repro.__file__).parent
        for path in sorted(source.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = []
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                    names = [node.attr]
                for name in names:
                    if "dispatch" not in name and name not in inert:
                        assert not gone.search(name), (path.name, name)
                if isinstance(node, ast.FunctionDef):
                    arguments = node.args.args + node.args.kwonlyargs
                    if any(argument.arg == "replan" for argument in arguments):
                        takes_replan.add(node.name)
        # accepted and ignored, only because benchmarks/e2e passes it
        assert takes_replan == {"block_plan_for", "pipeline", "trajectory"}
        with pytest.raises(ImportError):
            from repro.api import REPLAN_MODES  # noqa: F401
        assert "replan" not in inspect.signature(DensityService.submit).parameters
        with SubmatrixContext() as ctx:
            with pytest.raises(TypeError, match="replan"):
                ctx.observables(None, None, None, replan="auto")
            assert ctx.plan_cache.stats["patches"] == 0
            assert ctx.plan_cache.stats["groups_rebuilt"] == 0
            assert "pipelines_patched" not in ctx.stats()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("engine", "warp"),
            ("backend", "gpu"),
            ("balance", "magic"),
            ("bucket_pad", 0),
            ("bucket_pad", "sometimes"),
            ("n_ranks", 0),
            ("eps_filter", -1.0),
            ("temperature", -1.0),
            ("spin_degeneracy", 0.0),
            ("plan_cache_size", 0),
            ("max_workers", 0),
            # a float or a bool would silently truncate to some count
            ("max_workers", 1.5),
            ("max_workers", True),
            ("plan_cache_size", 2.5),
            ("bucket_pad", 2.5),
            ("bucket_pad", True),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises((TypeError, ValueError)):
            EngineConfig(**{field: value})

    def test_replace_revalidates(self):
        config = EngineConfig()
        assert config.replace(engine="batched").engine == "batched"
        with pytest.raises(ValueError):
            config.replace(engine="warp")

    def test_resolved_fills_workers(self):
        resolved = EngineConfig().resolved()
        assert resolved.max_workers >= 1
        pinned = EngineConfig(max_workers=3)
        assert pinned.resolved() is pinned

    def test_config_is_immutable(self):
        with pytest.raises(Exception):
            EngineConfig().engine = "batched"


# --------------------------------------------------------------------------- #
# kernel registry
# --------------------------------------------------------------------------- #
class TestKernelRegistry:
    def test_builtins_registered(self):
        assert available_kernels() == ["eigen", "newton_schulz"]

    def test_unknown_kernel_has_suggestion(self):
        with pytest.raises(UnknownKernelError) as err:
            get_kernel("eigne")
        assert "did you mean 'eigen'" in str(err.value)
        # the one error is caught as either exception type
        assert isinstance(err.value, ValueError)
        assert isinstance(err.value, TypeError)

    def test_unified_lookup_error_everywhere(self, water32_matrices, gap_mu):
        # solver strings and f(A) kernels, single-process or sharded, all
        # fail through the same registry lookup
        pair = water32_matrices
        _, blocked = orthogonalized_block(pair)
        ctx = SubmatrixContext()
        with pytest.raises(UnknownKernelError):
            ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu, solver="eigne")
        with pytest.raises(UnknownKernelError):
            ctx.apply(blocked, "eigne", ranks=2)
        with pytest.raises(UnknownKernelError):
            ctx.apply(sp.eye(4, format="csr"), "eigne")

    def test_bind_parameters(self):
        bound = resolve_kernel("eigen", mu=0.25)
        a = np.diag([-1.0, 0.0, 1.0])
        expected = sign_via_eigendecomposition(a, mu=0.25)
        assert np.array_equal(bound.function(a), expected)
        assert bound.batch_function is not None

    def test_callable_spec_passthrough(self):
        fn = lambda a: a @ a  # noqa: E731
        bound = resolve_kernel(fn)
        assert bound.function is fn
        with pytest.raises(TypeError):
            resolve_kernel(fn, mu=0.5)

    def test_bare_callable_apply_matches_reference(self):
        """A bare callable is a kernel spec of its own: ``apply`` runs it on
        every submatrix, bitwise the per-submatrix reference loop."""
        square = lambda a: a @ a  # noqa: E731
        matrix = sp.random(20, 20, density=0.2, random_state=7, format="csr")
        matrix = matrix + matrix.T
        result = SubmatrixContext().apply(matrix, square)
        reference, dimensions = reference_apply_elementwise(matrix, square)
        assert np.array_equal(result.result.toarray(), reference.toarray())
        assert result.submatrix_dimensions == dimensions

    def test_stack_solver_counts_fallbacks_across_threads(self):
        """One ``KernelStackSolver`` serves every stack task of a request,
        on as many pool threads: no fallback count may be lost."""
        solver = KernelStackSolver(
            BoundKernel(
                name="every-slot-falls-back",
                function=lambda a: a,
                checked_function=lambda stack: (stack, stack.shape[0]),
            )
        )
        stack = np.zeros((3, 2, 2))
        n_threads, calls_each = 8, 2000

        def worker():
            for _ in range(calls_each):
                solver(stack)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert solver.fallbacks == 3 * n_threads * calls_each

    def test_kernel_metadata(self):
        # spectral vs convergence-checked iterative, and the μ-shifted
        # padding anchor
        eigen, newton_schulz = get_kernel("eigen"), get_kernel("newton_schulz")
        assert eigen.supports_mu_bisection
        assert not newton_schulz.supports_mu_bisection
        assert eigen.make_checked_batched is None
        assert newton_schulz.bind().checked_function is not None
        assert newton_schulz.padding_value(0.25) == 1.25
        assert get_kernel("eigen").padding_value() == 1.0

    def test_top_level_exports(self):
        assert repro.EngineConfig is EngineConfig
        assert repro.SubmatrixContext is SubmatrixContext
        assert "SubmatrixContext" in repro.__all__
        assert "EngineConfig" in repro.__all__
        assert "TrajectoryResult" in repro.__all__
        assert "TrajectoryStats" in repro.api.__all__
        assert "run_trajectory" in repro.api.__all__


# --------------------------------------------------------------------------- #
# context.apply equivalence with the reference loop
# --------------------------------------------------------------------------- #
class TestApplyEquivalence:
    def test_blockwise_matches_legacy_bitwise(self, water32_matrices, gap_mu):
        _, blocked = orthogonalized_block(water32_matrices)
        ctx = SubmatrixContext(EngineConfig(engine="batched"))
        new = ctx.apply(blocked, "eigen", mu=gap_mu)
        # the named kernel is the callable pair it is registered with ...
        spelled_out = ctx.apply(
            blocked,
            lambda a: sign_via_eigendecomposition(a, gap_mu),
            batch_function=lambda s: sign_via_eigendecomposition_batched(s, gap_mu),
        )
        # ... and both are the per-submatrix reference loop
        reference, dimensions = reference_apply_blockwise(
            blocked, lambda a: sign_via_eigendecomposition(a, gap_mu)
        )
        for result in (new, spelled_out):
            assert np.array_equal(
                block_matrix_to_dense(result.result), block_matrix_to_dense(reference)
            )
            assert result.submatrix_dimensions == dimensions

    def test_elementwise_matches_legacy_bitwise(self, water32_matrices, gap_mu):
        """A SciPy matrix runs as a grid of 1×1 blocks: bitwise the
        per-submatrix reference loop, with its dimensions and flop estimate."""
        k_ortho, _ = orthogonalized_block(water32_matrices)
        new = SubmatrixContext().apply(k_ortho, "eigen", mu=gap_mu)
        reference, dimensions = reference_apply_elementwise(
            k_ortho, lambda a: sign_via_eigendecomposition(a, gap_mu)
        )
        assert np.array_equal(new.result.toarray(), reference.toarray())
        assert new.submatrix_dimensions == dimensions
        assert new.flop_estimate == float(sum(float(d) ** 3 for d in dimensions))

    @staticmethod
    def unusual_pattern(name):
        """Valid inputs at the edge of the pattern space, ``(matrix, groups)``.

        SciPy inputs: ``explicit_zeros``, a banded CSR matrix storing explicit
        zeros (off the diagonal and on it) and one column (7) with no stored
        entry; ``coo_duplicates``, a banded COO matrix whose entries are
        stored twice, one pair summing to an explicit zero; ``unsorted_csr``,
        a non-canonical CSR matrix (column indices in descending order, the
        diagonal stored twice in halves); ``diagonal`` (every
        submatrix is its group's own columns); ``dense`` (every submatrix is
        the whole matrix); ``random_csc``, a random symmetric CSC pattern.
        Block inputs: ``unstored_block_column``, a ragged block matrix whose
        block column (and row) 2 holds no block, not even its diagonal one;
        ``ragged_banded``, ragged blocks on a band of width two.  Diagonals
        are −1 or 1.5 and off-diagonal rows sum below 0.5 in magnitude, so
        every principal submatrix keeps its spectrum away from μ = 0.2 (the
        zero row and column of ``explicit_zeros`` aside) and Newton–Schulz
        converges on every submatrix.
        """

        def diagonal_value(i):
            return 1.5 if i % 2 else -1.0

        def banded(n, width):
            dense = np.zeros((n, n))
            for i in range(n):
                dense[i, i] = diagonal_value(i)
                for j in range(max(0, i - width), i):
                    dense[i, j] = dense[j, i] = 0.1 / (i - j)
            return dense

        def contiguous(n, width):
            return [list(range(i, min(n, i + width))) for i in range(0, n, width)]

        if name == "explicit_zeros":
            n = 40
            dense = banded(n, 3)
            dense[7, :] = dense[:, 7] = dense[20, 20] = 0.0
            stored = sp.coo_matrix(dense)
            rows = np.concatenate([stored.row, [3, 10, 20]])
            cols = np.concatenate([stored.col, [10, 3, 20]])
            values = np.concatenate([stored.data, [0.0, 0.0, 0.0]])
            matrix = sp.csr_matrix((values, (rows, cols)), shape=(n, n))
            assert matrix.getnnz(axis=0)[7] == 0 and matrix[20, 20] == 0.0
            return matrix, contiguous(n, 4)
        if name == "coo_duplicates":
            n = 30
            stored = sp.coo_matrix(banded(n, 2))
            rows = np.concatenate([stored.row, stored.row, [4, 5]])
            cols = np.concatenate([stored.col, stored.col, [5, 4]])
            values = np.concatenate(
                [0.25 * stored.data, 0.75 * stored.data, [0.0, 0.0]]
            )
            values[(rows == 4) & (cols == 5)] = [0.05, 0.05, -0.1]
            values[(rows == 5) & (cols == 4)] = [0.05, 0.05, -0.1]
            matrix = sp.coo_matrix((values, (rows, cols)), shape=(n, n))
            assert matrix.tocsr()[4, 5] == 0.0
            return matrix, contiguous(n, 3)
        if name == "unsorted_csr":
            n = 24
            csr = sp.csr_matrix(banded(n, 2))
            indptr, indices, data = [0], [], []
            for i in range(n):
                row = slice(csr.indptr[i], csr.indptr[i + 1])
                cols, values = csr.indices[row][::-1], csr.data[row][::-1].copy()
                values[cols == i] *= 0.5
                indices.extend(cols.tolist() + [i])
                data.extend(values.tolist() + [0.5 * csr[i, i]])
                indptr.append(len(indices))
            matrix = sp.csr_matrix((data, indices, indptr), shape=(n, n))
            assert not matrix.has_canonical_format
            assert np.array_equal(matrix.toarray(), csr.toarray())
            return matrix, contiguous(n, 4)
        if name == "diagonal":
            n = 12
            return sp.diags([diagonal_value(i) for i in range(n)]).tocsr(), contiguous(n, 4)
        if name == "dense":
            n = 10
            rng = np.random.default_rng(5)
            dense = 0.02 * rng.uniform(-1.0, 1.0, size=(n, n))
            dense = dense + dense.T + np.diag([diagonal_value(i) for i in range(n)])
            return sp.csr_matrix(dense), contiguous(n, 3)
        if name == "random_csc":
            n = 36
            rng = np.random.default_rng(11)
            mask = np.triu(rng.random((n, n)) < 0.06, 1)
            upper = np.where(mask, 0.1 * rng.uniform(-1.0, 1.0, size=(n, n)), 0.0)
            dense = upper + upper.T + np.diag([diagonal_value(i) for i in range(n)])
            assert np.max(np.sum(np.abs(dense - np.diag(np.diag(dense))), axis=1)) < 0.5
            return sp.csc_matrix(dense), contiguous(n, 6)
        if name == "ragged_banded":
            sizes = [1, 4, 2, 3, 1, 2, 4, 3]
            dense = banded(sum(sizes), 2)
            return block_matrix_from_csr(sp.csr_matrix(dense), sizes), contiguous(8, 3)
        sizes = [2, 3, 1, 2, 3, 2]
        rng = np.random.default_rng(3)
        matrix = BlockSparseMatrix(sizes)
        for i in range(len(sizes)):
            for j in range(i, min(len(sizes), i + 2)):
                if 2 in (i, j):
                    continue
                block = 0.1 * rng.normal(size=(sizes[i], sizes[j]))
                if i == j:
                    block = 0.5 * (block + block.T) + np.eye(sizes[i])
                matrix.put_block(i, j, block)
                matrix.put_block(j, i, block.T)
        assert matrix.nonzero_block_rows(2) == []
        return matrix, [[0, 1], [2, 3], [4, 5]]

    @staticmethod
    def scattered(n_columns, n_groups=3):
        """Non-contiguous groups listing their columns in descending order."""
        return [
            [c for c in reversed(range(n_columns)) if c % n_groups == r]
            for r in range(n_groups)
        ]

    @pytest.mark.parametrize("grouping", ["single", "combined", "scattered"])
    @pytest.mark.parametrize("kernel", ["eigen", "newton_schulz", "callable"])
    @pytest.mark.parametrize(
        "pattern",
        [
            "explicit_zeros",
            "coo_duplicates",
            "unsorted_csr",
            "diagonal",
            "dense",
            "random_csc",
            "unstored_block_column",
            "ragged_banded",
        ],
    )
    def test_apply_matches_reference_bitwise(self, pattern, kernel, grouping):
        """``apply`` on a SciPy matrix (a grid of 1×1 blocks) and on a block
        matrix is bitwise the per-submatrix reference loop of its format,
        keeps exactly the input's stored pattern (explicit zeros included,
        nothing in an empty column) and shards bitwise too."""
        (matrix, groups), mu = self.unusual_pattern(pattern), 0.2
        if grouping == "single":
            groups = None
        elif grouping == "scattered":
            n_columns = matrix.shape[1] if sp.issparse(matrix) else matrix.n_block_cols
            groups = self.scattered(n_columns)
        per_matrix = {
            "eigen": lambda a: sign_via_eigendecomposition(a, mu),
            "newton_schulz": lambda a: sign_newton_schulz_batched(
                a[None], max_iterations=DEFAULT_SIGN_MAX_ITERATIONS, shift=mu
            ).sign[0],
            "callable": lambda a: a @ a - 0.5 * a,
        }[kernel]
        spec, params = (per_matrix, {}) if kernel == "callable" else (kernel, {"mu": mu})
        with SubmatrixContext() as ctx:
            new = ctx.apply(matrix, spec, column_groups=groups, **params)
            sharded = ctx.apply(matrix, spec, column_groups=groups, ranks=2, **params)
        if sp.issparse(matrix):
            reference, dimensions = reference_apply_elementwise(matrix, per_matrix, groups)
            assert np.array_equal(new.result.toarray(), reference.toarray())

            def stored(csr):
                entries = csr.tocoo()
                return set(zip(entries.row.tolist(), entries.col.tolist()))

            assert stored(new.result) == stored(matrix) == stored(reference)
        else:
            reference, dimensions = reference_apply_blockwise(matrix, per_matrix, groups)
            assert np.array_equal(
                block_matrix_to_dense(new.result), block_matrix_to_dense(reference)
            )
            assert new.result.block_keys() == matrix.block_keys()
            assert reference.block_keys() == matrix.block_keys()
        assert new.submatrix_dimensions == dimensions
        assert new.flop_estimate == float(sum(float(d) ** 3 for d in dimensions))
        assert new.kernel_fallbacks == 0
        assert sharded.n_ranks == 2
        densify = (lambda m: m.toarray()) if sp.issparse(matrix) else block_matrix_to_dense
        assert np.array_equal(densify(sharded.result), densify(new.result))

    @pytest.mark.parametrize("kernel", ["eigen", "newton_schulz"])
    @pytest.mark.parametrize("fmt", ["csr", "csc", "coo", "lil", "dok", "bsr", "dia"])
    def test_every_scipy_format_runs_as_its_csr(self, fmt, kernel):
        """Any square SciPy format goes in: the result is bitwise the
        reference loop on the CSR form, on the same stored pattern."""
        matrix, groups = self.unusual_pattern("random_csc")
        csr = matrix.tocsr()
        converted = csr.tobsr(blocksize=(1, 1)) if fmt == "bsr" else csr.asformat(fmt)
        assert converted.format == fmt
        new = SubmatrixContext().apply(converted, kernel, column_groups=groups, mu=0.2)
        reference, dimensions = reference_apply_elementwise(
            csr,
            {
                "eigen": lambda a: sign_via_eigendecomposition(a, 0.2),
                "newton_schulz": lambda a: sign_newton_schulz_batched(
                    a[None], max_iterations=DEFAULT_SIGN_MAX_ITERATIONS, shift=0.2
                ).sign[0],
            }[kernel],
            groups,
        )
        assert new.result.format == "csr"
        assert np.array_equal(new.result.toarray(), reference.toarray())
        assert np.array_equal(new.result.indptr, csr.indptr)
        assert np.array_equal(new.result.indices, csr.indices)
        assert new.submatrix_dimensions == dimensions

    @pytest.mark.parametrize("kernel", ["eigen", "newton_schulz", "callable"])
    @pytest.mark.parametrize("ranks", [1, 2, 3, 4, 16])
    def test_scipy_input_shards_bitwise(self, ranks, kernel):
        """``ranks=`` shards a SciPy matrix as it shards a block matrix (it
        used to raise ``TypeError``): bitwise the single-process result for
        every rank count, more ranks than column groups included."""
        matrix, groups = self.unusual_pattern("explicit_zeros")
        spec, params = (
            (lambda a: a @ a - 0.5 * a, {}) if kernel == "callable" else (kernel, {"mu": 0.2})
        )
        with SubmatrixContext() as ctx:
            single = ctx.apply(matrix, spec, column_groups=groups, **params)
            sharded = ctx.apply(matrix, spec, column_groups=groups, ranks=ranks, **params)
        assert single.n_ranks == 1 and sharded.n_ranks == ranks
        assert np.array_equal(sharded.result.toarray(), single.result.toarray())
        assert np.array_equal(sharded.result.indices, single.result.indices)
        assert sharded.submatrix_dimensions == single.submatrix_dimensions
        assert sharded.kernel_fallbacks == single.kernel_fallbacks == 0

    def test_apply_dispatch_rejects_dense(self):
        with pytest.raises(TypeError):
            SubmatrixContext().apply(np.eye(4), "eigen")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("kernel", ["newton_schulz", "eigen"])
    def test_non_finite_matrix_is_rejected(self, kernel, bad):
        """One NaN on the diagonal of a 120² banded matrix used to come back
        from ``"newton_schulz"`` as a result holding 167 NaNs and to kill
        ``"eigen"`` with an opaque LinAlgError."""
        n, size = 120, 6
        dense = np.diag(np.linspace(-2.0, 2.0, n) + 0.05)
        dense += 0.1 * (np.eye(n, k=1) + np.eye(n, k=-1))
        dense[7, 7] = bad
        csr = sp.csr_matrix(dense)
        blocked = block_matrix_from_csr(csr, [size] * (n // size))
        with SubmatrixContext() as ctx:
            for matrix in (csr, blocked):
                for ranks in (None, 2):
                    with pytest.raises(ValueError, match="matrix contains non-finite"):
                        ctx.apply(matrix, kernel, ranks=ranks)

    def test_stale_plan_or_pattern_is_rejected(self):
        """``plan=`` / ``coo=`` of an older pattern: the new blocks used to be
        dropped in ``pack`` and f of the *old* pattern came back (max error
        6.6 on this grid) — now a ``ValueError`` naming a dropped block."""
        rng = np.random.default_rng(7)
        n, size = 8, 3
        dense = np.zeros((n * size, n * size))
        for i in range(n):
            for j in range(max(0, i - 1), min(n, i + 2)):
                dense[i * size : (i + 1) * size, j * size : (j + 1) * size] = (
                    rng.normal(size=(size, size))
                )
        dense = (dense + dense.T) / 2
        old = block_matrix_from_csr(sp.csr_matrix(dense), [size] * n)
        old_coo = CooBlockList.from_block_matrix(old)
        dense[0:size, 5 * size : 6 * size] = 2.0
        dense[5 * size : 6 * size, 0:size] = 2.0
        new = block_matrix_from_csr(sp.csr_matrix(dense), [size] * n)

        def square(a):
            return a @ a

        ctx = SubmatrixContext()
        stale = ctx.block_plan_for(old_coo, old.row_block_sizes, [[c] for c in range(n)])
        for stale_argument in ({"plan": stale}, {"coo": old_coo}):
            with pytest.raises(ValueError, match=r"stored block \(0, 5\)"):
                ctx.apply(new, square, **stale_argument)
        # the matching pattern, and a superset of the stored blocks, still run
        right = ctx.apply(new, square)
        superset = ctx.apply(old, square, coo=CooBlockList.from_block_matrix(new))
        reference, _ = reference_apply_blockwise(new, square)
        assert np.array_equal(
            block_matrix_to_dense(right.result), block_matrix_to_dense(reference)
        )
        assert superset.result.nnz_blocks == new.nnz_blocks

    @settings(max_examples=25, deadline=None)
    @given(
        dense=arrays(
            np.float64,
            st.integers(4, 16).map(lambda n: (n, n)),
            elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
        ),
        seed=st.integers(0, 2**16),
    )
    def test_property_context_matches_legacy(self, dense, seed):
        """Bitwise identity with the reference loop over the
        ``core/submatrix.py`` kernels on random sparse symmetric matrices."""
        rng = np.random.default_rng(seed)
        mask = rng.random(dense.shape) < 0.4
        mask = mask | mask.T
        np.fill_diagonal(mask, True)
        matrix = sp.csr_matrix(np.where(mask, (dense + dense.T) / 2, 0.0))
        new = SubmatrixContext().apply(matrix, "eigen")
        reference, dimensions = reference_apply_elementwise(
            matrix, sign_via_eigendecomposition
        )
        assert new.submatrix_dimensions == dimensions
        assert np.array_equal(new.result.toarray(), reference.toarray())


# --------------------------------------------------------------------------- #
# session resource reuse
# --------------------------------------------------------------------------- #
class TestSessionReuse:
    def test_one_plan_build_across_repeated_apply(self, water32_matrices, gap_mu):
        _, blocked = orthogonalized_block(water32_matrices)
        ctx = SubmatrixContext(EngineConfig(engine="batched"))
        n_calls = 4
        for _ in range(n_calls):
            ctx.apply(blocked, "eigen", mu=gap_mu)
        stats = ctx.stats()["plan_cache"]
        assert stats["misses"] == 1  # one plan build...
        assert stats["hits"] == n_calls - 1  # ...shared by every later call
        assert stats["plans"] == 1

    def test_one_pool_across_repeated_apply(self, water32_matrices, gap_mu):
        _, blocked = orthogonalized_block(water32_matrices)
        ctx = SubmatrixContext(
            EngineConfig(engine="batched", backend="thread", max_workers=2)
        )
        first = ctx.apply(blocked, "eigen", mu=gap_mu)
        pool = ctx.executor
        assert pool is not None
        for _ in range(3):
            again = ctx.apply(blocked, "eigen", mu=gap_mu)
            assert ctx.executor is pool
            assert np.array_equal(
                block_matrix_to_dense(again.result),
                block_matrix_to_dense(first.result),
            )
        assert ctx.stats()["executors_created"] == 1
        ctx.close()

    def test_serial_context_creates_no_pool(self, water32_matrices, gap_mu):
        _, blocked = orthogonalized_block(water32_matrices)
        ctx = SubmatrixContext(EngineConfig(engine="batched"))
        ctx.apply(blocked, "eigen", mu=gap_mu)
        assert ctx.executor is None
        assert ctx.stats()["executors_created"] == 0

    def test_closed_context_rejects_work(self):
        ctx = SubmatrixContext(EngineConfig(backend="thread", max_workers=2))
        assert ctx.executor is not None
        ctx.close()
        with pytest.raises(RuntimeError):
            _ = ctx.executor
        ctx.close()  # idempotent

    def test_context_manager_closes(self):
        with SubmatrixContext(EngineConfig(backend="thread", max_workers=2)) as ctx:
            assert ctx.executor is not None
        with pytest.raises(RuntimeError):
            _ = ctx.executor


# --------------------------------------------------------------------------- #
# session lifecycle: close is idempotent and a closed context is unusable
# --------------------------------------------------------------------------- #
class TestSessionLifecycle:
    def test_double_close_is_idempotent(self):
        ctx = SubmatrixContext(EngineConfig(backend="thread", max_workers=2))
        assert not ctx.closed
        assert ctx.executor is not None
        ctx.close()
        ctx.close()
        assert ctx.closed

    def test_close_without_executor(self):
        ctx = SubmatrixContext(EngineConfig())
        ctx.close()
        ctx.close()
        assert ctx.closed

    def test_close_after_finalizer_fired(self):
        # the weakref.finalize shutdown path (gc of an abandoned session)
        # may run before an explicit close(); close() must stay silent
        ctx = SubmatrixContext(EngineConfig(backend="thread", max_workers=2))
        assert ctx.executor is not None
        ctx._finalizer()
        ctx.close()
        ctx.close()
        assert ctx.closed

    def test_closed_context_raises_runtime_error_everywhere(
        self, water32_matrices, gap_mu
    ):
        pair = water32_matrices
        matrix = sp.eye(4, format="csr")
        # a *serial* context never creates an executor, so without an
        # explicit guard reuse would fail late (or not at all) instead of
        # with a clear RuntimeError
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        ctx.close()
        with pytest.raises(RuntimeError, match="closed"):
            ctx.apply(matrix, "eigen")
        with pytest.raises(RuntimeError, match="closed"):
            ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
        with pytest.raises(RuntimeError, match="closed"):
            ctx.trajectory([(pair.K, pair.S)], pair.blocks, mu=gap_mu)
        with pytest.raises(RuntimeError, match="closed"):
            ctx.pipeline(matrix, [1, 1, 1, 1], n_ranks=2)

    def test_closed_context_rejects_earlier_distributed_session(
        self, water32_matrices, gap_mu
    ):
        # a serial sharded run never touches the session executor, so
        # without the explicit guard it would silently keep working on a
        # closed context — even with its pipeline already cached
        _, blocked = orthogonalized_block(water32_matrices)
        ctx = SubmatrixContext(EngineConfig())
        ctx.apply(blocked, "eigen", mu=gap_mu, ranks=2)
        ctx.close()
        with pytest.raises(RuntimeError, match="closed"):
            ctx.apply(blocked, "eigen", mu=gap_mu, ranks=2)


# --------------------------------------------------------------------------- #
# temperature handling of the occupations
# --------------------------------------------------------------------------- #
class TestOccupationTemperature:
    def test_zero_temperature_selects_extended_signum(
        self, water32_matrices, gap_mu
    ):
        """T = 0 must mean the extended-signum limit, never a 1/(kB·T)."""
        pair = water32_matrices
        config = EngineConfig(engine="batched", eps_filter=EPS, temperature=0.0)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            result = SubmatrixContext(config).density(
                pair.K, pair.S, pair.blocks, mu=gap_mu
            )
        # integer occupations: the gap holds exactly the neutral count
        assert result.n_electrons == pytest.approx(256.0, abs=1e-9)

    def test_tiny_temperature_is_continuous_with_zero(
        self, water32_matrices, gap_mu
    ):
        """Sub-resolution temperatures behave exactly like T = 0, and small
        finite temperatures approach the T = 0 result smoothly."""
        pair = water32_matrices

        def density_at(temperature):
            config = EngineConfig(
                engine="batched", eps_filter=EPS, temperature=temperature
            )
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                return SubmatrixContext(config).density(
                    pair.K, pair.S, pair.blocks, mu=gap_mu
                )

        cold = density_at(0.0)
        # below the resolution threshold: bitwise the extended-signum limit
        assert np.array_equal(density_at(1e-12).density_ao, cold.density_ao)
        # small finite temperatures: continuous approach to the limit
        for temperature, tolerance in ((1e-6, 1e-12), (1.0, 1e-8)):
            warm = density_at(temperature)
            assert np.allclose(
                warm.density_ao, cold.density_ao, atol=tolerance
            ), temperature

    def test_zero_temperature_canonical_bisection(self, water32_matrices):
        """The T = 0 bisection (Heaviside counting) must not divide by zero."""
        pair = water32_matrices
        config = EngineConfig(engine="batched", eps_filter=EPS, temperature=0.0)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            result = SubmatrixContext(config).density(
                pair.K, pair.S, pair.blocks, n_electrons=256.0
            )
        assert result.n_electrons == pytest.approx(256.0, abs=1e-6)


# --------------------------------------------------------------------------- #
# density through the session, including rank sharding
# --------------------------------------------------------------------------- #
class TestDensitySession:
    def test_density_matches_legacy_solver_bitwise(self, water32_matrices, gap_mu):
        """Against the independent full-product loop: to rounding, not bitwise
        (the name predates the generating-column panel)."""
        pair = water32_matrices
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        new = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
        legacy = reference_density(pair.K, pair.S, pair.blocks, gap_mu, EPS)
        assert_matches_reference_density(new, legacy)

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_sharded_mu_bisection_bitwise(self, water32_matrices, ranks):
        """Acceptance: sharded canonical search ≡ single-process, ranks {1,2,4}."""
        pair = water32_matrices
        n_electrons = 8.0 * 32
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        single = ctx.density(pair.K, pair.S, pair.blocks, n_electrons=n_electrons)
        sharded = ctx.density(
            pair.K, pair.S, pair.blocks, n_electrons=n_electrons, ranks=ranks
        )
        assert sharded.mu == single.mu  # bitwise: the bisection iterates match
        assert sharded.mu_iterations == single.mu_iterations
        assert np.array_equal(sharded.density_ao, single.density_ao)
        assert np.array_equal(
            sharded.density_ortho.toarray(), single.density_ortho.toarray()
        )
        assert sharded.n_ranks == ranks

    @pytest.mark.parametrize("ranks", [2, 4])
    def test_sharded_grand_canonical_bitwise(self, water32_matrices, gap_mu, ranks):
        pair = water32_matrices
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        single = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
        sharded = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu, ranks=ranks)
        assert np.array_equal(sharded.density_ao, single.density_ao)

    def test_sharded_solver_via_config_ranks(self, water32_matrices):
        """``config.n_ranks`` shards every call that names no ``ranks``."""
        pair = water32_matrices
        n_electrons = 8.0 * 32
        sharded_ctx = SubmatrixContext(EngineConfig(eps_filter=EPS, n_ranks=4))
        single_ctx = SubmatrixContext(EngineConfig(eps_filter=EPS))
        sharded = sharded_ctx.density(
            pair.K, pair.S, pair.blocks, n_electrons=n_electrons
        )
        single = single_ctx.density(
            pair.K, pair.S, pair.blocks, n_electrons=n_electrons
        )
        assert sharded.n_ranks == 4
        assert sharded.mu == single.mu
        assert np.array_equal(sharded.density_ao, single.density_ao)
        _, blocked = orthogonalized_block(pair)
        f_sharded = sharded_ctx.apply(blocked, "eigen", mu=single.mu)
        f_single = single_ctx.apply(blocked, "eigen", mu=single.mu)
        assert (f_sharded.n_ranks, f_single.n_ranks) == (4, 1)
        assert np.array_equal(
            block_matrix_to_dense(f_sharded.result),
            block_matrix_to_dense(f_single.result),
        )

    def test_canonical_still_requires_eigen_cache(self, water32_matrices):
        # the μ-bisection needs the cached spectra; iterative kernels stay
        # grand-canonical only, sharded or not
        pair = water32_matrices
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        with pytest.raises(ValueError, match="eigendecomposition"):
            ctx.density(
                pair.K, pair.S, pair.blocks, n_electrons=256.0,
                solver="newton_schulz", ranks=2,
            )

    @pytest.mark.parametrize("solver", ["newton_schulz"])
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_sharded_iterative_solver_bitwise(
        self, water32_matrices, gap_mu, solver, ranks
    ):
        """Acceptance: sharded Newton–Schulz ≡ single-process, ranks {1,2,4}."""
        pair = water32_matrices
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        single = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu, solver=solver)
        sharded = ctx.density(
            pair.K, pair.S, pair.blocks, mu=gap_mu, solver=solver, ranks=ranks
        )
        assert np.array_equal(sharded.density_ao, single.density_ao)
        assert np.array_equal(
            sharded.density_ortho.toarray(), single.density_ortho.toarray()
        )
        assert sharded.n_ranks == ranks
        # the sharded run reports its initialization-exchange volumes
        assert sharded.block_fetch_bytes is not None
        assert sharded.segment_fetch_bytes is not None
        assert sharded.segment_fetch_bytes <= sharded.block_fetch_bytes
        assert single.segment_fetch_bytes is None

    def test_sharded_iterative_with_bucket_padding_bitwise(
        self, water32_matrices, gap_mu
    ):
        """Padded buckets use the kernel's pad-value metadata on every rank."""
        pair = water32_matrices
        config = EngineConfig(engine="batched", eps_filter=EPS, bucket_pad=8)
        ctx = SubmatrixContext(config)
        single = ctx.density(
            pair.K, pair.S, pair.blocks, mu=gap_mu, solver="newton_schulz"
        )
        sharded = ctx.density(
            pair.K, pair.S, pair.blocks, mu=gap_mu, solver="newton_schulz", ranks=2
        )
        assert np.array_equal(sharded.density_ao, single.density_ao)

    def test_session_grouping_forwarded_to_density(self, water32_matrices):
        from repro.core import group_columns_greedy_chunks

        pair = water32_matrices
        grouping = group_columns_greedy_chunks(32, 4)
        ctx = SubmatrixContext(EngineConfig(engine="batched", eps_filter=EPS))
        single = ctx.density(
            pair.K, pair.S, pair.blocks, n_electrons=256.0, grouping=grouping
        )
        sharded = ctx.density(
            pair.K, pair.S, pair.blocks, n_electrons=256.0,
            grouping=grouping, ranks=2,
        )
        assert sharded.n_submatrices == grouping.n_submatrices
        assert np.array_equal(sharded.density_ao, single.density_ao)

    def test_density_requires_exactly_one_ensemble(self, water32_matrices):
        pair = water32_matrices
        ctx = SubmatrixContext()
        with pytest.raises(ValueError):
            ctx.density(pair.K, pair.S, pair.blocks)
        with pytest.raises(ValueError):
            ctx.density(pair.K, pair.S, pair.blocks, mu=0.0, n_electrons=1.0)


# --------------------------------------------------------------------------- #
# sharded f(A): apply(..., ranks=)
# --------------------------------------------------------------------------- #
class TestDistributedSession:
    def test_run_matches_batched_engine_bitwise(self, water32_matrices, gap_mu):
        _, blocked = orthogonalized_block(water32_matrices)
        ctx = SubmatrixContext(EngineConfig(engine="batched"))
        reference = ctx.apply(blocked, "eigen", mu=gap_mu)
        run = ctx.apply(blocked, "eigen", mu=gap_mu, ranks=4)
        assert np.array_equal(
            block_matrix_to_dense(run.result),
            block_matrix_to_dense(reference.result),
        )
        assert (run.n_ranks, reference.n_ranks) == (4, 1)
        # per-rank work and traffic are read off the run's (cached) pipeline
        coo = CooBlockList.from_block_matrix(blocked)
        pipeline = ctx.pipeline(coo, blocked.col_block_sizes, n_ranks=4)
        assert ctx.stats()["pipelines_built"] == 1
        assert pipeline.traffic_log().total_flops() > 0
        assert pipeline.rank_of_group.size == run.n_submatrices
        assert pipeline.rank_flops.shape == (4,)

    def test_pipeline_cached_across_runs(self, water32_matrices, gap_mu):
        _, blocked = orthogonalized_block(water32_matrices)
        ctx = SubmatrixContext(EngineConfig(engine="batched"))
        ctx.apply(blocked, "eigen", mu=gap_mu, ranks=2)
        assert ctx.stats()["pipelines_built"] == 1
        ctx.apply(blocked, "eigen", mu=gap_mu, ranks=2)
        ctx.apply(blocked, "newton_schulz", mu=gap_mu, ranks=2)
        assert ctx.stats()["pipelines_built"] == 1  # same pattern, same ranks
        ctx.apply(blocked, "eigen", mu=gap_mu, ranks=4)
        assert ctx.stats()["pipelines_built"] == 2

    def test_cost_through_session(self, water32_matrices):
        from repro.parallel import MachineModel

        _, blocked = orthogonalized_block(water32_matrices)
        coo = CooBlockList.from_block_matrix(blocked)
        cost = (
            SubmatrixContext()
            .pipeline(coo, blocked.col_block_sizes, n_ranks=4)
            .cost(MachineModel())
        )
        assert cost.n_ranks == 4
        assert cost.simulated_seconds > 0

    def test_invalid_rank_count_rejected(self, water32_matrices, gap_mu):
        """``ranks`` has one check (``check_positive_int``) behind ``apply`` and the
        session config; ``tests/test_request_parity.py`` holds the same cases
        for density, trajectory and the serving layer."""
        _, blocked = orthogonalized_block(water32_matrices)
        ctx = SubmatrixContext()
        for ranks in (0, -2):
            with pytest.raises(ValueError, match="ranks must be positive"):
                ctx.apply(blocked, "eigen", mu=gap_mu, ranks=ranks)
        # a float or bool must not silently truncate to some rank count
        for ranks in (1.7, 2.0, True, "2"):
            with pytest.raises(TypeError, match="ranks must be an integer"):
                ctx.apply(blocked, "eigen", mu=gap_mu, ranks=ranks)
        assert ctx.apply(blocked, "eigen", mu=gap_mu, ranks=np.int64(2)).n_ranks == 2
        with pytest.raises(ValueError):
            EngineConfig(n_ranks=0)
        with pytest.raises(TypeError):
            EngineConfig(n_ranks=1.7)
        # a pre-built plan and a sharded run exclude each other
        plan = ctx.block_plan_for(
            CooBlockList.from_block_matrix(blocked), blocked.row_block_sizes,
            [[c] for c in range(blocked.n_block_cols)],
        )
        with pytest.raises(ValueError, match="plan="):
            ctx.apply(blocked, "eigen", mu=gap_mu, plan=plan, ranks=2)


# --------------------------------------------------------------------------- #
# the session's overlap-root cache: one S^{-1/2} per overlap content
# --------------------------------------------------------------------------- #
def assert_same_density(result, reference):
    assert np.array_equal(result.density_ao, reference.density_ao)
    assert np.array_equal(
        result.density_ortho.toarray(), reference.density_ortho.toarray()
    )
    assert result.band_energy == reference.band_energy
    assert result.n_electrons == reference.n_electrons


class TestOverlapRootCache:
    CONFIG = EngineConfig(engine="batched", eps_filter=EPS)

    def fresh(self, K, S, blocks, mu):
        with SubmatrixContext(self.CONFIG) as ctx:
            return ctx.density(K, S, blocks, mu=mu)

    def test_hit_is_bitwise_a_miss_and_a_fresh_session(self, water32_matrices, gap_mu):
        pair = water32_matrices
        with SubmatrixContext(self.CONFIG) as ctx:
            miss = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
            hit = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
            stats = ctx.stats()["overlap_roots"]
        n = pair.S.shape[0]
        assert stats == {"hits": 1, "misses": 1, "entries": 1, "bytes": 8 * n * n}
        assert_same_density(hit, miss)
        assert_same_density(hit, self.fresh(pair.K, pair.S, pair.blocks, gap_mu))
        # and the per-block reference loop, which computes its own root
        reference = reference_density(pair.K, pair.S, pair.blocks, gap_mu, EPS)
        assert_matches_reference_density(hit, reference)

    def test_in_place_mutation_of_the_overlap_is_a_miss(self, water32_matrices, gap_mu):
        pair = water32_matrices
        S = pair.S.copy()
        with SubmatrixContext(self.CONFIG) as ctx:
            before = ctx.density(pair.K, S, pair.blocks, mu=gap_mu)
            S.setdiag(S.diagonal() * 1.01)  # same object, same pattern
            after = ctx.density(pair.K, S, pair.blocks, mu=gap_mu)
            assert ctx.stats()["overlap_roots"]["misses"] == 2
        assert not np.array_equal(after.density_ao, before.density_ao)
        assert_same_density(after, self.fresh(pair.K, S, pair.blocks, gap_mu))

    def test_dense_and_sparse_forms_give_the_same_root(self, water32_matrices, gap_mu):
        pair = water32_matrices
        with SubmatrixContext(self.CONFIG) as ctx:
            sparse = ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
            dense = ctx.density(pair.K, pair.S.toarray(), pair.blocks, mu=gap_mu)
            fortran = ctx.density(
                pair.K, np.asfortranarray(pair.S.toarray()), pair.blocks, mu=gap_mu
            )
            stats = ctx.stats()["overlap_roots"]
        # two storage formats may miss each other, never disagree; the memory
        # order of a dense array is not content
        assert (stats["misses"], stats["hits"]) == (2, 1)
        assert_same_density(dense, sparse)
        assert_same_density(fortran, sparse)

    def test_lru_honours_its_byte_bound(self, water32_matrices, monkeypatch):
        S = water32_matrices.S
        overlaps = [S * scale for scale in (1.0, 1.5, 2.0)]
        one_root = 8 * S.shape[0] ** 2
        monkeypatch.setattr(repro.api.context, "MAX_OVERLAP_ROOT_BYTES", 2 * one_root)
        with SubmatrixContext(self.CONFIG) as ctx:
            roots = [ctx.overlap_root(overlap) for overlap in overlaps[:2]]
            assert ctx.overlap_root(overlaps[0]) is roots[0]  # now most recent
            ctx.overlap_root(overlaps[2])  # evicts overlaps[1]
            stats = ctx.stats()["overlap_roots"]
            assert (stats["entries"], stats["bytes"]) == (2, 2 * one_root)
            assert ctx.overlap_root(overlaps[0]) is roots[0]
            assert ctx.overlap_root(overlaps[1]) is not roots[1]
            assert np.array_equal(ctx.overlap_root(overlaps[1]), roots[1])

    def test_newest_root_is_kept_even_above_the_bound(
        self, water32_matrices, monkeypatch
    ):
        """One root larger than the whole bound: held, hit, replaced by the next."""
        S = water32_matrices.S
        one_root = 8 * S.shape[0] ** 2
        monkeypatch.setattr(repro.api.context, "MAX_OVERLAP_ROOT_BYTES", one_root - 1)
        with SubmatrixContext(self.CONFIG) as ctx:
            root = ctx.overlap_root(S)
            assert ctx.overlap_root(S) is root
            assert ctx.stats()["overlap_roots"] == {
                "hits": 1, "misses": 1, "entries": 1, "bytes": one_root,
            }
            other = ctx.overlap_root(S * 3.0)
            assert np.array_equal(other, loewdin_inverse_sqrt(S * 3.0))
            assert ctx.overlap_root(S * 3.0) is other
            stats = ctx.stats()["overlap_roots"]
            assert (stats["entries"], stats["bytes"]) == (1, one_root)
            assert ctx.overlap_root(S) is not root  # it was the one evicted

    def test_cached_root_is_read_only(self, water32_matrices):
        with SubmatrixContext(self.CONFIG) as ctx:
            root = ctx.overlap_root(water32_matrices.S)
            assert not root.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                root[0, 0] = 1.0
            assert np.array_equal(root, loewdin_inverse_sqrt(water32_matrices.S))

    def test_stats_and_close(self, water32_matrices, gap_mu):
        pair = water32_matrices
        ctx = SubmatrixContext(self.CONFIG)
        assert ctx.stats()["overlap_roots"] == {
            "hits": 0, "misses": 0, "entries": 0, "bytes": 0,
        }
        ctx.density(pair.K, pair.S, pair.blocks, mu=gap_mu)
        ctx.trajectory([(pair.K, pair.S)] * 2, pair.blocks, mu=gap_mu)
        assert ctx.stats()["overlap_roots"]["hits"] == 2
        ctx.close()
        stats = ctx.stats()["overlap_roots"]
        assert (stats["entries"], stats["bytes"]) == (0, 0)
        assert (stats["hits"], stats["misses"]) == (2, 1)
        with pytest.raises(RuntimeError, match="closed"):
            ctx.overlap_root(pair.S)

    def test_a_walk_keeps_one_root_and_a_fixed_overlap_keeps_hitting(
        self, water32_matrices, gap_mu
    ):
        """MD moves S every step and never comes back: the trajectory driver
        releases the root it walked away from (the session held seven dead
        ones at the byte bound before).  An SCF loop keeps S and must keep
        hitting."""
        pair = water32_matrices
        walk = [(pair.K, pair.S * (1.0 + 0.01 * step)) for step in range(6)]
        with SubmatrixContext(self.CONFIG) as ctx:
            ctx.density(*walk[0], pair.blocks, mu=gap_mu)  # where the walk starts
            trajectory = ctx.trajectory(walk, pair.blocks, mu=gap_mu)
            stats = ctx.stats()["overlap_roots"]
            n = pair.S.shape[0]
            assert (stats["hits"], stats["misses"]) == (1, 6)
            assert (stats["entries"], stats["bytes"]) == (1, 8 * n * n)
            # a second walk leaves the first one's last root behind too
            ctx.trajectory(walk[:2], pair.blocks, mu=gap_mu)
            assert ctx.stats()["overlap_roots"]["entries"] == 1
        for (K, S), result in zip(walk[-2:], trajectory.results[-2:]):
            assert_same_density(result, self.fresh(K, S, pair.blocks, gap_mu))

        with SubmatrixContext(self.CONFIG) as ctx:
            scf = run_scf(
                ctx, pair.K, pair.S, pair.blocks,
                lambda density_ao, iteration: pair.K
                + 0.05 * sp.diags(np.diag(density_ao)),
                n_electrons=8.0 * 32, max_iterations=4, tolerance=1e-300,
            )
            stats = ctx.stats()["overlap_roots"]
        assert scf.n_iterations == 4
        assert (stats["hits"], stats["misses"], stats["entries"]) == (3, 1, 1)

    def test_threads_on_alternating_overlaps_with_eviction_forced(self, monkeypatch):
        """Eight threads, two overlaps, room for one root: every lookup may
        evict the other overlap's root under another thread's feet, and every
        density must still be the one its own (K, S) gives.  The systems are
        tiny and fully coupled, so each submatrix is the whole matrix and the
        dense oracle is met to rounding."""
        sizes = np.full(8, 3)
        n, mu = int(sizes.sum()), 0.1
        starts = np.concatenate(([0], np.cumsum(sizes)))
        blocks = BlockStructure(
            block_sizes=sizes, block_starts=starts, atom_offsets=starts[:-1], n_basis=n
        )
        generator = np.random.default_rng(11)
        systems = []
        for _ in range(2):
            K, dS = generator.normal(size=(2, n, n))
            systems.append((0.5 * (K + K.T), np.eye(n) + 0.02 * (dS + dS.T)))
        monkeypatch.setattr(repro.api.context, "MAX_OVERLAP_ROOT_BYTES", 8 * n * n)
        config = EngineConfig(engine="batched", eps_filter=1e-14)
        oracles = [reference_density_matrix(K, S, mu=mu) for K, S in systems]
        with SubmatrixContext(config) as ctx:
            expected = [ctx.density(K, S, blocks, mu=mu) for K, S in systems]
        n_threads, calls_each = 8, 40
        failures, done = [], []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SubmatrixContext(config) as ctx:

                def worker(thread: int) -> None:
                    try:
                        for call in range(calls_each):
                            which = (thread + call) % 2
                            K, S = systems[which]
                            result = ctx.density(K, S, blocks, mu=mu)
                            assert_same_density(result, expected[which])
                            error = np.abs(
                                result.density_ao - oracles[which].density_ao
                            ).max()
                            assert error < 1e-10, error
                        done.append(thread)
                    except BaseException as error:  # surfaced below
                        failures.append(error)

                threads = [
                    threading.Thread(target=worker, args=(thread,))
                    for thread in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                stats = ctx.stats()["overlap_roots"]
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        assert sorted(done) == list(range(n_threads))
        assert stats["hits"] + stats["misses"] == n_threads * calls_each
        # with room for one root the two overlaps keep evicting each other
        assert stats["misses"] > 2 and stats["bytes"] <= 8 * n * n
