"""Staged replay: one op rebuilt from public names, one span per stage.

The real op is one opaque public call (``ctx.density`` …).  To say where its
time goes without touching ``src/``, the traced run re-executes the same op
as the sequence of public functions the call is made of —

    orthogonalized_ks -> block_matrix_from_csr -> CooBlockList.from_block_matrix
    -> ctx.block_plan_for | ctx.pipeline -> plan.pack -> make_stack_tasks
    -> plan.extract_stack -> np.linalg.eigh | Newton-Schulz kernel
    -> fermi_occupation -> plan.scatter / scatter_stack -> plan.finalize
    -> assemble_result

— each inside a span named after the layer it belongs to.  The replay runs on
its *own* session so its plan lookups never disturb the cache counters of the
session under test, and it follows that session's history (cold first lookup,
hits afterwards, patches along a trajectory).  Its density must equal the real
call's to 1e-12; otherwise it timed a different program and the run fails.

The canonical μ is taken from the real result: the bisection is not part of
the replay and shows up in ``api.observables.unattributed_s``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.api import EngineConfig, SubmatrixContext
from repro.api.config import EIGENSOLVE_FLOP_CONSTANT
from repro.api.observables import assemble_result
from repro.chem import orthogonalized_ks
from repro.chem.density import fermi_occupation
from repro.core.batch import make_stack_tasks
from repro.core.combination import single_column_groups
from repro.core.plan import plan_nbytes
from repro.dbcsr import CooBlockList, block_matrix_from_csr
from repro.signfn import sign_newton_schulz_batched
from repro.signfn.registry import get_kernel

#: Stage spans whose self times add up to the replayed op (in call order).
REPLAY_STAGES = (
    "chem.orthogonalize",
    "dbcsr.block_convert",
    "core.plan.build",
    "core.plan.patch",
    "core.plan.hit",
    "core.runner.pipeline_build",
    "core.runner.pipeline_hit",
    "core.plan.pack",
    "core.runner.run",
    "core.plan.extract",
    "signfn.eigh",
    "signfn.kernel",
    "signfn.occupation",
    "core.plan.scatter",
    "api.observables.assemble",
)


class StagedReplay:
    """Replays density ops of one configuration on a private session."""

    def __init__(
        self,
        config: EngineConfig,
        solver: str = "eigen",
        ranks: Optional[int] = None,
        replan: str = "full",
    ):
        self.config = config
        self.solver = solver
        self.ranks = ranks
        self.replan = replan
        self.context = SubmatrixContext(config)
        #: shape facts of the last replayed op (exact counts / computed sizes)
        self.facts: dict = {}

    def reset(self) -> None:
        """Start from a fresh session (the cold workload replays cold)."""
        self.context.close()
        self.context = SubmatrixContext(self.config)

    def close(self) -> None:
        self.context.close()

    # ------------------------------------------------------------------ #
    def run(self, rec, K, S, blocks, mu: float):
        """Replay one op under ``rec``; returns the assembled density result."""
        config = self.config
        with rec.span("chem.orthogonalize"):
            k_ortho, s_inv_sqrt = orthogonalized_ks(K, S, eps_filter=config.eps_filter)
        with rec.span("dbcsr.block_convert"):
            block_k = block_matrix_from_csr(k_ortho, blocks.block_sizes, threshold=0.0)
            coo = CooBlockList.from_block_matrix(block_k)
        grouping = single_column_groups(block_k.n_block_cols)
        pipeline = None
        if self.ranks is None:
            plan = self._lookup_plan(rec, coo, block_k, grouping)
        else:
            pipeline, plan, sharded = self._lookup_pipeline(rec, coo, block_k, grouping)
        with rec.span("core.plan.pack"):
            packed = plan.pack(block_k)

        if self.solver == "eigen":
            if pipeline is None:
                spectra = self._decompose(rec, plan, packed)
            else:
                spectra = self._decompose_sharded(rec, plan, sharded, packed)
            occupation_block = self._occupy_and_scatter(rec, plan, spectra, mu)
        else:
            occupation_block = self._iterate_and_scatter(rec, plan, packed, mu)

        with rec.span("api.observables.assemble"):
            result = assemble_result(
                config, K, s_inv_sqrt, occupation_block, coo, mu, 0,
                list(plan.dimensions), wall_time=0.0,
                ranks=self.ranks or 1, pipeline=pipeline,
            )
        dimensions = plan.dimensions
        self.facts.update(
            {
                "dbcsr.nnz_blocks": block_k.nnz_blocks,
                "dbcsr.block_fill_fraction": block_k.block_occupation(),
                "core.plan.bytes": plan_nbytes(plan),
                "core.batch.max_dim": max(dimensions),
                "core.batch.mean_dim": float(np.mean(dimensions)),
                "core.batch.n_submatrices": len(dimensions),
            }
        )
        if pipeline is not None:
            self.facts["core.shard.flop_imbalance"] = pipeline.traffic_log().flop_imbalance()
        return result

    # ------------------------------------------------------------------ #
    # plan / pipeline lookup, named after what the cache actually did
    # ------------------------------------------------------------------ #
    def _lookup_plan(self, rec, coo, block_k, grouping):
        cache = self.context.plan_cache
        before = cache.stats
        span = rec.begin("core.plan.hit")
        plan = self.context.block_plan_for(
            coo, block_k.row_block_sizes, list(grouping.groups), replan=self.replan
        )
        rec.end(span)
        after = cache.stats
        if after["patches"] > before["patches"]:
            span.name = "core.plan.patch"
        elif after["builds"] > before["builds"]:
            span.name = "core.plan.build"
        return plan

    def _lookup_pipeline(self, rec, coo, block_k, grouping):
        built = self.context.stats()["pipelines_built"]
        span = rec.begin("core.runner.pipeline_hit")
        pipeline = self.context.pipeline(
            coo, block_k.row_block_sizes, n_ranks=self.ranks, grouping=grouping,
            replan=self.replan, bucket_pad=None,
        )
        plan, sharded = pipeline.prepare()
        rec.end(span)
        if self.context.stats()["pipelines_built"] > built:
            span.name = "core.runner.pipeline_build"
        return pipeline, plan, sharded

    # ------------------------------------------------------------------ #
    # eigendecomposition path
    # ------------------------------------------------------------------ #
    def _eigh_stack(self, rec, view, source, bucket, spectra, group_of):
        dim, count = bucket.dimension, len(bucket.members)
        with rec.span("core.plan.extract", bucket_dim=dim, n=count):
            stack = view.extract_stack(source, bucket.members, dim)
        with rec.span("signfn.eigh", bucket_dim=dim, n=count):
            eigenvalues, eigenvectors = np.linalg.eigh(stack)
        for slot, member in enumerate(bucket.members):
            spectra[group_of(member)] = (eigenvalues[slot], eigenvectors[slot])
        self.facts["core.batch.n_buckets"] += 1
        self.facts["core.plan.extract_bytes"] += stack.nbytes
        self.facts["signfn.eigh_flops"] += EIGENSOLVE_FLOP_CONSTANT * count * float(dim) ** 3

    def _reset_stack_facts(self):
        self.facts.update(
            {
                "core.batch.n_buckets": 0,
                "core.plan.extract_bytes": 0,
                "signfn.eigh_flops": 0.0,
                "signfn.kernel_flops": 0.0,
            }
        )

    def _decompose(self, rec, plan, packed) -> List[Tuple[np.ndarray, np.ndarray]]:
        self._reset_stack_facts()
        spectra: List = [None] * plan.n_groups
        for bucket in make_stack_tasks(plan.dimensions):
            self._eigh_stack(rec, plan, packed, bucket, spectra, lambda member: member)
        return spectra

    def _decompose_sharded(self, rec, plan, sharded, packed):
        """Rank by rank, serially: stage seconds add up to more than the real
        op's wall when the session runs its ranks on threads."""
        self._reset_stack_facts()
        spectra: List = [None] * plan.n_groups
        with rec.span("core.runner.run", ranks=self.ranks):
            for shard in sharded.shards:
                if shard.n_groups == 0:
                    continue
                local = shard.pack_local(packed)
                indices = shard.group_indices
                for bucket in shard.stack_tasks():
                    self._eigh_stack(
                        rec, shard.view, local, bucket, spectra,
                        lambda member: int(indices[member]),
                    )
        return spectra

    def _occupy_and_scatter(self, rec, plan, spectra, mu):
        temperature = self.config.temperature
        out = plan.new_output()
        for group_index, (eigenvalues, eigenvectors) in enumerate(spectra):
            with rec.span("signfn.occupation"):
                occupations = fermi_occupation(eigenvalues, mu, temperature)
                occupation_matrix = (eigenvectors * occupations) @ eigenvectors.T
            with rec.span("core.plan.scatter"):
                plan.scatter(out, group_index, occupation_matrix)
        with rec.span("core.plan.scatter"):
            return plan.finalize(out)

    # ------------------------------------------------------------------ #
    # iterative (Newton-Schulz) path
    # ------------------------------------------------------------------ #
    def _iterate_and_scatter(self, rec, plan, packed, mu):
        self._reset_stack_facts()
        pad_value = get_kernel(self.solver).padding_value(mu)
        buckets = make_stack_tasks(plan.dimensions)
        evaluated = []
        for bucket in buckets:
            dim, count = bucket.dimension, len(bucket.members)
            with rec.span("core.plan.extract", bucket_dim=dim, n=count):
                stack = plan.extract_stack(packed, bucket.members, dim, pad_value=pad_value)
            with rec.span("signfn.kernel", bucket_dim=dim, n=count):
                identity = np.eye(dim)
                solved = sign_newton_schulz_batched(stack - mu * identity)
                evaluated.append(0.5 * (identity - solved.sign))
            self.facts["core.batch.n_buckets"] += 1
            self.facts["core.plan.extract_bytes"] += stack.nbytes
            # two (d, d) GEMMs of 2 d^3 flops per iteration and matrix
            self.facts["signfn.kernel_flops"] += 4.0 * float(dim) ** 3 * float(
                solved.iterations.sum()
            )
        out = plan.new_output()
        with rec.span("core.plan.scatter"):
            for bucket, occupations in zip(buckets, evaluated):
                plan.scatter_stack(out, bucket.members, occupations, bucket.dimension)
            return plan.finalize(out)
