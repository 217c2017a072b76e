"""Metric vocabulary of the end-to-end ledger, plus the shared statistics.

This module is the single source of the metric names: ``BENCHMARK.json``
lists exactly ``END_TO_END`` and ``PER_LAYER`` (name, unit, direction and,
for end-to-end metrics, the regression bound); the extra columns kept here —
``kind`` and ``moves`` — are what the manifest's fixed schema has no room
for.

``kind`` keeps three sorts of number apart:

``measured``  wall-clock seconds (or a ratio of two of them) from this run;
``counted``   an exact count the program or the harness made (repeats exactly
              for a fixed ``--ops`` and seed);
``computed``  bytes or flops derived from array shapes — no cache misses, no
              achieved rate; never a model of a machine we did not run on.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
from typing import Dict, List, Sequence

# --------------------------------------------------------------------------- #
# end-to-end metrics: what a caller of the engine sees.  Every second is
# *calibrated*: raw wall seconds over the host slowdown factor measured around
# the op (``calibration.py``) — seconds at the sandbox's undisturbed speed.
# --------------------------------------------------------------------------- #
END_TO_END: List[Dict[str, object]] = [
    {
        "name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25,
        "definition": "median calibrated wall seconds of one op (call, MD "
        "step or served request submit->result)",
    },
    {
        "name": "throughput_ops_s", "unit": "1/s", "better": "higher", "bound": 0.25,
        "definition": "ops completed / calibrated seconds the client spent "
        "waiting on the engine (served: / calibrated timed window)",
    },
    {
        "name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.2,
        "definition": "ru_maxrss of the workload process",
    },
    {
        "name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25,
        "definition": "median calibrated seconds of the repeated set-ups: "
        "input generation, session/service construction, cold warm-up op(s)",
    },
]


def _layer(name, unit, better, kind, moves):
    return {"name": name, "unit": unit, "better": better, "kind": kind, "moves": moves}


# ``moves`` names the end-to-end metric and workload a layer metric is
# expected to move, written down before anything is optimised.
PER_LAYER: List[Dict[str, object]] = [
    _layer("chem.build_matrices_s", "s", "lower", "measured", "setup_s on all"),
    _layer("chem.reference_dense_s", "s", "lower", "measured",
           "none (oracle cost; the plain dense single-thread baseline)"),
    _layer("chem.orthogonalize_s", "s", "lower", "measured",
           "wall_s on gc_sparse128 (dominant), cold_water64; ~0 on gc_water128"),
    _layer("dbcsr.block_convert_s", "s", "lower", "measured",
           "wall_s on gc_water128, md_water128"),
    _layer("dbcsr.nnz_blocks", "count", "lower", "counted", "explains block_convert_s"),
    _layer("dbcsr.block_fill_fraction", "1", "lower", "counted",
           "explains submatrix dimensions"),
    _layer("core.plan.build_s", "s", "lower", "measured",
           "wall_s on cold_water64; setup_s elsewhere"),
    _layer("core.plan.hit_s", "s", "lower", "measured",
           "wall_s on warm workloads (should stay < 1 ms)"),
    _layer("core.plan.patch_s", "s", "lower", "measured", "wall_s on md_water128"),
    _layer("core.plan.groups_rebuilt", "count", "lower", "counted",
           "wall_s on md_water128"),
    _layer("core.plan.bytes", "B", "lower", "computed", "peak_rss_mb on all"),
    _layer("core.plan.cache_hits", "count", "higher", "counted",
           "explains wall_s on md_water128, served_water32"),
    _layer("core.plan.cache_misses", "count", "lower", "counted",
           "explains wall_s on md_water128, cold_water64"),
    _layer("core.plan.cache_builds", "count", "lower", "counted",
           "explains wall_s on md_water128, cold_water64"),
    _layer("core.plan.cache_patches", "count", "higher", "counted",
           "explains wall_s on md_water128"),
    _layer("core.plan.pack_s", "s", "lower", "measured",
           "wall_s on gc_water128, ns_water128, sharded_water128_r2"),
    _layer("core.plan.extract_s", "s", "lower", "measured",
           "wall_s on gc_water128, ns_water128, sharded_water128_r2; none on gc_sparse128"),
    _layer("core.plan.scatter_s", "s", "lower", "measured",
           "wall_s on gc_water128, ns_water128, sharded_water128_r2"),
    _layer("core.plan.extract_bytes", "B", "lower", "computed",
           "explains extract_s"),
    _layer("core.batch.n_buckets", "count", "lower", "counted", "explains eigh_s/extract_s"),
    _layer("core.batch.max_dim", "count", "lower", "counted", "explains eigh_s"),
    _layer("core.batch.mean_dim", "count", "lower", "counted", "explains eigh_s"),
    _layer("core.batch.n_submatrices", "count", "lower", "counted", "explains eigh_s"),
    _layer("core.batch.evaluate_s", "s", "lower", "measured", "wall_s on ns_water128"),
    _layer("signfn.eigh_s", "s", "lower", "measured",
           "wall_s on gc_water128, cold_water64, md_water128, sharded_water128_r2"),
    _layer("signfn.eigh_flops", "flop", "lower", "computed", "explains eigh_s"),
    _layer("signfn.eigh_gflops", "Gflop/s", "higher", "measured", "explains eigh_s"),
    _layer("signfn.occupation_s", "s", "lower", "measured",
           "wall_s on gc_water128, md_water128 (Q f(L-mu) Q^T per submatrix)"),
    _layer("signfn.kernel_s", "s", "lower", "measured", "wall_s on ns_water128"),
    _layer("signfn.kernel_flops", "flop", "lower", "computed", "explains kernel_s"),
    _layer("api.observables.bisect_iterations", "count", "lower", "counted",
           "wall_s on md_water128, served_water32"),
    _layer("api.observables.assemble_s", "s", "lower", "measured",
           "wall_s on gc_sparse128 (with orthogonalize ~85 %), all others"),
    _layer("api.observables.unattributed_s", "s", "lower", "measured",
           "wall_s on all (real call minus the replay's stage self times)"),
    _layer("api.trajectory.pattern_changes", "count", "lower", "counted",
           "wall_s on md_water128"),
    _layer("api.trajectory.plans_built", "count", "lower", "counted",
           "wall_s on md_water128"),
    _layer("api.trajectory.plans_patched", "count", "higher", "counted",
           "wall_s on md_water128"),
    _layer("api.trajectory.plan_cache_hits", "count", "higher", "counted",
           "wall_s on md_water128"),
    _layer("api.trajectory.mu_iterations_total", "count", "lower", "counted",
           "wall_s on md_water128"),
    _layer("api.trajectory.prepare_s", "s", "lower", "measured",
           "wall_s on md_water128"),
    _layer("core.runner.pipeline_build_s", "s", "lower", "measured",
           "setup_s on sharded_water128_r2"),
    _layer("core.runner.run_s", "s", "lower", "measured",
           "wall_s on sharded_water128_r2 (rank-local gather + rank loop self time)"),
    _layer("core.runner.speedup_vs_single", "x", "higher", "measured",
           "reported, not gated: single-process op / sharded op, same inputs"),
    _layer("core.shard.flop_imbalance", "1", "lower", "computed",
           "wall_s on sharded_water128_r2"),
    _layer("parallel.segment_fetch_bytes", "B", "lower", "counted",
           "wall_s on sharded_water128_r2"),
    _layer("parallel.block_fetch_bytes", "B", "lower", "counted",
           "wall_s on sharded_water128_r2"),
    _layer("serve.overhead_s", "s", "lower", "measured",
           "wall_s, latency_p80_s on served_water32"),
    _layer("serve.mean_batch_size", "count", "higher", "counted",
           "throughput_ops_s on served_water32"),
    _layer("serve.coalesced", "count", "higher", "counted",
           "throughput_ops_s on served_water32"),
    _layer("serve.shared", "count", "higher", "counted",
           "throughput_ops_s on served_water32"),
    _layer("serve.rejected", "count", "lower", "counted",
           "failed ops on served_water32"),
    _layer("serve.plan_cache_hit_rate", "1", "higher", "counted",
           "wall_s on served_water32"),
    _layer("accuracy.energy_error_mev_per_atom", "meV/atom", "lower", "measured",
           "none (median |E_band - E_dense| / n_atoms * 1000; ceiling-checked on every op)"),
    _layer("accuracy.density_max_abs_error", "1", "lower", "measured",
           "none (median max|D_AO - D_dense|; ceiling-checked on every op)"),
    _layer("accuracy.electron_count_error", "e", "lower", "measured",
           "none (median |N - N_target|; ceiling-checked on every op)"),
    _layer("host.slowdown_factor", "x", "lower", "measured",
           "none (median reference-kernel time / nominal; every second above is divided by it)"),
    _layer("replay.max_abs_diff", "1", "lower", "measured",
           "none (the staged replay must equal the real call to 1e-12)"),
]

PER_LAYER_NAMES = [m["name"] for m in PER_LAYER]
UNIT = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
# every end-to-end metric is a measurement of this run
KIND = {m["name"]: m.get("kind", "measured") for m in END_TO_END + PER_LAYER}


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """``{n, min, q25, median, q75, p80}`` — the ledger's one summary shape.

    ``p80`` is for reading only: no workload collects the ten samples beyond
    it that a gated percentile would need."""
    return {
        "n": len(samples),
        "min": min(samples),
        "q25": quantile(samples, 0.25),
        "median": statistics.median(samples),
        "q75": quantile(samples, 0.75),
        "p80": quantile(samples, 0.8),
    }


# --------------------------------------------------------------------------- #
# environment stamp
# --------------------------------------------------------------------------- #
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _openblas_version(numpy) -> str:
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def env_stamp(root) -> Dict[str, object]:
    """Where and with what the numbers were taken (recorded in every result)."""
    import numpy
    import scipy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(numpy),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "git_sha": _git_sha(root),
    }
