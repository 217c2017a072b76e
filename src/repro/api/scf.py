"""Self-consistent-field driver: density mixing on top of the trajectory API.

The paper's target workload is linear-scaling DFT, where the Kohn–Sham
matrix depends on the density it produces — K = K(D) — and the ground
state is the fixed point of that map.  :func:`run_scf` closes the loop
with the classic linear density-mixing iteration,

    D_in(i+1) = (1 − α) · D_in(i) + α · D_out(i),

on top of :meth:`SubmatrixContext.trajectory`: every SCF iteration is one
trajectory step (the driver pulls step i+1 from the callback only after
step i's ``on_step`` has mixed its density), so the fixed point search
inherits the whole session machinery for free — plan/pipeline reuse
across iterations (the sparsity pattern is stable or drifts slowly),
warm-started μ-bisection seeded from the previous iteration's μ, rank
sharding, checkpoint/resume and multi-observable steps (request
``observables=("density", "energy_weighted_density")`` to track the band
energy from the same decomposition pass that produced each iterate).

The caller supplies the physics as ``update(density_ao, iteration) → K``:
the map from the mixed input density to the next Kohn–Sham matrix.  The
driver owns only the mixing, the convergence test
(``max |D_out − D_in| < tolerance``) and the iteration bookkeeping.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

import numpy as np

from repro.api.trajectory import TrajectoryResult

__all__ = ["SCFResult", "run_scf"]


@dataclasses.dataclass
class SCFResult:
    """Outcome of a density-mixing SCF run.

    Attributes
    ----------
    converged:
        Whether ``max |D_out − D_in|`` dropped below ``tolerance`` before
        ``max_iterations`` was exhausted.
    n_iterations:
        Number of SCF iterations actually executed.
    density_changes:
        Per-iteration ``max |D_out − D_in|`` (the first iteration has no
        input density yet and records ``inf``).
    band_energies:
        Per-iteration band-structure energy g_s·Tr(D_AO K) (Eq. 10).
    mus:
        Per-iteration chemical potential.
    mixed_density:
        The final mixed density matrix (AO basis, float64) — the SCF
        fixed-point estimate.
    trajectory:
        The underlying :class:`~repro.api.trajectory.TrajectoryResult`
        with the per-iteration results (plain density results, or
        :class:`~repro.api.results.ObservableBundle` when ``observables=``
        was forwarded) and the session-reuse statistics.
    """

    converged: bool
    n_iterations: int
    density_changes: np.ndarray
    band_energies: np.ndarray
    mus: np.ndarray
    mixed_density: np.ndarray
    trajectory: TrajectoryResult

    @property
    def final(self):
        """The last iteration's step result (density result or bundle)."""
        return self.trajectory.results[-1]


def run_scf(
    context,
    K0,
    S,
    blocks,
    update: Callable[[np.ndarray, int], object],
    mu: Optional[float] = None,
    n_electrons: Optional[float] = None,
    mixing: float = 0.5,
    tolerance: float = 1e-6,
    max_iterations: int = 50,
    solver: str = "eigen",
    warm_start_mu: bool = True,
    observables=None,
    observable_params=None,
    checkpoint=None,
    **trajectory_kwargs,
) -> SCFResult:
    """Iterate ``K → D → mix → update(K)`` to self-consistency.

    Parameters
    ----------
    context:
        The :class:`~repro.api.context.SubmatrixContext` running every
        iteration (one session: plans, pipelines and the executor are
        shared across the whole SCF loop).
    K0 / S / blocks:
        The initial Kohn–Sham matrix, the overlap matrix and the shared
        block structure.  S and the blocks are fixed across iterations
        (density mixing moves electrons, not basis functions).
    update:
        The physics callback ``update(density_ao, iteration) → K_next``:
        builds the next Kohn–Sham matrix from the *mixed* input density.
        Called after every non-final iteration; its result feeds the next
        trajectory step.
    mu / n_electrons:
        Exactly one must be given (grand-canonical / canonical ensemble),
        exactly as in :meth:`SubmatrixContext.density`.
    mixing:
        Linear mixing parameter α ∈ (0, 1]: the fraction of the fresh
        output density blended into the input density each iteration.
        α = 1 is plain fixed-point iteration; smaller values damp
        charge-sloshing divergence at the cost of more iterations.
    tolerance:
        Convergence threshold on ``max |D_out − D_in|``.
    max_iterations:
        Iteration budget; exhausting it returns ``converged=False``
        (no exception — the partial history is often exactly what a
        caller diagnosing a divergent mix needs).
    solver / warm_start_mu / observables / observable_params / checkpoint /
    **trajectory_kwargs:
        Forwarded to :meth:`SubmatrixContext.trajectory`.
        ``warm_start_mu`` defaults to ``True`` here (unlike the raw
        trajectory driver): seeding each iteration's μ-bisection from the
        previous iterate is the natural SCF regime, and the bitwise-exact
        cold-start contract matters less inside a fixed-point loop whose
        input matrices change every iteration anyway.  ``observables``
        must include ``"density"`` when given (trajectory contract).

    Returns
    -------
    SCFResult
        Convergence flag, per-iteration histories and the underlying
        trajectory result.
    """
    if mixing <= 0.0 or mixing > 1.0:
        raise ValueError("mixing must lie in (0, 1]")
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    if max_iterations < 1:
        raise ValueError("max_iterations must be at least 1")
    if not callable(update):
        raise TypeError("update must be callable: update(density_ao, i) -> K")

    state = {"K": K0, "mixed": None, "converged": False}
    density_changes: List[float] = []

    def steps(index: int):
        if state["converged"] or index >= max_iterations:
            return None
        return (state["K"], S)

    def on_step(index: int, result) -> None:
        output = np.asarray(result.density_ao, dtype=np.float64)
        if state["mixed"] is None:
            # no input density yet: seed the mix with the first iterate
            density_changes.append(float("inf"))
            state["mixed"] = output
        else:
            change = float(np.abs(output - state["mixed"]).max())
            density_changes.append(change)
            state["mixed"] = (1.0 - mixing) * state["mixed"] + mixing * output
            if change < tolerance:
                state["converged"] = True
                return
        if index + 1 < max_iterations:
            state["K"] = update(state["mixed"], index)

    trajectory = context.trajectory(
        steps,
        blocks,
        mu=mu,
        n_electrons=n_electrons,
        solver=solver,
        warm_start_mu=warm_start_mu,
        observables=observables,
        observable_params=observable_params,
        checkpoint=checkpoint,
        on_step=on_step,
        **trajectory_kwargs,
    )
    return SCFResult(
        converged=bool(state["converged"]),
        n_iterations=len(trajectory.results),
        density_changes=np.asarray(density_changes, dtype=np.float64),
        band_energies=trajectory.band_energies,
        mus=trajectory.mus,
        mixed_density=(
            np.asarray(state["mixed"], dtype=np.float64)
            if state["mixed"] is not None
            else np.zeros((0, 0))
        ),
        trajectory=trajectory,
    )
