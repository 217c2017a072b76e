#!/usr/bin/env python
"""One decomposition pass, many observables: PDOS, band energy, SCF.

The submatrix method evaluates a matrix function of the Hamiltonian
through independent dense submatrix solves; once the per-submatrix
eigendecompositions are cached, *every* spectral observable is one cheap
assembly away.  This example walks the observable layer on the
32-molecule water system:

1. **a multi-observable request** — ``context.observables(...)`` computes
   {density, pdos, energy_weighted_density} from a single decomposition
   pass (``stack_decompositions`` counts the eigh passes — the same as a
   density-only call),
2. **the projected density of states** — Gaussian-broadened from the
   generating-row spectral weights, integrating back to the electron
   count Algorithm 1's μ-bisection targeted,
3. **the band-structure energy two ways** — g_s·Tr(D_AO K) from the
   density and g_s·Tr(W) from the energy-weighted density matrix,
4. **a density-mixing SCF loop** — caller code iterating
   K(D) = K₀ + c·diag(diag D) to self-consistency, one ``ctx.density``
   call per iteration on the same session (one plan, one overlap root).

Run with:  python examples/observables.py
"""

import numpy as np
import scipy.sparse as sp

from repro.api import EngineConfig, SubmatrixContext
from repro.chem import build_matrices, water_box
from repro.chem.basis import SZV

N_ELECTRONS = 8.0 * 32


def main() -> None:
    pair = build_matrices(water_box(1), basis=SZV)
    config = EngineConfig(engine="batched", backend="thread")

    with SubmatrixContext(config) as ctx:
        # ------------------------------------------------------------ #
        # 1. three observables, one decomposition pass
        # ------------------------------------------------------------ #
        bundle = ctx.observables(
            pair.K,
            pair.S,
            pair.blocks,
            observables=("density", "pdos", "energy_weighted_density"),
            n_electrons=N_ELECTRONS,
            observable_params={"pdos": {"broadening": 0.05, "n_points": 500}},
        )
        print(
            f"observables: {', '.join(bundle.observables)}  "
            f"(eigendecomposition passes: {bundle.stack_decompositions})"
        )
        density = bundle["density"]
        print(
            f"mu = {density.mu:+.6f} Ha after {density.mu_iterations} "
            f"bisection steps, N_e = {density.n_electrons:.6f}\n"
        )

        # ------------------------------------------------------------ #
        # 2. the projected density of states
        # ------------------------------------------------------------ #
        pdos = bundle["pdos"]
        occupied = pdos.energies <= pdos.mu
        print(
            f"pdos grid: {len(pdos.energies)} points on "
            f"[{pdos.energies[0]:+.2f}, {pdos.energies[-1]:+.2f}] Ha, "
            f"broadening {pdos.broadening} Ha"
        )
        print(
            f"integrated DOS = {pdos.integrated_states():.3f} states "
            f"(g_s x n_orbitals = {2 * pair.blocks.n_basis})"
        )
        print(
            f"electron count from spectral weights = {pdos.n_electrons:.6f} "
            f"(target {N_ELECTRONS})"
        )
        peak = pdos.energies[np.argmax(pdos.dos * occupied)]
        print(f"strongest occupied DOS peak at {peak:+.3f} Ha\n")

        # ------------------------------------------------------------ #
        # 3. the band-structure energy, two ways
        # ------------------------------------------------------------ #
        weighted = bundle["energy_weighted_density"]
        print(f"E_band from Tr(D K):  {density.band_energy:+.9f} Ha")
        print(f"E_band from Tr(W):    {weighted.band_energy:+.9f} Ha")
        print(
            "difference:           "
            f"{abs(density.band_energy - weighted.band_energy):.2e} Ha\n"
        )

        # ------------------------------------------------------------ #
        # 4. a density-mixing SCF loop
        # ------------------------------------------------------------ #
        # toy self-consistency: an on-site potential proportional to the
        # local charge (symmetric, density-dependent, contractive), with
        # linear mixing D_in <- (1 - a)·D_in + a·D_out until max|dD| < tol
        coupling, mixing, tolerance, max_iterations = 0.05, 0.6, 1e-7, 30
        K, mixed, converged = pair.K, None, False
        cache_before = ctx.plan_cache.stats
        for iteration in range(max_iterations):
            result = ctx.density(K, pair.S, pair.blocks, n_electrons=N_ELECTRONS)
            output = result.density_ao
            if mixed is None:  # no input density yet: seed the mix
                change_text, mixed = "---", output
            else:
                change = float(np.abs(output - mixed).max())
                change_text = f"{change:.3e}"
                mixed = (1.0 - mixing) * mixed + mixing * output
                converged = change < tolerance
            print(
                f"  iter {iteration:2d}: max|dD| = {change_text:>9s}   "
                f"mu = {result.mu:+.6f}   E_band = {result.band_energy:+.6f}"
            )
            if converged:
                break
            K = pair.K + coupling * sp.diags(np.diag(mixed))
        cache = ctx.plan_cache.stats
        print(
            f"SCF {'converged' if converged else 'NOT converged'} in "
            f"{iteration + 1} iterations: "
            f"{cache['misses'] - cache_before['misses']} plan build(s), "
            f"{ctx.stats()['overlap_roots']['misses']} overlap root(s)"
        )


if __name__ == "__main__":
    main()
