#!/usr/bin/env python
"""MD trajectory walkthrough: a caller loop over one session.

The submatrix method's headline workload (Sec. VII of the paper) is the
repeated density-matrix build along an SCF/MD trajectory: every step moves
the atoms a little, so the Kohn–Sham matrix *values* change while the
block-sparsity pattern of the filtered orthogonalized matrix stays fixed
for many consecutive steps.  A plain loop of ``ctx.density`` calls on one
``SubmatrixContext`` gets all of the cross-step reuse:

* the session's plan cache is keyed by the pattern's content hash, so a
  value-only step is a cache hit, a changed pattern is one plan build, and
  a pattern seen before is a hit again — read here from the deltas of
  ``ctx.plan_cache.stats``;
* every result carries that hash (``result.pattern_fingerprint``), so the
  loop sees a pattern change without hashing anything itself;
* every step is bitwise a fresh single-shot call — checked once below
  against a fresh context.

``ctx.trajectory(steps, blocks, ...)`` runs this same loop.  In either, the
session keeps one overlap root S^{-1/2} per content and releases the one a
walk moves away from, so a moving S holds one root.

Run with:  python examples/md_trajectory.py
"""

import numpy as np

from repro.api import EngineConfig, SubmatrixContext
from repro.chem import HamiltonianModel, build_matrices, water_box

#: A filter at which the 32-molecule pattern is genuinely sparse, so a
#: rescaled K keeps other blocks (at 1e-5 every block survives).
EPS_FILTER = 1e-2


def md_steps(pair):
    """Synthetic MD steps ``(K, S)``: three value-only steps, a jump whose
    rescaled K moves blocks across the filter, one more step on the new
    pattern, and a return to the first geometry.

    A real MD engine would rebuild K and S from the moved atoms; scaling K
    reproduces what matters here — values that change every step and a
    pattern that changes only at the jump.
    """
    scales = [1.0, 1.0001, 1.0002, 3.0, 3.0003, 1.0]
    return [(pair.K * scale, pair.S) for scale in scales]


def main() -> None:
    system = water_box(1)
    pair = build_matrices(system, model=HamiltonianModel())
    n_electrons = 8.0 * system.n_molecules
    config = EngineConfig(eps_filter=EPS_FILTER)
    steps = md_steps(pair)

    results, previous = [], None
    with SubmatrixContext(config) as ctx:
        for index, (K, S) in enumerate(steps):
            before = ctx.plan_cache.stats
            result = ctx.density(K, S, pair.blocks, n_electrons=n_electrons)
            built = ctx.plan_cache.stats["misses"] - before["misses"]
            changed = previous is not None and result.pattern_fingerprint != previous
            previous = result.pattern_fingerprint
            results.append(result)
            print(
                f"step {index}: mu = {result.mu:+.6f} Ha, "
                f"plan {'build' if built else 'hit  '}, "
                f"{result.wall_time:.3f} s"
                + ("  <- pattern changed" if changed else "")
            )
        cache = ctx.plan_cache.stats
    print(
        f"\n{len(steps)} canonical steps on {system.n_molecules} molecules: "
        f"{cache['builds']} plan build(s), {cache['hits']} cache hit(s)"
    )

    K, S = steps[3]
    with SubmatrixContext(config) as fresh:
        cold = fresh.density(K, S, pair.blocks, n_electrons=n_electrons)
    identical = (
        np.array_equal(results[3].density_ao, cold.density_ao)
        and results[3].mu == cold.mu
    )
    print(f"step 3 bitwise identical to a fresh context's call: {identical}")
    if not identical:
        raise SystemExit("a step differs from a fresh single-shot call")


if __name__ == "__main__":
    main()
