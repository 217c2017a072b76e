"""Figure 7 — energy error of submatrix method vs. Newton–Schulz as a
function of eps_filter.

Paper: for the 20,736-atom system, the error in the band-structure energy
(vs. an eps = 1e-15 reference) grows with the filter threshold and is of the
same order for both methods — the additional approximation of the submatrix
method does not degrade the accuracy noticeably.

Reproduction: 64-molecule slab, dense reference, errors for both methods over
a sweep of thresholds.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis import energy_error_per_atom
from repro.chem import orthogonalized_ks, reference_density_matrix
from repro.chem.density import band_structure_energy, density_from_sign
from repro.api import EngineConfig, SubmatrixContext
from repro.signfn import sign_newton_schulz_filtered_dense

from common import report

FILTER_THRESHOLDS = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8]


def run_figure7(system, pair, mu):
    reference = reference_density_matrix(pair.K, pair.S, mu=mu)
    rows = []
    for eps in FILTER_THRESHOLDS:
        submatrix = SubmatrixContext(EngineConfig(eps_filter=eps)).density(
            pair.K, pair.S, pair.blocks, mu=mu
        )
        submatrix_error = energy_error_per_atom(
            submatrix.band_energy, reference.band_energy, system.n_atoms
        )

        k_ortho, s_inv_sqrt = orthogonalized_ks(pair.K, pair.S, eps_filter=eps)
        n = k_ortho.shape[0]
        shifted = (k_ortho - mu * sp.identity(n, format="csr")).tocsr()
        sign = sign_newton_schulz_filtered_dense(shifted, eps_filter=eps).sign
        density = density_from_sign(sign, s_inv_sqrt)
        newton_energy = band_structure_energy(density, pair.K.toarray())
        newton_error = energy_error_per_atom(
            newton_energy, reference.band_energy, system.n_atoms
        )
        rows.append([eps, submatrix_error, newton_error])
    return rows


@pytest.mark.benchmark(group="fig07")
def test_fig07_energy_error_vs_filter(benchmark, water64_pair, gap_mu):
    system, pair = water64_pair
    rows = benchmark.pedantic(
        lambda: run_figure7(system, pair, gap_mu), rounds=1, iterations=1
    )
    report(
        "fig07_energy_error_vs_filter",
        ["eps_filter", "submatrix (meV/atom)", "newton-schulz (meV/atom)"],
        rows,
        f"Figure 7: |energy error| vs. eps_filter ({system.n_atoms} atoms)",
    )
    rows = np.array(rows, dtype=float)
    # errors grow with the threshold for both methods
    assert rows[0, 1] > rows[-1, 1]
    assert rows[0, 2] > rows[-1, 2]
    # the submatrix method's worst-case error over the sweep is comparable to
    # Newton-Schulz's (within ~1.5 orders of magnitude, as in the paper where
    # both methods show errors of the same order)
    assert rows[:, 1].max() < 30.0 * rows[:, 2].max() + 1e-9
