"""Analysis utilities: sparsity statistics and evaluation metrics."""

from repro.analysis.sparsity import (
    block_occupation,
    submatrix_block_occupation,
    submatrix_element_occupation,
)
from repro.analysis.metrics import (
    energy_error_per_atom,
    parallel_efficiency,
    linear_fit,
    crossover_point,
)

__all__ = [
    "block_occupation",
    "submatrix_block_occupation",
    "submatrix_element_occupation",
    "energy_error_per_atom",
    "parallel_efficiency",
    "linear_fit",
    "crossover_point",
]
