"""Emulated reduced/mixed-precision matrix multiplication.

The GPU implementation in the paper uses cuBLAS tensor-core GEMMs in four
precision modes (Sec. VI-A):

* ``FP16``  — half-precision inputs, half-precision accumulation;
* ``FP16'`` — half-precision inputs, single-precision accumulation (the
  tensor cores' mixed mode);
* ``FP32``  — single precision throughout;
* ``FP64``  — double precision throughout.

NumPy emulates these by casting the inputs to the storage dtype, performing
the product in the accumulation dtype and casting the result back to the
storage dtype.  The emulation reproduces the qualitative behaviour that
matters for Figs. 12/13 — the attainable noise floor of each mode and the
fact that FP16/FP16' converge to a plateau rather than to machine precision —
even though the exact rounding sequence of tensor-core hardware differs.

The emulated ``FP16`` is ``FP16'``: both accumulate in float32 and round
the result to float16 once.  NumPy's own float16 ``matmul`` does the same
(bit for bit), only through a slow non-BLAS loop, so ``FP16`` takes the
float32 BLAS route.  No half-precision accumulation is emulated, and the
FP16 and FP16' columns of Figs. 12/13 coincide.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

__all__ = ["PrecisionMode", "PRECISION_MODES", "convert", "gemm"]


@dataclasses.dataclass(frozen=True)
class PrecisionMode:
    """A storage/accumulation precision combination.

    Attributes
    ----------
    name:
        Mode name as used in the paper ("FP16", "FP16'", "FP32", "FP64").
    storage_dtype:
        dtype in which matrices are stored and multiplied.
    accumulate_dtype:
        dtype in which products are accumulated.
    epsilon:
        Unit roundoff of the storage dtype (used by convergence heuristics).
    """

    name: str
    storage_dtype: np.dtype
    accumulate_dtype: np.dtype
    epsilon: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _mode(name: str, storage, accumulate) -> PrecisionMode:
    storage = np.dtype(storage)
    accumulate = np.dtype(accumulate)
    return PrecisionMode(
        name=name,
        storage_dtype=storage,
        accumulate_dtype=accumulate,
        epsilon=float(np.finfo(storage).eps),
    )


#: The four precision modes studied in the paper; ``FP16`` accumulates in
#: float32, so it computes as ``FP16'`` (module docstring).
PRECISION_MODES: Dict[str, PrecisionMode] = {
    "FP16": _mode("FP16", np.float16, np.float32),
    "FP16'": _mode("FP16'", np.float16, np.float32),
    "FP32": _mode("FP32", np.float32, np.float32),
    "FP64": _mode("FP64", np.float64, np.float64),
}


def convert(matrix: np.ndarray, mode: PrecisionMode) -> np.ndarray:
    """Round a matrix to the storage precision of ``mode``."""
    return np.asarray(matrix, dtype=mode.storage_dtype)


def gemm(a: np.ndarray, b: np.ndarray, mode: PrecisionMode) -> np.ndarray:
    """Matrix product in the given precision mode.

    Inputs are rounded to the storage dtype, the product is evaluated in the
    accumulation dtype, and the result is rounded back to the storage dtype
    (so that subsequent operations see storage-precision data, as on the real
    device where the GEMM output is written back to FP16/FP32 buffers).
    ``FP16`` accumulates in float32, so it gives the bits of ``FP16'``.
    """
    a_stored = np.asarray(a, dtype=mode.storage_dtype)
    b_stored = np.asarray(b, dtype=mode.storage_dtype)
    product = np.matmul(
        a_stored.astype(mode.accumulate_dtype, copy=False),
        b_stored.astype(mode.accumulate_dtype, copy=False),
    )
    return product.astype(mode.storage_dtype, copy=False)
