"""Hardware-acceleration emulation (Sec. VI of the paper).

The submatrix method turns the sparse, distributed sign-function evaluation
into dense matrix algebra on local submatrices, which maps naturally onto
GPUs (tensor cores) and FPGAs and tolerates reduced precision.  The paper
studies a third-order Padé sign iteration executed in half (FP16), mixed
(FP16 multiply / FP32 accumulate, "FP16'"), single (FP32) and double (FP64)
precision on an RTX 2080 Ti and in FP32 on a Stratix 10 FPGA.

Without that hardware, this subpackage reproduces

* the *numerics*: :mod:`repro.accel.precision` emulates the reduced-precision
  GEMMs with NumPy dtype arithmetic (its FP16 computes as FP16'), and
  :func:`repro.signfn.sign_pade` runs the third-order iteration through them
  (``precision=``), recording the per-iteration energy (Fig. 12) and the
  involutority violation ‖X²−I‖_F (Fig. 13);
* the *performance accounting*: :mod:`repro.accel.perf_model` reproduces
  Table I (peak vs. practical GEMM vs. end-to-end sign-algorithm throughput)
  from an analytic device model parameterised with the published device
  characteristics.
"""

from repro.accel.precision import PrecisionMode, gemm, convert, PRECISION_MODES
from repro.accel.perf_model import (
    DeviceSpec,
    SignAlgorithmPerformance,
    RTX_2080_TI,
    STRATIX_10,
    model_sign_algorithm_performance,
    performance_table,
)

__all__ = [
    "PrecisionMode",
    "PRECISION_MODES",
    "gemm",
    "convert",
    "DeviceSpec",
    "SignAlgorithmPerformance",
    "RTX_2080_TI",
    "STRATIX_10",
    "model_sign_algorithm_performance",
    "performance_table",
]
