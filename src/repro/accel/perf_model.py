"""Analytic device performance model for the sign algorithm (Table I).

Table I of the paper lists, for an NVIDIA RTX 2080 Ti and four precision
modes, three throughput numbers for a submatrix of dimension 3972: the
device's peak GEMM performance, the practically achieved GEMM performance for
that matrix size, and the end-to-end performance of the full sign algorithm
including type conversions, host–device transfer and convergence tests.  The
text additionally reports the corresponding FP32 numbers for a Stratix 10
FPGA that offloads individual multiplications over an 8-lane PCIe link.

Without the hardware, the reproduction recomputes the end-to-end number from
the published peak/practical GEMM rates and an explicit time accounting of
the non-GEMM steps — the same accounting the paper describes:

    t_total = t_GEMM + t_convert + t_transfer + t_convergence

With the default device parameters this reproduces the shape of Table I: the
faster the GEMMs, the larger the fraction of time lost to conversions and
transfers, so the end-to-end rate saturates well below the practical GEMM
rate for FP16/FP16' while FP64 stays GEMM-bound.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional

from repro.work import gemm_flops

__all__ = [
    "DeviceSpec",
    "SignAlgorithmPerformance",
    "RTX_2080_TI",
    "STRATIX_10",
    "model_sign_algorithm_performance",
    "performance_table",
]

_BYTES_PER_ELEMENT = {"FP16": 2, "FP16'": 2, "FP32": 4, "FP64": 8}


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Characteristics of an accelerator device.

    Parameters
    ----------
    name:
        Device name.
    peak_tflops:
        Theoretical peak GEMM throughput per precision mode (TFLOP/s).
    gemm_tflops:
        Practically achieved GEMM throughput for submatrix-sized GEMMs per
        precision mode (TFLOP/s); taken from the paper's measurements.
    memory_bandwidth:
        Device memory bandwidth (bytes/s), used for type conversions and
        convergence tests.
    interconnect_bandwidth:
        Host–device bandwidth (bytes/s), e.g. PCIe 3.0 x16 ≈ 12 GB/s,
        PCIe 3.0 x8 ≈ 6 GB/s.
    power_watts:
        Board power, used for the energy-efficiency numbers quoted in the
        text (GFLOP/(W·s)).
    offload_granularity:
        ``"algorithm"`` if the full sign iteration runs on the device and
        only the input/output matrices cross the interconnect (the GPU
        implementation), ``"gemm"`` if every individual multiplication is
        shipped to the device and back (the initial FPGA implementation,
        Sec. VI-B).
    """

    name: str
    peak_tflops: Dict[str, float]
    gemm_tflops: Dict[str, float]
    memory_bandwidth: float
    interconnect_bandwidth: float
    power_watts: float
    offload_granularity: str = "algorithm"

    def supports(self, precision: str) -> bool:
        """Whether the device has GEMM rates for the given precision mode."""
        return precision in self.gemm_tflops


#: NVIDIA RTX 2080 Ti (Turing) as characterised in Sec. VI-A / Table I.
RTX_2080_TI = DeviceSpec(
    name="NVIDIA RTX 2080 Ti",
    peak_tflops={"FP16": 108.0, "FP16'": 56.0, "FP32": 13.0, "FP64": 0.5},
    gemm_tflops={"FP16": 56.4, "FP16'": 38.2, "FP32": 12.2, "FP64": 0.5},
    memory_bandwidth=616.0e9,
    interconnect_bandwidth=12.0e9,
    power_watts=250.0,
    offload_granularity="algorithm",
)

#: Bittware 520N board with an Intel Stratix 10 GX 2800 (Sec. VI-B).
STRATIX_10 = DeviceSpec(
    name="Intel Stratix 10 GX 2800 (Bittware 520N)",
    peak_tflops={"FP32": 3.4},
    gemm_tflops={"FP32": 2.7},
    memory_bandwidth=76.8e9,
    interconnect_bandwidth=6.0e9,
    power_watts=110.0,
    offload_granularity="gemm",
)


@dataclasses.dataclass
class SignAlgorithmPerformance:
    """Modelled performance of the sign algorithm on a device."""

    device: str
    precision: str
    matrix_dimension: int
    iterations: int
    peak_tflops: float
    gemm_tflops: float
    overall_tflops: float
    total_seconds: float
    gemm_seconds: float
    conversion_seconds: float
    transfer_seconds: float
    convergence_seconds: float
    gflops_per_watt_second: float


def model_sign_algorithm_performance(
    device: DeviceSpec,
    precision: str,
    matrix_dimension: int = 3972,
    iterations: int = 8,
    order: int = 3,
) -> SignAlgorithmPerformance:
    """Model the end-to-end throughput of the sign algorithm on a device.

    Parameters
    ----------
    device:
        Device specification.
    precision:
        Precision mode ("FP16", "FP16'", "FP32", "FP64").
    matrix_dimension:
        Submatrix dimension n (3972 in the paper: the combined submatrix of
        32 water molecules of the NREP=5 SZV system).
    iterations:
        Sign iterations until convergence (the paper observes 6–8).
    order:
        Order of the Padé iteration (3 → Eq. 19, which needs 3 GEMMs per
        iteration: X², the Horner step and the final X·poly).
    """
    if not device.supports(precision):
        raise ValueError(f"{device.name} has no GEMM rate for {precision}")
    if matrix_dimension < 1 or iterations < 1:
        raise ValueError("matrix_dimension and iterations must be positive")
    n = float(matrix_dimension)
    gemms_per_iteration = order  # X^2, Horner multiply(ies), final X·poly
    flops = gemm_flops(n, n, n) * gemms_per_iteration * iterations
    gemm_seconds = flops / (device.gemm_tflops[precision] * 1e12)

    element_bytes = _BYTES_PER_ELEMENT[precision]
    matrix_bytes = n * n * element_bytes

    # type conversions FP64 <-> storage precision on the device (read + write
    # of both matrices through device memory)
    conversion_seconds = 4.0 * n * n * (8 + element_bytes) / device.memory_bandwidth

    if device.offload_granularity == "algorithm":
        # only the input and output matrices cross the interconnect (FP64)
        transfer_seconds = 2.0 * n * n * 8 / device.interconnect_bandwidth
    else:
        # every GEMM ships two operands in and one result out
        per_gemm = 3.0 * matrix_bytes / device.interconnect_bandwidth
        transfer_seconds = per_gemm * gemms_per_iteration * iterations

    # convergence test per iteration: ||X^2 - I||_F, a memory-bound pass over
    # the already computed X^2
    convergence_seconds = iterations * 2.0 * n * n * element_bytes / device.memory_bandwidth

    total = gemm_seconds + conversion_seconds + transfer_seconds + convergence_seconds
    overall_tflops = flops / total / 1e12
    return SignAlgorithmPerformance(
        device=device.name,
        precision=precision,
        matrix_dimension=matrix_dimension,
        iterations=iterations,
        peak_tflops=device.peak_tflops[precision],
        gemm_tflops=device.gemm_tflops[precision],
        overall_tflops=overall_tflops,
        total_seconds=total,
        gemm_seconds=gemm_seconds,
        conversion_seconds=conversion_seconds,
        transfer_seconds=transfer_seconds,
        convergence_seconds=convergence_seconds,
        gflops_per_watt_second=overall_tflops * 1e3 / device.power_watts,
    )


def performance_table(
    device: DeviceSpec = RTX_2080_TI,
    precisions: Optional[Iterable[str]] = None,
    matrix_dimension: int = 3972,
    iterations: int = 8,
) -> List[SignAlgorithmPerformance]:
    """Rows of Table I: one entry per precision mode of the device."""
    if precisions is None:
        precisions = [p for p in ("FP16", "FP16'", "FP32", "FP64") if device.supports(p)]
    return [
        model_sign_algorithm_performance(
            device, precision, matrix_dimension, iterations
        )
        for precision in precisions
    ]
