"""The array-backend seam of the execution stack.

Every dense-kernel hot spot of the reproduction — the batched sign
iterations (:mod:`repro.signfn.newton_schulz`, :mod:`repro.signfn.pade`),
the batched eigendecompositions (:mod:`repro.signfn.eigen`) and the
bucketed evaluator (:mod:`repro.core.batch`) — routes its array allocation,
GEMM and ``eigh`` calls through an :class:`ArrayBackend` instead of
module-level ``numpy``.

Two backends ship today:

* ``"numpy"`` (:class:`NumpyBackend`) — the default.  Every method delegates
  to the *identical* NumPy call the kernels used before the seam existed
  (``np.matmul`` is what the ``@`` operator dispatches to), so the default
  path is bitwise identical to the pre-seam code.
* ``"emulated"`` (:class:`~repro.backend.emulated.EmulatedPrecisionBackend`)
  — reduced/mixed precision emulated on CPU via
  :func:`repro.accel.precision.convert` / :func:`repro.accel.precision.gemm`
  (the paper's FP16/FP16'/FP32 tensor-core modes, Sec. VI-A).

Backends produce and consume NumPy-API-compatible arrays (anything that
supports ufunc dispatch works, which is what lets a cupy/torch backend drop
in later through :func:`register_backend` without touching the kernels).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "NUMPY_BACKEND",
    "get_backend",
    "register_backend",
    "available_backends",
]


class ArrayBackend:
    """Protocol of an array backend (the ``xp`` seam).

    Subclasses provide the handful of operations the batched kernels need.
    All of them accept and return NumPy-API-compatible arrays; ``to_numpy``
    is the explicit exit point back to float64 host arrays.

    Attributes
    ----------
    name:
        Registry name of the backend family (``"numpy"``, ``"emulated"``).
    precision:
        The :class:`repro.accel.precision.PrecisionMode` the backend
        computes in, or ``None`` for native float64.
    """

    name: str = "abstract"
    precision = None

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of arrays produced by this backend."""
        raise NotImplementedError

    def asarray(self, a) -> np.ndarray:
        """View/convert ``a`` as a backend array (no copy when possible)."""
        raise NotImplementedError

    def array(self, a) -> np.ndarray:
        """Copy ``a`` into a fresh, writable backend array."""
        raise NotImplementedError

    def empty(self, shape, dtype=None) -> np.ndarray:
        """Uninitialized backend array (``dtype=None`` → storage dtype)."""
        raise NotImplementedError

    def eye(self, n: int) -> np.ndarray:
        """Identity matrix in the backend's storage dtype."""
        raise NotImplementedError

    def matmul(self, a, b) -> np.ndarray:
        """The GEMM seam (batched over leading dimensions)."""
        raise NotImplementedError

    def eigh(self, a) -> Tuple[np.ndarray, np.ndarray]:
        """Symmetric eigendecomposition (batched over leading dimensions)."""
        raise NotImplementedError

    def to_numpy(self, a) -> np.ndarray:
        """Return ``a`` as a host float64 array (no copy when already one)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = f", precision={self.precision.name!r}" if self.precision else ""
        return f"<ArrayBackend {self.name!r}{mode}>"


class NumpyBackend(ArrayBackend):
    """Native float64 NumPy — the default backend.

    Every method is the literal NumPy call the kernels made before the
    backend seam existed (``matmul`` *is* the function behind the ``@``
    operator), which is what keeps the default execution path bitwise
    identical to the pre-seam code.
    """

    name = "numpy"
    precision = None

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64)

    def asarray(self, a) -> np.ndarray:
        return np.asarray(a, dtype=float)

    def array(self, a) -> np.ndarray:
        return np.array(a, dtype=float)

    def empty(self, shape, dtype=None) -> np.ndarray:
        return np.empty(shape, dtype=float if dtype is None else dtype)

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n)

    def matmul(self, a, b) -> np.ndarray:
        return np.matmul(a, b)

    def eigh(self, a) -> Tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(a)

    def to_numpy(self, a) -> np.ndarray:
        return np.asarray(a, dtype=float)


#: The process-wide default backend (stateless, safe to share).
NUMPY_BACKEND = NumpyBackend()

# backend family name -> factory(precision: Optional[str]) -> ArrayBackend
_REGISTRY: Dict[str, Callable[[Optional[str]], ArrayBackend]] = {}
# (family, precision) -> backend instance; backends are stateless, so one
# instance per configuration is shared across threads and sessions
_INSTANCES: Dict[Tuple[str, Optional[str]], ArrayBackend] = {}


def register_backend(
    name: str, factory: Callable[[Optional[str]], ArrayBackend]
) -> None:
    """Register an array-backend family.

    ``factory(precision)`` must return an :class:`ArrayBackend`;
    ``precision`` is the optional precision-mode name forwarded from
    :func:`get_backend` (``None`` when the caller did not ask for one).
    This is the drop-in point for cupy/torch backends.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    _REGISTRY[name] = factory


def available_backends() -> Tuple[str, ...]:
    """Names of the registered backend families."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str = "numpy", precision: Optional[str] = None) -> ArrayBackend:
    """Resolve (and cache) a backend instance.

    Parameters
    ----------
    name:
        Backend family (``"numpy"``, ``"emulated"``, or anything added via
        :func:`register_backend`).
    precision:
        Optional precision-mode name (``"FP16"``, ``"FP16'"``, ``"FP32"``,
        ``"FP64"``) for precision-parameterised backends.  The ``"numpy"``
        backend accepts only ``None``/``"FP64"``.
    """
    key = (name, precision)
    backend = _INSTANCES.get(key)
    if backend is not None:
        return backend
    factory = _REGISTRY.get(name)
    if factory is None:
        raise KeyError(
            f"unknown array backend {name!r}; available: "
            f"{', '.join(available_backends())}"
        )
    backend = factory(precision)
    _INSTANCES[key] = backend
    return backend


def _numpy_factory(precision: Optional[str]) -> ArrayBackend:
    if precision not in (None, "FP64"):
        raise ValueError(
            f"the numpy backend computes in native float64; got "
            f"precision={precision!r} (use the 'emulated' backend for "
            f"reduced precision)"
        )
    return NUMPY_BACKEND


register_backend("numpy", _numpy_factory)
