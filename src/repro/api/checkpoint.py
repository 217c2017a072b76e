"""Trajectory checkpointing: persist per-step results, resume after a crash.

A :class:`TrajectoryCheckpoint` is a directory holding one ``.npz`` file per
completed trajectory step plus a small ``trajectory.json`` manifest.  The
trajectory driver (:func:`repro.api.trajectory.run_trajectory`) saves every
step as soon as it completes and, on a later run pointed at the same
directory, *loads* the saved steps instead of recomputing them — so a
trajectory killed at step k resumes at step k, and the resumed run's
results are **bitwise identical** to an uninterrupted one:

* the density matrices and every scalar are stored as float64 NumPy arrays
  (``.npz`` round-trips them bit-exactly, no text formatting involved);
* the previous step's μ — the seed of a warm-started μ-bisection — and the
  previous pattern fingerprint are restored from the loaded result, so the
  first recomputed step sees exactly the state it would have seen had the
  earlier steps just run.

Step files are written atomically (temporary file + ``os.replace``), so a
crash *during* a save leaves either the complete previous state or the
complete new state — never a torn file.  The manifest records its format
version and a caller ``signature`` of the trajectory's parameters; a manifest
that is not a JSON object, carries another version, or was written with
different parameters (a different solver, ensemble or step count) raises
:class:`CheckpointError` instead of silently splicing incompatible steps.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.api.observables import get_observable
from repro.api.results import ObservableBundle, SubmatrixDFTResult

__all__ = ["TrajectoryCheckpoint", "CheckpointError"]

_MANIFEST = "trajectory.json"
_VERSION = 1

#: Key prefix of per-observable arrays inside a step ``.npz``
#: (``obs_<name>__<suffix>``); the density observable keeps the checkpoint's
#: native flat layout so density-only files stay readable by older code.
_OBS_PREFIX = "obs_"
_OBS_SEPARATOR = "__"


class CheckpointError(RuntimeError):
    """A checkpoint directory is unusable for the requested trajectory.

    Raised when the manifest is unreadable, of another format version, or
    its parameter signature does not match the resuming trajectory's, or
    when a step file is missing or corrupt.
    """


def _float_or_nan(value: Optional[float]) -> float:
    return float("nan") if value is None else float(value)


def _nan_to_none(value: float) -> Optional[float]:
    return None if np.isnan(value) else float(value)


class TrajectoryCheckpoint:
    """Directory-backed store of per-step trajectory results.

    Parameters
    ----------
    path:
        Checkpoint directory; created (including parents) on first use.
        An existing directory is resumed from.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self._signature_json: Optional[str] = None
        manifest = self._read_manifest()
        if manifest is not None:
            saved = manifest.get("signature")
            if isinstance(saved, dict):
                # manifests written while trajectories still took a replan
                # mode record it; the modes never differed in a single bit,
                # so such a directory resumes whatever it says
                saved = {k: v for k, v in saved.items() if k != "replan"}
            self._signature_json = json.dumps(saved, sort_keys=True)

    # ------------------------------------------------------------------ #
    # manifest
    # ------------------------------------------------------------------ #
    def _manifest_path(self) -> Path:
        return self.path / _MANIFEST

    def _read_manifest(self) -> Optional[Dict]:
        manifest_path = self._manifest_path()
        if not manifest_path.exists():
            return None
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, ValueError) as error:
            raise CheckpointError(
                f"unreadable checkpoint manifest {manifest_path}: {error!r}"
            ) from error
        if not isinstance(manifest, dict):
            raise CheckpointError(
                f"checkpoint manifest {manifest_path} holds a JSON "
                f"{type(manifest).__name__}, not an object"
            )
        if manifest.get("version") != _VERSION:
            raise CheckpointError(
                f"checkpoint manifest {manifest_path} has format version "
                f"{manifest.get('version')!r}; this code reads version {_VERSION}"
            )
        return manifest

    def _write_manifest(self, signature) -> None:
        payload = {"version": _VERSION, "signature": signature}
        self._atomic_write_text(
            self._manifest_path(), json.dumps(payload, sort_keys=True, indent=2)
        )

    def _atomic_write_text(self, target: Path, text: str) -> None:
        descriptor, tmp_name = tempfile.mkstemp(
            dir=str(self.path), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, target)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    def ensure_signature(self, signature) -> None:
        """Bind this checkpoint to one trajectory parameter signature.

        The first call records ``signature`` (any JSON-serializable value)
        in the manifest; later calls — including from a resuming process —
        must present an equal signature or :class:`CheckpointError` is
        raised, so saved steps are never spliced into a trajectory with
        different parameters.
        """
        incoming = json.dumps(signature, sort_keys=True)
        if self._signature_json is None:
            self._write_manifest(signature)
            self._signature_json = incoming
            return
        if incoming != self._signature_json:
            raise CheckpointError(
                f"checkpoint {self.path} was written by a trajectory with "
                f"different parameters (saved signature "
                f"{self._signature_json}, requested {incoming}); use a "
                "fresh checkpoint directory"
            )

    # ------------------------------------------------------------------ #
    # steps
    # ------------------------------------------------------------------ #
    def _step_path(self, index: int) -> Path:
        return self.path / f"step_{int(index):05d}.npz"

    def has_step(self, index: int) -> bool:
        """Whether step ``index`` has a completed, saved result."""
        return self._step_path(index).exists()

    @property
    def n_saved_steps(self) -> int:
        """Number of contiguously saved steps starting at step 0."""
        count = 0
        while self.has_step(count):
            count += 1
        return count

    def save_step(self, index: int, result) -> None:
        """Persist one step's result (atomic; safe against crashes).

        Accepts a plain :class:`SubmatrixDFTResult` or an
        :class:`~repro.api.results.ObservableBundle`.  A bundle is stored
        in the checkpoint's native density layout plus an ``observables``
        name array and per-observable ``obs_<name>__<suffix>`` arrays
        (serialized through the observable's ``checkpoint_save`` hook), so
        a density-only step file is byte-layout identical to one written
        before multi-observable trajectories existed.
        """
        bundle: Optional[ObservableBundle] = None
        if isinstance(result, ObservableBundle):
            bundle = result
            result = bundle.results["density"]
        ortho = sp.csr_matrix(result.density_ortho)
        arrays = {
            "density_ao": np.asarray(result.density_ao, dtype=np.float64),
            "ortho_data": np.asarray(ortho.data, dtype=np.float64),
            "ortho_indices": np.asarray(ortho.indices, dtype=np.int64),
            "ortho_indptr": np.asarray(ortho.indptr, dtype=np.int64),
            "ortho_shape": np.asarray(ortho.shape, dtype=np.int64),
            "dimensions": np.asarray(
                result.submatrix_dimensions, dtype=np.int64
            ),
            "scalars": np.asarray(
                [
                    result.mu,
                    result.n_electrons,
                    result.band_energy,
                    result.eps_filter,
                    result.wall_time,
                    _float_or_nan(result.segment_fetch_bytes),
                    _float_or_nan(result.block_fetch_bytes),
                ],
                dtype=np.float64,
            ),
            # slots 2, 3 and 5 are retired (always 0, ignored on load); the
            # layout stays what older code reads and writes
            "counters": np.asarray(
                [
                    result.mu_iterations,
                    result.n_ranks,
                    0,
                    0,
                    result.kernel_fallbacks,
                    0,
                ],
                dtype=np.int64,
            ),
            "fingerprint": np.asarray(result.pattern_fingerprint or ""),
        }
        if bundle is not None:
            arrays["observables"] = np.asarray(list(bundle.observables))
            arrays["bundle_counters"] = np.asarray(
                [int(bundle.stack_decompositions)], dtype=np.int64
            )
            for name in bundle.observables:
                if name == "density":
                    continue
                for suffix, array in get_observable(name).checkpoint_save(
                    bundle.results[name]
                ).items():
                    arrays[f"{_OBS_PREFIX}{name}{_OBS_SEPARATOR}{suffix}"] = (
                        np.asarray(array)
                    )
        target = self._step_path(index)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=str(self.path), prefix=target.name, suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                np.savez(handle, **arrays)
            os.replace(tmp_name, target)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise

    def load_step(self, index: int):
        """Reconstruct one step's result, bit-exact to what was saved.

        Step files written with an ``observables`` name array come back as
        :class:`~repro.api.results.ObservableBundle` objects (each
        observable deserialized through its ``checkpoint_load`` hook);
        files without it — every file written before multi-observable
        trajectories existed — come back as plain
        :class:`SubmatrixDFTResult` objects exactly as before.  A file that
        cannot be read back whole — truncated, a missing array, an unknown
        observable — raises :class:`CheckpointError`.
        """
        step_path = self._step_path(index)
        if not step_path.exists():
            raise CheckpointError(
                f"checkpoint {self.path} has no saved step {index}"
            )
        try:
            with np.load(step_path, allow_pickle=False) as data:
                arrays = {key: np.array(data[key]) for key in data.files}
            return _step_from_arrays(arrays)
        except (
            OSError, ValueError, KeyError, IndexError, zipfile.BadZipFile
        ) as error:
            raise CheckpointError(
                f"corrupt checkpoint step file {step_path}: {error!r}"
            ) from error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TrajectoryCheckpoint(path={str(self.path)!r}, "
            f"n_saved_steps={self.n_saved_steps})"
        )


def _step_from_arrays(arrays: Dict[str, np.ndarray]):
    """The result :meth:`TrajectoryCheckpoint.save_step` stored as ``arrays``."""
    scalars = np.asarray(arrays["scalars"], dtype=np.float64)
    counters = np.asarray(arrays["counters"], dtype=np.int64)
    density = SubmatrixDFTResult(
        density_ao=np.asarray(arrays["density_ao"], dtype=np.float64),
        density_ortho=sp.csr_matrix(
            (arrays["ortho_data"], arrays["ortho_indices"], arrays["ortho_indptr"]),
            shape=tuple(int(n) for n in arrays["ortho_shape"]),
        ),
        mu=float(scalars[0]),
        n_electrons=float(scalars[1]),
        band_energy=float(scalars[2]),
        submatrix_dimensions=[int(d) for d in arrays["dimensions"]],
        mu_iterations=int(counters[0]),
        eps_filter=float(scalars[3]),
        wall_time=float(scalars[4]),
        n_ranks=int(counters[1]),
        pattern_fingerprint=str(arrays["fingerprint"]) or None,
        segment_fetch_bytes=_nan_to_none(scalars[5]),
        block_fetch_bytes=_nan_to_none(scalars[6]),
        kernel_fallbacks=int(counters[4]),
    )
    if "observables" not in arrays:
        return density
    names = tuple(str(name) for name in arrays["observables"])
    by_observable: Dict[str, Dict[str, np.ndarray]] = {}
    for key, array in arrays.items():
        if key.startswith(_OBS_PREFIX):
            name, _, suffix = key[len(_OBS_PREFIX) :].partition(_OBS_SEPARATOR)
            by_observable.setdefault(name, {})[suffix] = array
    return ObservableBundle(
        results={
            name: density
            if name == "density"
            else get_observable(name).checkpoint_load(by_observable.get(name, {}))
            for name in names
        },
        observables=names,
        stack_decompositions=int(arrays["bundle_counters"][0]),
    )
