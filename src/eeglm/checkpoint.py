"""Checkpoint format: JSON manifest + sibling little-endian float32 blob.

The manifest lists (name, shape, offset) per entry, with offsets in bytes
into `weights.bin`, in manifest order. Values are stored as f32 and upcast
to f64 on load. Writes go to temporary names first and are renamed into
place, weights before manifest, so a complete manifest implies a complete
checkpoint.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .errors import DataError

MANIFEST = "manifest.json"
WEIGHTS = "weights.bin"


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named arrays plus JSON-safe metadata to a checkpoint directory."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    blobs = []
    for name, arr in arrays.items():
        data = np.ascontiguousarray(np.asarray(arr, dtype=np.float64), dtype="<f4")
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        blobs.append(data.tobytes())
        offset += data.nbytes
    manifest = {"params": entries, "meta": meta or {}}

    tmp_weights = root / (WEIGHTS + ".tmp")
    tmp_manifest = root / (MANIFEST + ".tmp")
    with open(tmp_weights, "wb") as f:
        for blob in blobs:
            f.write(blob)
    tmp_manifest.write_text(json.dumps(manifest, indent=1))
    os.replace(tmp_weights, root / WEIGHTS)
    os.replace(tmp_manifest, root / MANIFEST)


def _read_manifest(root: Path) -> dict:
    try:
        return json.loads((root / MANIFEST).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DataError(f"cannot read checkpoint manifest in {root}: {e}") from e


def load_meta(path: str | Path) -> dict:
    """A checkpoint's metadata, read from its manifest alone."""
    return _read_manifest(Path(path)).get("meta", {})


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint directory back as float64 arrays plus metadata."""
    root = Path(path)
    manifest = _read_manifest(root)
    try:
        raw = (root / WEIGHTS).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read checkpoint weights in {root}: {e}") from e
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest.get("params", []):
        name, shape, offset = entry["name"], tuple(entry["shape"]), int(entry["offset"])
        count = int(np.prod(shape)) if shape else 1
        end = offset + 4 * count
        if end > len(raw):
            raise DataError(
                f"checkpoint {root}: entry {name!r} extends to byte {end}, "
                f"file holds {len(raw)}"
            )
        flat = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
        arrays[name] = flat.astype(np.float64).reshape(shape)
    return arrays, manifest.get("meta", {})


def assign_parameters(params: dict[str, "object"], arrays: dict[str, np.ndarray], strict: bool = True) -> None:
    """Copy checkpoint arrays into an in-memory named-parameter dict."""
    missing = [k for k in params if k not in arrays]
    if strict and missing:
        raise DataError(f"checkpoint missing parameters: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    for name, tensor in params.items():
        if name not in arrays:
            continue
        arr = arrays[name]
        if tuple(tensor.data.shape) != tuple(arr.shape):
            raise DataError(
                f"checkpoint shape mismatch for {name!r}: "
                f"model {tensor.data.shape} vs file {arr.shape}"
            )
        tensor.data = arr.copy()
