"""Checkpoint format: JSON manifest + sibling little-endian float32 blob.

The manifest records the dtype (`"dtype": "<f4"`) and lists (name, shape, offset)
per entry, with offsets in bytes into `weights.bin`, in manifest order. Values load
back as stored, float32. Writes go to temporary names first and are renamed into
place, weights before manifest, so a complete manifest implies a complete
checkpoint. A checkpoint written over an older one first removes the old
manifest, so a write stopped between the two renames leaves weights without
a manifest, which `load_checkpoint` refuses, rather than new weights under
an old manifest.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import DataError, read_json_object

MANIFEST = "manifest.json"
WEIGHTS = "weights.bin"
DTYPE = "<f4"  # of every stored value


def save_checkpoint(path: str | Path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named arrays plus JSON-safe metadata to a checkpoint directory."""
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    offset = 0
    blobs = []
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype=DTYPE)  # a float32 tensor as it is
        entries.append({"name": name, "shape": list(data.shape), "offset": offset})
        blobs.append(data)
        offset += data.nbytes
    manifest = {"dtype": DTYPE, "params": entries, "meta": meta or {}}

    tmp_weights = root / (WEIGHTS + ".tmp")
    tmp_manifest = root / (MANIFEST + ".tmp")
    with open(tmp_weights, "wb") as f:
        f.writelines(blobs)
    tmp_manifest.write_text(json.dumps(manifest, indent=1))
    (root / MANIFEST).unlink(missing_ok=True)
    os.replace(tmp_weights, root / WEIGHTS)
    os.replace(tmp_manifest, root / MANIFEST)


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint directory back as float32 arrays plus metadata."""
    root = Path(path)
    manifest = read_json_object(root / MANIFEST, DataError, "checkpoint manifest")
    if manifest.get("dtype", DTYPE) != DTYPE:  # a manifest without one was written as <f4
        raise DataError(f"checkpoint {root}: dtype {manifest['dtype']!r}, not {DTYPE!r}")
    try:
        raw = np.fromfile(root / WEIGHTS, dtype=np.uint8)
    except OSError as e:
        raise DataError(f"cannot read checkpoint weights in {root}: {e}") from e
    arrays: dict[str, np.ndarray] = {}
    for entry in manifest.get("params", []):
        try:
            name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        except (KeyError, TypeError) as e:
            raise DataError(f"checkpoint {root}: malformed manifest entry {entry!r}") from e
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise DataError(f"checkpoint {root}: entry {name!r} has shape {shape!r}, not a list of sizes >= 0")
        if type(offset) is not int or offset % 4:
            raise DataError(f"checkpoint {root}: entry {name!r} has offset {offset!r}, not a multiple of 4 bytes")
        end = offset + 4 * math.prod(shape)
        if offset < 0 or end > len(raw):
            raise DataError(
                f"checkpoint {root}: entry {name!r} spans bytes {offset} to {end}, "
                f"file holds {len(raw)}"
            )
        arrays[name] = raw[offset:end].view(DTYPE).reshape(shape)
    return arrays, manifest.get("meta", {})


def assign_parameters(params: dict[str, "object"], arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays, in place, into an in-memory named-parameter dict (all of them)."""
    missing = [k for k in params if k not in arrays]
    if missing:
        raise DataError(f"checkpoint missing parameters: {missing[:5]}{'...' if len(missing) > 5 else ''}")
    for name, tensor in params.items():
        arr = arrays[name]
        if tuple(tensor.data.shape) != tuple(arr.shape):
            raise DataError(
                f"checkpoint shape mismatch for {name!r}: "
                f"model {tensor.data.shape} vs file {arr.shape}"
            )
        tensor.data[...] = arr
