"""Checkpoint format: JSON manifest + sibling little-endian float32 blob.

The manifest records the dtype (`"dtype": "<f4"`) and lists (name, shape, offset)
per entry, with offsets in bytes into `weights.bin`: the entries tile the file in
manifest order, each starting where the one before it ends. Values load back as
stored, float32, one entry at a time as they are looked up. Writes go to
temporary names first and are renamed into place, weights before manifest, so
a complete manifest implies a complete checkpoint. A checkpoint written over an
older one first removes the old manifest, so a write stopped between the two
renames leaves weights without a manifest, which `load_checkpoint` refuses,
rather than new weights under an old manifest.
"""

from __future__ import annotations

import json
import math
import os
import weakref
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from .errors import DataError, read_json_object

MANIFEST = "manifest.json"
WEIGHTS = "weights.bin"
DTYPE = "<f4"  # of every stored value


def save_checkpoint(path: str | Path, arrays: Mapping[str, np.ndarray], meta: dict | None = None) -> None:
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


class Entries(Mapping):
    """A checkpoint's arrays by name, in manifest order. Looking an entry up
    reads it from `weights.bin` into a new float32 array, which is not kept,
    so copying the entries into a model holds one of them at a time. Every
    lookup reads through the one file handle the load opened."""

    def __init__(self, weights, index: dict[str, tuple[list[int], int]]):
        self._weights, self._index = weights, index
        weakref.finalize(self, weights.close)

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self):
        return iter(self._index)

    def __contains__(self, name) -> bool:
        return name in self._index  # without reading the entry

    def __getitem__(self, name: str) -> np.ndarray:
        shape, offset = self._index[name]
        out = np.empty(shape, dtype=DTYPE)
        self._weights.seek(offset)
        if self._weights.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
            raise DataError(f"{self._weights.name}: entry {name!r} was cut short after the load")
        return out


def load_checkpoint(path: str | Path) -> tuple[Entries, dict]:
    """Check a checkpoint's manifest against its `weights.bin` and return its
    entries, read on access, plus metadata. The entries must have unique
    names and tile `weights.bin` in manifest order, from byte 0 to its end,
    as `save_checkpoint` writes them; no weight is read before all of that
    holds."""
    root = Path(path)
    manifest = read_json_object(root / MANIFEST, DataError, "checkpoint manifest")
    if manifest.get("dtype", DTYPE) != DTYPE:  # a manifest without one was written as <f4
        raise DataError(f"checkpoint {root}: dtype {manifest['dtype']!r}, not {DTYPE!r}")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"checkpoint {root}: meta {meta!r} is not a JSON object")
    try:
        weights = open(root / WEIGHTS, "rb", buffering=0)
    except OSError as e:
        raise DataError(f"cannot read checkpoint weights in {root}: {e}") from e
    try:
        index = _index(root, manifest.get("params", []), os.fstat(weights.fileno()).st_size)
    except BaseException:
        weights.close()
        raise
    return Entries(weights, index), meta


def _index(root: Path, params, size: int) -> dict[str, tuple[list[int], int]]:
    """(shape, offset) by name of the manifest entries `params`, checked to
    tile the `size` bytes of `weights.bin`."""
    index: dict[str, tuple[list[int], int]] = {}
    end = 0
    for entry in params:
        try:
            name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        except (KeyError, TypeError) as e:
            raise DataError(f"checkpoint {root}: malformed manifest entry {entry!r}") from e
        if not isinstance(name, str):
            raise DataError(f"checkpoint {root}: malformed manifest entry {entry!r}")
        if name in index:
            raise DataError(f"checkpoint {root}: the manifest lists entry {name!r} twice")
        if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
            raise DataError(f"checkpoint {root}: entry {name!r} has shape {shape!r}, not a list of sizes >= 0")
        if type(offset) is not int or offset != end:
            raise DataError(
                f"checkpoint {root}: entry {name!r} has offset {offset!r} in {WEIGHTS}, "
                f"not {end}, where the entry before it ends"
            )
        end = offset + 4 * math.prod(shape)
        if end > size:
            raise DataError(
                f"checkpoint {root}: entry {name!r} spans bytes {offset} to {end}, "
                f"{WEIGHTS} holds {size}"
            )
        index[name] = shape, offset
    if end != size:
        last = f"its last entry {next(reversed(index))!r}" if index else "its entries"
        raise DataError(f"checkpoint {root}: {WEIGHTS} holds {size} bytes, but {last} ends at byte {end}")
    return index


def assign_parameters(params: dict[str, "object"], arrays: Mapping[str, np.ndarray]) -> None:
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
