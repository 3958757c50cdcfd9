"""Labeled synthetic EEG: sinusoid mixtures with class-dependent band tones."""

from __future__ import annotations

import csv
import json
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .signal_io import Recording, load_container, save_container
from .topology import get_montage

# one tone per class, each sitting in a different canonical frequency band
CLASS_TONES = {"class-a": 6.0, "class-b": 10.0, "class-c": 20.0}

DATASET_MANIFEST = "dataset.json"
LABELS_FILE = "labels.csv"


def class_tone(label: str) -> float:
    """The tone frequency of class `label`; ConfigError for a class with none."""
    if label not in CLASS_TONES:
        raise ConfigError(f"unknown class {label!r}; valid classes: {sorted(CLASS_TONES)}")
    return CLASS_TONES[label]


def make_recording(
    label: str,
    channels: tuple[str, ...],
    rng: np.random.Generator,
    fs: float = 200.0,
    seconds: float = 2.0,
    noise: float = 0.25,
) -> Recording:
    """One sample: class tone + class-neutral slow drift + white noise."""
    tone = class_tone(label)
    t = np.arange(int(round(fs * seconds))) / fs
    if t.size < 1:
        raise ConfigError(f"duration {seconds}s at {fs} Hz yields no samples")
    data = np.empty((len(channels), t.size))
    for c in range(len(channels)):
        phase = rng.uniform(0.0, 2.0 * np.pi)
        drift_phase = rng.uniform(0.0, 2.0 * np.pi)
        data[c] = (
            np.sin(2.0 * np.pi * tone * t + phase)
            + 0.2 * np.sin(2.0 * np.pi * 1.5 * t + drift_phase)
            + noise * rng.standard_normal(t.size)
        )
    return Recording(channels=channels, fs=fs, data=data)


def make_dataset(
    out_dir: str | Path,
    n_per_class: int = 8,
    classes: tuple[str, ...] = ("class-a", "class-b", "class-c"),
    montage: str | None = "synthetic-4",
    fs: float = 200.0,
    seconds: float = 2.0,
    noise: float = 0.25,
    seed: int = 0,
) -> dict:
    """Write a labeled dataset directory: containers + labels.csv + dataset.json."""
    if n_per_class < 1:
        raise ConfigError(f"n_per_class must be >= 1, got {n_per_class}")
    for name, value, zero_ok in (("fs", fs, False), ("seconds", seconds, False), ("noise", noise, True)):
        if not (np.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
            raise ConfigError(f"{name} must be finite and {'>= 0' if zero_ok else '> 0'}, got {value}")
    if not 0.5 < fs * seconds < np.inf:  # round(fs * seconds) samples, at least one
        raise ConfigError(f"duration {seconds}s at {fs} Hz yields {fs * seconds:g} samples, not at least one")
    for label in classes:
        class_tone(label)
    channels = get_montage(montage).labels
    root = Path(out_dir)
    if root.is_dir() and any(
        p.name in (LABELS_FILE, DATASET_MANIFEST) or (p / "manifest.json").is_file() for p in root.iterdir()
    ):
        raise ConfigError(f"{root} already holds a dataset: synth into an --out that holds none")
    root.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    names, labels = [], []
    for i in range(n_per_class * len(classes)):
        label = classes[i % len(classes)]
        name = f"sample_{i:04d}"
        rec = make_recording(label, channels, rng, fs=fs, seconds=seconds, noise=noise)
        save_container(rec, root / name)
        names.append(name)
        labels.append(label)
    with open(root / LABELS_FILE, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["name", "label"])
        writer.writerows(zip(names, labels))
    manifest = {
        "classes": list(classes),
        "montage": montage,
        "fs": fs,
        "seconds": seconds,
        "noise": noise,
        "seed": seed,
        "n_per_class": n_per_class,
        "samples": names,
    }
    (root / DATASET_MANIFEST).write_text(json.dumps(manifest, indent=2))
    return manifest


def read_labels(dataset_dir: str | Path) -> dict[str, tuple[str, int]]:
    """Read labels.csv as {sample name: (label, line number)}; a sample
    named twice is refused."""
    path = Path(dataset_dir) / LABELS_FILE
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            rows = [(reader.line_num, row) for row in reader]
    except OSError as e:
        raise DataError(f"cannot read label file {path}: {e}") from e
    if not rows or rows[0][1] != ["name", "label"]:
        raise DataError(f"label file {path} must start with a 'name,label' header")
    out: dict[str, tuple[str, int]] = {}
    for line, row in rows[1:]:
        if len(row) != 2:
            raise DataError(f"malformed label row {row!r} in {path}")
        name, label = row
        if name in out:
            raise DataError(
                f"label file {path} names sample {name!r} twice, on lines {out[name][1]} and {line}"
            )
        out[name] = (label, line)
    return out


class Corpus(Sequence):
    """A dataset's containers in name order with their labels. An entry is
    a (name, Recording, label) triple whose recording is read from disk each
    time the entry is accessed and is not kept, so iterating holds one
    recording at a time. A slice is a Corpus of the same entries."""

    def __init__(self, sample_dirs: list[Path], labels: list[str | None]):
        self.sample_dirs, self.labels = sample_dirs, labels

    def __len__(self) -> int:
        return len(self.sample_dirs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Corpus(self.sample_dirs[i], self.labels[i])
        return self.sample_dirs[i].name, load_container(self.sample_dirs[i]), self.labels[i]


def load_corpus(dataset_dir: str | Path, classes: Sequence[str] | None = None) -> Corpus:
    """List the containers under a dataset directory with their labels,
    reading no recording. With `classes`, labels.csv must name every
    container once, each with one of `classes`, and no sample without one."""
    root = Path(dataset_dir)
    if not root.is_dir():
        raise DataError(f"dataset directory {root} does not exist")
    sample_dirs = sorted(p for p in root.iterdir() if (p / "manifest.json").is_file())
    if not sample_dirs:
        raise DataError(f"no containers found under {root}")
    labels: dict[str, tuple[str, int]] = {}
    if (root / LABELS_FILE).is_file():
        labels = read_labels(root)
    elif classes is not None:
        raise DataError(f"dataset {root} has no {LABELS_FILE}")
    out = []
    for sample in sample_dirs:
        label, _ = labels.pop(sample.name, (None, 0))
        if classes is not None and label is None:
            raise DataError(f"sample {sample.name!r} missing from {LABELS_FILE}")
        if classes is not None and label not in classes:
            raise DataError(
                f"label {label!r} of sample {sample.name!r} not in configured classes {list(classes)}"
            )
        out.append(label)
    if classes is not None and labels:  # what is left names no container
        name, (_, line) = next(iter(labels.items()))
        raise DataError(
            f"label file {root / LABELS_FILE} names sample {name!r} on line {line}, "
            f"which has no container in {root}"
        )
    return Corpus(sample_dirs, out)
