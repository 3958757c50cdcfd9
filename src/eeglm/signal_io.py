"""EEG ingestion, preprocessing, patching and spectral targets.

The preprocessing chain is: resample to the working rate, band-pass plus
notch filtering (both zero-phase), robust per-channel scaling, then
segmentation into fixed-length non-overlapping patches with one-sided DFT
magnitude targets for the reconstruction objective.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, read_json_object

WORK_FS = 200.0
DEFAULT_BAND = (0.1, 75.0)

# canonical EEG frequency bands (Hz)
FREQ_BANDS = {
    "delta": (0.5, 4.0),
    "theta": (4.0, 8.0),
    "alpha": (8.0, 13.0),
    "beta": (13.0, 30.0),
    "gamma": (30.0, 100.0),
}


@dataclass(frozen=True)
class Recording:
    """An ordered multichannel signal: C x T samples at a fixed rate."""

    channels: tuple[str, ...]
    fs: float
    data: np.ndarray = field(repr=False)
    degenerate: tuple[str, ...] = ()

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DataError(f"recording data must be 2-D (C x T), got {arr.shape}")
        if arr.shape[0] != len(self.channels):
            raise DataError(
                f"{len(self.channels)} channel labels but {arr.shape[0]} data rows"
            )
        if arr.shape[1] < 1:
            raise DataError("recording holds no samples")
        if len(set(self.channels)) != len(self.channels):
            raise DataError("channel labels must be unique")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise DataError(f"sampling rate must be positive and finite, got {self.fs}")
        object.__setattr__(self, "data", arr)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def n_samples(self) -> int:
        return int(self.data.shape[1])


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _check_finite(arr: np.ndarray, source: str) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        c, t = np.argwhere(bad)[0]
        raise DataError(
            f"non-finite sample in {source} at channel {int(c)}, sample {int(t)}"
        )


def load_container(path: str | Path) -> Recording:
    """Load a container directory: manifest.json + signal.bin (f32le, C x T)."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    bin_path = root / "signal.bin"
    manifest = read_json_object(manifest_path, DataError, "manifest")
    for key in ("channels", "fs", "dtype", "samples"):
        if key not in manifest:
            raise DataError(f"manifest {manifest_path} missing field {key!r}")
    if manifest["dtype"] != "f32le":
        raise DataError(f"unsupported dtype {manifest['dtype']!r} in {manifest_path}")
    if not isinstance(manifest["channels"], list):
        raise DataError(f"manifest {manifest_path}: 'channels' must be a list")
    channels = tuple(str(c) for c in manifest["channels"])
    try:
        samples, fs = int(manifest["samples"]), float(manifest["fs"])
    except (TypeError, ValueError) as e:
        raise DataError(f"manifest {manifest_path}: samples and fs must be numbers: {e}") from e
    try:
        raw = np.fromfile(bin_path, dtype="<f4")
    except OSError as e:
        raise DataError(f"cannot read {bin_path}: {e}") from e
    expected = len(channels) * samples
    if raw.size != expected:
        raise DataError(
            f"extent mismatch in {bin_path}: manifest implies {expected} floats "
            f"({len(channels)} channels x {samples} samples), file holds {raw.size}"
        )
    data = raw.astype(np.float64).reshape(len(channels), samples)
    _check_finite(data, str(bin_path))
    return Recording(channels=channels, fs=fs, data=data)


def save_container(rec: Recording, path: str | Path, extra_meta: dict | None = None) -> None:
    """Write a recording as a container directory (f32 on disk).

    `extra_meta` entries (e.g. a preprocessing provenance record) are merged
    into the manifest; they may not shadow the required container fields.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    manifest = {
        "channels": list(rec.channels),
        "fs": rec.fs,
        "dtype": "f32le",
        "samples": rec.n_samples,
    }
    if rec.degenerate:
        manifest["degenerate_channels"] = list(rec.degenerate)
    if extra_meta:
        clash = set(extra_meta) & set(manifest)
        if clash:
            raise ConfigError(f"extra manifest fields shadow container fields: {sorted(clash)}")
        manifest.update(extra_meta)
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))
    rec.data.astype("<f4").tofile(root / "signal.bin")


def load_csv(path: str | Path, fs: float) -> Recording:
    """CSV ingest: mandatory header; first column (time/index) is ignored."""
    p = Path(path)
    try:
        with p.open() as f:
            header = f.readline().strip()
            if not header:
                raise DataError(f"{p}: empty file, header row is mandatory")
            names = [h.strip() for h in header.split(",")]
            if len(names) < 2:
                raise DataError(f"{p}: need a time column plus at least one channel")
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
    except OSError as e:
        raise DataError(f"cannot read {p}: {e}") from e
    except ValueError as e:
        raise DataError(f"{p}: malformed CSV: {e}") from e
    if rows.shape[1] != len(names):
        raise DataError(
            f"{p}: header names {len(names)} columns but rows hold {rows.shape[1]}"
        )
    data = rows[:, 1:].T.astype(np.float64)
    _check_finite(data, str(p))
    return Recording(channels=tuple(names[1:]), fs=fs, data=data)


def load_recording(path: str | Path, fs: float | None = None) -> Recording:
    """Dispatch on path type: container directory or CSV file."""
    p = Path(path)
    if p.is_dir():
        return load_container(p)
    if p.suffix.lower() == ".csv":
        if fs is None:
            raise ConfigError("CSV ingest needs an explicit sampling rate")
        return load_csv(p, fs)
    raise DataError(f"unsupported recording path {p} (container dir or .csv)")


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def resample(rec: Recording, target_fs: float) -> Recording:
    """Polyphase windowed-sinc resampling (Kaiser beta=8.6, 64 taps/phase).

    Output length is floor(T * target_fs / fs); equal rates short-circuit to
    the identity.
    """
    if not (math.isfinite(target_fs) and target_fs > 0):
        raise ConfigError(f"target sampling rate must be positive and finite, got {target_fs}")
    if target_fs == rec.fs:
        return rec
    from scipy import signal as sps  # loaded on first use: only preprocessing filters

    frac = Fraction(target_fs / rec.fs).limit_denominator(1000)
    up, down = frac.numerator, frac.denominator
    out_len = int(math.floor(rec.n_samples * target_fs / rec.fs))
    # windowed-sinc low-pass at the tighter Nyquist edge, 64 taps per branch
    max_rate = max(up, down)
    half_len = 32 * max_rate
    cutoff = 1.0 / max_rate
    taps = sps.firwin(2 * half_len + 1, cutoff, window=("kaiser", 8.6))
    out = sps.resample_poly(rec.data, up, down, axis=1, window=taps, padtype="line")
    if out.shape[1] < out_len:  # pragma: no cover - defensive
        raise DataError("resampler produced fewer samples than expected")
    out = out[:, :out_len]
    return replace(rec, fs=float(target_fs), data=out)


def bandpass_notch(
    rec: Recording,
    low: float = DEFAULT_BAND[0],
    high: float = DEFAULT_BAND[1],
    notch: float | None = 50.0,
) -> Recording:
    """Zero-phase 4th-order Butterworth band-pass plus a Q=30 notch."""
    nyq = rec.fs / 2.0
    if not (0.0 < low < high < nyq):
        raise ConfigError(
            f"band edges must satisfy 0 < low < high < fs/2; got "
            f"low={low}, high={high}, fs={rec.fs}"
        )
    if notch is not None and not (low < notch < high):
        raise ConfigError(f"notch {notch} Hz must lie inside the pass band ({low}, {high})")
    from scipy import signal as sps  # loaded on first use: only preprocessing filters

    sos = sps.butter(4, [low, high], btype="bandpass", fs=rec.fs, output="sos")
    # the pass band excludes DC, so demeaning first is gain-neutral and
    # removes the slowest (near-DC) settling transient entirely
    out = rec.data - rec.data.mean(axis=1, keepdims=True)
    # Gustafsson initial conditions per biquad section: zero phase without
    # the reflection-padding edge artifacts of plain forward-backward runs
    for section in sos:
        out = sps.filtfilt(section[:3], section[3:], out, axis=1, method="gust")
    if notch is not None:
        b, a = sps.iirnotch(notch, Q=30.0, fs=rec.fs)
        out = sps.filtfilt(b, a, out, axis=1, method="gust")
    _check_finite(out, "filter output")
    return replace(rec, data=out)


def robust_scale(rec: Recording) -> Recording:
    """Per-channel (x - median) / IQR with linear-interpolation quantiles.

    Channels with zero IQR map to zeros and are flagged as degenerate.
    """
    if rec.n_samples < 4:
        raise DataError(f"robust scaling needs T >= 4 samples, got {rec.n_samples}")
    q1, med, q3 = np.quantile(rec.data, [0.25, 0.5, 0.75], axis=1, method="linear")
    iqr = q3 - q1
    degenerate = [rec.channels[i] for i in np.nonzero(iqr == 0.0)[0]]
    safe_iqr = np.where(iqr == 0.0, 1.0, iqr)
    out = (rec.data - med[:, None]) / safe_iqr[:, None]
    if degenerate:
        out[iqr == 0.0] = 0.0
    flags = tuple(sorted(set(rec.degenerate) | set(degenerate)))
    return replace(rec, data=out, degenerate=flags)


def preprocess(
    rec: Recording,
    target_fs: float = WORK_FS,
    low: float = DEFAULT_BAND[0],
    high: float = DEFAULT_BAND[1],
    notch: float | None = 50.0,
) -> Recording:
    """Full chain: resample -> band-pass/notch -> robust scale."""
    return robust_scale(bandpass_notch(resample(rec, target_fs), low, high, notch))


# ---------------------------------------------------------------------------
# patching and spectra
# ---------------------------------------------------------------------------

def patch(rec: Recording, window: int) -> np.ndarray:
    """Cut each channel into floor(T/W) non-overlapping length-W segments (C x P x W)."""
    t = rec.n_samples
    p = t // window
    if p == 0:
        raise DataError(f"recording too short to patch: T={t} < W={window}")
    trimmed = rec.data[:, : p * window]
    return trimmed.reshape(rec.n_channels, p, window)


def dft_target(patches: np.ndarray) -> np.ndarray:
    """One-sided DFT magnitude spectrum of every patch: C x P x (W//2+1)."""
    return np.abs(np.fft.rfft(patches, axis=-1))
