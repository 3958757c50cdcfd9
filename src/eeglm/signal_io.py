"""EEG ingestion, preprocessing, patching and spectral targets.

The preprocessing chain is: resample to the working rate, band-pass plus
notch filtering (both zero-phase), robust per-channel scaling, then
segmentation into fixed-length non-overlapping patches with one-sided DFT
magnitude targets for the reconstruction objective.

The chain runs on numpy alone. Its filter design (Butterworth sections,
notch, Kaiser resampling taps) is scipy.signal's to the bit, or to the last
bits for the taps; resampling and zero-phase filtering follow resample_poly
and Gustafsson's filtfilt, whose scipy forms `tests/oracles.py` keeps as the
reference the tests hold this chain to.
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
            if "" in names[1:]:
                raise DataError(f"{p}: header column {names.index('', 1) + 1} has no channel label")
            twice = [n for i, n in enumerate(names[1:], 1) if n in names[1:i]]
            if twice:
                raise DataError(f"{p}: header names channel {twice[0]!r} twice")
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

def _kaiser_lowpass(numtaps: int, cutoff: float) -> np.ndarray:
    """Windowed-sinc low-pass taps with unit DC gain: scipy.signal.firwin(
    numtaps, cutoff, window=("kaiser", 8.6)), cutoff relative to Nyquist."""
    m = np.arange(numtaps) - 0.5 * (numtaps - 1)
    h = cutoff * np.sinc(cutoff * m) * np.kaiser(numtaps, 8.6)
    return h / h.sum()


def resample(rec: Recording, target_fs: float) -> Recording:
    """Polyphase windowed-sinc resampling (Kaiser beta=8.6, 64 taps/phase).

    The rate ratio is held as a fraction up/down with down <= 1000; a ratio
    that no such fraction holds to one part in 1000 is refused. Output length
    is floor(T * target_fs / fs), also where up/down rounds the ratio down
    and resample_poly's ceil(T * up / down) falls short of it; equal rates
    short-circuit to the identity. The values are those of
    scipy.signal.resample_poly(x, up, down, window=taps, padtype="line"):
    outputs past either end read the line through the first and last samples,
    so a recording of fewer than 2 samples is refused.
    """
    if not (math.isfinite(target_fs) and target_fs > 0):
        raise ConfigError(f"target sampling rate must be positive and finite, got {target_fs}")
    if target_fs == rec.fs:
        return rec
    ratio = target_fs / rec.fs
    exact = Fraction(ratio)
    frac = exact.limit_denominator(1000)
    if abs(frac - exact) > exact / 1000:
        raise DataError(
            f"cannot resample fs={rec.fs} Hz to {target_fs} Hz: no ratio up/down "
            f"with down <= 1000 is within 0.1% of {ratio:.6g}"
        )
    up, down = frac.numerator, frac.denominator
    t = rec.n_samples
    out_len = int(math.floor(t * ratio))
    if out_len == 0:
        raise DataError(f"{t} samples at fs={rec.fs} Hz resample to none at {target_fs} Hz")
    if t < 2:
        raise DataError(
            f"cannot resample a {t}-sample recording at fs={rec.fs} Hz: the end "
            "extension is the line through its first and last samples, which needs 2"
        )
    # windowed-sinc low-pass at the tighter Nyquist edge, 64 taps per branch
    max_rate = max(up, down)
    half_len = 32 * max_rate
    h = _kaiser_lowpass(2 * half_len + 1, 1.0 / max_rate) * up
    # output k of the up-filter-down chain is sum_n h[n] x_up[k*down - n]; the
    # first `skip` outputs lie before the filter's centre reaches sample 0
    pre_pad = down - half_len % down
    skip = (half_len + pre_pad) // down
    h = np.concatenate((np.zeros(pre_pad), h, np.zeros(-(pre_pad + h.size) % up)))
    per_phase = h.size // up
    # the inputs read run from `first` < 0 to `last` >= t - 1: the filter's
    # half length, 32 * max_rate, reaches past both ends
    first = (skip * down) // up - per_phase + 1
    last = ((skip + out_len - 1) * down) // up
    idx = np.arange(first, last + 1, dtype=np.float64)
    x0, x1 = rec.data[:, :1], rec.data[:, -1:]
    slope = (x1 - x0) / (t - 1)
    ext = np.where(idx < 0, x0 + idx * slope, x1 + (idx - (t - 1)) * slope)
    ext[:, -first : t - first] = rec.data
    windows = np.lib.stride_tricks.sliding_window_view(ext, per_phase, axis=1)
    out = np.empty((rec.n_channels, out_len))
    # outputs up apart use the same phase of h and read inputs down apart
    for r in range(min(up, out_len)):
        k = skip + r
        phase, start = (k * down) % up, (k * down) // up - per_phase + 1 - first
        count = len(range(r, out_len, up))
        taps = h[phase::up][::-1]
        out[:, r::up] = np.einsum("ckm,m->ck", windows[:, start::down][:, :count], taps)
    return replace(rec, fs=float(target_fs), data=out)


def _butter_bandpass_sos(low: float, high: float, fs: float) -> np.ndarray:
    """Second-order sections of scipy.signal.butter(4, [low, high],
    "bandpass", fs=fs, output="sos"): the analog Butterworth poles moved to
    the band (lp2bp_zpk) and mapped by the bilinear transform, each
    conjugate pole pair, the one nearest the unit circle last, with the two
    real zeros nearest it (zpk2sos "nearest" pairing)."""
    order = 4
    warped = 4.0 * np.tan(np.pi * (np.array([low, high]) / (fs / 2)) / 2.0)
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    p_lp = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2.0) / (2 * order)) * bw / 2
    root = np.sqrt(p_lp**2 - wo**2)
    p_bp = np.concatenate((p_lp + root, p_lp - root))
    # bilinear transform at fs = 2: s -> (4 + s) / (4 - s); the band-pass
    # zeros at s = 0 map to z = 1, and its `order` zeros at infinity to z = -1
    poles = (4.0 + p_bp) / (4.0 - p_bp)
    gain = bw**order * np.real(np.prod(np.full(order, 4.0 + 0j)) / np.prod(4.0 - p_bp))
    poles = poles[np.lexsort((abs(poles.imag), poles.real))]
    poles = (poles[poles.imag > 0] + poles[poles.imag < 0].conj()) / 2
    zeros = np.repeat([-1.0, 1.0], order)
    sos = np.zeros((order, 6))
    for si in range(order - 1, -1, -1):
        i = np.argmin(np.abs(1 - np.abs(poles)))
        p1, poles = poles[i], np.delete(poles, i)
        near = np.argsort(np.abs(zeros - p1))[:2]
        sos[si, :3] = np.poly(zeros[near])
        sos[si, 3:] = np.poly([p1, p1.conj()])
        zeros = np.delete(zeros, near)
    sos[0, :3] *= gain
    return sos


def _notch(freq: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """(b, a) of scipy.signal.iirnotch(freq, Q=30.0, fs=fs) in closed form."""
    w0 = 2 * float(freq) / fs
    beta = math.tan(w0 / 30.0 * math.pi / 2.0)
    gain = 1.0 / (1.0 + beta)
    cos_w0 = math.cos(w0 * math.pi)
    b = gain * np.array([1.0, -2.0 * cos_w0, 1.0])
    a = np.array([1.0, -2.0 * gain * cos_w0, 2.0 * gain - 1.0])
    return b, a


_BLOCK = 64


def _lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray, zi: np.ndarray | None = None) -> np.ndarray:
    """scipy.signal.lfilter(b, a, x, zi=zi)[0] along the last axis of the
    rows of `x`, for a[0] == 1: direct form II transposed, state s and
    s' = A s + B x, y = s[0] + b[0] x. Within a block of _BLOCK samples the
    output is the block's input times the impulse response's Toeplitz matrix
    plus its starting state times the zero-input response; only that state,
    len(a) - 1 numbers per row, is carried from block to block."""
    n, (rows, t) = len(a) - 1, x.shape
    # The state of a section with poles near z = 1 is badly conditioned: A^L
    # has entries near L that cancel. So A's powers and the recursion across
    # blocks run in extended precision, where numpy's long double has it.
    a_mat = np.eye(n, k=1, dtype=np.longdouble)
    a_mat[:, 0] = -a[1:]
    b_vec = b[1:] - a[1:] * b[0]
    powers = np.eye(n, dtype=np.longdouble)[None]  # A^0 .. A^_BLOCK, by doubling
    while len(powers) <= _BLOCK:
        powers = np.concatenate((powers, powers @ (powers[-1] @ a_mat)))
    response = powers[:_BLOCK, 0].astype(np.float64)  # output of each starting state
    impulse = np.concatenate(([b[0]], response[:-1] @ b_vec))
    lag = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
    toeplitz = np.where(lag >= 0, impulse[lag.clip(0)], 0.0)
    drive = (powers[_BLOCK - 1 :: -1][:_BLOCK] @ b_vec).astype(np.float64)  # input j -> end state
    blocks = -(-t // _BLOCK)
    xb = np.zeros((rows, blocks * _BLOCK))
    xb[:, :t] = x
    xb = xb.reshape(rows * blocks, _BLOCK)
    ends = (xb @ drive).reshape(rows, blocks, n)
    states = np.empty((rows, blocks, n))
    s = np.zeros((rows, n), dtype=np.longdouble) if zi is None else zi.astype(np.longdouble)
    step = powers[_BLOCK].T
    for k in range(blocks):
        states[:, k] = s
        s = s @ step + ends[:, k]
    y = xb @ toeplitz.T + states.reshape(rows * blocks, n) @ response.T
    return y.reshape(rows, -1)[:, :t]


def _filtfilt(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy.signal.filtfilt(b, a, x, method="gust") along the last axis:
    forward-backward filtering from the initial states that make the
    forward-backward and backward-forward results agree best in least
    squares (F. Gustafsson, IEEE Trans. Signal Process. 44(4), 1996)."""
    n, (c, t) = len(a) - 1, x.shape
    # obs: the output of each initial state under zero input, (t, n); a
    # state's response is the first state's delayed by its index
    unit = np.zeros((1, n))
    unit[0, 0] = 1.0
    obs = np.zeros((t, n))
    obs[:, 0] = _lfilter(b, a, np.zeros((1, t)), zi=unit)[0]
    for k in range(1, n):
        obs[k:, k] = obs[:-k, 0]
    once = _lfilter(b, a, np.concatenate((x, x[:, ::-1], obs[::-1].T)))
    y_f, y_b, s = once[:c], once[c : 2 * c, ::-1], once[2 * c :].T
    twice = _lfilter(b, a, np.concatenate((y_f[:, ::-1], y_b)))
    y_fb, y_bf = twice[:c, ::-1], twice[c:]
    m = np.hstack((s[::-1] - obs, obs[::-1] - s))
    ic = np.linalg.lstsq(m, (y_bf - y_fb).T, rcond=None)[0]
    return y_fb + (np.hstack((s[::-1], obs[::-1])) @ ic).T


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
    # the pass band excludes DC, so demeaning first is gain-neutral and
    # removes the slowest (near-DC) settling transient entirely
    out = rec.data - rec.data.mean(axis=1, keepdims=True)
    # Gustafsson initial conditions per biquad section: zero phase without
    # the reflection-padding edge artifacts of plain forward-backward runs
    for section in _butter_bandpass_sos(low, high, rec.fs):
        out = _filtfilt(section[:3], section[3:], out)
    if notch is not None:
        out = _filtfilt(*_notch(notch, rec.fs), out)
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
