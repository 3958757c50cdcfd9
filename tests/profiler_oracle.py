"""Per-channel reference forms of the profiler's batched feature operators.

These are the one-row-at-a-time `temporal_stats` and `spectral_stats` the
profiler used before it computed every channel of a recording in one pass.
The tests compare the batched operators against them: spectra and the first
four moments must agree bit for bit; kurtosis, which the batched form takes
as a mean of squared squares instead of `** 4`, to the last bits.
"""

from __future__ import annotations

import numpy as np
import scipy.signal as sps

from eeglm.profiler import SPAN_HIGH, SPAN_LOW, WELCH_SECONDS, SpectralStats, TemporalStats
from eeglm.signal_io import FREQ_BANDS


def temporal_stats_1d(x: np.ndarray) -> TemporalStats:
    """Mean, population std, energy, peak-to-peak, and kurtosis of a segment."""
    x = np.asarray(x, dtype=np.float64).ravel()
    mu = float(x.mean())
    sigma = float(x.std())
    energy = float(np.sum(x * x))
    p2p = float(x.max() - x.min())
    if sigma > 0.0:
        return TemporalStats(mu, sigma, energy, p2p, float(np.mean(((x - mu) / sigma) ** 4)))
    return TemporalStats(mu, sigma, energy, p2p, 0.0, True)


def spectral_stats_1d(x: np.ndarray, fs: float) -> SpectralStats:
    """Relative power in the five canonical bands plus the dominant peak."""
    x = np.asarray(x, dtype=np.float64).ravel()
    nperseg = int(round(WELCH_SECONDS * fs))
    freqs, psd = sps.welch(x, fs=fs, window="hann", nperseg=nperseg, noverlap=nperseg // 2)
    span_hi = min(SPAN_HIGH, fs / 2.0)
    total = float(psd[(freqs >= SPAN_LOW) & (freqs <= span_hi)].sum())
    names = list(FREQ_BANDS)
    powers: dict[str, float] = {}
    for i, name in enumerate(names):
        lo, hi = FREQ_BANDS[name]
        hi = min(hi, span_hi)
        if lo >= hi:
            powers[name] = 0.0
            continue
        if i == len(names) - 1:
            mask = (freqs >= lo) & (freqs <= hi)
        else:
            mask = (freqs >= lo) & (freqs < hi)
        powers[name] = float(psd[mask].sum() / total) if total > 0.0 else 0.0
    peak_idx = int(np.argmax(psd))
    return SpectralStats(
        band_powers=powers,
        peak_freq=float(freqs[peak_idx]),
        peak_power=float(psd[peak_idx]),
        degenerate=total <= 0.0,
    )
