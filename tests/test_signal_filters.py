"""The numpy filter chain of `eeglm.signal_io` against scipy.signal, piece by
piece and whole; `tests/oracles.py` keeps the chain as it ran on scipy.

Tolerances are relative to the reference's largest magnitude, and sit about
ten times above the largest difference measured on these inputs. The filter
design is scipy's to the bit. What remains is rounding in the filters: the
Butterworth sections whose poles lie near z = 1 (a low edge of 0.01 Hz at
1000 Hz puts them within 6e-5 of it) make Gustafsson's least-squares problem
ill-conditioned, so scipy's per-sample recursion and the block recursion
here round differently.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.signal as sps

import oracles
from eeglm import signal_io
from eeglm.errors import DataError
from eeglm.signal_io import Recording

RATES = (160.0, 200.0, 250.0, 256.0, 500.0, 1000.0)
LOWS = (0.1, 0.01)


def recording(fs: float, channels: int, seconds: float = 4.0, seed: int = 0) -> Recording:
    """Noise, a 10 Hz rhythm, 50 Hz line noise and a DC offset per channel."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(seconds * fs)) / fs
    data = (
        30.0 * rng.standard_normal((channels, t.size))
        + 20.0 * np.sin(2 * np.pi * 10.0 * t)
        + 8.0 * np.sin(2 * np.pi * 50.0 * t + 0.3)
        + 100.0 * rng.standard_normal((channels, 1))
    )
    return Recording(tuple(f"C{i}" for i in range(channels)), fs, data)


def assert_close(got: np.ndarray, ref: np.ndarray, rel: float) -> None:
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max()


def filters(fs: float, low: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(b, a) of each band-pass section and of the notch."""
    sections = [(s[:3], s[3:]) for s in signal_io._butter_bandpass_sos(low, 75.0, fs)]
    return sections + [signal_io._notch(50.0, fs)]


@pytest.mark.parametrize("fs", RATES + (173.61,))
@pytest.mark.parametrize("band", [(0.1, 75.0), (0.01, 75.0), (0.5, 40.0), (4.0, 30.0)])
def test_bandpass_sections_are_scipys(fs, band):
    ref = sps.butter(4, list(band), btype="bandpass", fs=fs, output="sos")
    np.testing.assert_array_equal(signal_io._butter_bandpass_sos(*band, fs), ref)


@pytest.mark.parametrize("fs", RATES + (173.61,))
@pytest.mark.parametrize("freq", [50.0, 60.0])
def test_notch_is_scipys(fs, freq):
    b, a = signal_io._notch(freq, fs)
    ref_b, ref_a = sps.iirnotch(freq, Q=30.0, fs=fs)
    np.testing.assert_array_equal(b, ref_b)
    np.testing.assert_array_equal(a, ref_a)


@pytest.mark.parametrize("max_rate", [2, 5, 25, 32, 1061])
def test_resampling_taps_match_firwin(max_rate):
    # measured: at most 3.5e-16 (np.kaiser and scipy's kaiser differ in the last bits)
    numtaps = 64 * max_rate + 1
    ref = sps.firwin(numtaps, 1.0 / max_rate, window=("kaiser", 8.6))
    assert_close(signal_io._kaiser_lowpass(numtaps, 1.0 / max_rate), ref, 4e-15)


@pytest.mark.parametrize("fs", [200.0, 1000.0])
@pytest.mark.parametrize("low", LOWS)
@pytest.mark.parametrize("t", [1, 63, 64, 65, 1201])
@pytest.mark.parametrize("with_state", [False, True], ids=["zero-state", "given-state"])
def test_lfilter_matches_scipy(fs, low, t, with_state):
    # measured: at most 3.4e-12, with either initial state
    rng = np.random.default_rng(t)
    x = 10.0 * rng.standard_normal((3, t))
    zi = rng.standard_normal((3, 2)) if with_state else None
    for b, a in filters(fs, low):
        ref = sps.lfilter(b, a, x) if zi is None else sps.lfilter(b, a, x, zi=zi)[0]
        assert_close(signal_io._lfilter(b, a, x, zi), ref, 5e-11)


@pytest.mark.parametrize("fs", [200.0, 1000.0])
@pytest.mark.parametrize("low", LOWS)
@pytest.mark.parametrize("t", [64, 1201])
def test_filtfilt_matches_scipys_gust(fs, low, t):
    # measured: at most 1.6e-10, in a section with poles near z = 1 at 0.01 Hz
    x = 10.0 * np.random.default_rng(t).standard_normal((3, t))
    for b, a in filters(fs, low):
        ref = sps.filtfilt(b, a, x, axis=-1, method="gust")
        assert_close(signal_io._filtfilt(b, a, x), ref, 2e-9)


@pytest.mark.parametrize("fs", [f for f in RATES if f != signal_io.WORK_FS] + [173.61])
@pytest.mark.parametrize("channels", [1, 4, 19])
def test_resample_matches_resample_poly(fs, channels):
    # measured: at most 5.1e-16
    rec = recording(fs, channels, seconds=6.0, seed=channels)
    got, ref = signal_io.resample(rec, 200.0), oracles.resample(rec, 200.0)
    assert got.fs == ref.fs == 200.0
    assert_close(got.data, ref.data, 5e-15)


def test_resample_keeps_the_floor_length_where_the_held_ratio_rounds_down():
    # 200/107.7 is held as 1857/1000, 5.5e-6 below it: half an hour of samples
    # gives resample_poly one output fewer than floor(T * 200 / 107.7)
    rec = recording(107.7, 1, seconds=1818.2)
    got, ref = signal_io.resample(rec, 200.0), oracles.resample(rec, 200.0)
    assert got.n_samples == int(rec.n_samples * 200.0 / 107.7) == ref.n_samples + 1
    assert_close(got.data[:, :-1], ref.data, 5e-15)


@pytest.mark.parametrize("fs, samples", [(400.0, 1), (1000.0, 4)])
def test_resample_to_no_samples_is_a_data_error(fs, samples):
    rec = Recording(("A",), fs, np.ones((1, samples)))
    with pytest.raises(DataError, match="resample to none"):
        signal_io.resample(rec, 200.0)


@pytest.mark.parametrize("fs", RATES)
@pytest.mark.parametrize("channels", [1, 4, 19])
@pytest.mark.parametrize("low", LOWS)
@pytest.mark.parametrize("notch", [50.0, None], ids=["notch", "no-notch"])
def test_preprocess_matches_the_scipy_chain(fs, channels, low, notch):
    # robust-scaled outputs reach 3.2; measured: at most 3.1e-10 apart (1.6e-11
    # in the default band with the notch)
    rec = recording(fs, channels, seed=int(fs) + channels)
    got = signal_io.preprocess(rec, low=low, notch=notch)
    ref = oracles.preprocess(rec, low=low, notch=notch)
    assert got.fs == ref.fs and got.degenerate == ref.degenerate
    np.testing.assert_allclose(got.data, ref.data, rtol=0, atol=3e-9)


def test_preprocess_is_deterministic():
    rec = recording(500.0, 19)
    first, second = signal_io.preprocess(rec), signal_io.preprocess(rec)
    assert first.data.tobytes() == second.data.tobytes()
