"""Ingestion, preprocessing chain, patching, spectral targets."""

from __future__ import annotations

import json

import numpy as np
import pytest

from eeglm.errors import ConfigError, DataError
from eeglm.signal_io import (
    Recording,
    bandpass_notch,
    dft_target,
    load_container,
    load_csv,
    load_recording,
    patch,
    preprocess,
    resample,
    robust_scale,
    save_container,
)


def tone(freq, fs, seconds, phase=0.0, amp=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq * t + phase)


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_container_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    rec = Recording(channels=("Fz", "Cz"), fs=200.0, data=rng.standard_normal((2, 400)))
    save_container(rec, tmp_path / "rec")
    back = load_container(tmp_path / "rec")
    assert back.channels == ("Fz", "Cz")
    assert back.fs == 200.0
    assert back.n_samples == 400
    np.testing.assert_allclose(back.data, rec.data, atol=1e-6)


def test_csv_ingest(tmp_path):
    rows = ["t,Fz,Cz"] + [f"{i},{i * 0.1},{i * 0.2}" for i in range(100)]
    path = tmp_path / "rec.csv"
    path.write_text("\n".join(rows) + "\n")
    rec = load_csv(path, fs=100.0)
    assert rec.channels == ("Fz", "Cz")
    assert rec.n_samples == 100
    np.testing.assert_allclose(rec.data[1], np.arange(100) * 0.2)


def test_extent_mismatch_raises(tmp_path):
    root = tmp_path / "rec"
    root.mkdir()
    (root / "manifest.json").write_text(
        json.dumps({"channels": ["A", "B", "C"], "fs": 200, "dtype": "f32le", "samples": 10})
    )
    np.zeros(20, dtype="<f4").tofile(root / "signal.bin")
    with pytest.raises(DataError) as exc:
        load_container(root)
    assert "extent mismatch" in str(exc.value)


def test_missing_manifest_field(tmp_path):
    root = tmp_path / "rec"
    root.mkdir()
    (root / "manifest.json").write_text(json.dumps({"channels": ["A"], "fs": 200}))
    np.zeros(10, dtype="<f4").tofile(root / "signal.bin")
    with pytest.raises(DataError) as exc:
        load_container(root)
    assert "dtype" in str(exc.value) or "samples" in str(exc.value)


def test_non_finite_sample_reports_offset(tmp_path):
    root = tmp_path / "rec"
    root.mkdir()
    (root / "manifest.json").write_text(
        json.dumps({"channels": ["A"], "fs": 200, "dtype": "f32le", "samples": 4})
    )
    arr = np.array([1.0, 2.0, np.nan, 4.0], dtype="<f4")
    arr.tofile(root / "signal.bin")
    with pytest.raises(DataError) as exc:
        load_container(root)
    assert "sample 2" in str(exc.value)


def test_load_recording_dispatch(tmp_path):
    rec = Recording(channels=("A",), fs=200.0, data=np.zeros((1, 10)))
    save_container(rec, tmp_path / "rec")
    assert load_recording(tmp_path / "rec").n_samples == 10
    with pytest.raises(ConfigError):
        load_recording(tmp_path / "nothing.csv")


def test_duplicate_channel_labels_rejected():
    with pytest.raises(DataError):
        Recording(channels=("A", "A"), fs=1.0, data=np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# resampling
# ---------------------------------------------------------------------------

def test_resample_identity_when_rates_match():
    rec = Recording(channels=("A",), fs=200.0, data=np.arange(10.0)[None, :])
    out = resample(rec, 200.0)
    np.testing.assert_array_equal(out.data, rec.data)


def test_resample_preserves_tone():
    rec = Recording(channels=("A",), fs=400.0, data=tone(10, 400, 10)[None, :])
    out = resample(rec, 200.0)
    assert out.fs == 200.0
    assert out.n_samples == 2000
    spec = np.abs(np.fft.rfft(out.data[0]))
    freqs = np.fft.rfftfreq(out.n_samples, 1 / 200.0)
    k = int(np.argmax(spec))
    assert freqs[k] == 10.0
    amp = 2 * spec[k] / out.n_samples
    assert abs(amp - 1.0) < 0.02


def test_resample_preserves_constant():
    # windowed-sinc interpolation carries ~1e-5 passband ripple at the edges
    for fs in (100.0, 250.0, 512.0):
        rec = Recording(channels=("A",), fs=fs, data=np.full((1, int(fs * 2)), 3.7))
        out = resample(rec, 200.0)
        np.testing.assert_allclose(out.data, 3.7, atol=1e-4)


def test_resample_length_floor():
    rec = Recording(channels=("A",), fs=400.0, data=np.zeros((1, 401)))
    assert resample(rec, 200.0).n_samples == 200


# ---------------------------------------------------------------------------
# filtering
# ---------------------------------------------------------------------------

def test_bandpass_keeps_10hz():
    x = tone(10, 200, 60)
    rec = Recording(channels=("A",), fs=200.0, data=x[None, :])
    out = bandpass_notch(rec, 0.1, 75.0, 50.0)
    gain = np.sqrt(np.mean(out.data[0] ** 2)) / np.sqrt(np.mean(x**2))
    assert abs(gain - 1.0) < 0.05


def test_notch_kills_50hz():
    x = tone(50, 200, 60, phase=0.7)
    rec = Recording(channels=("A",), fs=200.0, data=x[None, :])
    out = bandpass_notch(rec, 0.1, 75.0, 50.0)
    ratio = np.sqrt(np.mean(out.data[0] ** 2)) / np.sqrt(np.mean(x**2))
    assert ratio < 0.10


def test_dc_offset_rejected():
    rec = Recording(channels=("A",), fs=200.0, data=np.full((1, 12000), 100.0))
    out = bandpass_notch(rec, 0.1, 75.0, 50.0)
    assert np.mean(np.abs(out.data)) < 5.0


def test_zero_signal_stays_zero():
    rec = Recording(channels=("A", "B"), fs=200.0, data=np.zeros((2, 2000)))
    out = bandpass_notch(rec)
    np.testing.assert_array_equal(out.data, np.zeros((2, 2000)))


def test_invalid_band_edges_rejected():
    rec = Recording(channels=("A",), fs=200.0, data=np.zeros((1, 100)))
    with pytest.raises(ConfigError):
        bandpass_notch(rec, 75.0, 0.1, 50.0)
    with pytest.raises(ConfigError):
        bandpass_notch(rec, 0.1, 120.0, 50.0)
    with pytest.raises(ConfigError):
        bandpass_notch(rec, 0.1, 40.0, 50.0)


# ---------------------------------------------------------------------------
# robust scaling
# ---------------------------------------------------------------------------

def test_robust_scale_hand_case():
    rec = Recording(channels=("A",), fs=1.0, data=np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
    out = robust_scale(rec)
    np.testing.assert_allclose(out.data[0], [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_robust_scale_zero_iqr_flags_channel():
    rec = Recording(channels=("A", "B"), fs=1.0, data=np.array([[7.0, 7.0, 7.0, 7.0], [1.0, 2.0, 3.0, 4.0]]))
    out = robust_scale(rec)
    np.testing.assert_array_equal(out.data[0], np.zeros(4))
    assert out.degenerate == ("A",)
    assert np.all(np.isfinite(out.data))


def test_robust_scale_affine_invariance():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(50)
    a, b = 3.5, -12.0
    r1 = robust_scale(Recording(channels=("A",), fs=1.0, data=x[None, :]))
    r2 = robust_scale(Recording(channels=("A",), fs=1.0, data=(a * x + b)[None, :]))
    np.testing.assert_allclose(r1.data, r2.data, atol=1e-12)


def test_robust_scale_idempotent():
    rng = np.random.default_rng(6)
    rec = Recording(channels=("A",), fs=1.0, data=rng.standard_normal((1, 101)))
    once = robust_scale(rec)
    twice = robust_scale(once)
    np.testing.assert_allclose(twice.data, once.data, atol=1e-12)


def test_robust_scale_median_zero_iqr_one():
    rng = np.random.default_rng(7)
    rec = Recording(channels=("A", "B"), fs=1.0, data=rng.standard_normal((2, 333)))
    out = robust_scale(rec)
    for ch in out.data:
        q1, med, q3 = np.quantile(ch, [0.25, 0.5, 0.75])
        assert abs(med) < 1e-12
        assert abs((q3 - q1) - 1.0) < 1e-12


def test_robust_scale_needs_four_samples():
    with pytest.raises(DataError):
        robust_scale(Recording(channels=("A",), fs=1.0, data=np.zeros((1, 3))))


# ---------------------------------------------------------------------------
# patching and spectra
# ---------------------------------------------------------------------------

def test_patch_floor_semantics():
    rec = Recording(channels=("A",), fs=200.0, data=np.arange(450.0)[None, :])
    patches = patch(rec, 200)
    assert patches.shape == (1, 2, 200)
    np.testing.assert_array_equal(patches[0, 0], np.arange(200.0))
    np.testing.assert_array_equal(patches[0, 1], np.arange(200.0, 400.0))


def test_patch_identity_and_error():
    rec = Recording(channels=("A",), fs=200.0, data=np.arange(200.0)[None, :])
    patches = patch(rec, 200)
    assert patches.shape == (1, 1, 200)
    np.testing.assert_array_equal(patches[0, 0], rec.data[0])
    short = Recording(channels=("A",), fs=200.0, data=np.zeros((1, 199)))
    with pytest.raises(DataError):
        patch(short, 200)


def test_patch_concat_reproduces_prefix():
    rng = np.random.default_rng(8)
    rec = Recording(channels=("A", "B"), fs=200.0, data=rng.standard_normal((2, 430)))
    rebuilt = patch(rec, 100).reshape(2, -1)
    np.testing.assert_array_equal(rebuilt, rec.data[:, :400])


def test_dft_target_tone_bin():
    x = tone(10, 200, 1.0)
    mags = dft_target(x[None, None, :])
    assert mags.shape == (1, 1, 101)
    assert int(np.argmax(mags[0, 0])) == 10


def test_dft_target_zero_patch():
    np.testing.assert_array_equal(dft_target(np.zeros((2, 3, 200))), np.zeros((2, 3, 101)))


def test_parseval_consistency():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(200)
    two_sided = np.fft.fft(x)
    lhs = np.sum(np.abs(two_sided) ** 2) / 200
    rhs = np.sum(x**2)
    assert abs(lhs - rhs) < 1e-9
    # one-sided magnitudes agree with the two-sided spectrum's lower half
    mags = dft_target(x[None, None, :])[0, 0]
    np.testing.assert_allclose(mags, np.abs(two_sided[:101]), atol=1e-9)


def test_full_preprocess_chain():
    rng = np.random.default_rng(10)
    x = tone(10, 400, 10, amp=40.0) + rng.standard_normal(4000)
    rec = Recording(channels=("A",), fs=400.0, data=x[None, :])
    out = preprocess(rec)
    assert out.fs == 200.0
    assert out.n_samples == 2000
    q1, med, q3 = np.quantile(out.data[0], [0.25, 0.5, 0.75])
    assert abs(med) < 1e-12 and abs(q3 - q1 - 1) < 1e-12
