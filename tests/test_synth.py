"""Synthetic dataset generator: determinism, labels, band signatures."""

from __future__ import annotations

import json

import numpy as np
import pytest

from eeglm import synth
from eeglm.errors import ConfigError, DataError
from eeglm.profiler import spectral_stats
from eeglm.synth import (
    CLASS_TONES,
    load_corpus,
    make_dataset,
    make_recording,
    read_labels,
)
from eeglm.topology import synthetic_montage

CHANNELS = synthetic_montage(3).labels


def test_recording_shape_and_rate():
    rec = make_recording("class-a", CHANNELS, np.random.default_rng(0), fs=100.0, seconds=3.0)
    assert rec.data.shape == (3, 300)
    assert rec.fs == 100.0


def test_unknown_class_rejected():
    with pytest.raises(ConfigError, match="unknown class"):
        make_recording("class-x", CHANNELS, np.random.default_rng(0))


def test_class_tone_dominates_its_band():
    # each class's spectrum must peak at that class's configured tone
    for label, tone in CLASS_TONES.items():
        rec = make_recording(label, CHANNELS, np.random.default_rng(1), seconds=4.0)
        stats = spectral_stats(rec.data[0][None], rec.fs)[0]
        assert abs(stats.peak_freq - tone) <= 0.5, (label, stats.peak_freq)


def test_classes_are_spectrally_distinct():
    recs = {
        lab: make_recording(lab, CHANNELS, np.random.default_rng(2), seconds=4.0)
        for lab in CLASS_TONES
    }
    theta = spectral_stats(recs["class-a"].data[0][None], 200.0)[0].band_powers
    alpha = spectral_stats(recs["class-b"].data[0][None], 200.0)[0].band_powers
    beta = spectral_stats(recs["class-c"].data[0][None], 200.0)[0].band_powers
    assert theta["theta"] > max(theta["alpha"], theta["beta"])
    assert alpha["alpha"] > max(alpha["theta"], alpha["beta"])
    assert beta["beta"] > max(beta["theta"], beta["alpha"])


def test_dataset_layout_and_labels(tmp_path):
    out = tmp_path / "data"
    manifest = make_dataset(out, n_per_class=2, montage="synthetic-3", seed=4)
    assert sorted(manifest["samples"]) == manifest["samples"]
    assert len(manifest["samples"]) == 6
    labels = read_labels(out)
    assert {label for label, _ in labels.values()} == {"class-a", "class-b", "class-c"}
    assert [line for _, line in labels.values()] == list(range(2, 8))
    on_disk = json.loads((out / "dataset.json").read_text())
    assert on_disk["classes"] == ["class-a", "class-b", "class-c"]
    for name in manifest["samples"]:
        assert (out / name / "manifest.json").is_file()
        assert (out / name / "signal.bin").is_file()


def test_dataset_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    make_dataset(a, n_per_class=2, montage="synthetic-2", seed=5)
    make_dataset(b, n_per_class=2, montage="synthetic-2", seed=5)
    for name in ("sample_0000", "sample_0003"):
        assert (a / name / "signal.bin").read_bytes() == (b / name / "signal.bin").read_bytes()


def test_dataset_seed_changes_signal(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    make_dataset(a, n_per_class=1, montage="synthetic-2", seed=5)
    make_dataset(b, n_per_class=1, montage="synthetic-2", seed=6)
    assert (a / "sample_0000" / "signal.bin").read_bytes() != (
        b / "sample_0000" / "signal.bin"
    ).read_bytes()


def test_load_corpus_round_trip(tmp_path):
    out = tmp_path / "data"
    make_dataset(out, n_per_class=2, montage="synthetic-2", seed=7)
    corpus = load_corpus(out, classes=list(CLASS_TONES))
    assert [name for name, _, _ in corpus] == [f"sample_{i:04d}" for i in range(6)]
    for _, rec, label in corpus:
        assert rec.n_channels == 2
        assert label in CLASS_TONES


def test_load_corpus_missing_dir(tmp_path):
    with pytest.raises(DataError, match="does not exist"):
        load_corpus(tmp_path / "nope")


def test_load_corpus_requires_labels_when_given_classes(tmp_path):
    out = tmp_path / "data"
    make_dataset(out, n_per_class=1, montage="synthetic-2", seed=8)
    (out / "labels.csv").unlink()
    assert load_corpus(out)[0][2] is None
    with pytest.raises(DataError, match="labels.csv"):
        load_corpus(out, classes=list(CLASS_TONES))


def test_read_labels_rejects_bad_header(tmp_path):
    out = tmp_path / "data"
    make_dataset(out, n_per_class=1, montage="synthetic-2", seed=9)
    (out / "labels.csv").write_text("sample,klass\nx,y\n")
    with pytest.raises(DataError, match="header"):
        read_labels(out)


def test_load_corpus_refuses_a_sample_named_twice(tmp_path):
    out = tmp_path / "data"
    make_dataset(out, n_per_class=1, montage="synthetic-2", seed=10)
    with open(out / "labels.csv", "a") as f:  # header and three rows before it
        f.write("sample_0000,class-c\n")
    with pytest.raises(DataError) as refused:
        load_corpus(out, classes=list(CLASS_TONES))
    message = str(refused.value)
    assert str(out / "labels.csv") in message
    assert "'sample_0000' twice, on lines 2 and 5" in message
    assert refused.value.exit_code == 3


def test_load_corpus_reads_a_recording_each_time_its_entry_is_accessed(tmp_path, monkeypatch):
    out = tmp_path / "data"
    make_dataset(out, n_per_class=1, montage="synthetic-2", seed=11)
    reads = []
    real_load = synth.load_container
    monkeypatch.setattr(synth, "load_container", lambda p: reads.append(p.name) or real_load(p))
    corpus = load_corpus(out, classes=list(CLASS_TONES))
    assert reads == [] and len(corpus) == 3
    assert corpus.labels == ["class-a", "class-b", "class-c"]
    first = corpus[0]
    assert first[0] == "sample_0000" and np.array_equal(first[1].data, corpus[0][1].data)
    assert reads == ["sample_0000", "sample_0000"]
    tail = corpus[1:]
    assert reads == ["sample_0000", "sample_0000"] and [e[0] for e in tail] == ["sample_0001", "sample_0002"]
    assert corpus[-1][2] == "class-c"
