"""Feature extraction, verbalization, prompt assembly, and profile parsing."""

from __future__ import annotations

import json
import threading
from dataclasses import astuple, replace
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from eeglm.errors import ConfigError, DataError, MontageError, TransportError
from eeglm.profiler import (
    DEFAULT_TOP_K,
    PROFILE_KEYS,
    PROMPT_SECTIONS,
    WELCH_SECONDS,
    HttpClient,
    LlmClient,
    StubClient,
    TaskMeta,
    build_prompt,
    extract_features,
    generate_profile,
    parse_profile,
    spatial_summary,
    spectral_stats,
    temporal_stats,
    verbalize,
    welch,
)
from eeglm.signal_io import FREQ_BANDS, Recording, preprocess
from eeglm.synth import CLASS_TONES, make_recording
from eeglm.topology import Montage, build_hierarchy, builtin_montage, get_montage
import recipe
from profiler_oracle import spectral_stats_1d, temporal_stats_1d

DATA_DIR = Path(__file__).parent / "data"


def tiny_montage(c: int) -> Montage:
    labels = tuple(f"X{i}" for i in range(c))
    bands = ["anterior", "central", "posterior"]
    region = {}
    for i, lab in enumerate(labels):
        band = bands[i % 3] if c >= 3 else "anterior"
        zone = f"{band}/mid"
        region[lab] = (band, zone, f"{zone}/c{i}")
    return Montage(labels=labels, region_map=region)


def fixed_recording() -> Recording:
    """Deterministic 3-channel record used by the golden-file comparison."""
    fs = 200.0
    t = np.arange(int(10 * fs)) / fs
    rows = np.stack(
        [
            np.sin(2 * np.pi * 10.0 * t),
            0.5 * np.sin(2 * np.pi * 4.0 * t) + 0.1 * np.cos(2 * np.pi * 21.0 * t),
            np.zeros_like(t),
        ]
    )
    return Recording(channels=("X0", "X1", "X2"), fs=fs, data=rows)


# ---------------------------------------------------------------------------
# temporal statistics
# ---------------------------------------------------------------------------


def test_temporal_stats_unit_sinusoid_moments():
    t = np.arange(200)
    x = np.sin(2 * np.pi * t / 200.0)
    s = temporal_stats(x[None])[0]
    assert abs(s.mean) < 1e-9
    assert abs(s.peak_to_peak - 2.0) < 1e-9
    assert abs(s.kurtosis - 1.5) < 1e-9
    assert not s.degenerate


def test_temporal_stats_constant_is_degenerate():
    s = temporal_stats(np.array([[5.0, 5.0, 5.0, 5.0]]))[0]
    assert s.mean == 5.0
    assert s.std == 0.0
    assert s.energy == 100.0
    assert s.peak_to_peak == 0.0
    assert s.kurtosis == 0.0
    assert s.degenerate


def test_temporal_stats_gaussian_kurtosis_near_three(rng):
    x = rng.standard_normal(10000)
    s = temporal_stats(x[None])[0]
    assert 2.7 <= s.kurtosis <= 3.3


def test_temporal_stats_matches_direct_formulas(rng):
    x = rng.standard_normal(257) * 3.0 + 1.0
    s = temporal_stats(x[None])[0]
    mu = x.sum() / x.size
    var = ((x - mu) ** 2).sum() / x.size
    assert abs(s.mean - mu) < 1e-12
    assert abs(s.std - np.sqrt(var)) < 1e-12
    assert abs(s.energy - (x**2).sum()) < 1e-9
    kurt = (((x - mu) / np.sqrt(var)) ** 4).sum() / x.size
    assert abs(s.kurtosis - kurt) < 1e-12


# ---------------------------------------------------------------------------
# spectral statistics
# ---------------------------------------------------------------------------


def test_spectral_pure_alpha_tone():
    fs = 200.0
    t = np.arange(int(10 * fs)) / fs
    s = spectral_stats(np.sin(2 * np.pi * 10.0 * t)[None], fs)[0]
    assert s.band_powers["alpha"] > 0.95
    assert abs(s.peak_freq - 10.0) <= 0.5
    assert not s.degenerate


def test_spectral_white_noise_tracks_bandwidth(rng):
    fs = 200.0
    x = rng.standard_normal(int(60 * fs))
    s = spectral_stats(x[None], fs)[0]
    span = 100.0 - 0.5
    for name, (lo, hi) in FREQ_BANDS.items():
        expected = (min(hi, 100.0) - lo) / span
        assert abs(s.band_powers[name] - expected) <= 0.25 * expected


def test_spectral_zero_signal_degenerate():
    s = spectral_stats(np.zeros((1, 1000)), 200.0)[0]
    assert all(v == 0.0 for v in s.band_powers.values())
    assert s.degenerate


def test_spectral_band_powers_sum_to_one(rng):
    s = spectral_stats(rng.standard_normal(4000)[None], 200.0)[0]
    assert sum(s.band_powers.values()) <= 1.0 + 1e-9
    assert sum(s.band_powers.values()) >= 1.0 - 1e-9


def test_spectral_too_short_rejected():
    with pytest.raises(ConfigError):
        spectral_stats(np.zeros((1, 399)), 200.0)


def test_spectral_scale_invariance(rng):
    fs = 200.0
    x = rng.standard_normal(2000)
    a, b = spectral_stats(x[None], fs)[0], spectral_stats(3.7 * x[None], fs)[0]
    for name in FREQ_BANDS:
        assert abs(a.band_powers[name] - b.band_powers[name]) < 1e-12
    assert a.peak_freq == b.peak_freq
    assert abs(b.peak_power - 3.7**2 * a.peak_power) < 1e-9 * a.peak_power


def test_spectral_bands_clip_to_nyquist(rng):
    # at fs=60 the gamma band (30-100 Hz) collapses to nothing
    s = spectral_stats(rng.standard_normal(1200)[None], 60.0)[0]
    assert s.band_powers["gamma"] == 0.0
    assert sum(s.band_powers.values()) <= 1.0 + 1e-9


@pytest.mark.parametrize("rows", [1, 19])
@pytest.mark.parametrize("fs", [200.0, 100.5], ids=["even-nperseg", "odd-nperseg"])
def test_welch_matches_scipy_bitwise(fs, rows):
    import scipy.signal as sps

    n = int(round(WELCH_SECONDS * fs))
    hop = n - n // 2
    rng = np.random.default_rng(rows)
    # 1 to 5 segments, a length off the hop grid, and enough segments
    # (12) that the average is a pairwise sum
    for length in [n + k * hop for k in range(5)] + [n + 3 * hop + hop // 3, n + 11 * hop]:
        x = 20.0 * rng.standard_normal((rows, length))
        freqs, psd = welch(x, fs, n)
        want_f, want_p = sps.welch(x, fs=fs, window="hann", nperseg=n, noverlap=n // 2)
        assert psd.shape == want_p.shape == (rows, n // 2 + 1)
        assert freqs.tobytes() == want_f.tobytes()
        assert psd.tobytes() == want_p.tobytes()


# ---------------------------------------------------------------------------
# spatial summary
# ---------------------------------------------------------------------------


def variance_tuned_recording(variances, fs=200.0, n=2000, seed=3):
    rng = np.random.default_rng(seed)
    rows = np.stack(
        [np.sqrt(v) * rng.standard_normal(n) for v in variances]
    )
    labels = tuple(f"X{i}" for i in range(len(variances)))
    return Recording(channels=labels, fs=fs, data=rows)


def spatial(rec, hier):
    """`spatial_summary` with the recording's own channel statistics."""
    return spatial_summary(rec, hier, temporal_stats(rec.data))


def test_top_k_selects_highest_variance():
    rec = Recording(
        channels=("X0", "X1", "X2", "X3"),
        fs=200.0,
        data=np.stack(
            [
                1.0 * np.tile([1.0, -1.0], 500),
                3.0 * np.tile([1.0, -1.0], 500),
                2.0 * np.tile([1.0, -1.0], 500),
                0.5 * np.tile([1.0, -1.0], 500),
            ]
        ),
    )
    hier = build_hierarchy(tiny_montage(4))
    _, top = spatial(rec, hier)
    assert DEFAULT_TOP_K == 3
    assert [e.label for e in top] == ["X1", "X2", "X0"]
    assert top[0].variance > top[1].variance > top[2].variance


def test_top_k_clamps_to_channel_count():
    rec = variance_tuned_recording([1.0, 2.0])
    hier = build_hierarchy(tiny_montage(2))
    _, top = spatial(rec, hier)
    assert len(top) == 2


def test_extract_features_computes_each_temporal_stat_once(monkeypatch):
    import eeglm.profiler as profiler

    calls = []

    def counted(rows):
        calls.append(np.shape(rows))
        return temporal_stats(rows)

    monkeypatch.setattr(profiler, "temporal_stats", counted)
    rng = np.random.default_rng(0)
    rec = Recording(channels=tiny_montage(4).labels, fs=200.0, data=rng.standard_normal((4, 800)))
    feats = extract_features(rec, build_hierarchy(tiny_montage(4)))
    # one batched call over the channels plus one over the whole recording
    assert calls == [(4, 800), (1, 3200)]
    regions, top = spatial(rec, build_hierarchy(tiny_montage(4)))
    assert feats.region_stats == regions and feats.top_channels == top


@pytest.mark.parametrize(
    "montage, fs, seconds",
    [(recipe.WIDE_MONTAGE, recipe.WIDE_FS, recipe.WIDE_SECONDS), ("synthetic-4", 200.0, 2.0)],
    ids=["signal-wide", "synthetic-4"],
)
def test_batched_features_match_the_per_channel_oracle(montage, fs, seconds):
    mont = get_montage(montage)
    hier = build_hierarchy(mont)
    for seed, label in enumerate(CLASS_TONES):
        rng = np.random.default_rng(seed)
        rec = preprocess(make_recording(label, mont.labels, rng, fs=fs, seconds=seconds))
        feats = extract_features(rec, hier)
        want_stats = [temporal_stats_1d(row) for row in rec.data]
        want_global = temporal_stats_1d(rec.data)
        got_stats = list(feats.channel_stats.values()) + [feats.global_stats]
        for got, want in zip(got_stats, want_stats + [want_global], strict=True):
            assert astuple(got)[:4] == astuple(want)[:4]
            assert got.degenerate == want.degenerate
            assert abs(got.kurtosis - want.kurtosis) <= 1e-15 * abs(want.kurtosis)
        want_spectra = [spectral_stats_1d(row, rec.fs) for row in rec.data]
        assert list(feats.channel_spectra.values()) == want_spectra
        regions, _ = spatial_summary(rec, hier, stats=want_stats)
        oracle = replace(
            feats,
            global_stats=want_global,
            channel_stats=dict(zip(rec.channels, want_stats)),
            channel_spectra=dict(zip(rec.channels, want_spectra)),
            region_stats=regions,
        )
        assert verbalize(feats) == verbalize(oracle)


def test_spatial_summary_rejects_foreign_montage():
    rec = variance_tuned_recording([1.0, 2.0, 3.0])
    hier = build_hierarchy(tiny_montage(4))
    with pytest.raises(MontageError, match="do not match"):
        spatial(rec, hier)


def test_top_k_matches_full_sort_oracle(rng):
    mont = builtin_montage()
    data = rng.standard_normal((19, 1000)) * rng.uniform(0.1, 10.0, size=(19, 1))
    rec = Recording(channels=mont.labels, fs=200.0, data=data)
    hier = build_hierarchy(mont)
    _, top = spatial(rec, hier)
    order = sorted(range(19), key=lambda i: (-data[i].var(), i))
    assert [e.label for e in top] == [mont.labels[i] for i in order[:3]]


def test_top_k_invariant_to_channel_offsets(rng):
    mont = builtin_montage()
    data = rng.standard_normal((19, 500))
    rec_a = Recording(channels=mont.labels, fs=200.0, data=data)
    rec_b = Recording(
        channels=mont.labels, fs=200.0, data=data + rng.uniform(-5, 5, size=(19, 1))
    )
    hier = build_hierarchy(mont)
    _, top_a = spatial(rec_a, hier)
    _, top_b = spatial(rec_b, hier)
    assert [e.label for e in top_a] == [e.label for e in top_b]


def test_region_aggregates_average_member_channels():
    rec = variance_tuned_recording([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    hier = build_hierarchy(tiny_montage(6))
    regions, _ = spatial(rec, hier)
    by_name = {r.name: r for r in regions}
    # anterior holds channels X0 and X3 under the tiny montage's round-robin
    member_rows = rec.data[[0, 3]]
    stats = [member_rows[i] for i in range(2)]
    want_mean = np.mean([s.mean() for s in stats])
    want_energy = np.mean([(s**2).sum() for s in stats])
    assert abs(by_name["anterior"].mean - want_mean) < 1e-12
    assert abs(by_name["anterior"].energy - want_energy) < 1e-9
    assert by_name["anterior"].n_channels == 2


# ---------------------------------------------------------------------------
# verbalizer
# ---------------------------------------------------------------------------


def test_verbalize_deterministic():
    hier = build_hierarchy(tiny_montage(3))
    feats = extract_features(fixed_recording(), hier)
    assert verbalize(feats) == verbalize(feats)
    feats2 = extract_features(fixed_recording(), hier)
    assert verbalize(feats) == verbalize(feats2)


def test_verbalize_flags_flat_channel():
    hier = build_hierarchy(tiny_montage(3))
    feats = extract_features(fixed_recording(), hier)
    text = verbalize(feats)
    quality = [line for line in text.splitlines() if line.startswith("4. Quality")]
    assert len(quality) == 1
    assert "flat channel" in quality[0]
    assert "X2" in quality[0]


def test_verbalize_matches_golden_file():
    hier = build_hierarchy(tiny_montage(3))
    feats = extract_features(fixed_recording(), hier)
    golden = (DATA_DIR / "verbalizer_golden.txt").read_text()
    assert verbalize(feats) == golden


# ---------------------------------------------------------------------------
# prompt assembly
# ---------------------------------------------------------------------------


def minimal_meta(**overrides) -> TaskMeta:
    kwargs = dict(
        sample_name="rec-001",
        dataset_name="HMC",
        task_logic="sleep stage analysis",
        num_channels=3,
        num_samples=2000,
    )
    kwargs.update(overrides)
    return TaskMeta(**kwargs)


def test_prompt_contains_each_section_once():
    prompt = build_prompt(minimal_meta(), "features here")
    for header in PROMPT_SECTIONS:
        assert prompt.count(header) == 1


def test_prompt_embeds_data_summary_fields():
    prompt = build_prompt(minimal_meta(), "features here")
    summary = prompt.split("[Data Summary]")[1].split("[Verbalized Features]")[0]
    assert "HMC" in summary
    assert "Channel count: 3" in summary
    assert "Time series length: 2000" in summary


def test_prompt_rejects_label_in_metadata():
    meta = minimal_meta(task_logic="detect seizure episodes")
    with pytest.raises(ConfigError):
        build_prompt(meta, "features here", label_vocabulary=("seizure",))


def test_prompt_label_scan_is_case_insensitive():
    meta = minimal_meta(dataset_name="SeIzUrE-corpus")
    with pytest.raises(ConfigError):
        build_prompt(meta, "features", label_vocabulary=("seizure",))


def test_prompt_scan_covers_verbalized_text():
    with pytest.raises(ConfigError):
        build_prompt(minimal_meta(), "looks like wakefulness", ("wakefulness",))


def test_prompt_is_pure_function_of_inputs():
    hier = build_hierarchy(tiny_montage(3))
    rec = fixed_recording()
    a = build_prompt(minimal_meta(), verbalize(extract_features(rec, hier)))
    b = build_prompt(minimal_meta(), verbalize(extract_features(rec, hier)))
    assert a == b


# ---------------------------------------------------------------------------
# profile generation and parsing
# ---------------------------------------------------------------------------


def stub_prompt() -> str:
    hier = build_hierarchy(tiny_montage(3))
    s_desc = verbalize(extract_features(fixed_recording(), hier))
    return build_prompt(minimal_meta(), s_desc)


def test_stub_profile_deterministic_and_complete():
    prompt = stub_prompt()
    first = generate_profile(prompt, StubClient())
    second = generate_profile(prompt, StubClient())
    assert first.retries == 0
    assert first.profile == second.profile
    record = first.profile.to_dict()
    assert set(record) == set(PROFILE_KEYS)
    assert all(v.strip() for v in record.values())


class FlakyClient(LlmClient):
    def __init__(self, bad_replies: int):
        self.bad_replies = bad_replies
        self.calls = 0

    def complete(self, prompt: str) -> str:
        self.calls += 1
        if self.calls <= self.bad_replies:
            return "sorry, here is prose instead of a record"
        return StubClient().complete(prompt)


def test_profile_retries_then_succeeds():
    client = FlakyClient(bad_replies=2)
    result = generate_profile(stub_prompt(), client)
    assert result.retries == 2
    assert client.calls == 3


def test_profile_gives_up_carrying_raw_text():
    client = FlakyClient(bad_replies=99)
    with pytest.raises(DataError, match="malformed"):
        generate_profile(stub_prompt(), client)


def test_parse_profile_rejects_missing_key():
    record = {k: "text" for k in PROFILE_KEYS[:-1]}
    with pytest.raises(DataError, match="missing"):
        parse_profile(json.dumps(record))


def test_parse_profile_rejects_empty_value():
    record = {k: "text" for k in PROFILE_KEYS}
    record["Feature Summary"] = "   "
    with pytest.raises(DataError):
        parse_profile(json.dumps(record))


def test_parse_profile_accepts_fenced_json():
    record = {k: f"value {i}" for i, k in enumerate(PROFILE_KEYS)}
    text = "```json\n" + json.dumps(record) + "\n```"
    profile = parse_profile(text)
    assert profile.to_dict() == record


# ---------------------------------------------------------------------------
# HTTP client
# ---------------------------------------------------------------------------

SAMPLE_BODY = {
    "Dataset Task Description": "This is a sleep staging task over multichannel recordings.",
    "Task Related Prior Knowledge": "Delta rhythm dominates deep sleep; theta marks light sleep.",
    "Signal Physical Features": "Mean -0.00023, std 40.85; channel C4 leads the delta band.",
    "Spatial Distribution Features": "Channels C4 and C3 exhibit high power ratios in the delta band.",
    "Data Quality Notes": "No obvious outlier channels or noise interference observed.",
    "Feature Summary": "The sample is primarily characterized by low-frequency activity in the frontal brain region.",
}


class _ProfileHandler(BaseHTTPRequestHandler):
    seen_bodies: list = []
    seen_headers: list = []
    reply: tuple[int, bytes] | None = None  # (status, body) in place of the sample profile

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen_bodies.append(body)
        type(self).seen_headers.append(dict(self.headers))
        status, reply = self.reply or (200, json.dumps({"text": json.dumps(SAMPLE_BODY)}).encode())
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


@pytest.fixture()
def profile_server():
    _ProfileHandler.seen_bodies = []
    _ProfileHandler.seen_headers = []
    _ProfileHandler.reply = None
    server = HTTPServer(("127.0.0.1", 0), _ProfileHandler)
    # a short poll, so that shutdown() returns without waiting out the default 0.5 s
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/"
    server.shutdown()
    thread.join(timeout=5)


def test_http_client_round_trip(profile_server):
    client = HttpClient(profile_server, model="analyst-1", timeout=5.0)
    result = generate_profile("prompt body", client)
    assert result.profile.spatial_features == SAMPLE_BODY["Spatial Distribution Features"]
    assert "low-frequency activity in the frontal brain region" in result.profile.summary
    body = _ProfileHandler.seen_bodies[0]
    assert body["prompt"] == "prompt body"
    assert isinstance(body["max_tokens"], int)
    assert body["temperature"] == 0


def test_http_client_unreachable_raises_transport_error():
    client = HttpClient("http://127.0.0.1:9/", timeout=0.5)
    with pytest.raises(TransportError):
        client.complete("hello")


@pytest.mark.parametrize(
    "status, body, match",
    [
        (500, b'{"text": "overloaded"}', "returned HTTP 500"),
        (201, json.dumps({"text": json.dumps(SAMPLE_BODY)}).encode(), "returned HTTP 201"),
        (200, b"<html>busy</html>", "non-JSON body"),
    ],
    ids=["server-error", "created-not-ok", "html-body"],
)
def test_http_client_bad_reply_raises_transport_error(profile_server, status, body, match):
    _ProfileHandler.reply = (status, body)
    with pytest.raises(TransportError, match=match):
        HttpClient(profile_server, timeout=5.0).complete("hello")


def test_http_client_sends_the_bearer_token_from_token_env(profile_server, monkeypatch):
    monkeypatch.setenv("EEGLM_TEST_TOKEN", "s3cret")
    HttpClient(profile_server, token_env="EEGLM_TEST_TOKEN", timeout=5.0).complete("hello")
    assert _ProfileHandler.seen_headers[0]["Authorization"] == "Bearer s3cret"


def test_http_client_endpoint_without_scheme_raises_transport_error():
    with pytest.raises(TransportError, match="unreachable"):
        HttpClient("127.0.0.1:9/", timeout=0.5).complete("hello")


class _Reply:
    """What a fake `urlopen` returns: a 200 reply carrying `payload` as JSON."""

    status = 200

    def __init__(self, payload):
        self.body = json.dumps(payload).encode()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


@pytest.mark.parametrize(
    "payload",
    [{"choices": ["text"]}, {"choices": [{"message": "hi"}]}, {"choices": [{"message": None}]}],
    ids=["choice-a-string", "message-a-string", "message-null"],
)
def test_http_client_malformed_reply_raises_transport_error(monkeypatch, payload):
    import urllib.request

    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: _Reply(payload))
    with pytest.raises(TransportError, match="response has no completion text"):
        HttpClient("http://127.0.0.1:9/").complete("hello")
