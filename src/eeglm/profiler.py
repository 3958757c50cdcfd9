"""Deterministic signal description, prompt assembly, and profile generation."""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.fft import rfft, rfftfreq

from .errors import ConfigError, DataError, TransportError
from .signal_io import FREQ_BANDS, Recording
from .topology import BthHierarchy

DEFAULT_TOP_K = 3
MAX_RETRIES = 2  # re-asks after a malformed completion
MAX_TOKENS = 1024  # completion budget sent with each HTTP request
WELCH_SECONDS = 2.0
SPAN_LOW = 0.5
SPAN_HIGH = 100.0

PROFILE_KEYS = (
    "Dataset Task Description",
    "Task Related Prior Knowledge",
    "Signal Physical Features",
    "Spatial Distribution Features",
    "Data Quality Notes",
    "Feature Summary",
)

PROMPT_SECTIONS = (
    "[System Instruction]",
    "[Data Summary]",
    "[Verbalized Features]",
    "[Analysis Requirements]",
    "[Output Format]",
)

REASK_SUFFIX = (
    "Reminder: your previous reply was not valid. Respond with only the JSON "
    "object containing exactly the six required keys, each with a non-empty "
    "string value."
)


def _fmt(value: float) -> str:
    """Render a number with 4 significant digits, locale-independent."""
    return f"{float(value):.4g}"


# ---------------------------------------------------------------------------
# feature records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TemporalStats:
    """Amplitude-distribution summary of one segment."""

    mean: float
    std: float
    energy: float
    peak_to_peak: float
    kurtosis: float
    degenerate: bool = False


@dataclass(frozen=True)
class SpectralStats:
    """Relative band powers plus the dominant spectral peak of one segment."""

    band_powers: dict[str, float]
    peak_freq: float
    peak_power: float
    degenerate: bool = False


@dataclass(frozen=True)
class RegionStats:
    """Mean of the member channels' temporal statistics for one region."""

    name: str
    n_channels: int
    mean: float
    std: float
    energy: float
    peak_to_peak: float
    kurtosis: float


@dataclass(frozen=True)
class ChannelRank:
    """One entry of the high-variance channel shortlist."""

    label: str
    variance: float


@dataclass(frozen=True)
class PhysicalFeatures:
    """Everything the verbalizer needs: temporal, spectral, spatial records."""

    global_stats: TemporalStats
    channel_stats: dict[str, TemporalStats]
    channel_spectra: dict[str, SpectralStats]
    region_stats: tuple[RegionStats, ...]
    top_channels: tuple[ChannelRank, ...]
    degenerate_channels: tuple[str, ...]


@dataclass(frozen=True)
class TaskMeta:
    """Recording-level context embedded in the prompt's data summary."""

    sample_name: str
    dataset_name: str
    task_logic: str
    num_channels: int
    num_samples: int


@dataclass(frozen=True)
class SemanticProfile:
    """Six free-text fields describing one recording."""

    task_description: str
    prior_knowledge: str
    physical_features: str
    spatial_features: str
    quality_notes: str
    summary: str

    def to_dict(self) -> dict[str, str]:
        return dict(zip(PROFILE_KEYS, self.as_tuple()))

    def as_tuple(self) -> tuple[str, ...]:
        return astuple(self)

    @staticmethod
    def from_dict(record: dict) -> "SemanticProfile":
        missing = [k for k in PROFILE_KEYS if k not in record]
        if missing:
            raise DataError(f"profile record is missing keys {missing}")
        values = []
        for key in PROFILE_KEYS:
            val = record[key]
            if not isinstance(val, str) or not val.strip():
                raise DataError(f"profile field {key!r} must be a non-empty string")
            values.append(val)
        return SemanticProfile(*values)

    def flat_text(self) -> str:
        """All six fields joined in key order, ready for tokenization."""
        return " ".join(self.as_tuple())


@dataclass(frozen=True)
class ProfileResult:
    """A parsed profile plus how many re-asks it took to obtain it."""

    profile: SemanticProfile
    retries: int


# ---------------------------------------------------------------------------
# feature extraction
# ---------------------------------------------------------------------------


def temporal_stats(rows: np.ndarray) -> list[TemporalStats]:
    """Mean, population std, energy, peak-to-peak, and kurtosis of each row.

    `rows` is a (rows, samples) array; every statistic is one reduction over
    axis 1, so each row gets the bits a 1-D pass over it would give. Kurtosis
    is the mean of the squared squares of the standardised row (`** 4` would
    call libm `pow` per element); a row with zero std gets kurtosis 0 and is
    marked degenerate."""
    x = np.ascontiguousarray(rows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ConfigError(
            f"temporal statistics need (rows, samples) with at least 2 samples, got {x.shape}"
        )
    mu = x.mean(axis=1)
    sigma = x.std(axis=1)
    energy = np.sum(x * x, axis=1)
    p2p = x.max(axis=1) - x.min(axis=1)
    z = (x - mu[:, None]) / np.where(sigma > 0.0, sigma, 1.0)[:, None]
    kurt = np.where(sigma > 0.0, np.mean(np.square(np.square(z)), axis=1), 0.0)
    columns = np.stack([mu, sigma, energy, p2p, kurt], axis=1).tolist()
    return [TemporalStats(*row, degenerate=row[1] <= 0.0) for row in columns]


@lru_cache(maxsize=16)
def _psd_window(n: int, fs: float) -> np.ndarray:
    """Periodic Hann window of `n` samples scaled to unit power density at `fs`.

    Built the way scipy.signal builds it: the cosine series on `n + 1` points
    with the last dropped, then scaled by 1 / sqrt(sum(w**2) / (1 / fs)) with
    the sum taken in Python order. Read-only: every call shares it."""
    if n == 1:
        win = np.ones(1)
    else:
        win = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)))[:-1]
    win = win * (1 / np.sqrt(sum(win**2) / (1 / fs)))
    win.setflags(write=False)
    return win


def welch(x: np.ndarray, fs: float, nperseg: int) -> tuple[np.ndarray, np.ndarray]:
    """Welch power spectral density of each row of a (rows, samples) array.

    Periodic Hann segments of `nperseg` samples at half overlap, each demeaned,
    density-scaled and one-sided; the segments of a row are averaged on their
    own. Returns (freqs, psd) with the bits of scipy.signal.welch(x, fs,
    window="hann", nperseg=nperseg, noverlap=nperseg // 2) (scipy 1.17) on
    numpy.fft alone. The segments sit on the contiguous last axis when
    averaged, as in scipy: numpy sums such an axis pairwise, and past eight
    segments another layout would add them in another order."""
    n = nperseg
    hop = n - n // 2
    count = (x.shape[-1] - n // 2) // hop
    segs = sliding_window_view(x, n, axis=-1)[:, ::hop][:, :count]
    spec = rfft((segs - segs.mean(axis=-1, keepdims=True)) * _psd_window(n, fs), n, axis=-1)
    power = np.ascontiguousarray(np.swapaxes(spec.real**2 + spec.imag**2, 1, 2))
    power[:, 1 : -1 if n % 2 == 0 else None] *= 2  # fold in the negative frequencies
    return rfftfreq(n, 1 / fs), power.mean(axis=-1)


def spectral_stats(rows: np.ndarray, fs: float) -> list[SpectralStats]:
    """Relative power in the five canonical bands plus the dominant peak, per row.

    One `welch` call over the (rows, samples) array gives every row's PSD.
    Band powers are shares of the 0.5-100 Hz span, clipped to Nyquist; each
    sum is taken on its 1-D row, so a row's record has the bits a one-row
    call would give."""
    x = np.ascontiguousarray(rows, dtype=np.float64)
    nperseg = int(round(WELCH_SECONDS * fs))
    if nperseg < 1:
        raise ConfigError(
            f"spectral statistics need a {WELCH_SECONDS:g} s Welch segment of at least "
            f"one sample, got {nperseg} at {fs:g} Hz"
        )
    if x.ndim != 2 or x.shape[1] < nperseg:
        raise ConfigError(
            f"spectral statistics need (rows, samples) with at least {nperseg} samples "
            f"({WELCH_SECONDS:g} s at {fs:g} Hz), got {x.shape}"
        )
    freqs, psd = welch(x, fs, nperseg)
    span_hi = min(SPAN_HIGH, fs / 2.0)
    span_mask = (freqs >= SPAN_LOW) & (freqs <= span_hi)
    last = list(FREQ_BANDS)[-1]
    masks = {}
    for name, (lo, hi) in FREQ_BANDS.items():
        hi = min(hi, span_hi)
        upper = freqs <= hi if name == last else freqs < hi
        masks[name] = (freqs >= lo) & upper & (lo < hi)  # empty once Nyquist clips it away
    out = []
    for row in psd:
        total = float(row[span_mask].sum())
        powers = {
            name: float(row[mask].sum() / total) if total > 0.0 else 0.0
            for name, mask in masks.items()
        }
        peak = int(np.argmax(row))
        out.append(SpectralStats(powers, float(freqs[peak]), float(row[peak]), total <= 0.0))
    return out


def spatial_summary(
    rec: Recording, hier: BthHierarchy, stats: Sequence[TemporalStats]
) -> tuple[tuple[RegionStats, ...], tuple[ChannelRank, ...]]:
    """Region-level aggregates plus the DEFAULT_TOP_K channels by signal
    variance; `stats` are the channels' temporal statistics in channel order."""
    hier.montage.require(rec.channels)
    stat_rows = np.array(
        [[s.mean, s.std, s.energy, s.peak_to_peak, s.kurtosis] for s in stats]
    )
    regions = []
    for level in (2, 3):
        mean_mat = hier.mean_matrix(level)
        agg = mean_mat @ stat_rows
        counts = (mean_mat > 0).sum(axis=1)
        for name, row, count in zip(hier.group_names[level - 1], agg, counts):
            regions.append(RegionStats(name, int(count), *(float(v) for v in row)))
    variances = rec.data.var(axis=1)
    order = np.argsort(-variances, kind="stable")[:DEFAULT_TOP_K]
    top = tuple(ChannelRank(rec.channels[i], float(variances[i])) for i in order)
    return tuple(regions), top


def extract_features(rec: Recording, hier: BthHierarchy) -> PhysicalFeatures:
    """Run the temporal, spectral, and spatial operators over a recording."""
    stats = temporal_stats(rec.data)
    channel_stats = dict(zip(rec.channels, stats))
    channel_spectra = dict(zip(rec.channels, spectral_stats(rec.data, rec.fs)))
    regions, top = spatial_summary(rec, hier, stats=stats)
    degenerate = tuple(
        lab
        for lab in rec.channels
        if channel_stats[lab].degenerate or channel_spectra[lab].degenerate
    )
    return PhysicalFeatures(
        global_stats=temporal_stats(rec.data.reshape(1, -1))[0],
        channel_stats=channel_stats,
        channel_spectra=channel_spectra,
        region_stats=regions,
        top_channels=top,
        degenerate_channels=degenerate,
    )


# ---------------------------------------------------------------------------
# verbalization and prompt assembly
# ---------------------------------------------------------------------------


def verbalize(features: PhysicalFeatures) -> str:
    """Render extracted features as deterministic English sentences."""
    g = features.global_stats
    lines = [
        "1. Temporal statistics: global mean "
        f"{_fmt(g.mean)}, std {_fmt(g.std)}, energy {_fmt(g.energy)}, "
        f"peak-to-peak {_fmt(g.peak_to_peak)}, kurtosis {_fmt(g.kurtosis)}."
    ]
    spectra = list(features.channel_spectra.values())
    mean_peak_freq = float(np.mean([s.peak_freq for s in spectra]))
    mean_peak_power = float(np.mean([s.peak_power for s in spectra]))
    band_means = {
        name: float(np.mean([s.band_powers[name] for s in spectra]))
        for name in FREQ_BANDS
    }
    band_text = ", ".join(f"{name} {_fmt(v)}" for name, v in band_means.items())
    lines.append(
        f"2. Spectral features: mean peak frequency {_fmt(mean_peak_freq)} Hz, "
        f"mean peak power {_fmt(mean_peak_power)}; mean relative band powers: "
        f"{band_text}."
    )
    for entry in features.top_channels:
        spec = features.channel_spectra[entry.label]
        dominant = max(spec.band_powers, key=spec.band_powers.get)
        lines.append(
            f"   Channel {entry.label}: peak frequency {_fmt(spec.peak_freq)} Hz, "
            f"peak power {_fmt(spec.peak_power)}, dominant band {dominant} "
            f"(relative power {_fmt(spec.band_powers[dominant])})."
        )
    region_text = "; ".join(
        f"{r.name} ({r.n_channels} ch): mean {_fmt(r.mean)}, std {_fmt(r.std)}, "
        f"energy {_fmt(r.energy)}"
        for r in features.region_stats
    )
    top_text = ", ".join(
        f"{e.label} (variance {_fmt(e.variance)})" for e in features.top_channels
    )
    lines.append(f"3. Spatial features: regions {region_text}.")
    lines.append(f"   Highest-variance channels: {top_text}.")
    if features.degenerate_channels:
        flagged = ", ".join(features.degenerate_channels)
        lines.append(
            f"4. Quality notes: flat channel detected with zero variance: {flagged}."
        )
    else:
        lines.append("4. Quality notes: no flat or degenerate channels detected.")
    return "\n".join(lines)


def _scan_for_labels(text: str, vocabulary: tuple[str, ...], where: str) -> None:
    lowered = text.lower()
    for label in vocabulary:
        if label and label.lower() in lowered:
            raise ConfigError(
                f"classification label {label!r} would leak into the prompt via {where}"
            )


def build_prompt(
    meta: TaskMeta, s_desc: str, label_vocabulary: tuple[str, ...] = ()
) -> str:
    """Assemble the five-section analysis prompt; refuses label leakage."""
    for field_name, value in (
        ("sample_name", meta.sample_name),
        ("dataset_name", meta.dataset_name),
        ("task_logic", meta.task_logic),
    ):
        _scan_for_labels(str(value), label_vocabulary, f"task metadata field {field_name!r}")
    prompt = (
        "[System Instruction]\n"
        "You are a careful EEG signal data analyst. Produce a purely objective,\n"
        "technical report from the statistics below. The report has two parts:\n"
        "first a general textbook-style background for this kind of recording,\n"
        "then an objective description of the measured physical features.\n"
        "You are strictly prohibited from performing clinical diagnosis, naming\n"
        "diseases, or inferring any classification label.\n"
        "\n"
        "[Data Summary]\n"
        f"- Sample name: {meta.sample_name}\n"
        f"- Dataset name: {meta.dataset_name}\n"
        f"- Task logic: {meta.task_logic}\n"
        f"- Channel count: {meta.num_channels}\n"
        f"- Time series length: {meta.num_samples}\n"
        "\n"
        "[Verbalized Features]\n"
        f"{s_desc}\n"
        "\n"
        "[Analysis Requirements]\n"
        "1. Dataset task description: describe the general experimental paradigm.\n"
        "2. Task-related prior knowledge: list relevant neuroscience background.\n"
        "3. Signal physical features: objectively describe the temporal,\n"
        "   spectral, and spatial characteristics reported above.\n"
        "\n"
        "[Output Format]\n"
        "Respond strictly in the following JSON format:\n"
        "{\n"
        '  "Dataset Task Description": "general experimental paradigm",\n'
        '  "Task Related Prior Knowledge": "general neuroscience background",\n'
        '  "Signal Physical Features": "purely objective description",\n'
        '  "Spatial Distribution Features": "prominent regions and channels",\n'
        '  "Data Quality Notes": "outlier channels or noise notes",\n'
        '  "Feature Summary": "morphology summary with no diagnosis"\n'
        "}\n"
    )
    _scan_for_labels(prompt, label_vocabulary, "the assembled prompt")
    return prompt


# ---------------------------------------------------------------------------
# clients and profile generation
# ---------------------------------------------------------------------------


class LlmClient:
    """Interface for text-completion backends."""

    def complete(self, prompt: str) -> str:
        raise NotImplementedError


class StubClient(LlmClient):
    """Offline backend that derives a profile from the prompt itself."""

    def complete(self, prompt: str) -> str:
        fields = {"Sample name": "", "Dataset name": "", "Task logic": ""}
        for line in prompt.splitlines():
            stripped = line.strip().lstrip("- ")
            for key in fields:
                if stripped.startswith(key + ":"):
                    fields[key] = stripped.split(":", 1)[1].strip()
        sections = {"1.": "", "2.": "", "3.": "", "4.": ""}
        in_features = False
        for line in prompt.splitlines():
            if line.startswith("[Verbalized Features]"):
                in_features = True
                continue
            if line.startswith("[Analysis Requirements]"):
                break
            if in_features:
                stripped = line.strip()
                for prefix in sections:
                    if stripped.startswith(prefix):
                        sections[prefix] = stripped[len(prefix):].strip()
        record = {
            "Dataset Task Description": (
                f"Recordings from dataset {fields['Dataset name'] or 'unknown'} "
                f"collected for the task: {fields['Task logic'] or 'unspecified'}."
            ),
            "Task Related Prior Knowledge": (
                "Scalp potentials are conventionally split into delta, theta, "
                "alpha, beta, and gamma rhythms whose relative power varies "
                "with brain state and recording conditions."
            ),
            "Signal Physical Features": (
                f"{sections['1.'] or 'Temporal statistics unavailable.'} "
                f"{sections['2.'] or 'Spectral statistics unavailable.'}"
            ),
            "Spatial Distribution Features": (
                sections["3."] or "Spatial statistics unavailable."
            ),
            "Data Quality Notes": sections["4."] or "No quality information supplied.",
            "Feature Summary": (
                f"The dominant spectral profile is: "
                f"{sections['2.'] or 'not characterised'}"
            ),
        }
        return json.dumps(record)


class HttpClient(LlmClient):
    """Backend posting to a chat-completions-style JSON endpoint."""

    def __init__(
        self,
        endpoint: str,
        model: str = "",
        token_env: str = "EEGLM_LLM_TOKEN",
        timeout: float = 30.0,
    ):
        self.endpoint = endpoint
        self.model = model
        self.token_env = token_env
        self.timeout = timeout

    def complete(self, prompt: str) -> str:
        import http.client
        import urllib.error
        import urllib.request

        body = {"prompt": prompt, "max_tokens": MAX_TOKENS, "temperature": 0}
        if self.model:
            body["model"] = self.model
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.token_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        data = json.dumps(body).encode()
        try:
            request = urllib.request.Request(self.endpoint, data, headers, method="POST")
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                status, text = resp.status, resp.read().decode("utf-8", "replace")
        except urllib.error.HTTPError as exc:  # an OSError too: test it first
            status, text = exc.code, str(exc.reason)
        except (OSError, http.client.HTTPException, ValueError) as exc:  # ValueError: a bad URL
            raise TransportError(f"profile endpoint unreachable: {exc}") from exc
        if status != 200:
            raise TransportError(f"profile endpoint returned HTTP {status}: {text[:200]}")
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise TransportError("profile endpoint returned non-JSON body") from exc
        if isinstance(payload, dict):
            if isinstance(payload.get("text"), str):
                return payload["text"]
            choices = payload.get("choices")
            if isinstance(choices, list) and choices and isinstance(choices[0], dict):
                first = choices[0]
                if isinstance(first.get("text"), str):
                    return first["text"]
                message = first.get("message")
                if isinstance(message, dict) and isinstance(message.get("content"), str):
                    return message["content"]
        raise TransportError("profile endpoint response has no completion text")


def parse_profile(text: str) -> SemanticProfile:
    """Parse a completion into the six-field profile record."""
    candidate = text.strip()
    try:
        record = json.loads(candidate)
    except ValueError:
        start, end = candidate.find("{"), candidate.rfind("}")
        if start < 0 or end <= start:
            raise DataError(f"no JSON object found in completion: {text[:200]!r}")
        try:
            record = json.loads(candidate[start : end + 1])
        except ValueError:
            raise DataError(f"completion is not valid JSON: {text[:200]!r}")
    if not isinstance(record, dict):
        raise DataError(f"completion JSON is not an object: {text[:200]!r}")
    return SemanticProfile.from_dict(record)


def generate_profile(prompt: str, client: LlmClient) -> ProfileResult:
    """Send the prompt, parse the reply, and re-ask on malformed output."""
    current = prompt
    last_error = ""
    for attempt in range(MAX_RETRIES + 1):
        raw = client.complete(current)
        try:
            return ProfileResult(parse_profile(raw), retries=attempt)
        except DataError as exc:
            last_error = str(exc)
            current = prompt + "\n\n" + REASK_SUFFIX
    raise DataError(
        f"profile output stayed malformed after {MAX_RETRIES} retries: {last_error}"
    )
