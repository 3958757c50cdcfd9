"""The three training stages as specs run by one loop, plus checkpoint/resume plumbing."""

from __future__ import annotations

import csv
import json
import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor, backward
from .backbone import BackboneConfig, ToyBackbone
from .checkpoint import MANIFEST, assign_parameters, load_checkpoint, save_checkpoint
from .config import leaves, resolve_config
from .encoder import DualStreamEncoder, EncoderConfig
from .errors import ConfigError, DataError, UsageError
from .losses import ReconstructionHeads, loss_cpt, loss_dsha, loss_ntp, loss_sft
from .optim import AdamW, clip_global_norm, cosine_schedule
from .profiler import (
    HttpClient,
    LlmClient,
    PhysicalFeatures,
    ProfileResult,
    StubClient,
    TaskMeta,
    build_prompt,
    extract_features,
    generate_profile,
    verbalize,
)
from .quantizer import QuantizerConfig, TokenSequence, VectorQuantizer, codebook_health
from .refiner import HashedTextEmbedder, RefinerConfig, SemanticRefiner
from .sequences import HybridSequence, VocabSpec, WhitespaceTokenizer, assemble_sequence
from .signal_io import Recording, dft_target, patch
from .synth import load_corpus
from .topology import BthHierarchy

CSV_COLUMNS = ("step", "loss_total", "loss_text", "loss_eeg", "loss_orth", "lr")
# the config keys a --resume may change: the epoch budget, and the start
# checkpoint, which a resumed run does not read
RESUMABLE_KEYS = ("train.epochs", "train.init_from")


# ---------------------------------------------------------------------------
# model bundle
# ---------------------------------------------------------------------------

@dataclass
class PipelineModel:
    """Every trainable stage of the pipeline plus its shared vocabulary."""

    cfg: dict
    vocab: VocabSpec
    encoder: DualStreamEncoder
    recon: ReconstructionHeads
    quantizer: VectorQuantizer
    refiner: SemanticRefiner
    backbone: ToyBackbone
    tokenizer: WhitespaceTokenizer
    embedder: HashedTextEmbedder

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for prefix, mod in (
            ("encoder", self.encoder),
            ("recon", self.recon),
            ("quant", self.quantizer),
            ("refiner", self.refiner),
            ("backbone", self.backbone),
        ):
            out.update(mod.named_parameters(prefix))
        return out

    def patch(self, rec: Recording) -> np.ndarray:
        """Cut a recording of the model's montage into (C, P, W) patches."""
        self.encoder.hierarchy.montage.require(rec.channels)
        return patch(rec, self.cfg["data"]["patch_len"])

    def tokenize_recording(self, rec: Recording) -> tuple[TokenSequence, np.ndarray]:
        """Patch -> encode -> quantize one recording (no gradients recorded)."""
        tokens, _, _, z_q = self.quantizer(self.encoder(self.patch(rec)))
        return tokens, z_q.data.copy()

    def tokenize_recordings(self, recs: Sequence[Recording]) -> list[tuple[TokenSequence, np.ndarray]]:
        """`tokenize_recording` of each recording, to the bit, with one
        encoder and one quantizer call per patch shape among them. Every
        recording's montage is checked before any is encoded."""
        patches = [self.patch(rec) for rec in recs]
        out: list = [None] * len(recs)
        for shape in dict.fromkeys(x.shape for x in patches):
            members = [i for i, x in enumerate(patches) if x.shape == shape]
            tokens, _, _, z_q = self.quantizer(self.encoder(np.stack([patches[i] for i in members])))
            for i, tok, rows in zip(members, tokens, z_q.data):
                out[i] = tok, rows.copy()
        return out


def build_model(cfg: dict) -> PipelineModel:
    """Construct the full bundle from a resolved config, seeded by cfg['seed']."""
    rng = np.random.default_rng(cfg["seed"])
    enc_cfg = EncoderConfig(
        **cfg["encoder"], patch_len=cfg["data"]["patch_len"], montage=cfg["data"]["montage"]
    )
    q_cfg = QuantizerConfig(**cfg["quantizer"])
    # the refiner attends over codebook rows and its summary rows feed the
    # backbone's continuous bridge, so both widths equal the code width
    ref_cfg = RefinerConfig(**cfg["refiner"], embed_dim=q_cfg.code_dim)
    bb = dict(cfg["backbone"])
    vocab = VocabSpec(v_text=bb.pop("v_text"), n_codes=q_cfg.num_codes)
    bb_cfg = BackboneConfig(vocab=vocab, sem_dim=q_cfg.code_dim, **bb)
    encoder = DualStreamEncoder(enc_cfg, rng)
    recon = ReconstructionHeads(enc_cfg.embed_dim, cfg["data"]["patch_len"], rng)
    quantizer = VectorQuantizer(q_cfg, enc_cfg.embed_dim, rng)
    refiner = SemanticRefiner(ref_cfg, rng)
    backbone = ToyBackbone(bb_cfg, rng)
    return PipelineModel(
        cfg=cfg,
        vocab=vocab,
        encoder=encoder,
        recon=recon,
        quantizer=quantizer,
        refiner=refiner,
        backbone=backbone,
        tokenizer=WhitespaceTokenizer(vocab.v_text),
        embedder=HashedTextEmbedder(q_cfg.code_dim),
    )


def _is_adapter(name: str) -> bool:
    return "lora_a" in name or "lora_b" in name


def _load_into(model: PipelineModel, arrays: Mapping[str, np.ndarray]) -> None:
    """Give a freshly built model the parameter layout `arrays` were saved
    from (a backbone adapter when they hold adapter entries) and load them."""
    if any(map(_is_adapter, arrays)):
        model.backbone.apply_lora(**model.cfg["lora"], rng=np.random.default_rng(0))
    assign_parameters(model.named_parameters(), arrays)


def load_model(checkpoint_path: str | Path) -> tuple[PipelineModel, dict]:
    """Rebuild a model bundle from a stage checkpoint, whose stored config is
    resolved like a config file (a refused one raises DataError)."""
    arrays, meta = load_checkpoint(checkpoint_path)
    if not isinstance(meta.get("config"), dict) or "stage" not in meta:
        raise DataError(f"checkpoint {checkpoint_path} lacks stage/config metadata")
    try:
        model = build_model(resolve_config(overrides=[meta["config"]]))
    except ConfigError as e:
        raise DataError(f"checkpoint {checkpoint_path} holds a bad config: {e}") from e
    _load_into(model, arrays)
    return model, meta


# ---------------------------------------------------------------------------
# profiles and prepared sequences
# ---------------------------------------------------------------------------

def make_llm_client(llm_cfg: dict) -> LlmClient:
    if llm_cfg["mode"] == "stub":
        return StubClient()
    return HttpClient(**{k: v for k, v in llm_cfg.items() if k != "mode"})


def profile_recording(
    rec: Recording,
    model: PipelineModel,
    sample_name: str,
    client: LlmClient,
) -> tuple[PhysicalFeatures, str, ProfileResult]:
    """`profile_signal` over the model's hierarchy and data config."""
    return profile_signal(rec, model.encoder.hierarchy, model.cfg["data"], sample_name, client)


def profile_signal(
    rec: Recording,
    hier: BthHierarchy,
    data_cfg: dict,
    sample_name: str,
    client: LlmClient,
) -> tuple[PhysicalFeatures, str, ProfileResult]:
    """Deterministic features -> label-free prompt -> structured profile."""
    features = extract_features(rec, hier)
    meta = TaskMeta(
        sample_name=sample_name,
        dataset_name=data_cfg["dataset_name"],
        task_logic=data_cfg["task_description"],
        num_channels=rec.n_channels,
        num_samples=rec.n_samples,
    )
    prompt = build_prompt(
        meta, verbalize(features), label_vocabulary=tuple(data_cfg["classes"])
    )
    return features, prompt, generate_profile(prompt, client)


@dataclass
class PreparedSequence:
    """One sample's frozen-stage material for the language-model stages."""

    name: str
    label: str | None
    seq: HybridSequence
    h_text: np.ndarray
    z_q: np.ndarray


def prepare_sequences(
    model: PipelineModel,
    corpus: Sequence[tuple[str, Recording, str | None]],
    with_answer: bool,
    tokenized: Sequence[tuple[TokenSequence, np.ndarray]] | None = None,
) -> list[PreparedSequence]:
    """Tokenize, profile, and assemble every sample once (frozen-stage work).
    With `with_answer`, every label must be one of the configured classes,
    as `load_corpus(..., classes=...)` checks. `tokenized` holds each
    sample's (tokens, z_q) when the caller has them; otherwise each
    recording is tokenized here by `tokenize_recording`."""
    cfg = model.cfg
    client = make_llm_client(cfg["llm"])
    model.tokenizer.ensure_distinct(cfg["data"]["classes"])
    instr_ids = model.tokenizer.encode(cfg["data"]["instruction"]) if with_answer else None
    out = []
    for i, (name, rec, label) in enumerate(corpus):
        tokens, z_q = model.tokenize_recording(rec) if tokenized is None else tokenized[i]
        _, _, result = profile_recording(rec, model, name, client)
        text = result.profile.flat_text()
        answer_ids = model.tokenizer.encode(label) if with_answer else None
        seq = assemble_sequence(
            model.tokenizer.encode(text),
            model.refiner.cfg.n_experts,
            tokens.indices,
            model.vocab,
            instruction_ids=instr_ids,
            answer_ids=answer_ids,
        )
        out.append(
            PreparedSequence(
                name=name,
                label=label,
                seq=seq,
                h_text=model.embedder.embed(text),
                z_q=z_q,
            )
        )
    return out


# ---------------------------------------------------------------------------
# run-directory bookkeeping
# ---------------------------------------------------------------------------

class MetricsLogger:
    """Append-only per-step CSV with round-trip-exact float columns.

    Without `keep_through` the log starts fresh. With it, a run resumes the
    existing log: rows past step `keep_through` (logged after the checkpoint
    the run resumes from) are dropped first. A log is refused as it is when
    it cannot be read, lacks the header row, has a step that is not an
    integer, or its kept rows are not steps 1..`keep_through` in order, each
    with five finite floats and `loss_total == (loss_text + loss_eeg) +
    loss_orth * lambda_orth` as the row prints them.
    """

    def __init__(self, path: str | Path, keep_through: int | None = None, lambda_orth: float = 0.0):
        self.path = Path(path)
        fresh = keep_through is None
        if not fresh:
            try:
                lines = self.path.read_bytes().splitlines(keepends=True)
            except OSError as e:
                raise DataError(f"{self.path}: cannot read the log to resume: {e.strerror}") from e
            if not lines or lines[0].rstrip() != ",".join(CSV_COLUMNS).encode():
                raise DataError(f"{self.path}: first row is not the header")
            kept = []
            for row in lines[1:]:
                step, *fields = row.rstrip(b"\r\n").split(b",")
                try:
                    if int(step) > keep_through:
                        continue
                except ValueError as e:
                    raise DataError(f"{self.path}: malformed step field: {e}") from e
                if int(step) != len(kept) + 1:
                    raise DataError(f"{self.path}: row {len(kept) + 1} holds step {int(step)}")
                try:
                    vals = [float(f) for f in fields]
                except ValueError:
                    vals = []
                if len(vals) != 5 or not all(map(math.isfinite, vals)):
                    raise DataError(f"{self.path}: row of step {int(step)} is not five finite floats")
                total, text, eeg, orth, _ = vals
                if total != (text + eeg) + orth * lambda_orth:
                    raise DataError(
                        f"{self.path}: row of step {int(step)} has loss_total {total!r} != "
                        f"loss_text + loss_eeg + {lambda_orth!r} * loss_orth"
                    )
                kept.append(row)
            if len(kept) != keep_through:
                raise DataError(f"{self.path}: holds {len(kept)} rows up to step {keep_through}")
            self.path.write_bytes(b"".join(lines[:1] + kept))
        self._fh = open(self.path, "w" if fresh else "a", newline="")
        self._writer = csv.writer(self._fh)
        if fresh:
            self._writer.writerow(CSV_COLUMNS)
            self._fh.flush()

    def log(self, step: int, total: float, text: float, eeg: float, orth: float, lr: float):
        row = [step] + [repr(float(v)) for v in (total, text, eeg, orth, lr)]
        self._writer.writerow(row)
        self._fh.flush()

    def close(self):
        self._fh.close()


def save_stage_checkpoint(
    run_dir: Path, model: PipelineModel, opt: AdamW, stage: str, epoch: int, step: int, extra: dict
) -> Path:
    arrays = {name: t.data for name, t in model.named_parameters().items()}
    arrays.update(opt.state_arrays())
    meta = {
        "stage": stage,
        "epoch": epoch,
        "step": step,
        "trainable": list(opt.params),
        "config": model.cfg,
    }
    meta.update(extra)
    path = run_dir / "checkpoints" / f"epoch_{epoch:04d}"
    save_checkpoint(path, arrays, meta)
    return path


def find_latest_checkpoint(run_dir: str | Path) -> Path | None:
    """Newest complete epoch checkpoint under run_dir/checkpoints, if any; a
    manifest is written last, so its presence means the checkpoint is
    complete."""
    ckpt_root = Path(run_dir) / "checkpoints"
    if not ckpt_root.is_dir():
        return None
    best: tuple[int, Path] | None = None
    for entry in ckpt_root.iterdir():
        m = re.fullmatch(r"epoch_(\d+)", entry.name)
        if m and (entry / MANIFEST).is_file():
            idx = int(m.group(1))
            if best is None or idx > best[0]:
                best = (idx, entry)
    if best is None:
        return None
    return best[1]


# ---------------------------------------------------------------------------
# stage specs: what differs between the three stages
# ---------------------------------------------------------------------------

def _under(prefix: str) -> Callable[[str], bool]:
    return lambda name: name.startswith(prefix)


class StageSpec:
    """What one training stage adds to the loop that every stage shares.

    Each stage declares `groups(model)`, what it trains as ordered
    (membership, lr scale) pairs over parameter names, and `step(model,
    item)`, which returns the loss of one item and its (total, text, eeg,
    orth) log columns. A spec is built per run, so its hooks may keep state
    between calls.
    """

    name = ""
    parent: str | None = None  # the stage train.init_from must name
    lora_salt = 0  # nonzero: the stage trains a fresh adapter, its rng salted by this
    supervised = False
    avg_keys: tuple[str, ...] = ()  # log columns averaged per epoch; () keeps the total only

    def __init__(self, cfg: dict):
        self.cfg = cfg

    def open(self, model: PipelineModel, fresh: bool) -> tuple[dict[str, Tensor], dict[str, float]]:
        """Freeze every parameter outside `groups` and return the trainable
        dict (group by group, each in parameter order) with its lr scales.
        A fresh start of a stage with a `lora_salt` first folds the adapter
        the model was loaded with and attaches a new one; a resumed run
        keeps the adapter its checkpoint holds. `fresh` is kept for
        `prepare`."""
        self.fresh = fresh
        if fresh and self.lora_salt:
            model.backbone.merge_adapters()
            rng = np.random.default_rng([self.cfg["seed"], self.lora_salt])
            model.backbone.apply_lora(**self.cfg["lora"], rng=rng)
        named = model.named_parameters()
        trainable, scales = {}, {}
        for member, scale in self.groups(model):
            for name in filter(member, named):
                trainable[name], scales[name] = named[name], scale
        for name, tensor in named.items():
            tensor.requires_grad = name in trainable
        return trainable, scales

    def prepare(self, model: PipelineModel, corpus: Sequence) -> Sequence:
        return prepare_sequences(model, corpus, with_answer=self.supervised)

    def order(self, items: Sequence, rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(len(items))

    def end_epoch(self, model: PipelineModel, rng: np.random.Generator) -> dict:
        """Extra metadata for the epoch checkpoint."""
        return {}

    def resume(self, model: PipelineModel, meta: dict) -> None:
        """Restore what a resumed run needs from `meta` besides the parameters and moments."""

    def is_epoch_avg(self, entry) -> bool:
        """Whether `entry` has the form of one epoch's average in
        `epoch_avg_loss`: a dict of the `avg_keys`, else the total, each a
        finite number."""
        if not self.avg_keys:
            return type(entry) in (int, float) and math.isfinite(entry)
        return isinstance(entry, dict) and sorted(entry) == sorted(self.avg_keys) and all(
            type(v) in (int, float) and math.isfinite(v) for v in entry.values()
        )

    def summary(self, epoch_avgs: list, last: dict) -> dict:
        """Extra summary entries; `last` is the newest checkpoint's metadata
        (at least `epoch_avg_loss` and the `end_epoch` extras)."""
        return {}


# ---------------------------------------------------------------------------
# stage 1: reconstruction + quantization
# ---------------------------------------------------------------------------

COUNTERS = ("epoch_counts", "unused_epochs")  # the quantizer's usage counters a vq checkpoint holds


class VqStage(StageSpec):
    """Train encoder, reconstruction heads and codebook on raw containers."""

    name = "vq"

    def groups(self, model):
        recon = self.cfg["optimizer"]["recon_lr_scale"]
        return [(_under("encoder."), 1.0), (_under("recon."), recon), (_under("quant."), 1.0)]

    def prepare(self, model, corpus):
        """Read each recording once to check that it can be patched on the
        model's montage and, on a fresh start, to warm-start the codebook.
        The items are the corpus itself: each step reads its recording again,
        so the stage holds no signal between steps."""
        rows = []
        for _, rec, _ in corpus:
            patches = model.patch(rec)
            if self.fresh:  # vq has no parent: a fresh start loaded no codebook
                h_eeg = model.encoder(patches)
                c, p, e = h_eeg.shape
                rows.append(model.quantizer.down(ad.reshape(h_eeg, (c * p, e))).data)
        if self.fresh:
            model.quantizer.warm_start(np.concatenate(rows), np.random.default_rng(self.cfg["seed"]))
        self.pool: list[np.ndarray] = []
        return corpus

    def step(self, model, item):
        _, rec, _ = item
        patches = model.patch(rec)
        c, p, w = patches.shape
        x_rows = patches.reshape(c * p, w)
        f_rows = dft_target(patches).reshape(c * p, w // 2 + 1)
        _, z_up, h_down, z_q = model.quantizer(model.encoder(patches))
        x_hat, f_hat = model.recon(z_up)
        loss = loss_dsha(x_rows, x_hat, f_rows, f_hat, h_down, z_q, self.cfg["quantizer"]["beta"])
        self.pool.append(h_down.data)
        lt = float(loss.data)
        return loss, (lt, 0.0, lt, 0.0)

    def end_epoch(self, model, rng):
        q = model.quantizer
        health = codebook_health(q.epoch_counts.copy())
        q.end_epoch(np.concatenate(self.pool), rng)
        self.pool = []
        return {"codebook_health": health, **{key: getattr(q, key).tolist() for key in COUNTERS}}

    def resume(self, model, meta):
        """Restore the codebook's usage counters, which decide its revivals."""
        n = model.quantizer.cfg.num_codes
        for key in COUNTERS:
            saved = meta.get(key)
            if not (isinstance(saved, list) and len(saved) == n and all(type(c) is int for c in saved)):
                raise DataError(f"--resume needs codebook counter {key!r} ({n} integers) in the vq checkpoint")
            getattr(model.quantizer, key)[...] = saved

    def summary(self, epoch_avgs, last):
        return {
            "final_over_first": epoch_avgs[-1] / epoch_avgs[0] if epoch_avgs[0] else 0.0,
            "codebook_health": last.get("codebook_health", {}),
        }


# ---------------------------------------------------------------------------
# stage 2: continued pretraining over hybrid sequences
# ---------------------------------------------------------------------------

class CptStage(StageSpec):
    """Next-token pretraining with the orthogonality penalty on frozen tokens."""

    name, parent, lora_salt = "cpt", "vq", 7
    avg_keys = ("total", "text", "eeg", "orth")

    def groups(self, model):
        expansion = {f"backbone.{n}" for n in model.backbone.expansion_parameters()}
        return [(_under("refiner."), 1.0), (lambda n: _is_adapter(n) or n in expansion, 1.0)]

    def step(self, model, item):
        text_l, eeg_l = loss_ntp(item.seq, model.backbone, model.refiner(item.h_text, item.z_q))
        orth = model.refiner.orth_loss()
        lam = self.cfg["train"]["lambda_orth"]
        text, eeg, o = float(text_l.data), float(eeg_l.data), float(orth.data)
        return loss_cpt(text_l, eeg_l, orth, lam), ((text + eeg) + o * lam, text, eeg, o)  # total in float64

    def summary(self, epoch_avgs, last):
        return {"uniform_eeg_nll": float(np.log(self.cfg["quantizer"]["num_codes"]))}


# ---------------------------------------------------------------------------
# stage 3: decoupled supervised fine-tuning
# ---------------------------------------------------------------------------

def balanced_order(labels: list[str], rng: np.random.Generator) -> np.ndarray:
    """Epoch visit order: resampling by inverse class frequency."""
    n = len(labels)
    uniques, counts = np.unique(labels, return_counts=True)
    freq = dict(zip(uniques.tolist(), counts.tolist()))
    weights = np.array([1.0 / freq[lab] for lab in labels])
    return rng.choice(n, size=n, replace=True, p=weights / weights.sum())


class SftStage(StageSpec):
    """Answer-only fine-tuning with a fresh adapter and a slow refiner."""

    name, parent, lora_salt, supervised = "sft", "cpt", 11, True

    def __init__(self, cfg: dict):
        super().__init__(cfg)
        lr = cfg["optimizer"]["lr"]
        self.plan = {"adapter": lr, "refiner": cfg["train"]["star_lr_scale"] * lr}

    def groups(self, model):
        # the refiner's scale is the plan's ratio, train.star_lr_scale up to rounding
        star = self.plan["refiner"] / self.plan["adapter"]
        return [(_is_adapter, 1.0), (_under("refiner."), star)]

    def order(self, items, rng):
        return balanced_order([item.label for item in items], rng)

    def step(self, model, item):
        loss = loss_sft(item.seq, model.backbone, model.refiner(item.h_text, item.z_q))
        lt = float(loss.data)
        return loss, (lt, lt, 0.0, 0.0)

    def summary(self, epoch_avgs, last):
        return {"plan": self.plan}


# ---------------------------------------------------------------------------
# the stage loop
# ---------------------------------------------------------------------------

def _train(spec_cls: type[StageSpec], cfg: dict, run_dir: str | Path, resume: bool = False) -> dict:
    """Run one stage's spec through the shared loop, writing into `run_dir`.

    A fresh run starts from the checkpoint named by train.init_from, which
    must come from the stage's parent; with `resume` the run continues from
    its own newest checkpoint, which must come from the same stage.
    """
    spec = spec_cls(cfg)
    run = Path(run_dir)
    if not resume and ((run / "metrics.csv").exists() or any(run.glob("checkpoints/epoch_*"))):
        raise UsageError(f"{run} already holds a run: --resume it or train into an empty --out")
    # labels are checked here, before anything is read, tokenized or written
    classes = cfg["data"]["classes"] if spec.supervised else None
    corpus = load_corpus(cfg["data"]["train_dir"], classes=classes)
    model = build_model(cfg)
    latest = find_latest_checkpoint(run) if resume else None
    resumed = latest is not None
    # a resumed run continues its own checkpoint, a fresh one its parent's
    source, want = (latest, spec.name) if resumed else (cfg["train"]["init_from"], spec.parent)
    arrays, meta = load_checkpoint(source) if want and source else ({}, {})
    # a stage without a parent (vq) must start from no checkpoint at all
    if meta.get("stage") != want or (source and not want):
        where = "the run's newest checkpoint" if resumed else "train.init_from"
        got = f"stage {meta.get('stage')!r} in {source}" if meta else source or "no checkpoint"
        kind = f"a {want}" if want else "no"
        raise ConfigError(f"{spec.name} stage must start from {kind} checkpoint ({where}), got {got}")
    if resumed:
        for key in ("epoch", "step"):
            if not (type(meta.get(key)) is int and meta[key] >= 0):
                raise DataError(f"checkpoint {source}: meta {key!r} is {meta.get(key)!r}, not an int >= 0")
        avgs, n = meta.get("epoch_avg_loss"), meta["epoch"] + 1
        if not (isinstance(avgs, list) and len(avgs) == n and all(map(spec.is_epoch_avg, avgs))):
            entry = f"dict(s) of finite {', '.join(spec.avg_keys)}" if spec.avg_keys else "finite number(s)"
            raise DataError(f"checkpoint {source}: meta 'epoch_avg_loss' is {avgs!r}, not a list of {n} {entry}")
        stored = meta["config"] if isinstance(meta.get("config"), dict) else {}
        stored, now = ({k: json.dumps(v) for k, v in leaves(c)} for c in (stored, cfg))
        changed = sorted({k for k, _ in stored.items() ^ now.items()} - set(RESUMABLE_KEYS))
        if changed:
            raise ConfigError(
                f"--resume may change only {', '.join(RESUMABLE_KEYS)} from the config of "
                f"{source}, but {', '.join(changed)} differ"
            )
        if meta["epoch"] + 1 > cfg["train"]["epochs"]:
            raise ConfigError(
                f"--resume asks for {cfg['train']['epochs']} epoch(s), fewer than the "
                f"{meta['epoch'] + 1} that {source} already holds"
            )
    if meta:
        _load_into(model, arrays)
    trainable, lr_scales = spec.open(model, fresh=not resumed)
    opt_cfg = cfg["optimizer"]
    hyper = {k: opt_cfg[k] for k in ("betas", "eps", "weight_decay")}
    opt = AdamW(trainable, lr_scales=lr_scales, **hyper)
    start_epoch, step, epoch_avgs, last = 0, 0, [], {}
    if resumed:
        try:
            opt.load_state(meta, arrays)
        except DataError as e:
            raise DataError(f"checkpoint {source}: {e}") from e
        spec.resume(model, meta)
        start_epoch, step, last = meta["epoch"] + 1, meta["step"], meta
        epoch_avgs = list(meta["epoch_avg_loss"])
    del arrays  # the entries' index and open weights.bin: the stage has copied what it needs
    # a run refused on its data (montage, labels, profiles) writes nothing
    items = spec.prepare(model, corpus)
    for sub in ("checkpoints", "artifacts"):
        (run / sub).mkdir(parents=True, exist_ok=True)
    # a resumed run refused on its metrics log keeps its config.json too
    logger = MetricsLogger(
        run / "metrics.csv", keep_through=step if resumed else None,
        lambda_orth=cfg["train"]["lambda_orth"],
    )
    total_steps = cfg["train"]["epochs"] * len(items)
    try:
        (run / "config.json").write_text(json.dumps(cfg, indent=2))
        for epoch in range(start_epoch, cfg["train"]["epochs"]):
            rng_e = np.random.default_rng([cfg["seed"], epoch])
            sums = [0.0] * 4
            for i in spec.order(items, rng_e):
                with Graph():
                    loss, vals = spec.step(model, items[i])
                    grads = backward(loss, wrt=list(trainable.values()))
                    # keep only the parameters' gradients, so the step's
                    # intermediates go with the tape when the block exits
                    grads = {k: grads[v] for k, v in trainable.items()}
                named = clip_global_norm(grads, opt_cfg["clip_norm"])
                lr_t = cosine_schedule(step, total_steps, opt_cfg["lr"], **cfg["schedule"])
                opt.step(named, lr=lr_t)
                del grads, named  # copied into opt's buffer: not held through the next step
                step += 1
                logger.log(step, *vals, lr_t)
                sums = [s + v for s, v in zip(sums, vals)]
            avgs = [s / len(items) for s in sums]
            epoch_avgs.append(dict(zip(spec.avg_keys, avgs)) if spec.avg_keys else avgs[0])
            last = {"epoch_avg_loss": epoch_avgs, **spec.end_epoch(model, rng_e)}
            save_stage_checkpoint(run, model, opt, spec.name, epoch, step, last)
    finally:
        logger.close()
    summary = {
        "stage": spec.name,
        "epochs": cfg["train"]["epochs"],
        "steps": step,
        "epoch_avg_loss": epoch_avgs,
        **spec.summary(epoch_avgs, last),
    }
    (run / "artifacts" / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary


STAGE_RUNNERS = {spec.name: partial(_train, spec) for spec in (VqStage, CptStage, SftStage)}


def run_stage(cfg: dict, run_dir: str | Path, resume: bool = False) -> dict:
    """Dispatch to the configured stage runner."""
    return STAGE_RUNNERS[cfg["stage"]](cfg, run_dir, resume=resume)
