"""The three training stages as specs run by one loop, plus checkpoint/resume plumbing."""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Graph, Tensor, backward
from .backbone import BackboneConfig, ToyBackbone
from .checkpoint import assign_parameters, load_checkpoint, load_meta, save_checkpoint
from .encoder import DualStreamEncoder, EncoderConfig
from .errors import ConfigError, DataError, MontageError
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

CSV_COLUMNS = ("step", "loss_total", "loss_text", "loss_eeg", "loss_orth", "lr")


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

    def trainable_parameters(self) -> dict[str, Tensor]:
        return {k: v for k, v in self.named_parameters().items() if v.requires_grad}

    def tokenize_recording(self, rec: Recording) -> tuple[TokenSequence, np.ndarray]:
        """Patch -> encode -> quantize one recording (no gradients recorded)."""
        montage = self.encoder.hierarchy.montage
        if rec.channels != montage.labels:
            raise MontageError(
                f"container channels {list(rec.channels)[:4]}... do not match "
                f"the checkpoint montage ({montage.n_channels} channels)"
            )
        ps = patch(rec, self.cfg["data"]["patch_len"])
        enc = self.encoder(ps)
        tokens, _, _, z_q = self.quantizer(enc.h_eeg)
        return tokens, z_q.data.copy()


def build_model(cfg: dict) -> PipelineModel:
    """Construct the full bundle from a resolved config, seeded by cfg['seed']."""
    rng = np.random.default_rng(cfg["seed"])
    enc_cfg = EncoderConfig(
        embed_dim=cfg["encoder"]["embed_dim"],
        n_heads=cfg["encoder"]["n_heads"],
        ffn_mult=cfg["encoder"]["ffn_mult"],
        patch_len=cfg["data"]["patch_len"],
        max_patches=cfg["encoder"]["max_patches"],
        montage=cfg["data"]["montage"],
    )
    q_cfg = QuantizerConfig(
        num_codes=cfg["quantizer"]["num_codes"],
        code_dim=cfg["quantizer"]["code_dim"],
        beta=cfg["quantizer"]["beta"],
        kmeans_warm_start=cfg["quantizer"]["kmeans_warm_start"],
        revival_epochs=cfg["quantizer"]["revival_epochs"],
    )
    # the refiner attends over codebook rows and its summary rows feed the
    # backbone's continuous bridge, so both widths equal the code width
    ref_cfg = RefinerConfig(
        n_experts=cfg["refiner"]["n_experts"],
        embed_dim=q_cfg.code_dim,
        n_heads=cfg["refiner"]["n_heads"],
        ffn_mult=cfg["refiner"]["ffn_mult"],
    )
    vocab = VocabSpec(v_text=cfg["backbone"]["v_text"], n_codes=q_cfg.num_codes)
    bb_cfg = BackboneConfig(
        vocab=vocab,
        n_layers=cfg["backbone"]["n_layers"],
        embed_dim=cfg["backbone"]["embed_dim"],
        n_heads=cfg["backbone"]["n_heads"],
        ffn_mult=cfg["backbone"]["ffn_mult"],
        max_len=cfg["backbone"]["max_len"],
        sem_dim=q_cfg.code_dim,
        tied_head=cfg["backbone"]["tied_head"],
    )
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


def _load_into(model: PipelineModel, arrays: dict[str, np.ndarray], stage: str) -> None:
    """Give a freshly built model the parameter layout of a `stage` checkpoint
    and load its arrays; a loaded codebook needs no k-means warm start."""
    if stage != "vq":
        lora = model.cfg["lora"]
        model.backbone.apply_lora(lora["rank"], lora["alpha"], np.random.default_rng(0))
    assign_parameters(model.named_parameters(), arrays, strict=True)
    model.quantizer._warmed = True


def load_model(checkpoint_path: str | Path) -> tuple[PipelineModel, dict]:
    """Rebuild a model bundle from a stage checkpoint."""
    arrays, meta = load_checkpoint(checkpoint_path)
    if "config" not in meta or "stage" not in meta:
        raise DataError(f"checkpoint {checkpoint_path} lacks stage/config metadata")
    model = build_model(meta["config"])
    _load_into(model, arrays, meta["stage"])
    return model, meta


# ---------------------------------------------------------------------------
# profiles and prepared sequences
# ---------------------------------------------------------------------------

def make_llm_client(llm_cfg: dict) -> LlmClient:
    if llm_cfg["mode"] == "stub":
        return StubClient()
    return HttpClient(
        endpoint=llm_cfg["endpoint"],
        model=llm_cfg["model"],
        token_env=llm_cfg["token_env"],
    )


def profile_recording(
    rec: Recording,
    model: PipelineModel,
    sample_name: str,
    client: LlmClient,
) -> tuple[PhysicalFeatures, str, ProfileResult]:
    """Deterministic features -> label-free prompt -> structured profile."""
    data_cfg = model.cfg["data"]
    features = extract_features(rec, model.encoder.hierarchy)
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
    corpus: list[tuple[str, Recording, str | None]],
    with_answer: bool,
) -> list[PreparedSequence]:
    """Tokenize, profile, and assemble every sample once (frozen-stage work)."""
    cfg = model.cfg
    client = make_llm_client(cfg["llm"])
    classes = list(cfg["data"]["classes"])
    model.tokenizer.ensure_distinct(classes)
    instr_ids = model.tokenizer.encode(cfg["data"]["instruction"]) if with_answer else None
    sem_slot = np.zeros((model.refiner.cfg.n_experts, model.refiner.cfg.embed_dim))
    out = []
    for name, rec, label in corpus:
        tokens, z_q = model.tokenize_recording(rec)
        _, _, result = profile_recording(rec, model, name, client)
        text = result.profile.flat_text()
        answer_ids = None
        if with_answer:
            if label is None:
                raise DataError(f"sample {name!r} has no label for supervised training")
            if label not in classes:
                raise DataError(f"label {label!r} of sample {name!r} not in configured classes")
            answer_ids = model.tokenizer.encode(label)
        seq = assemble_sequence(
            model.tokenizer.encode(text),
            sem_slot,
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

    When appending to an existing log, rows past step `keep_through` (logged
    after the checkpoint a run resumes from) are dropped first.
    """

    def __init__(self, path: str | Path, append: bool = False, keep_through: int | None = None):
        self.path = Path(path)
        fresh = not (append and self.path.exists())
        if not fresh and keep_through is not None:
            lines = self.path.read_bytes().splitlines(keepends=True)
            kept = [row for row in lines[1:] if int(row.split(b",", 1)[0]) <= keep_through]
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
    state = opt.export_state()
    for pname, arr in state["m"].items():
        arrays[f"opt.m/{pname}"] = arr
    for pname, arr in state["v"].items():
        arrays[f"opt.v/{pname}"] = arr
    meta = {
        "stage": stage,
        "epoch": epoch,
        "step": step,
        "opt_step": state["step"],
        "config": model.cfg,
    }
    meta.update(extra)
    path = run_dir / "checkpoints" / f"epoch_{epoch:04d}"
    save_checkpoint(path, arrays, meta)
    return path


def find_latest_checkpoint(run_dir: str | Path) -> tuple[Path, dict] | None:
    """Newest complete epoch checkpoint under run_dir/checkpoints, if any,
    with its metadata; only the manifest is read (a manifest is written last,
    so its presence means the checkpoint is complete)."""
    ckpt_root = Path(run_dir) / "checkpoints"
    if not ckpt_root.is_dir():
        return None
    best: tuple[int, Path] | None = None
    for entry in ckpt_root.iterdir():
        m = re.fullmatch(r"epoch_(\d+)", entry.name)
        if m and (entry / "manifest.json").is_file():
            idx = int(m.group(1))
            if best is None or idx > best[0]:
                best = (idx, entry)
    if best is None:
        return None
    return best[1], load_meta(best[1])


# ---------------------------------------------------------------------------
# stage specs: what differs between the three stages
# ---------------------------------------------------------------------------

class StageSpec:
    """What one training stage adds to the loop that every stage shares.

    Each stage defines `open(model, rng)`, which freezes or opens parameters
    and returns the trainable dict and its lr scales (`rng` draws the stage's
    fresh adapter; it is None on resume, where the checkpoint holds it), and
    `step(model, item)`, which returns the loss of one item and its
    (total, text, eeg, orth) log columns. A spec is built per run, so its
    hooks may keep state between calls.
    """

    name = ""
    parent: str | None = None  # the stage train.init_from must name
    lora_salt = 0  # salts the rng of the adapter a stage opens
    supervised = False
    avg_keys: tuple[str, ...] = ()  # log columns averaged per epoch; () keeps the total only

    def __init__(self, cfg: dict):
        self.cfg = cfg

    def prepare(self, model: PipelineModel, corpus: list) -> list:
        return prepare_sequences(model, corpus, with_answer=self.supervised)

    def order(self, items: list, rng: np.random.Generator) -> np.ndarray:
        return rng.permutation(len(items))

    def end_epoch(self, model: PipelineModel, rng: np.random.Generator) -> dict:
        """Extra metadata for the epoch checkpoint."""
        return {}

    def summary(self, epoch_avgs: list, last: dict) -> dict:
        """Extra summary entries; `last` is the newest checkpoint's metadata
        (at least `epoch_avg_loss` and the `end_epoch` extras)."""
        return {}


# ---------------------------------------------------------------------------
# stage 1: reconstruction + quantization
# ---------------------------------------------------------------------------

class VqStage(StageSpec):
    """Train encoder, reconstruction heads and codebook on raw containers."""

    name = "vq"

    def open(self, model, rng):
        model.refiner.freeze()
        model.backbone.freeze()
        trainable = model.trainable_parameters()
        scale = self.cfg["optimizer"]["recon_lr_scale"]
        return trainable, {n: scale for n in trainable if n.startswith("recon.")}

    def prepare(self, model, corpus):
        samples = []
        for _, rec, _ in corpus:
            ps = patch(rec, self.cfg["data"]["patch_len"])
            c, p, w = ps.data.shape
            mags = dft_target(ps).magnitudes.reshape(c * p, w // 2 + 1)
            samples.append((ps.data, ps.data.reshape(c * p, w), mags))
        if not model.quantizer._warmed:
            rows = []
            for patches, _, _ in samples:
                enc = model.encoder(patches)
                c, p, e = enc.h_eeg.shape
                rows.append(model.quantizer.down(ad.reshape(enc.h_eeg, (c * p, e))).data)
            model.quantizer.warm_start(np.concatenate(rows), np.random.default_rng(self.cfg["seed"]))
        self.pool: list[np.ndarray] = []
        return samples

    def step(self, model, item):
        patches, x_rows, f_rows = item
        enc = model.encoder(patches)
        _, z_up, h_down, z_q = model.quantizer(enc.h_eeg)
        x_hat, f_hat = model.recon(z_up)
        loss = loss_dsha(x_rows, x_hat, f_rows, f_hat, h_down, z_q, self.cfg["quantizer"]["beta"])
        self.pool.append(h_down.data)
        lt = float(loss.data)
        return loss, (lt, 0.0, lt, 0.0)

    def end_epoch(self, model, rng):
        health = codebook_health(model.quantizer.epoch_counts.copy())
        model.quantizer.end_epoch(np.concatenate(self.pool), rng)
        self.pool = []
        return {"codebook_health": health}

    def summary(self, epoch_avgs, last):
        return {
            "final_over_first": epoch_avgs[-1] / epoch_avgs[0] if epoch_avgs[0] else 0.0,
            "codebook_health": last.get("codebook_health", {}),
        }


# ---------------------------------------------------------------------------
# stage 2: continued pretraining over hybrid sequences
# ---------------------------------------------------------------------------

def _open_adapter(model: PipelineModel, rng: np.random.Generator | None) -> None:
    """Freeze the signal stages, open the refiner, and attach a fresh backbone
    adapter drawn from `rng` (None keeps the adapter the model was loaded with)."""
    for mod in (model.encoder, model.recon, model.quantizer):
        mod.freeze()
    if rng is not None:
        lora = model.cfg["lora"]
        model.backbone.apply_lora(lora["rank"], lora["alpha"], rng)
    model.refiner.unfreeze()


def _cpt_structure(model: PipelineModel, rng: np.random.Generator | None) -> None:
    """Freeze the signal stages, adapt the backbone, open the expansion set."""
    _open_adapter(model, rng)
    for tensor in model.backbone.expansion_parameters().values():
        tensor.requires_grad = True


class CptStage(StageSpec):
    """Next-token pretraining with the orthogonality penalty on frozen tokens."""

    name, parent, lora_salt = "cpt", "vq", 7
    avg_keys = ("total", "text", "eeg", "orth")

    def open(self, model, rng):
        _cpt_structure(model, rng)
        return model.trainable_parameters(), {}

    def step(self, model, item):
        experts = model.refiner(item.h_text, item.z_q)
        text_l, eeg_l = loss_ntp(item.seq, model.backbone, sem=experts.s_sem)
        orth = model.refiner.orth_loss()
        total = loss_cpt(text_l, eeg_l, orth, self.cfg["train"]["lambda_orth"])
        return total, (float(total.data), float(text_l.data), float(eeg_l.data), float(orth.data))

    def summary(self, epoch_avgs, last):
        return {"uniform_eeg_nll": float(np.log(self.cfg["quantizer"]["num_codes"]))}


# ---------------------------------------------------------------------------
# stage 3: decoupled supervised fine-tuning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainingPlan:
    """Which parameter groups train at which learning rate; the rest freeze."""

    group_lrs: dict[str, float]
    group_params: dict[str, tuple[str, ...]]
    frozen: tuple[str, ...] = field(repr=False)

    def trainable(self, model: PipelineModel) -> dict[str, Tensor]:
        named = model.named_parameters()
        return {n: named[n] for names in self.group_params.values() for n in names}

    def lr_scales(self) -> dict[str, float]:
        base = self.group_lrs["adapter"]
        return {
            name: lr / base
            for group, lr in self.group_lrs.items()
            for name in self.group_params[group]
            if lr != base
        }


def decoupled_finetune_setup(
    model: PipelineModel,
    base_lr: float,
    rng: np.random.Generator | None,
) -> TrainingPlan:
    """Fold the old adapter, freeze everything, then open a fresh adapter at
    `base_lr` and the refiner at its configured fraction of it. With `rng`
    None (a resumed run, whose checkpoint holds the merged weights) the
    attached adapter is opened instead."""
    if rng is not None:
        model.backbone.merge_adapters()
    _open_adapter(model, rng)
    named = model.named_parameters()
    adapter = tuple(n for n, t in named.items() if "lora_a" in n or "lora_b" in n)
    refiner = tuple(n for n in named if n.startswith("refiner."))
    frozen = tuple(n for n in named if n not in adapter and n not in refiner)
    return TrainingPlan(
        group_lrs={"adapter": base_lr, "refiner": model.cfg["train"]["star_lr_scale"] * base_lr},
        group_params={"adapter": adapter, "refiner": refiner},
        frozen=frozen,
    )


def balanced_order(
    labels: list[str], rng: np.random.Generator, balance: bool
) -> np.ndarray:
    """Epoch visit order: inverse-class-frequency resampling or a permutation."""
    n = len(labels)
    if not balance:
        return rng.permutation(n)
    uniques, counts = np.unique(labels, return_counts=True)
    freq = dict(zip(uniques.tolist(), counts.tolist()))
    weights = np.array([1.0 / freq[lab] for lab in labels])
    return rng.choice(n, size=n, replace=True, p=weights / weights.sum())


class SftStage(StageSpec):
    """Answer-only fine-tuning with a fresh adapter and a slow refiner."""

    name, parent, lora_salt, supervised = "sft", "cpt", 11, True

    def open(self, model, rng):
        self.plan = decoupled_finetune_setup(model, self.cfg["optimizer"]["lr"], rng)
        return self.plan.trainable(model), self.plan.lr_scales()

    def order(self, items, rng):
        labels = [item.label for item in items]
        return balanced_order(labels, rng, self.cfg["train"]["class_balancing"])

    def step(self, model, item):
        experts = model.refiner(item.h_text, item.z_q)
        loss = loss_sft(item.seq, model.backbone, sem=experts.s_sem)
        lt = float(loss.data)
        return loss, (lt, lt, 0.0, 0.0)

    def end_epoch(self, model, rng):
        return {"plan": dict(self.plan.group_lrs)}

    def summary(self, epoch_avgs, last):
        return {"plan": self.plan.group_lrs}


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
    corpus = load_corpus(cfg["data"]["train_dir"], require_labels=spec.supervised)
    model = build_model(cfg)
    latest = find_latest_checkpoint(run) if resume else None
    resumed = latest is not None
    # a resumed run continues its own checkpoint, a fresh one its parent's
    source, want = (latest[0], spec.name) if resumed else (cfg["train"]["init_from"], spec.parent)
    arrays, meta = load_checkpoint(source) if want and source else ({}, {})
    if meta.get("stage") != want:
        where = "the run's newest checkpoint" if resumed else "train.init_from"
        got = f"stage {meta.get('stage')!r} in {source}" if source else "no checkpoint"
        raise ConfigError(
            f"{spec.name} stage must start from a {want} checkpoint ({where}), got {got}"
        )
    if meta:
        _load_into(model, arrays, want)
    for sub in ("checkpoints", "artifacts"):
        (run / sub).mkdir(parents=True, exist_ok=True)
    (run / "config.json").write_text(json.dumps(cfg, indent=2))
    rng = None if resumed else np.random.default_rng([cfg["seed"], spec.lora_salt])
    trainable, lr_scales = spec.open(model, rng)
    opt_cfg = cfg["optimizer"]
    opt = AdamW(
        trainable,
        lr=opt_cfg["lr"],
        betas=tuple(opt_cfg["betas"]),
        eps=opt_cfg["eps"],
        weight_decay=opt_cfg["weight_decay"],
        lr_scales=lr_scales,
    )
    start_epoch, step, epoch_avgs, last = 0, 0, [], {}
    if resumed:
        opt.load_state(
            {
                "step": meta["opt_step"],
                "m": {k: arrays[f"opt.m/{k}"] for k in opt.params if f"opt.m/{k}" in arrays},
                "v": {k: arrays[f"opt.v/{k}"] for k in opt.params if f"opt.v/{k}" in arrays},
            }
        )
        start_epoch, step, last = meta["epoch"] + 1, meta["step"], meta
        epoch_avgs = list(meta.get("epoch_avg_loss", []))
    items = spec.prepare(model, corpus)

    logger = MetricsLogger(run / "metrics.csv", append=resumed, keep_through=step)
    total_steps = cfg["train"]["epochs"] * len(items)
    try:
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
                lr_t = cosine_schedule(
                    step,
                    total_steps,
                    opt_cfg["lr"],
                    cfg["schedule"]["warmup_steps"],
                    cfg["schedule"]["min_lr"],
                )
                opt.step(named, lr=lr_t)
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
run_vq_stage, run_cpt_stage, run_sft_stage = STAGE_RUNNERS.values()


def run_stage(cfg: dict, run_dir: str | Path, resume: bool = False) -> dict:
    """Dispatch to the configured stage runner."""
    return STAGE_RUNNERS[cfg["stage"]](cfg, run_dir, resume=resume)
