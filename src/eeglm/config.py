"""Layered run configuration: package defaults <- JSON file <- flag overrides."""

from __future__ import annotations

import copy
import json
from pathlib import Path

from .errors import ConfigError, read_json_object

DEFAULTS: dict = {
    "seed": 0,
    "stage": "vq",
    "data": {
        "train_dir": None,
        "montage": None,
        "patch_len": 200,
        "dataset_name": "synthetic",
        "task_description": "Distinguish rhythmic activity patterns in short recordings.",
        "instruction": "Identify the dominant rhythm class of this recording.",
        "classes": ["class-a", "class-b", "class-c"],
    },
    "encoder": {"embed_dim": 16, "n_heads": 2, "ffn_mult": 4, "max_patches": 64},
    "quantizer": {
        "num_codes": 64,
        "code_dim": 16,
        "beta": 0.25,
        "kmeans_warm_start": True,
        "revival_epochs": 2,
    },
    "refiner": {"n_experts": 4, "n_heads": 2, "ffn_mult": 2},
    "backbone": {
        "v_text": 512,
        "n_layers": 2,
        "embed_dim": 64,
        "n_heads": 4,
        "ffn_mult": 4,
        "max_len": 256,
        "tied_head": False,
    },
    "lora": {"rank": 4, "alpha": 8.0},
    "optimizer": {
        "lr": 1e-3,
        "betas": [0.9, 0.999],
        "eps": 1e-8,
        "weight_decay": 0.0,
        "clip_norm": 1.0,
        # the DFT-magnitude targets are O(patch_len/2), so the reconstruction
        # heads need proportionally larger steps than the encoder
        "recon_lr_scale": 50.0,
    },
    "schedule": {"warmup_steps": 10, "min_lr": 0.0},
    "train": {
        "epochs": 5,
        "init_from": None,
        "lambda_orth": 0.1,
        "star_lr_scale": 0.1,
        "class_balancing": True,
    },
    "llm": {"mode": "stub", "endpoint": "", "model": "", "token_env": "EEGLM_LLM_TOKEN"},
}

STAGES = ("vq", "cpt", "sft")


def _fits(default, value) -> bool:
    """Whether `value` has the type of `default`: bool is never a number, an
    int may stand for a float, a null default takes a string or null, and
    list elements take the type of the default's elements."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(default[0], v) for v in value)
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def _merge(base: dict, override: dict, path: str = "", defaults: dict = DEFAULTS) -> dict:
    """Recursively overlay `override` onto `base`, rejecting unknown keys and mistyped values."""
    out = dict(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where!r} must be a table, got {value!r}")
            out[key] = _merge(base[key], value, where, defaults[key])
        elif not _fits(defaults[key], value):
            raise ConfigError(
                f"config key {where!r} must match the type of {defaults[key]!r}, got {value!r}"
            )
        else:
            out[key] = value
    return out


def load_config_file(path: str | Path) -> dict:
    """Read a JSON config file into a plain dict."""
    return read_json_object(path, ConfigError, "config file")


def parse_override(spec: str) -> dict:
    """Turn one `section.key=value` flag into a nested override dict.

    Values parse as JSON when possible and fall back to plain strings.
    """
    if "=" not in spec:
        raise ConfigError(f"override {spec!r} must look like key=value")
    dotted, raw = spec.split("=", 1)
    keys = [k for k in dotted.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"override {spec!r} names no config key")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node: dict = {keys[-1]: value}
    for key in reversed(keys[:-1]):
        node = {key: node}
    return node


def validate_config(cfg: dict) -> None:
    """Reject structurally valid configs with impossible settings."""
    if cfg["stage"] not in STAGES:
        raise ConfigError(f"stage must be one of {STAGES}, got {cfg['stage']!r}")
    positive = [
        ("data.patch_len", cfg["data"]["patch_len"]),
        ("encoder.embed_dim", cfg["encoder"]["embed_dim"]),
        ("quantizer.num_codes", cfg["quantizer"]["num_codes"]),
        ("quantizer.code_dim", cfg["quantizer"]["code_dim"]),
        ("refiner.n_experts", cfg["refiner"]["n_experts"]),
        ("backbone.v_text", cfg["backbone"]["v_text"]),
        ("backbone.n_layers", cfg["backbone"]["n_layers"]),
        ("lora.rank", cfg["lora"]["rank"]),
        ("optimizer.lr", cfg["optimizer"]["lr"]),
        ("train.epochs", cfg["train"]["epochs"]),
    ]
    for name, value in positive:
        if value <= 0:
            raise ConfigError(f"{name} must be positive, got {value}")
    if len(cfg["optimizer"]["betas"]) != 2:
        raise ConfigError(f"optimizer.betas must hold two numbers, got {cfg['optimizer']['betas']}")
    if not 0.0 <= cfg["train"]["lambda_orth"]:
        raise ConfigError(f"train.lambda_orth must be >= 0, got {cfg['train']['lambda_orth']}")
    if cfg["llm"]["mode"] not in ("stub", "http"):
        raise ConfigError(f"llm.mode must be 'stub' or 'http', got {cfg['llm']['mode']!r}")
    if cfg["llm"]["mode"] == "http" and not cfg["llm"]["endpoint"]:
        raise ConfigError("llm.mode 'http' needs llm.endpoint")
    if not cfg["data"]["classes"]:
        raise ConfigError("data.classes must name at least one label")


def resolve_config(
    config_path: str | Path | None = None, overrides: list[dict] | None = None
) -> dict:
    """Produce the fully resolved run config (flags beat file beats defaults)."""
    cfg = copy.deepcopy(DEFAULTS)
    if config_path is not None:
        cfg = _merge(cfg, load_config_file(config_path))
    for override in overrides or []:
        cfg = _merge(cfg, override)
    validate_config(cfg)
    return cfg
