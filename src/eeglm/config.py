"""Layered run configuration: package defaults <- JSON file <- flag overrides."""

from __future__ import annotations

import copy
import json
import math
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
    "quantizer": {"num_codes": 64, "code_dim": 16, "beta": 0.25, "revival_epochs": 2},
    "refiner": {"n_experts": 4, "n_heads": 2, "ffn_mult": 2},
    "backbone": {
        "v_text": 512,
        "n_layers": 2,
        "embed_dim": 64,
        "n_heads": 4,
        "ffn_mult": 4,
        "max_len": 256,
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


# The bound of each numeric config value (of each element, for a list). Unbounded: the
# n_heads keys (MultiHeadAttention checks them).
BOUNDS = {
    ">= 0": "seed quantizer.beta optimizer.weight_decay schedule.warmup_steps schedule.min_lr "
    "train.lambda_orth",
    ">= 1": "data.patch_len encoder.embed_dim encoder.ffn_mult encoder.max_patches quantizer.num_codes "
    "quantizer.code_dim quantizer.revival_epochs refiner.n_experts refiner.ffn_mult backbone.n_layers "
    "backbone.embed_dim backbone.ffn_mult backbone.max_len lora.rank train.epochs",
    ">= 2": "backbone.v_text",
    "> 0": "lora.alpha optimizer.lr optimizer.eps optimizer.clip_norm optimizer.recon_lr_scale "
    "train.star_lr_scale",
    "in [0, 1)": "optimizer.betas",
}
_HOLDS = {">= 0": lambda v: v >= 0, ">= 1": lambda v: v >= 1, ">= 2": lambda v: v >= 2,
          "> 0": lambda v: v > 0, "in [0, 1)": lambda v: 0 <= v < 1}
_BOUND_OF = {key: bound for bound, keys in BOUNDS.items() for key in keys.split()}


def leaves(cfg: dict, path: str = ""):
    """(dotted key, value) for every entry of `cfg` that is not a table."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{path}{key}.")
        else:
            yield path + key, value


def validate_config(cfg: dict) -> None:
    """Reject impossible settings: a number not finite or out of its bound, and more."""
    if cfg["stage"] not in STAGES:
        raise ConfigError(f"stage must be one of {STAGES}, got {cfg['stage']!r}")
    for key, value in leaves(cfg):
        numbers = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
            raise ConfigError(f"{key} must be finite, got {value}")
        bound = _BOUND_OF.get(key)
        if bound and not all(map(_HOLDS[bound], numbers)):
            raise ConfigError(f"{key} must be {bound}, got {value}")
    if len(cfg["optimizer"]["betas"]) != 2:
        raise ConfigError(f"optimizer.betas must hold two numbers, got {cfg['optimizer']['betas']}")
    if cfg["llm"]["mode"] not in ("stub", "http"):
        raise ConfigError(f"llm.mode must be 'stub' or 'http', got {cfg['llm']['mode']!r}")
    if cfg["llm"]["mode"] == "http" and not cfg["llm"]["endpoint"]:
        raise ConfigError("llm.mode 'http' needs llm.endpoint")
    classes = cfg["data"]["classes"]
    if not classes:
        raise ConfigError("data.classes must name at least one label")
    twice = [c for i, c in enumerate(classes) if c in classes[:i]]
    if twice:
        raise ConfigError(f"data.classes names the label {twice[0]!r} twice")


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
