"""Config layering, overrides and validation."""

from __future__ import annotations

import json
import re

import pytest

from eeglm.config import (
    BOUNDS,
    DEFAULTS,
    leaves,
    parse_override,
    resolve_config,
    validate_config,
)
from eeglm.errors import ConfigError


def test_defaults_resolve_cleanly():
    cfg = resolve_config()
    assert cfg["stage"] == "vq"
    assert cfg["seed"] == 0
    assert cfg["train"]["lambda_orth"] == 0.1
    assert cfg is not DEFAULTS


def test_resolved_config_is_a_deep_copy():
    a = resolve_config()
    a["optimizer"]["lr"] = 123.0
    assert resolve_config()["optimizer"]["lr"] == DEFAULTS["optimizer"]["lr"]


def test_file_overrides_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 9, "optimizer": {"lr": 0.5}}))
    cfg = resolve_config(path)
    assert cfg["seed"] == 9
    assert cfg["optimizer"]["lr"] == 0.5
    assert cfg["optimizer"]["eps"] == DEFAULTS["optimizer"]["eps"]


def test_flags_beat_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 9}))
    cfg = resolve_config(path, overrides=[{"seed": 12}])
    assert cfg["seed"] == 12


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        resolve_config(overrides=[{"optimzer": {"lr": 0.1}}])


def test_unknown_nested_key_names_full_path():
    with pytest.raises(ConfigError, match="optimizer.learning_rate"):
        resolve_config(overrides=[{"optimizer": {"learning_rate": 0.1}}])


def test_scalar_for_table_rejected():
    with pytest.raises(ConfigError, match="must be a table"):
        resolve_config(overrides=[{"optimizer": 3}])


def test_bad_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ConfigError, match="cannot read config file"):
        resolve_config(path)


def test_non_object_json_file(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        resolve_config(path)


def test_parse_override_json_values():
    assert parse_override("optimizer.lr=0.25") == {"optimizer": {"lr": 0.25}}
    assert parse_override('data.montage="synthetic-4"') == {"data": {"montage": "synthetic-4"}}
    assert parse_override("x.flag=false") == {"x": {"flag": False}}


def test_parse_override_plain_string_fallback():
    assert parse_override("data.train_dir=/tmp/x") == {"data": {"train_dir": "/tmp/x"}}


def test_parse_override_requires_equals():
    with pytest.raises(ConfigError, match="key=value"):
        parse_override("optimizer.lr")


def test_validate_rejects_bad_stage():
    cfg = resolve_config()
    cfg["stage"] = "pretrain"
    with pytest.raises(ConfigError, match="stage"):
        validate_config(cfg)


def test_validate_rejects_nonpositive_sizes():
    with pytest.raises(ConfigError, match="quantizer.num_codes"):
        resolve_config(overrides=[{"quantizer": {"num_codes": 0}}])


def test_validate_http_needs_endpoint():
    with pytest.raises(ConfigError, match="endpoint"):
        resolve_config(overrides=[{"llm": {"mode": "http"}}])


def test_validate_rejects_empty_classes():
    with pytest.raises(ConfigError, match="classes"):
        resolve_config(overrides=[{"data": {"classes": []}}])


# numeric values with no bound of their own: MultiHeadAttention checks the
# head counts against the width they split; they are still checked to be finite
UNBOUNDED = {"encoder.n_heads", "refiner.n_heads", "backbone.n_heads"}
ZERO_ALLOWED = {"seed", "quantizer.beta", "optimizer.weight_decay", "schedule.warmup_steps",
                "schedule.min_lr", "train.lambda_orth"}
BOUNDED = [(key, bound) for bound, keys in BOUNDS.items() for key in keys.split()]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def test_every_numeric_default_is_bounded_or_named_unbounded():
    numeric = {
        key for key, value in leaves(DEFAULTS)
        if all(map(_is_number, value if isinstance(value, list) else [value]))
    }
    bounded = {key for key, _ in BOUNDED}
    assert len(bounded) == len(BOUNDED)  # no key under two bounds
    assert not bounded & UNBOUNDED
    assert numeric == bounded | UNBOUNDED  # also: the table names no other key
    assert set(BOUNDS[">= 0"].split()) == ZERO_ALLOWED


# per bound: a value on its edge, and one just past it
EDGES = {
    ">= 0": (0, -1),
    ">= 1": (1, 0),
    ">= 2": (2, 1),
    "> 0": (1e-12, 0),
    "in [0, 1)": ([0.0, 0.999], [0.9, 1.0]),
}


@pytest.mark.parametrize("key, bound", BOUNDED, ids=[key for key, _ in BOUNDED])
def test_each_bound_admits_its_edge_and_refuses_past_it(key, bound):
    inside, outside = EDGES[bound]
    resolve_config(overrides=[parse_override(f"{key}={json.dumps(inside)}")])
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be {bound}")):
        resolve_config(overrides=[parse_override(f"{key}={json.dumps(outside)}")])


@pytest.mark.parametrize("key", sorted(ZERO_ALLOWED))
def test_zero_allowed_values_resolve_at_zero(key):
    cfg = resolve_config(overrides=[parse_override(f"{key}=0")])
    assert dict(leaves(cfg))[key] == 0


FLOATS = [key for key, value in leaves(DEFAULTS) if isinstance(value, float)]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("key", FLOATS + ["optimizer.betas"])
def test_numbers_must_be_finite(key, value):
    raw = f"[0.9, {value}]" if key == "optimizer.betas" else value
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be finite")):
        resolve_config(overrides=[parse_override(f"{key}={raw}")])
