"""The benchmark's probes patch eeglm attributes by name; each name must resolve."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def _load_probes():
    # loaded by file path: defining the module installs no patch
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


probes = _load_probes()

# what the probes patch besides SPANS: the always-on marks and the rows-read counter
EXTRA_TARGETS = (
    ("eeglm.training", "save_stage_checkpoint"),
    ("eeglm.training:PipelineModel", "tokenize_recording"),
    ("eeglm.losses", "span_nll"),
)


@pytest.mark.parametrize(
    "target, attr",
    [(target, attr) for target, attr, _ in probes.SPANS] + list(EXTRA_TARGETS),
    ids=lambda value: value,
)
def test_patched_attribute_resolves(target, attr):
    assert callable(getattr(probes._resolve(target), attr))
