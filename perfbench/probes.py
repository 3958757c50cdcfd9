"""Timing wrappers around the public calls of the ``eeglm`` modules.

The benchmark measures every layer from outside: it replaces a module
attribute (a function, or a method on a class) with a wrapper that times the
call and then calls the original. Nothing inside ``src/`` is edited.

Two kinds of probe exist:

* ``Marks`` are always installed. They take one clock reading per epoch
  checkpoint and two per tokenize call, which is all the end-to-end
  throughputs need; everything else is timed by the workload itself.
* ``Tracer`` is installed only around traced units of work. It records a span
  (name, start, end, parent span, op id) at every layer boundary and the
  counts the per-layer metrics need. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gc
import importlib
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

_clock = time.perf_counter

# (module, attribute, span name). A function that a module imports by name is
# patched in the importing module, because that is the name the caller looks
# up at call time. Class attributes are patched on the class.
SPANS = (
    ("eeglm.cli", "run_stage", "training.stage"),
    ("eeglm.cli", "evaluate_checkpoint", "evaluate.run"),
    ("eeglm.cli", "preprocess", "signal_io.preprocess"),
    ("eeglm.signal_io", "load_container", "signal_io.load"),
    ("eeglm.synth", "load_container", "signal_io.load"),
    ("eeglm.training", "load_checkpoint", "checkpoint.load"),
    ("eeglm.training", "save_checkpoint", "checkpoint.save"),
    ("eeglm.training", "prepare_sequences", "training.prepare"),
    ("eeglm.evaluate", "prepare_sequences", "training.prepare"),
    ("eeglm.training", "extract_features", "profiler.features"),
    ("eeglm.training", "generate_profile", "profiler.generate"),
    ("eeglm.training", "assemble_sequence", "sequences.assemble"),
    ("eeglm.training", "backward", "autodiff.backward"),
    ("eeglm.training", "clip_global_norm", "optim.clip"),
    ("eeglm.training", "loss_dsha", "losses.dsha"),
    ("eeglm.training", "loss_ntp", "losses.ntp"),
    ("eeglm.training", "loss_cpt", "losses.cpt"),
    ("eeglm.training", "loss_sft", "losses.sft"),
    ("eeglm.evaluate", "label_probabilities", "evaluate.score"),
    ("eeglm.training:PipelineModel", "tokenize_recording", "training.tokenize"),
    ("eeglm.encoder:DualStreamEncoder", "__call__", "encoder.forward"),
    ("eeglm.quantizer:VectorQuantizer", "__call__", "quantizer.forward"),
    ("eeglm.refiner:SemanticRefiner", "__call__", "refiner.forward"),
    ("eeglm.backbone:ToyBackbone", "logits", "backbone.logits"),
    ("eeglm.optim:AdamW", "step", "optim.adamw"),
)

# Spans that start a new op id: a stage run, an eval sample, or a
# tokenize/profile/preprocess call. Their descendants share that id.
OP_SPANS = {
    "training.stage",
    "evaluate.score",
    "training.tokenize",
    "profiler.generate",
    "signal_io.preprocess",
}


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class _Patches:
    """Module attributes replaced by wrappers, restorable in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, target: str, attr: str, make_wrapper) -> None:
        owner = _resolve(target)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Marks:
    """Always-on probes: epoch-end times per stage and tokenize call times."""

    def __init__(self):
        self.epoch_ends: list[tuple[str, float]] = []
        self.tokenize_s: list[float] = []
        self.tokens: list = []  # the TokenSequence of every tokenize call
        self._patches = _Patches()

    def install(self) -> None:
        marks = self

        def epoch_end(original):
            def wrapper(run_dir, model, opt, stage, *rest, **kw):
                path = original(run_dir, model, opt, stage, *rest, **kw)
                marks.epoch_ends.append((stage, _clock()))
                return path

            return wrapper

        def tokenize(original):
            def wrapper(*args, **kw):
                t0 = _clock()
                out = original(*args, **kw)
                marks.tokenize_s.append(_clock() - t0)
                marks.tokens.append(out[0])
                return out

            return wrapper

        self._patches.replace("eeglm.training", "save_stage_checkpoint", epoch_end)
        self._patches.replace("eeglm.training:PipelineModel", "tokenize_recording", tokenize)

    def uninstall(self) -> None:
        self._patches.restore()

    def tokenize_rate(self) -> float:
        """Tokenize calls per second spent in them."""
        return len(self.tokenize_s) / sum(self.tokenize_s)

    def stage_intervals(self, stage: str) -> list[float]:
        """Seconds between consecutive epoch ends of each run of `stage` (the
        first epoch of a run has no start mark, so it is left out)."""
        out: list[float] = []
        prev = None
        for name, t in self.epoch_ends:
            if name != stage:
                prev = None
                continue
            if prev is not None:
                out.append(t - prev)
            prev = t
        return out


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        # each span: [id, name, start, end, parent id, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.gc_pause_s = 0.0
        self._stack: list[list] = []
        self._patches = _Patches()
        self._gc_start = 0.0

    # ---- spans ----
    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        if name in OP_SPANS or parent is None:
            op = sid
        else:
            op = parent[5]
        span = [sid, name, _clock(), None, parent[0] if parent else None, op]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = _clock()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - wrappers always nest
            raise RuntimeError("span stack out of order")

    def call(self, name: str, fn, *args, **kw):
        span = self.open(name)
        try:
            return fn(*args, **kw)
        finally:
            self.close(span)

    # ---- installation ----
    def install(self) -> None:
        tracer = self

        def spanned(name):
            def make(original):
                def wrapper(*args, **kw):
                    span = tracer.open(name)
                    try:
                        out = original(*args, **kw)
                    finally:
                        tracer.close(span)
                    tracer._observe(name, args, out)
                    return out

                return wrapper

            return make

        for target, attr, name in SPANS:
            self._patches.replace(target, attr, spanned(name))

        def rows_read(original):
            def wrapper(logits, seq, span):
                s, e = seq.spans.get(span, (0, 0))
                tracer.counts["backbone.rows_read"] += max(e - s, 0)
                return original(logits, seq, span)

            return wrapper

        self._patches.replace("eeglm.losses", "span_nll", rows_read)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._patches.restore()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _clock()
        else:
            self.gc_pause_s += _clock() - self._gc_start
            self.counts["gc.collected"] += info.get("collected", 0)

    def _observe(self, name: str, args: tuple, out) -> None:
        """Counts read from a call's arguments and result."""
        c = self.counts
        c[name + ".calls"] += 1
        if name == "autodiff.backward":
            graph = args[0].graph
            c["autodiff.nodes"] += len(graph) if graph is not None else 0
        elif name == "optim.clip":
            c["optim.clip_fired"] += out is not args[0]
        elif name == "profiler.generate":
            c["profiler.retries"] += out.retries
        elif name == "sequences.assemble":
            c["sequences.tokens"] += out.length
        elif name == "backbone.logits":
            c["backbone.rows_computed"] += out.shape[0]
        elif name == "evaluate.score":
            c["backbone.rows_read"] += 1  # the answer-slot row
        elif name == "checkpoint.save":
            root = Path(args[0])
            c["checkpoint.save_bytes"] += sum(
                os.path.getsize(p) for p in root.iterdir() if p.is_file()
            )

    # ---- aggregation ----
    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for sid, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, name, t0, t1, _, _ in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return dict(out)

    def span_records(self) -> list[dict]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "op": s[5]}
            for s in self.spans
        ]
