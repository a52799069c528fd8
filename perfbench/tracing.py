"""Span tracing by rebinding the program's public functions and methods.

Nothing in the program is edited: ``Tracer.install`` replaces each target
function (everywhere a charrnn module holds a reference to it) and method
with a wrapper that records a span, and ``Tracer.remove`` puts the originals
back. A span is ``[name, start_ns, end_ns, parent index, op]`` where ``op``
is the id shared by every span of one step, request or set-up round. Spans
stay in memory until ``dump`` writes them out.

A span's self time is its duration minus the durations of its direct
children. An ``LstmCell`` span whose parent is a ``BidirectionalLstm`` span is
recorded as ``layers.birnn.<method>.cell``, so its time counts toward the
birnn layer the user configured, not toward ``layers.lstm.*``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from pathlib import Path

from charrnn import cli, corpus, generator, layers, model, numerics, objective, trainer

# (owner, attribute, span name)
_METHODS = [
    (cls, meth, f"layers.{kind}.{meth}")
    for cls, kind in ((layers.LstmCell, "lstm"), (layers.GruCell, "gru"),
                      (layers.BidirectionalLstm, "birnn"))
    for meth in ("forward_seq", "backward_seq", "step")
] + [
    (layers.Embedding, "forward", "layers.embedding.forward"),
    (layers.Embedding, "backward", "layers.embedding.backward"),
    (layers.Dense, "forward", "layers.dense.forward"),
    (layers.Dense, "backward", "layers.dense.backward"),
    (layers.RecurrentStack, "step", "layers.step"),
    (corpus.Vocabulary, "encode", "corpus.encode"),
]
_FUNCTIONS = [
    (numerics, "sigmoid", "numerics.sigmoid"),
    (numerics, "softmax", "numerics.softmax"),
    (numerics, "sample_categorical", "numerics.sample_categorical"),
    (layers, "dropout_forward", "layers.dropout.forward"),
    (layers, "dropout_backward", "layers.dropout.backward"),
    (objective, "ce_loss", "objective.ce_loss"),
    (objective, "ce_grad", "objective.ce_grad"),
    (objective, "rmsprop_step", "objective.rmsprop_step"),
    (trainer, "clip_global_norm", "trainer.clip_global_norm"),
    (trainer, "train_epoch", "trainer.train_epoch"),
    (corpus, "load_corpus", "corpus.load_corpus"),
    (corpus, "build_vocab", "corpus.build_vocab"),
    (corpus, "make_sequences", "corpus.make_sequences"),
    (corpus, "shuffle_batches", "corpus.shuffle_batches"),
    (model, "build_model", "model.build_model"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (model, "rebuild_for_generation", "model.rebuild_for_generation"),
    (generator, "generate", "generator.generate"),
    (cli, "main", "cli.main"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = "setup:0"
        self.clipped: list[bool] = []   # per clip_global_norm call: norm > max_norm
        self._stack: list[int] = []
        self._prime_left = 0            # stack steps still priming the current request
        self._undo: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- install ---

    def install(self) -> None:
        for cls, attr, name in _METHODS:
            self._rebind(cls, attr, cls.__dict__[attr], self._wrap(cls.__dict__[attr], name))
        modules = [m for key, m in sys.modules.items()
                   if key == "charrnn" or key.startswith("charrnn.")]
        for owner, attr, name in _FUNCTIONS:
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _rebind(self, owner, attr, original, wrapped) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        tracer = self
        in_birnn = (name.replace("layers.lstm.", "layers.birnn.", 1) + ".cell"
                    if name.startswith("layers.lstm.") else None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name
            if in_birnn and parent >= 0 and spans[parent][0].startswith("layers.birnn."):
                label = in_birnn
            elif name == "layers.step":
                label = "layers.step.prime" if tracer._prime_left > 0 else "layers.step.sample"
                tracer._prime_left -= 1
            elif name == "generator.generate":
                tracer._prime_left = len(args[1].prime_text)
            rec = [label, 0, 0, parent, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if name == "trainer.clip_global_norm":
                tracer.clipped.append(result > args[1])
            return result

        return traced

    # ------------------------------------------------------------ output ---

    def dump(self, path: Path, meta: dict) -> None:
        """Write meta and every span (times relative to the first) as gzip JSON."""
        t0 = self.spans[0][1] if self.spans else 0
        doc = {**meta, "fields": ["name", "start_ns", "end_ns", "parent", "op"],
               "spans": [[n, s - t0, e - t0, p, op] for n, s, e, p, op in self.spans]}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))


def _child_ns(spans: list[list]) -> list[int]:
    """Per span, the summed durations of its direct children."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    return child_ns


def summarize(spans: list[list]) -> dict[tuple[str, str], list[float]]:
    """(span name, phase) -> [calls, inclusive ns, self ns].

    The phase is the op id up to its colon: setup, step, request or finish.
    """
    child_ns = _child_ns(spans)
    out: dict[tuple[str, str], list[float]] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        acc = out.setdefault((name, op.split(":", 1)[0]), [0, 0, 0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child_ns[i]
    return out


def step_coverage(spans: list[list], step_ms: list[float]) -> float:
    """Time the spans inside traced steps account for, over the steps' wall
    time measured from outside: the children of every trainer.train_epoch
    span cover its callees, whose self times sum to the children's time."""
    covered = _child_ns(spans)
    inside = sum(covered[i] for i, s in enumerate(spans) if s[0] == "trainer.train_epoch")
    wall_ns = 1e6 * sum(step_ms)
    return inside / wall_ns if wall_ns else 0.0


# ---------------------------------------------------------------- metrics ---
# Times are self times unless a name says otherwise. ".ms" and ".self_ms" are
# per operation (training step or generate request) for spans inside
# operations, and per set-up round for the set-up spans; ".us" is the mean
# inclusive duration per call; ".calls" counts calls over the traced pass.

_RECURRENT = [f"layers.{kind}.{meth}" for kind in ("lstm", "gru", "birnn")
              for meth in ("forward_seq", "backward_seq")]

OP_SELF_MS = {
    **{f"{name}.ms": (name, f"{name}.cell") for name in _RECURRENT},
    "numerics.sigmoid.ms": ("numerics.sigmoid",),
    "layers.embedding.forward.ms": ("layers.embedding.forward",),
    "layers.embedding.backward.ms": ("layers.embedding.backward",),
    "layers.dropout.ms": ("layers.dropout.forward", "layers.dropout.backward"),
    "layers.dense.ms": ("layers.dense.forward", "layers.dense.backward"),
    "objective.ce_loss.ms": ("objective.ce_loss",),
    "objective.ce_grad.ms": ("objective.ce_grad",),
    "objective.rmsprop_step.ms": ("objective.rmsprop_step",),
    "trainer.clip_global_norm.ms": ("trainer.clip_global_norm",),
    "model.load_checkpoint.ms": ("model.load_checkpoint",),
    "model.rebuild_for_generation.ms": ("model.rebuild_for_generation",),
    "generator.generate.self_ms": ("generator.generate",),
    "cli.main.self_ms": ("cli.main",),
}
_OP_CALLS = {
    **{f"{name}.calls": (name,) for name in _RECURRENT},
    "numerics.sigmoid.calls": ("numerics.sigmoid",),
    "layers.step.calls": ("layers.step.prime", "layers.step.sample"),
}
_OP_CALL_US = {
    "layers.step.prime_us": "layers.step.prime",
    "layers.step.sample_us": "layers.step.sample",
    "numerics.softmax.us": "numerics.softmax",
    "numerics.sample_categorical.us": "numerics.sample_categorical",
}
_SETUP_SELF_MS = {
    "corpus.load_corpus.ms": ("corpus.load_corpus",),
    "corpus.encode.ms": ("corpus.encode",),
    "corpus.make_sequences.ms": ("corpus.make_sequences",),
    "corpus.shuffle_batches.ms": ("corpus.shuffle_batches",),
    "model.build_model.ms": ("model.build_model",),
    "model.save_checkpoint.ms": ("model.save_checkpoint",),
}


def recurrent_share(spans: list[list], step_ms: list[float]) -> float:
    """Share of traced step wall time spent inside the recurrent
    forward_seq/backward_seq spans, their sigmoid calls included."""
    inside = sum(end - start for name, start, end, parent, op in spans
                 if name in _RECURRENT and op.startswith("step:")
                 and (parent < 0 or spans[parent][0] not in _RECURRENT))
    wall_ns = 1e6 * sum(step_ms)
    return inside / wall_ns if wall_ns else 0.0


def per_layer_metrics(tracer: Tracer, traced, untraced) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) from one traced pass of a workload and an
    untraced pass of the same work (for the tracing overhead)."""
    table = summarize(tracer.spans)
    n_ops = max(1, len(traced.op_ms))
    n_setup = max(1, len(traced.setup_s))

    def total(names, phases, column):
        return sum(table.get((n, p), (0, 0, 0))[column] for n in names for p in phases)

    ops = ("step", "request")
    out: dict[str, tuple[float, str]] = {}
    for metric, names in OP_SELF_MS.items():
        out[metric] = (total(names, ops, 2) / 1e6 / n_ops, "ms")
    for metric, names in _OP_CALLS.items():
        out[metric] = (float(total(names, ops, 0)), "count")
    for metric, name in _OP_CALL_US.items():
        calls = total((name,), ops, 0)
        out[metric] = (total((name,), ops, 1) / 1e3 / calls if calls else 0.0, "us")
    for metric, names in _SETUP_SELF_MS.items():
        out[metric] = (total(names, ("setup",), 2) / 1e6 / n_setup, "ms")
    out["corpus.chars_encoded"] = (float(traced.chars_encoded), "count")
    out["model.checkpoint_bytes"] = (float(traced.checkpoint_bytes), "B")
    out["trainer.clip_rate"] = (
        sum(tracer.clipped) / len(tracer.clipped) if tracer.clipped else 0.0, "ratio")
    out["trainer.step_coverage"] = (
        step_coverage(tracer.spans, traced.op_ms) if traced.op_label == "step" else 0.0, "ratio")
    out["layers.recurrent.share"] = (
        recurrent_share(tracer.spans, traced.op_ms) if traced.op_label == "step" else 0.0, "ratio")
    traced_ms = sum(traced.op_ms) / n_ops
    untraced_ms = sum(untraced.op_ms) / max(1, len(untraced.op_ms))
    out["trace.op_ms"] = (traced_ms, "ms")
    out["trace.overhead_pct"] = (100.0 * (traced_ms - untraced_ms) / untraced_ms
                                 if untraced_ms else 0.0, "%")
    return out
