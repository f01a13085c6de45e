"""Span tracing and tape-node counting, applied to objcap from outside.

The tracer wraps the public functions of each objcap module in place, in
every objcap module that holds a reference to them, so calls made inside the
package are caught as well as calls made by the benchmark. Each call records
one span (name, start, end, parent span, operation id, optimiser step) in an
in-memory list; ``uninstall`` restores the original functions. Self times
and per-layer figures are derived from the spans afterwards.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> (objcap module, attribute); "Tensor.backward" is a method
TRACED = {
    "trainer.train": ("trainer", "train"),
    "cli.caption_dataset": ("cli", "caption_dataset"),
    "model.segment_context": ("model", "segment_context"),
    "interaction.interaction_sequence": ("interaction", "interaction_sequence"),
    "captioner.forward_teacher_forced": ("captioner", "forward_teacher_forced"),
    "captioner.beam_search": ("captioner", "beam_search"),
    "captioner.decode_step": ("captioner", "decode_step"),
    "layers.lstm_step": ("layers", "lstm_step"),
    "layers.mlp_forward": ("layers", "mlp_forward"),
    "tensor.backward": ("tensor", "Tensor.backward"),
    "trainer.adam_step": ("trainer", "adam_step"),
    "trainer.save_checkpoint": ("trainer", "save_checkpoint"),
    "trainer.load_checkpoint": ("trainer", "load_checkpoint"),
    "data.synth_dataset": ("data", "synth_dataset"),
    "data.load_manifest": ("data", "load_manifest"),
    "metrics.evaluate_captions": ("metrics", "evaluate_captions"),
}

class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # (name, start, end, parent index or -1, operation id, step); None
        # while the call is still open
        self.spans: list[tuple | None] = []
        self.op = ""
        self.step = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self, op_id: str) -> None:
        """Tag the spans that follow with ``op_id`` and restart the step count."""
        self.op = op_id
        self.step = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        counts_step = name == "trainer.adam_step"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, self.step)
                if counts_step:
                    self.step += 1

        return traced

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "objcap" or n.startswith("objcap.")]
        for name, (mod_name, attr) in TRACED.items():
            mod = importlib.import_module(f"objcap.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([list(s) for s in self.spans if s is not None], fh)


def span_stats(spans: list) -> dict:
    """Per span name: call count, inclusive seconds and self seconds; plus
    the same for ``captioner.decode_step`` calls made under beam search.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    stats = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    in_beam = {"calls": 0, "incl_s": 0.0}
    for i, span in enumerate(spans):
        if span is None:
            continue
        name, start, end, parent, _, _ = span
        row = stats[name]
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        if name == "captioner.decode_step" and _has_ancestor(spans, parent,
                                                             "captioner.beam_search"):
            in_beam["calls"] += 1
            in_beam["incl_s"] += end - start
    out = dict(stats)
    out["captioner.decode_step@beam"] = in_beam
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    while idx >= 0:
        span = spans[idx]
        if span[0] == name:
            return True
        idx = span[3]
    return False


def op_nodes(roots, stop=()) -> int:
    """Tape nodes made by operations (tensors with parents) reachable from
    ``roots``, not entering ``stop`` or anything only reachable through it."""
    seen = {id(t) for t in stop}
    todo = [t for t in roots if id(t) not in seen]
    count = 0
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t._prev:
            count += 1
            todo.extend(t._prev)
    return count


def tape_node_counts() -> dict[str, int]:
    """Node counts at fixed shapes: T=30 frames, N=15 objects per frame,
    K=2 groups, widths 32, V=1000 and a 21-word caption. They depend on
    the graph's structure only, never on the machine or the data values."""
    from objcap import captioner, model
    from objcap.data import BOS_ID, EOS_ID

    rng = np.random.default_rng(0)
    m = model.init_model(model.ModelConfig(vocab_size=1000), seed=0)
    image = rng.normal(size=(30, 32))
    objects = [rng.normal(size=(15, 32)) for _ in range(30)]
    caption = [BOS_ID] + [int(w) for w in rng.integers(4, 1000, size=21)] + [EOS_ID]

    ctx, _ = model.segment_context(m, image, objects)
    context_nodes = [t for t in (ctx.frames, ctx.pooled, ctx.states) if t is not None]
    interaction = op_nodes(ctx.states._prev)   # the per-frame hidden states
    loss = captioner.forward_teacher_forced(m.captioner, ctx, caption).loss
    step = captioner.decode_step(m.captioner, ctx, BOS_ID, captioner.initial_state(m.captioner))
    step_roots = [step.word_logits, step.alpha_temp, step.state.h1, step.state.c1,
                  step.state.h2, step.state.c2]
    return {
        "interaction.tape_nodes_per_forward": interaction,
        "tensor.tape_nodes_per_segment": op_nodes([loss]),
        "captioner.teacher_forced_tape_nodes": op_nodes([loss], stop=context_nodes),
        "captioner.decode_step_tape_nodes": op_nodes(step_roots, stop=context_nodes),
    }
