"""Tape-node counts at the paper's shapes: T=30 frames, N=15 objects per
frame, K=2 groups, widths 32, V=1000 and a 21-word caption. The counts
depend on the graph's structure only, so their bounds hold on any machine.
Each count is printed as a ``TAPE <name>: <count> (bound <max>)`` line.

The bytes one batch graph of 32 holds, traced by ``tracemalloc``, depend on
numpy's allocations as well, so their bounds carry a stated margin; each is
printed as a ``MEMORY <name>: <MiB> MiB (bound <max> MiB)`` line. So are the
traced bytes of a V=1000 checkpoint's save and load."""

import tracemalloc

import numpy as np
import pytest

from objcap.captioner import (
    BOS_ID,
    EOS_ID,
    decode_step,
    forward_teacher_forced,
    initial_state,
    tile_context,
)
from objcap.cli import caption_dataset
from objcap.data import RESERVED_WORDS, SegmentFeatures, Vocabulary
from objcap.model import ModelConfig, batch_nll, init_model, segment_context
from objcap.tensor import collector_paused, log_softmax
from objcap.trainer import AdamState, TrainConfig, adam_step, load_checkpoint, save_checkpoint

from helpers import nodes_recorded

INTERACTION_MAX = 62
TEACHER_FORCED_MAX = 114
DECODE_STEP_MAX = 6
BEAM_STEP_MAX = 7
SEGMENT_MAX = 180
BATCH_MAX = 180
CAPTION_CALL_MAX = 0    # captioning runs off the tape
# MiB that test_batch_graph_memory's batch of 32 holds once its forward is
# built, and at most while its backward runs: 14.12 and 14.75 measured
# (numpy 2.4.6), plus a 3% margin, rounded up
GRAPH_HELD_MAX_MIB = 14.6
GRAPH_PEAK_MAX_MIB = 15.2
# MiB that test_checkpoint_memory's load holds once it returns: 2.46
# measured (numpy 2.4.6), plus a 3% margin. The peaks are bounded by the
# model's own sizes: save writes each entry from the array it is, and
# makes at most an absent ADAM moment's zeros, so its peak stays under two
# of the largest entries; load reads one entry at a time on top of what it
# holds and init_model's draw, so its peak stays under what it holds plus
# one model's parameters. Measured: save 0.28 (no ADAM state) and 0.11 MiB,
# load 2.76 MiB.
CHECKPOINT_HELD_MAX_MIB = 2.53
# KiB that test_adam_step_memory's second step at V=1000 may trace beyond
# its workspace, the one array of two parameter-sized halves it makes (the
# gradients' copy and a scratch); fixed before measuring. A step with one
# more parameter-sized temporary would trace 795 KiB beyond it.
ADAM_STEP_EXTRA_MAX_KIB = 64


def op_nodes(roots, stop=()) -> int:
    """Tensors made by operations (those with parents) reachable from
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


@pytest.fixture
def report(capsys):
    """Print a ``TAPE`` or ``MEMORY`` line past pytest's capture, then
    return its value."""
    def _report(kind, name, value, bound, unit=""):
        with capsys.disabled():
            print(f"\n{kind} {name}: {value}{unit} (bound {bound}{unit})")
        return value
    return _report


def paper_segment_counts() -> dict[str, int]:
    """The tape-node counts of one segment and its caption at the paper's
    shapes, by ``TAPE`` line name."""
    rng = np.random.default_rng(0)
    m = init_model(ModelConfig(vocab_size=1000), seed=0)
    image = rng.normal(size=(30, 32))
    objects = [rng.normal(size=(15, 32)) for _ in range(30)]
    caption = [BOS_ID] + [int(w) for w in rng.integers(4, 1000, size=21)] + [EOS_ID]

    ctx, _ = segment_context(m, image, objects)
    context = [ctx.frames, ctx.pooled, ctx.states, ctx.keys]
    loss = forward_teacher_forced(m.captioner, ctx, caption).loss
    step = decode_step(m.captioner, ctx, BOS_ID, initial_state(m.captioner))
    step_roots = [step.word_logits, step.alpha_temp, step.state.h1, step.state.c1,
                  step.state.h2, step.state.c2]
    return {"interaction": op_nodes(ctx.states._prev),
            "teacher-forced": op_nodes([loss], stop=context),
            "decode step": op_nodes(step_roots, stop=context),
            "segment": op_nodes([loss])}


def test_tape_node_counts_at_paper_shapes(report):
    bounds = {"interaction": INTERACTION_MAX, "teacher-forced": TEACHER_FORCED_MAX,
              "decode step": DECODE_STEP_MAX, "segment": SEGMENT_MAX}
    for name, count in paper_segment_counts().items():
        assert report("TAPE", name, count, bounds[name]) <= bounds[name]


def paper_batch(batch_size, rng) -> list:
    """(segment, caption) pairs of one padded training batch whose first
    segment has the paper's largest shapes and whose others are ragged and
    smaller."""
    items = []
    for b in range(batch_size):
        frames = 30 if b == 0 else int(rng.integers(1, 31))
        counts = [15] * 30 if b == 0 else rng.integers(0, 16, size=frames).tolist()
        words = 21 if b == 0 else int(rng.integers(0, 22))
        seg = SegmentFeatures(segment_id=f"s{b}", image_feats=rng.normal(size=(frames, 32)),
                              object_feats=[rng.normal(size=(n, 32)) for n in counts],
                              captions=["unused"])
        caption = [BOS_ID] + [int(w) for w in rng.integers(4, 1000, size=words)] + [EOS_ID]
        items.append((seg, caption))
    return items


def batch_nodes(m, batch_size, rng) -> int:
    """Op nodes of the graph of one ``paper_batch``."""
    rows, _ = batch_nll(m, paper_batch(batch_size, rng))
    return op_nodes([rows.sum()])


def test_batch_node_count_does_not_depend_on_batch_size(report):
    """A batch of one runs the padded path too, so it counts the same."""
    rng = np.random.default_rng(1)
    m = init_model(ModelConfig(vocab_size=1000), seed=0)
    pair, full, one = (report("TAPE", f"batch of {size}", batch_nodes(m, size, rng), BATCH_MAX)
                       for size in (2, 32, 1))
    assert one == pair == full <= BATCH_MAX


def test_batch_graph_memory(report):
    """The traced bytes a batch graph of 32 holds after its forward, and
    its peak while backward runs and frees it: a node keeps only what its
    backward reads. The collector is paused, as in training."""
    m = init_model(ModelConfig(vocab_size=1000), seed=0)
    items = paper_batch(32, np.random.default_rng(1))
    with collector_paused():
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows, _ = batch_nll(m, items)
            loss = rows.sum()
            held = tracemalloc.get_traced_memory()[0] - base
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    for name, size, bound in [("after forward", held, GRAPH_HELD_MAX_MIB),
                              ("backward peak", peak, GRAPH_PEAK_MAX_MIB)]:
        assert report("MEMORY", f"batch of 32 {name}", round(size / 2 ** 20, 2), bound,
                      " MiB") <= bound


def traced_mib(fn) -> tuple[object, float, float]:
    """``fn()``, and the MiB it left allocated and its peak, by
    ``tracemalloc``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        held, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return out, held / 2 ** 20, peak / 2 ** 20


def test_checkpoint_memory(report, tmp_path):
    """The traced peak of saving a V=1000 checkpoint, without ADAM state
    and with it, and of loading it back, with what the loaded checkpoint
    holds: entries are written and read one at a time."""
    vocab = Vocabulary.from_list(RESERVED_WORDS + [f"w{i:04d}" for i in range(996)])
    m = init_model(ModelConfig(vocab_size=1000), seed=0)
    params = m.named_parameters()
    entry_mib = max(p.data.nbytes for p in params.values()) / 2 ** 20
    param_mib = sum(p.data.nbytes for p in params.values()) / 2 ** 20
    adam, cfg = AdamState(), TrainConfig()
    _, _, bare = traced_mib(lambda: save_checkpoint(tmp_path / "bare.ckpt", m, vocab, adam, cfg))
    rng = np.random.default_rng(4)
    adam_step(params, {n: rng.normal(size=p.data.shape) for n, p in params.items()}, adam, 1e-3)
    path = tmp_path / "stepped.ckpt"
    _, _, stepped = traced_mib(lambda: save_checkpoint(path, m, vocab, adam, cfg))
    ck, held, peak = traced_mib(lambda: load_checkpoint(path))
    assert ck.adam.step == 1
    save_bound = round(2 * entry_mib, 2)
    for name, size, bound in [("checkpoint save peak, no ADAM state", bare, save_bound),
                              ("checkpoint save peak, ADAM state", stepped, save_bound),
                              ("checkpoint load holds", held, CHECKPOINT_HELD_MAX_MIB),
                              ("checkpoint load peak", peak, round(held + param_mib, 2))]:
        assert report("MEMORY", name, round(size, 2), bound, " MiB") <= bound


def test_adam_step_memory(report):
    """A second ADAM step at V=1000, its flat buffers laid out by the
    first, traces nothing beyond its workspace but a few small objects, and
    holds nothing once it returns."""
    m = init_model(ModelConfig(vocab_size=1000), seed=0)
    params = m.named_parameters()
    rng = np.random.default_rng(5)
    grads = {n: rng.normal(size=p.data.shape) for n, p in params.items()}
    adam = adam_step(params, grads, AdamState(), 1e-3)
    workspace_kib = 2 * sum(p.data.nbytes for p in params.values()) / 1024
    _, held, peak = traced_mib(lambda: adam_step(params, grads, adam, 1e-3))
    for name, kib in [("ADAM step peak beyond its workspace", peak * 1024 - workspace_kib),
                      ("ADAM step holds", held * 1024)]:
        assert report("MEMORY", name, round(kib, 1), ADAM_STEP_EXTRA_MAX_KIB, " KiB") \
            <= ADAM_STEP_EXTRA_MAX_KIB


def test_beam_step_node_count_does_not_depend_on_width(report):
    """A beam step, ``decode_step`` over the tiled pool plus
    ``log_softmax``, builds the same graph at any width."""
    rng = np.random.default_rng(2)
    m = init_model(ModelConfig(vocab_size=1000), seed=0)
    ctx, _ = segment_context(m, rng.normal(size=(30, 32)),
                             [rng.normal(size=(15, 32)) for _ in range(30)])
    counts = []
    for width in (1, 5):
        step = decode_step(m.captioner, tile_context(ctx, width), np.full(width, BOS_ID),
                           initial_state(m.captioner, (width,)))
        state = step.state
        counts.append(report("TAPE", f"beam step at width {width}",
                             op_nodes([log_softmax(step.word_logits), step.alpha_temp,
                                       state.h1, state.c1, state.h2, state.c2]),
                             BEAM_STEP_MAX))
    assert counts[0] == counts[1] <= BEAM_STEP_MAX


def test_caption_call_builds_no_node(report):
    """One ``cli.caption_dataset`` call at the paper's shapes (beam 5, 30
    words) records no node: the segment context and the beam search run
    off the tape. The same segment's taped context builds the interaction
    and more, so the count would see a graph."""
    rng = np.random.default_rng(3)
    m = init_model(ModelConfig(vocab_size=1000), seed=0)
    vocab = Vocabulary.from_list(RESERVED_WORDS + [f"w{i:04d}" for i in range(996)])
    seg = SegmentFeatures(segment_id="s0", image_feats=rng.normal(size=(30, 32)),
                          object_feats=[rng.normal(size=(15, 32)) for _ in range(30)],
                          captions=["unused"])
    with nodes_recorded() as taped:
        segment_context(m, seg.image_feats, seg.object_feats)
    assert taped[0] > INTERACTION_MAX
    with nodes_recorded() as nodes:
        predictions, _ = caption_dataset(m, vocab, [seg], 5, with_trace=True)
    assert list(predictions) == ["s0"]
    assert report("TAPE", "caption call", nodes[0], CAPTION_CALL_MAX) <= CAPTION_CALL_MAX
