"""Tape-node counts at the paper's shapes: T=30 frames, N=15 objects per
frame, K=2 groups, widths 32, V=1000 and a 21-word caption. The counts
depend on the graph's structure only, so their bounds hold on any machine.
Each count is printed as a ``TAPE <name>: <count> (bound <max>)`` line.

The bytes one batch graph of 32 holds, traced by ``tracemalloc``, depend on
numpy's allocations as well, so their bounds carry a stated margin; each is
printed as a ``MEMORY <name>: <MiB> MiB (bound <max> MiB)`` line."""

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
from objcap.data import SegmentFeatures
from objcap.model import ModelConfig, batch_nll, init_model, segment_context
from objcap.tensor import collector_paused, log_softmax

INTERACTION_MAX = 152
TEACHER_FORCED_MAX = 248
DECODE_STEP_MAX = 12
BEAM_STEP_MAX = 13
SEGMENT_MAX = 404
BATCH_MAX = 404
# MiB that test_batch_graph_memory's batch of 32 holds once its forward is
# built, and at most while its backward runs: 15.02 and 15.68 measured
# (numpy 2.4.6), plus a 3% margin
GRAPH_HELD_MAX_MIB = 15.5
GRAPH_PEAK_MAX_MIB = 16.2


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
