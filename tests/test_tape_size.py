"""Tape-node counts at the paper's shapes: T=30 frames, N=15 objects per
frame, K=2 groups, widths 32, V=1000 and a 21-word caption. The counts
depend on the graph's structure only, so their bounds hold on any machine."""

import numpy as np

from objcap.captioner import BOS_ID, EOS_ID, decode_step, forward_teacher_forced, initial_state
from objcap.model import ModelConfig, init_model, segment_context

INTERACTION_MAX = 1212
TEACHER_FORCED_MAX = 1100
DECODE_STEP_MAX = 46


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


def test_tape_node_counts_at_paper_shapes():
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

    assert op_nodes(ctx.states._prev) <= INTERACTION_MAX
    assert op_nodes([loss], stop=context) <= TEACHER_FORCED_MAX
    assert op_nodes(step_roots, stop=context) <= DECODE_STEP_MAX
