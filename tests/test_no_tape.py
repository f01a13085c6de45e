"""Work that never backpropagates runs off the tape (``tensor.no_tape``):
the segment context, beam search and the validation loss. Off the tape they
build no node, and every value equals the taped run's, under ``==`` and bit
for bit (array bytes, ``float.hex``)."""

import numpy as np
import pytest

from objcap import captioner, trainer
from objcap.captioner import BOS_ID, EOS_ID, beam_search
from objcap.data import SegmentFeatures
from objcap.model import ModelConfig, init_model, segment_context
from objcap.tensor import no_tape

from helpers import nodes_recorded


def same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def segment(rng, frames: int, objects: int):
    """Image features and per-frame object arrays, 0 to ``objects`` rows each."""
    image = rng.normal(size=(frames, 32))
    counts = rng.integers(0, objects + 1, size=frames)
    return image, [rng.normal(size=(int(n), 32)) for n in counts]


@pytest.mark.parametrize("mode", [{}, {"use_image": False}, {"use_objects": False}],
                         ids=["full", "no-image", "no-objects"])
def test_segment_context_off_the_tape_equals_taped(mode):
    rng = np.random.default_rng(50)
    m = init_model(ModelConfig(vocab_size=20, **mode), seed=50)
    for frames, objects in [(1, 1), (5, 5), (30, 15)]:
        image, objects = segment(rng, frames, objects)
        ctx, records = segment_context(m, image, objects)
        with no_tape(), nodes_recorded() as nodes:
            bare, bare_records = segment_context(m, image, objects)
        assert nodes == [0]
        for name in ("frames", "pooled", "states", "keys"):
            taped, off = getattr(ctx, name), getattr(bare, name)
            assert (taped is None) == (off is None), name
            if taped is not None:
                assert off._prev == () and same(off.data, taped.data), name
        assert len(bare_records) == len(records)
        for frame, bare_frame in zip(records, bare_records, strict=True):
            for alpha, bare_alpha in zip(frame, bare_frame, strict=True):
                assert (alpha is None) == (bare_alpha is None)
                assert alpha is None or same(bare_alpha, alpha)


@pytest.mark.parametrize("vocab, eos_nudge", [(20, 0.0), (1000, 0.03)], ids=["20", "1000"])
def test_beam_search_off_the_tape_equals_taped(vocab, eos_nudge, monkeypatch):
    """Widths 1, 2 and 5. At each vocabulary size ``beam_select`` takes
    pools with and without a finished entry, so its carried-entry fix-ups
    run: at V=20 EOS enters some pools by itself; at V=1000,
    where an untrained model's scores are nearly flat, EOS's output bias is
    raised just enough that some searches end early, some carry a finished
    entry to the cap and some never finish one."""
    steps = {False: 0, True: 0}     # by whether the pool held a finished entry
    select = captioner.beam_select

    def recording_select(logp, log_prob, finished, rank, beam_width):
        steps[bool(finished.any())] += 1
        return select(logp, log_prob, finished, rank, beam_width)

    monkeypatch.setattr(captioner, "beam_select", recording_select)
    rng = np.random.default_rng(vocab)
    m = init_model(ModelConfig(vocab_size=vocab), seed=vocab)
    m.captioner.out_b.data[EOS_ID] += eos_nudge
    for width in (1, 2, 5):
        for _ in range(3):
            ctx, _ = segment_context(m, *segment(rng, 5, 5))
            taped = beam_search(m.captioner, ctx, width)
            with no_tape(), nodes_recorded() as nodes:
                bare = beam_search(m.captioner, ctx, width)
            assert nodes == [0]
            assert bare.tokens == taped.tokens
            assert bare.log_prob == taped.log_prob
            assert bare.log_prob.hex() == taped.log_prob.hex()
            assert len(bare.alphas) == len(taped.alphas)
            assert all(same(a, b) for a, b in zip(bare.alphas, taped.alphas))
    assert steps[False] and steps[True], steps


def test_validation_loss_off_the_tape_equals_taped():
    """``_mean_loss`` runs off the tape; its undecorated body, run on the
    tape, builds graphs and gives the same value."""
    rng = np.random.default_rng(51)
    m = init_model(ModelConfig(vocab_size=30), seed=51)
    items = []
    for i in range(7):
        image, objects = segment(rng, int(rng.integers(1, 8)), 4)
        words = rng.integers(4, 30, size=int(rng.integers(0, 9))).tolist()
        items.append((SegmentFeatures(f"s{i}", image, objects, ["unused"]),
                      [BOS_ID, *words, EOS_ID]))
    with nodes_recorded() as taped_nodes:
        taped = trainer._mean_loss.__wrapped__(m, items, 3)
    with nodes_recorded() as nodes:
        bare = trainer._mean_loss(m, items, 3)
    assert taped_nodes[0] > 0 and nodes == [0]
    assert bare == taped and bare.hex() == taped.hex()
