"""A padded batch run as one graph, checked against its segments run alone.

The ragged batch has 1 to 4 frames per segment, a frame with no objects,
frames with one object and captions of 1 to 4 words, so every kind of
padding (frames, objects, caption positions) is present.
"""

import numpy as np
import pytest

from objcap.captioner import BOS_ID, EOS_ID, advance, forward_teacher_forced, precompute_frames
from objcap.captioner import initial_state
from objcap.data import SegmentFeatures
from objcap.interaction import interaction_states, pack_objects
from objcap.model import ModelConfig, batch_nll, init_model, segment_context
from objcap.tensor import ContractError, Tensor, take_column

from helpers import FD_TOL, gather_op, max_fd_error

DIMS = dict(image_dim=4, object_dim=5, num_groups=2, attn_dim=3, interaction_hidden=4,
            img_proj_dim=3, embed_dim=3, attn_hidden=4, lang_hidden=4)
VOCAB = 9
MODES = {
    "img+obj": {},
    "img": dict(use_objects=False),
    "obj": dict(use_image=False),
    "img+obj-no-co-attn": dict(use_coattention=False),
}


def make_model(seed=1, **flags):
    return init_model(ModelConfig(vocab_size=VOCAB, **DIMS, **flags), seed=seed)


def ragged_items(rng, objects=([2], [3, 0, 1, 4], [1, 2], [4, 1, 3]),
                 words=([4, 5, 6], [7], [5, 8, 4, 6], [6, 6])):
    items = []
    for i, (counts, caption) in enumerate(zip(objects, words)):
        seg = SegmentFeatures(segment_id=f"s{i}",
                              image_feats=rng.normal(size=(len(counts), DIMS["image_dim"])),
                              object_feats=[rng.normal(size=(n, DIMS["object_dim"]))
                                            for n in counts],
                              captions=["unused"])
        items.append((seg, [BOS_ID, *caption, EOS_ID]))
    return items


def padded_image(items):
    frames = max(seg.image_feats.shape[0] for seg, _ in items)
    image = np.zeros((len(items), frames, DIMS["image_dim"]))
    mask = np.zeros((len(items), frames), dtype=bool)
    for b, (seg, _) in enumerate(items):
        image[b, :seg.image_feats.shape[0]] = seg.image_feats
        mask[b, :seg.image_feats.shape[0]] = True
    return image, mask


def alone(model, seg, ids):
    ctx, _ = segment_context(model, seg.image_feats, seg.object_feats)
    return forward_teacher_forced(model.captioner, ctx, ids).loss_sum


def rel(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


def row_gradients(model, items, row):
    params = model.named_parameters()
    for p in params.values():
        p.zero_grad()
    rows, _ = batch_nll(model, items)
    gather_op(rows, np.array(row)).backward()
    return {n: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
            for n, p in params.items()}


@pytest.mark.parametrize("mode", list(MODES))
def test_rows_and_gradients_equal_segments_alone(mode):
    model = make_model(**MODES[mode])
    items = ragged_items(np.random.default_rng(2))
    params = model.named_parameters()

    rows, tokens = batch_nll(model, items)
    assert rows.shape == (len(items),)
    assert tokens == sum(len(ids) - 1 for _, ids in items)
    rows.sum().backward()
    batched = {n: p.grad for n, p in params.items()}

    for p in params.values():
        p.zero_grad()
    for row, (seg, ids) in zip(rows.data, items):
        loss = alone(model, seg, ids)
        assert rel(row, loss.item()) < 1e-12
        loss.backward()
    for name, p in params.items():
        if p.grad is None:    # a parameter of a pathway the mode drops
            assert batched[name] is None, name
        else:
            assert rel(batched[name], p.grad) < 1e-12, name


def test_batch_of_one_equals_segment_alone():
    """A batch of one runs the padded path with nothing padded, so without
    masks: in every mode its loss and every parameter gradient equal its
    segment's alone, bit for bit."""
    for mode, flags in MODES.items():
        model = make_model(**flags)
        params = model.named_parameters()
        for seg, ids in ragged_items(np.random.default_rng(3)):
            runs = []
            for batched in (True, False):
                for p in params.values():
                    p.zero_grad()
                if batched:
                    rows, tokens = batch_nll(model, [(seg, ids)])
                    assert tokens == len(ids) - 1
                    loss = rows.sum()
                else:
                    loss = alone(model, seg, ids)
                loss.backward()
                runs.append((loss.item(), {n: p.grad for n, p in params.items()}))
            (got, got_grads), (want, want_grads) = runs
            where = (mode, seg.segment_id)
            assert got == want, where
            for name, g in want_grads.items():
                if g is None:     # a parameter of a pathway the mode drops
                    assert got_grads[name] is None, (where, name)
                else:
                    assert np.array_equal(got_grads[name], g), (where, name)


def test_gradient_of_ragged_batch_matches_finite_differences():
    model = make_model(seed=4)
    items = ragged_items(np.random.default_rng(4), words=([4, 5], [7], [5, 8, 4], [6]))
    leaves = [t for _, t in sorted(model.named_parameters().items())]
    assert max_fd_error(lambda: batch_nll(model, items)[0].sum(), leaves) < FD_TOL


def test_permuting_objects_leaves_padded_states_unchanged():
    rng = np.random.default_rng(5)
    model = make_model(seed=5)
    items = ragged_items(rng)
    image, _ = padded_image(items)
    objects, mask = pack_objects([seg.object_feats for seg, _ in items])
    permuted, _ = pack_objects([[objs[rng.permutation(objs.shape[0])]
                                 for objs in seg.object_feats] for seg, _ in items])
    hs1, _ = interaction_states(model.interaction, Tensor(image), objects, mask)
    hs2, _ = interaction_states(model.interaction, Tensor(image), permuted, mask)
    worst = max(float(np.max(np.abs(a.data - b.data))) for a, b in zip(hs1, hs2))
    assert worst < 1e-12


def longest_first(items):
    """The items in the order ``batch_nll`` runs them: by frame count,
    longest first, ties in their given order."""
    return sorted(items, key=lambda item: -item[0].image_feats.shape[0])


def test_padded_objects_and_frames_get_zero_attention():
    """Only the segments still running at a frame attend there, padded
    rows get zero attention, and a segment past its end carries its last
    state."""
    rng = np.random.default_rng(6)
    model = make_model(seed=6)
    items = longest_first(ragged_items(rng))
    image, frame_mask = padded_image(items)
    objects, object_mask = pack_objects([seg.object_feats for seg, _ in items])
    v_c = Tensor(image)
    hiddens, records = interaction_states(model.interaction, v_c, objects, object_mask,
                                          frame_mask)

    counts = object_mask.sum(axis=-1)
    for t, frame in enumerate(records):
        running = int(frame_mask[:, t].sum())
        for alpha in frame:
            assert alpha.shape[0] == running
            for b, n in enumerate(counts[:running, t]):
                assert np.all(alpha[b, n:, :] == 0.0) and np.all(alpha[b, :, n:] == 0.0)
                if n:
                    assert np.max(np.abs(alpha[b, :n, :n].sum(axis=1) - 1.0)) < 1e-12
    for b, (seg, _) in enumerate(items):
        last = seg.image_feats.shape[0] - 1
        for h in hiddens[last + 1:]:
            assert np.array_equal(h.data[b], hiddens[last].data[b])

    ctx = precompute_frames(model.captioner, v_c, hiddens, frame_mask)
    state = initial_state(model.captioner, (len(items),))
    for words in ([BOS_ID] * 4, [4, 5, 6, 7]):
        embedding = take_column(model.captioner.embed, np.array(words))
        state, alpha = advance(model.captioner, ctx, embedding, state)
        assert np.all(alpha.data[~frame_mask] == 0.0)
        assert np.max(np.abs(alpha.data.sum(axis=1) - 1.0)) < 1e-12
    # the frame pool averages each segment's real frames only
    for b, (seg, _) in enumerate(items):
        single, _ = segment_context(model, seg.image_feats, seg.object_feats)
        assert rel(ctx.pooled.data[b], single.pooled.data) < 1e-12


def test_rows_out_of_frame_order_rejected():
    rng = np.random.default_rng(6)
    model = make_model(seed=6)
    items = ragged_items(rng)               # 1, 4, 2 and 4 frames
    image, frame_mask = padded_image(items)
    objects, object_mask = pack_objects([seg.object_feats for seg, _ in items])
    with pytest.raises(ContractError, match="longest first"):
        interaction_states(model.interaction, Tensor(image), objects, object_mask, frame_mask)


def test_permuting_items_permutes_their_rows():
    """``batch_nll`` sorts its segments by frame count inside; whatever the
    order of the items, each row belongs to its item and the gradients
    agree."""
    model = make_model(seed=8)
    params = model.named_parameters()
    items = ragged_items(np.random.default_rng(8))     # two segments tie at 4 frames
    runs = []
    for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2], [2, 0, 3, 1]):
        for p in params.values():
            p.zero_grad()
        rows, _ = batch_nll(model, [items[i] for i in perm])
        rows.sum().backward()
        by_item = np.empty(len(items))
        by_item[perm] = rows.data
        runs.append((by_item, {n: p.grad.copy() for n, p in params.items()}))
    (want, want_grads), rest = runs[0], runs[1:]
    for got, got_grads in rest:
        assert rel(got, want) < 1e-12
        for name, g in want_grads.items():
            assert rel(got_grads[name], g) < 1e-12, name


def test_extending_one_caption_leaves_other_rows_gradients_unchanged():
    model = make_model(seed=7)
    items = ragged_items(np.random.default_rng(7))
    longer = list(items)
    seg, ids = items[0]
    longer[0] = (seg, ids[:-1] + [4, 5, 6, 7, 8, 4, EOS_ID])
    for row in range(1, len(items)):
        before, after = row_gradients(model, items, row), row_gradients(model, longer, row)
        for name in before:
            assert rel(after[name], before[name]) < 1e-12, (row, name)
