"""Recurrent attention over per-frame object sets.

Each of K parallel attention groups projects a frame's object features,
biases every projected row with a context vector built from the running
hidden state and the frame's image feature, scores all object pairs with a
scaled dot product, and mean-pools the attention-weighted rows into one
vector per group. The K pooled vectors are concatenated and driven through a
shared LSTM across frames, so the hidden state at time t summarizes the
object interactions seen so far.

Only the hidden-state term of the bias depends on the recurrence, so each
group's object projections and frame contexts are computed once per segment,
for all frames together, before the frame loop.

A batch of segments runs as one recurrence over padded arrays: each frame
attends over its widest object count, masks give padded object rows exactly
zero attention, and frames past a segment's end see no objects. Masks come
only from padding: a frame where every row is real attends unmasked, as a
segment alone does.

Object rows are an unordered set: no identity or cross-frame correspondence
is assumed, and all outputs are invariant to row permutation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .layers import (
    LstmParams,
    MlpParams,
    glorot_uniform,
    init_lstm,
    init_mlp,
    lstm_step,
    mlp_forward,
)
from .tensor import (
    Tensor,
    concat,
    linear,
    pair_attention,
    place_rows,
)

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass
class GroupParams:
    w_h: Tensor      # attn_dim x hidden
    w_c: Tensor      # attn_dim x image_dim
    proj: MlpParams  # object_dim -> attn_dim


@dataclass
class InteractionParams:
    groups: list[GroupParams] = field(metadata={"name": "group"})
    lstm: LstmParams

    @property
    def hidden_size(self) -> int:
        return self.lstm.hidden_size


def init_interaction(rng: np.random.Generator, cfg: ModelConfig) -> InteractionParams:
    groups = []
    for _ in range(cfg.num_groups):
        groups.append(GroupParams(
            w_h=glorot_uniform(rng, cfg.attn_dim, cfg.interaction_hidden),
            w_c=glorot_uniform(rng, cfg.attn_dim, cfg.image_dim),
            proj=init_mlp(rng, cfg.object_dim, cfg.attn_dim),
        ))
    lstm = init_lstm(rng, cfg.num_groups * cfg.attn_dim, cfg.interaction_hidden)
    return InteractionParams(groups=groups, lstm=lstm)


def pack_objects(segments: list[list[np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Lay out the per-frame object arrays of B segments for the recurrence.

    Returns every object row stacked segment by segment and frame by frame,
    and a B x T x N mask, padded to the most frames and objects, that is
    True where those rows sit (in C order).
    """
    frames = max(len(objects) for objects in segments)
    widest = max((objs.shape[0] for objects in segments for objs in objects), default=0)
    mask = np.zeros((len(segments), frames, widest), dtype=bool)
    for b, objects in enumerate(segments):
        for t, objs in enumerate(objects):
            mask[b, t, :objs.shape[0]] = True
    rows = [objs for objects in segments for objs in objects if objs.shape[0]]
    return (np.concatenate(rows) if rows else np.zeros((0, 0))), mask


def interaction_states(p: InteractionParams, image: Tensor, objects: np.ndarray,
                       object_mask: np.ndarray,
                       ) -> tuple[list[Tensor], list[list[np.ndarray | None]]]:
    """Run the recurrence from a zero initial state over a segment (image
    T x image_dim, object_mask T x N) or a padded batch of them (B x T x
    image_dim, B x T x N); ``objects`` holds the rows ``object_mask`` marks,
    in its C order (see ``pack_objects``).

    Returns the hidden state after each frame (H, or B x H) and, per frame,
    each group's attention over the frame's widest object count n (n x n,
    or B x n x n; None when the frame has no object in any segment, which
    feeds zeros to the LSTM). Frames past a segment's end see no objects.
    A frame's attention is masked only when some row of it is padded.
    """
    rows = Tensor(objects)
    # state-independent work, once per call: every object's projection and
    # every frame's context term, for each group
    projected = [mlp_forward(g.proj, rows) if objects.size else None for g in p.groups]
    contexts = [linear(image, g.w_c) for g in p.groups]
    row_of = np.zeros(object_mask.shape, dtype=np.intp)     # each object's row in ``objects``
    row_of[object_mask] = np.arange(objects.shape[0])

    batch = object_mask.shape[:-2]
    h = Tensor(np.zeros(batch + (p.hidden_size,)))
    c = Tensor(np.zeros(batch + (p.hidden_size,)))
    empty = Tensor(np.zeros(batch + (p.lstm.wx.shape[1],)))   # K pooled vectors
    # per frame: the widest object count over the batch
    widest = object_mask.sum(axis=-1).reshape(-1, object_mask.shape[-2]).max(axis=0)
    hiddens: list[Tensor] = []
    records: list[list[np.ndarray | None]] = []
    for t, n in enumerate(widest.tolist()):
        if n:
            real = object_mask[..., t, :n]
            mask = None if real.all() else real     # masks only where a row is padded
            index = row_of[..., t, :n] if mask is None else row_of[..., t, :n][real]
            attended = [pair_attention(place_rows(proj, index, mask),
                                       linear(h, g.w_h, ctx.row(t)), mask)
                        for g, proj, ctx in zip(p.groups, projected, contexts)]
            pooled_all = concat([pooled for _, pooled in attended])
            records.append([alpha for alpha, _ in attended])
        else:
            pooled_all = empty
            records.append([None] * len(p.groups))
        h, c = lstm_step(p.lstm, pooled_all, h, c)
        hiddens.append(h)
    return hiddens, records


def interaction_sequence(p: InteractionParams, image_feats: Tensor,
                         object_feats: list[np.ndarray],
                         ) -> tuple[list[Tensor], list[list[np.ndarray | None]]]:
    """Run the recurrence over one segment from a zero initial state.

    ``image_feats`` is T x image_dim; ``object_feats`` holds one n_t x
    object_dim array per frame (n_t may be 0). Returns the hidden state after
    each frame and, per frame, each group's attention matrix (None for an
    empty frame, which contributes zero pooled vectors).
    ``model.check_features`` checks the segment.
    """
    objects, mask = pack_objects([object_feats])
    return interaction_states(p, image_feats, objects, mask[0])
