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
zero attention, and frames past a segment's end see no objects.

Object rows are an unordered set: no identity or cross-frame correspondence
is assumed, and all outputs are invariant to row permutation.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    ContractError,
    ShapeError,
    Tensor,
    concat,
    linear,
    pair_attention,
    unpack_rows,
)


@dataclass
class GroupParams:
    w_h: Tensor      # attn_dim x hidden
    w_c: Tensor      # attn_dim x image_dim
    proj: MlpParams  # object_dim -> attn_dim

    def tensors(self) -> dict[str, Tensor]:
        out = {"w_h": self.w_h, "w_c": self.w_c}
        for name, t in self.proj.tensors().items():
            out[f"proj.{name}"] = t
        return out


@dataclass
class InteractionParams:
    groups: list[GroupParams]
    lstm: LstmParams
    attn_dim: int

    def __post_init__(self):
        if not self.groups:
            raise ContractError("at least one attention group required")
        for g in self.groups:
            if g.w_h.shape[0] != self.attn_dim or g.proj.output_size != self.attn_dim:
                raise ShapeError("all groups must share the attention width")
        if self.lstm.input_size != len(self.groups) * self.attn_dim:
            raise ShapeError(
                f"LSTM input width {self.lstm.input_size} != "
                f"{len(self.groups)} * {self.attn_dim}")

    @property
    def hidden_size(self) -> int:
        return self.lstm.hidden_size

    def tensors(self) -> dict[str, Tensor]:
        out = {}
        for k, g in enumerate(self.groups):
            for name, t in g.tensors().items():
                out[f"group{k}.{name}"] = t
        for name, t in self.lstm.tensors().items():
            out[f"lstm.{name}"] = t
        return out


def init_interaction(rng: np.random.Generator, *, image_dim: int, object_dim: int,
                     num_groups: int, attn_dim: int, hidden_size: int) -> InteractionParams:
    groups = []
    for _ in range(num_groups):
        groups.append(GroupParams(
            w_h=glorot_uniform(rng, attn_dim, hidden_size),
            w_c=glorot_uniform(rng, attn_dim, image_dim),
            proj=init_mlp(rng, [object_dim, attn_dim]),
        ))
    lstm = init_lstm(rng, num_groups * attn_dim, hidden_size)
    return InteractionParams(groups=groups, lstm=lstm, attn_dim=attn_dim)


def group_attend(projected: Tensor, u: Tensor,
                 mask: np.ndarray | None = None) -> tuple[np.ndarray, Tensor]:
    """One group's attention over a frame's projected object rows, biased by
    the group's context ``u`` (``tensor.pair_attention``): the attention
    matrix, kept for traces, and the pooled vector."""
    return pair_attention(projected, u, mask)


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
    """
    rows = Tensor(objects)
    # state-independent work, once per call: every frame's projected objects
    # and every frame's context term, for each group
    projected = [unpack_rows(mlp_forward(g.proj, rows), object_mask) if objects.size else None
                 for g in p.groups]
    contexts = [linear(image, g.w_c) for g in p.groups]

    batch = object_mask.shape[:-2]
    h = Tensor(np.zeros(batch + (p.hidden_size,)))
    c = Tensor(np.zeros(batch + (p.hidden_size,)))
    empty = Tensor(np.zeros(batch + (len(p.groups) * p.attn_dim,)))
    # per frame: the widest object count over the batch
    widest = object_mask.sum(axis=-1).reshape(-1, object_mask.shape[-2]).max(axis=0)
    hiddens: list[Tensor] = []
    records: list[list[np.ndarray | None]] = []
    for t, n in enumerate(widest.tolist()):
        if n:
            mask = object_mask[..., t, :n] if object_mask.ndim == 3 else None
            attended = [group_attend(proj[..., t, :n, :], linear(h, g.w_h, ctx[..., t, :]), mask)
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
    """
    if len(image_feats.shape) != 2 or image_feats.shape[0] < 1:
        raise ContractError(f"image features must be T x D with T >= 1, got {image_feats.shape}")
    if len(object_feats) != image_feats.shape[0]:
        raise ContractError("one object array per frame required")
    objects, mask = pack_objects([object_feats])
    return interaction_states(p, image_feats, objects, mask[0])
