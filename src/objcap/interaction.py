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

Object rows are an unordered set: no identity or cross-frame correspondence
is assumed, and all outputs are invariant to row permutation.
"""

from __future__ import annotations

import math
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
from .tensor import ContractError, ShapeError, Tensor, concat, matmul, softmax


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


def group_attend(projected: Tensor, u: Tensor) -> tuple[Tensor, Tensor]:
    """Attend over one frame's projected object rows (n x attn_dim) with one
    group's context bias ``u``; returns the attention matrix and the pooled
    vector.

    Scores every pair of biased rows with a scaled dot product, normalizes
    each row with softmax, weights the projected rows, and averages them into
    a single vector.
    """
    if len(projected.shape) != 2 or projected.shape[0] < 1:
        raise ContractError("group_attend needs at least one object row")
    x = projected + u                                      # u added to every row
    scores = matmul(x, x.T) * (1.0 / math.sqrt(projected.shape[1]))  # n x n
    alpha = softmax(scores, axis=1)
    pooled = matmul(alpha, projected).mean(axis=0)
    return alpha, pooled


def interaction_sequence(p: InteractionParams, image_feats: Tensor,
                         object_feats: list[np.ndarray],
                         ) -> tuple[list[Tensor], list[list[np.ndarray | None]]]:
    """Run the recurrence over a segment from a zero initial state.

    ``image_feats`` is T x image_dim; ``object_feats`` holds one n_t x
    object_dim array per frame (n_t may be 0). Returns the hidden state after
    each frame and, per frame, each group's attention matrix (None for an
    empty frame, which contributes zero pooled vectors).
    """
    if len(image_feats.shape) != 2 or image_feats.shape[0] < 1:
        raise ContractError(f"image features must be T x D with T >= 1, got {image_feats.shape}")
    if len(object_feats) != image_feats.shape[0]:
        raise ContractError("one object array per frame required")
    counts = [objs.shape[0] if objs.size else 0 for objs in object_feats]
    rows = [objs for objs in object_feats if objs.size]
    # state-independent work, once per segment: every frame's projected
    # objects and every frame's context term, for each group
    stacked = Tensor(np.concatenate(rows)) if rows else None
    projected = [mlp_forward(g.proj, stacked) if rows else None for g in p.groups]
    contexts = [matmul(image_feats, g.w_c.T) for g in p.groups]

    h = Tensor(np.zeros(p.hidden_size))
    c = Tensor(np.zeros(p.hidden_size))
    empty = Tensor(np.zeros(len(p.groups) * p.attn_dim))
    hiddens: list[Tensor] = []
    records: list[list[np.ndarray | None]] = []
    start = 0
    for t, n in enumerate(counts):
        if n:
            attended = [group_attend(proj[start:start + n], matmul(g.w_h, h) + ctx[t])
                        for g, proj, ctx in zip(p.groups, projected, contexts)]
            pooled_all = concat([pooled for _, pooled in attended])
            records.append([alpha.data for alpha, _ in attended])
        else:
            pooled_all = empty
            records.append([None] * len(p.groups))
        start += n
        h, c = lstm_step(p.lstm, pooled_all, h, c)
        hiddens.append(h)
    return hiddens, records
