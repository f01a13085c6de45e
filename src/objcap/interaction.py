"""Recurrent attention over per-frame object sets.

Each of K parallel attention groups projects a frame's object features,
biases every projected row with a context vector built from the running
hidden state and the frame's image feature, scores all object pairs with a
scaled dot product, and mean-pools the attention-weighted rows into one
vector per group. The K pooled vectors are concatenated and driven through a
shared LSTM across frames, so the hidden state at time t summarizes the
object interactions seen so far.

The K groups' weights are stored stacked, one matrix per role with group
k's attn_dim rows as its k-th row block, as multi-head attention keeps its
heads. So the K groups run as one: one GEMM per role, and per frame one
op, ``tensor.frame_step``, that attends with the group as a batch axis and
steps the LSTM. Only the hidden-state term of the bias depends on the
recurrence, so the object projections and frame contexts are computed once
per segment, for all frames together, before the frame loop.

A batch of segments runs as one recurrence over padded arrays, and a
segment alone as a batch of one: each frame attends over its widest object
count, and masks give padded object rows exactly zero attention. With the
batch ordered longest segment first, the segments still running at a frame
are the first rows, and only they are attended and stepped; a segment past
its end carries its last state. Masks come only from padding: a frame
where no running segment has a padded row attends unmasked.

Object rows are an unordered set: no identity or cross-frame correspondence
is assumed, and all outputs are invariant to row permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .layers import LstmParams, MlpParams, glorot_uniform, init_lstm, init_mlp, mlp_forward
from .tensor import ContractError, Tensor, frame_step, linear

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass
class InteractionParams:
    """The K groups' weights stacked, group k's as row block k."""

    w_h: Tensor      # K*attn_dim x hidden
    w_c: Tensor      # K*attn_dim x image_dim
    proj: MlpParams  # object_dim -> K*attn_dim
    lstm: LstmParams
    num_groups: int

    @property
    def hidden_size(self) -> int:
        return self.lstm.hidden_size


def init_interaction(rng: np.random.Generator, cfg: ModelConfig) -> InteractionParams:
    """Draw group by group (``w_h``, ``w_c``, then the projection), each
    with its own glorot bound, stack the groups, then draw the LSTM."""
    d = cfg.attn_dim
    draws = [(glorot_uniform(rng, d, cfg.interaction_hidden),
              glorot_uniform(rng, d, cfg.image_dim),
              init_mlp(rng, cfg.object_dim, d)) for _ in range(cfg.num_groups)]

    def stacked(parts) -> Tensor:
        return Tensor(np.concatenate([t.data for t in parts]), requires_grad=True)

    w_h, w_c, projs = zip(*draws)
    proj = MlpParams(w=stacked(m.w for m in projs), b=stacked(m.b for m in projs))
    lstm = init_lstm(rng, cfg.num_groups * d, cfg.interaction_hidden)
    return InteractionParams(w_h=stacked(w_h), w_c=stacked(w_c), proj=proj, lstm=lstm,
                             num_groups=cfg.num_groups)


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
                       object_mask: np.ndarray, frame_mask: np.ndarray | None = None,
                       ) -> tuple[list[Tensor], list[list[np.ndarray | None]]]:
    """Run the recurrence from a zero initial state over a padded batch of
    segments (image B x T x image_dim, object_mask B x T x N); ``objects``
    holds the rows ``object_mask`` marks, in its C order (see
    ``pack_objects``).

    ``frame_mask`` (B x T) marks each segment's real frames, its rows
    ordered longest segment first; None means every segment runs to the
    last frame. The segments still running at frame t are then the first
    a_t rows: only they are attended and stepped, and a row past its
    segment's end carries its last state unchanged, which the decoder's
    frame mask gives zero weight.

    The K groups run as one on the stacked weights: one GEMM projects
    every object row for all groups and one forms every frame's context
    terms. Each frame is then one ``tensor.frame_step``, two tape nodes: it
    forms the state terms of all B rows against the frame's contexts,
    gathers the frame's projected rows, attends with the group as a batch
    axis, pools (the groups' pooled vectors end to end) and steps the LSTM.

    Returns the hidden state after each frame (B x H) and, per frame, each
    group's attention over the frame's widest object count n (a_t x n x n;
    None when no running segment has an object there, which feeds zeros to
    the LSTM). A frame's attention is masked only when a running segment
    has a padded row in it.
    """
    k = p.num_groups
    # state-independent work, once per call: every object's projection and
    # every frame's context term, for all groups at once
    projected = mlp_forward(p.proj, Tensor(objects)) if objects.size else None
    contexts = linear(image, p.w_c)
    row_of = np.zeros(object_mask.shape, dtype=np.intp)     # each object's row in ``objects``
    row_of[object_mask] = np.arange(objects.shape[0])

    segments, frames = object_mask.shape[:2]
    h = Tensor(np.zeros((segments, p.hidden_size)))
    c = Tensor(np.zeros((segments, p.hidden_size)))
    # per frame: the running rows, their widest object count, and whether
    # one of them is padded there
    counts = object_mask.sum(axis=-1)
    running = np.full(frames, segments) if frame_mask is None else frame_mask.sum(axis=0)
    live = np.arange(segments)[:, None] < running
    if frame_mask is not None and not np.array_equal(frame_mask, live):
        raise ContractError("batch rows must be ordered by frame count, longest first")
    widest = counts.max(axis=0)
    padded = (live & (counts < widest)).any(axis=0)
    hiddens: list[Tensor] = []
    records: list[list[np.ndarray | None]] = []
    for t, (a, n, masked) in enumerate(zip(running.tolist(), widest.tolist(), padded.tolist())):
        alpha, h, c = frame_step((p.lstm.wx, p.lstm.wh, p.lstm.b), p.w_h, projected,
                                 row_of[:a, t, :n], contexts, t, (h, c),
                                 object_mask[:a, t, :n] if masked else None, k)
        records.append([None] * k if alpha is None else [alpha[:, j] for j in range(k)])
        hiddens.append(h)
    return hiddens, records


def interaction_sequence(p: InteractionParams, image_feats: Tensor,
                         object_feats: list[np.ndarray],
                         ) -> tuple[list[Tensor], list[list[np.ndarray | None]]]:
    """Run the recurrence over one segment, as a batch of one, from a zero
    initial state: ``interaction_states``, one ``tensor.frame_step`` per
    frame, with the batch axis stripped from the traced attention.

    ``image_feats`` is T x image_dim (off the tape); ``object_feats`` holds
    one n_t x object_dim array per frame (n_t may be 0). Returns the 1 x H
    hidden state after each frame and, per frame, each group's n_t x n_t
    attention matrix (None for an empty frame, which contributes zero pooled
    vectors). ``model.check_features`` checks the segment.
    """
    objects, mask = pack_objects([object_feats])
    hiddens, records = interaction_states(p, Tensor(image_feats.data[None]), objects, mask)
    return hiddens, [[a if a is None else a[0] for a in frame] for frame in records]
