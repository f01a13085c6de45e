"""Two-layer caption decoder with temporal attention and shared co-attention.

Per generated word: an attention LSTM fuses the previous language state, the
mean-pooled projected frame features and the previous word embedding; a
scored tanh layer turns its hidden state into one distribution over frames;
that single distribution weights both the projected frame features and the
interaction states (co-attention) feeding the language LSTM, whose hidden
state is projected to word logits.

Mode flags cut pathways out:
  use_image=False   drops the projected-frame pathway entirely; the frame
                    distribution is then computed over the interaction states
                    themselves and the pooled-context slot is zero-filled.
  use_objects=False drops the interaction pathway from the language LSTM.
  use_coattention=False replaces the shared weighting of interaction states
                    with a plain mean over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .data import BOS_ID, EOS_ID, MAX_CAPTION_WORDS, PAD_ID
from .layers import LstmParams, MlpParams, glorot_uniform, init_lstm, init_mlp, mlp_forward
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    linear,
    log_softmax,
    matmul,
    span_sums,
    stack_rows,
    take_column,
    target_log_probs,
    word_step,
)

if TYPE_CHECKING:
    from .model import ModelConfig


@dataclass
class CaptionerParams:
    img_proj: MlpParams | None   # image_dim -> img_proj_dim, absent without image pathway
    attn_lstm: LstmParams
    temporal_w_h: Tensor         # img_proj_dim x attn_hidden
    temporal_w_c: Tensor         # img_proj_dim x key_dim
    temporal_w_a: Tensor         # img_proj_dim
    embed: Tensor                # embed_dim x vocab_size, one column per word
    lang_lstm: LstmParams
    out_w: Tensor                # vocab_size x lang_hidden
    out_b: Tensor                # vocab_size
    use_image: bool = True
    use_objects: bool = True
    use_coattention: bool = True

    @property
    def img_proj_dim(self) -> int:
        return self.temporal_w_a.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[1]

    @property
    def attn_hidden(self) -> int:
        return self.attn_lstm.hidden_size

    @property
    def lang_hidden(self) -> int:
        return self.lang_lstm.hidden_size


def init_captioner(rng: np.random.Generator, cfg: ModelConfig) -> CaptionerParams:
    proj, hidden = cfg.img_proj_dim, cfg.lang_hidden
    key_dim = proj if cfg.use_image else cfg.interaction_hidden
    lang_in = cfg.attn_hidden + (proj if cfg.use_image else 0) \
        + (cfg.interaction_hidden if cfg.use_objects else 0)
    return CaptionerParams(
        img_proj=init_mlp(rng, cfg.image_dim, proj) if cfg.use_image else None,
        attn_lstm=init_lstm(rng, hidden + proj + cfg.embed_dim, cfg.attn_hidden),
        temporal_w_h=glorot_uniform(rng, proj, cfg.attn_hidden),
        temporal_w_c=glorot_uniform(rng, proj, key_dim),
        temporal_w_a=Tensor(rng.uniform(-np.sqrt(6.0 / (proj + 1)), np.sqrt(6.0 / (proj + 1)),
                                        size=proj), requires_grad=True),
        embed=glorot_uniform(rng, cfg.embed_dim, cfg.vocab_size),
        lang_lstm=init_lstm(rng, lang_in, hidden),
        out_w=glorot_uniform(rng, cfg.vocab_size, hidden),
        out_b=Tensor(np.zeros(cfg.vocab_size), requires_grad=True),
        use_image=cfg.use_image, use_objects=cfg.use_objects, use_coattention=cfg.use_coattention,
    )


@dataclass
class SegmentContext:
    """Per-segment inputs precomputed once before decoding; for a padded
    batch, each field gains a leading batch axis.

    ``frames``    projected image features, one row per frame (None without
                  the image pathway)
    ``pooled``    mean of the projected rows, or zeros without the pathway
    ``states``    interaction states stacked one row per frame (None without
                  the object pathway)
    ``keys``      the frame-attention keys, ``frames`` (or ``states`` without
                  the image pathway) times ``temporal_w_c.T``
    ``frame_mask`` B x T, True at a segment's real frames; None when no
                  frame is padded
    """

    frames: Tensor | None
    pooled: Tensor
    states: Tensor | None
    keys: Tensor
    frame_mask: np.ndarray | None = None


@dataclass
class DecoderState:
    h1: Tensor
    c1: Tensor
    h2: Tensor
    c2: Tensor


@dataclass
class DecodeStep:
    state: DecoderState
    alpha_temp: Tensor
    word_logits: Tensor


@dataclass
class Hypothesis:
    """The caption a beam search returns.

    ``tokens`` starts with BOS and ends with EOS or at the word cap;
    ``log_prob`` is the plain sum of word log-probabilities (no length
    normalization); ``alphas`` holds the frame attention of the step that
    produced each token after BOS.
    """

    tokens: tuple[int, ...]
    log_prob: float
    alphas: tuple[np.ndarray, ...] = ()

    @property
    def words(self) -> list[int]:
        body = self.tokens[1:]
        if body and body[-1] == EOS_ID:
            body = body[:-1]
        return list(body)


def frame_mean(rows: Tensor, frame_mask: np.ndarray | None) -> Tensor:
    """Mean of the per-frame rows (T x D, or B x T x D) over each segment's
    real frames."""
    if frame_mask is None:
        return rows.mean(axis=-2)
    return matmul(Tensor(frame_mask / frame_mask.sum(axis=-1, keepdims=True)), rows)


def precompute_frames(p: CaptionerParams, v_c: Tensor,
                      interactions: list[Tensor] | None,
                      frame_mask: np.ndarray | None = None) -> SegmentContext:
    """Project the frame features, pool them, stack interaction states, and
    compute the frame-attention keys. ``v_c`` is T x D, or B x T x D for a
    padded batch whose real frames ``frame_mask`` marks; the interaction
    states are B x H each, a lone segment's 1 x H, read as its T x H."""
    length = v_c.shape[-2]
    if p.use_objects:
        if not interactions:
            raise ContractError("object pathway active but no interaction states given")
        if len(interactions) != length:
            raise ShapeError(f"{len(interactions)} interaction states for {length} frames")
        states = stack_rows(interactions, np.arange(length) if len(v_c.shape) == 2 else None)
    else:
        states = None
    if p.use_image:
        frames = mlp_forward(p.img_proj, v_c)
        pooled = frame_mean(frames, frame_mask)
    else:
        frames = None
        pooled = Tensor(np.zeros(v_c.shape[:-2] + (p.img_proj_dim,)))
    keys = linear(frames if p.use_image else states, p.temporal_w_c)
    return SegmentContext(frames=frames, pooled=pooled, states=states, keys=keys,
                          frame_mask=frame_mask)


def initial_state(p: CaptionerParams, batch: tuple[int, ...] = ()) -> DecoderState:
    """Zero LSTM states: vectors, or one row per segment of a batch."""
    return DecoderState(h1=Tensor(np.zeros(batch + (p.attn_hidden,))),
                        c1=Tensor(np.zeros(batch + (p.attn_hidden,))),
                        h2=Tensor(np.zeros(batch + (p.lang_hidden,))),
                        c2=Tensor(np.zeros(batch + (p.lang_hidden,))))


def advance(p: CaptionerParams, ctx: SegmentContext, embedding: Tensor,
            state: DecoderState) -> tuple[DecoderState, Tensor]:
    """Advance both LSTMs one word, given the previous word's embedding (one
    row per batch row), as one op, ``tensor.word_step``: teacher forcing
    runs it on the tape, where it records four nodes (h1, c1, h2 and c2),
    and beam search off it. Returns the new state and the frame
    distribution, a bare tensor off the tape.

    The frame distribution is computed once and reused for every aggregation
    in the step, so image evidence and interaction states are weighted by the
    same attention. Padded frames get exactly zero attention.
    """
    alpha, h1, c1, h2, c2 = word_step(
        (p.attn_lstm.wx, p.attn_lstm.wh, p.attn_lstm.b),
        (p.lang_lstm.wx, p.lang_lstm.wh, p.lang_lstm.b), p.temporal_w_h, p.temporal_w_a,
        embedding, ctx.pooled, ctx.keys, ctx.frames if p.use_image else None,
        ctx.states if p.use_objects else None, (state.h1, state.c1, state.h2, state.c2),
        ctx.frame_mask, p.use_coattention)
    return DecoderState(h1=h1, c1=c1, h2=h2, c2=c2), Tensor(alpha)


def decode_step(p: CaptionerParams, ctx: SegmentContext, words: int | np.ndarray,
                state: DecoderState, out_wt: np.ndarray | None = None) -> DecodeStep:
    """Advance both LSTMs one word (see ``advance``) and score the
    vocabulary. ``words`` is the previous word id, or one id per row for a
    batch of hypotheses whose ``ctx`` is tiled to as many rows. On the
    tape a step records 6 nodes: the embedding column, the word step's
    four and the logits.

    The logits are ``linear(h2, out_w, out_b)``, unless ``out_wt`` is given:
    a C-contiguous ``lang_hidden x V`` copy of ``out_w.T``, which only
    ``beam_search`` passes. The logits are then ``h2 @ out_wt + out_b``, a
    bare tensor with no gradient to the output weights, and BLAS reads the
    weights row by row instead of through its transposed-operand path."""
    try:
        embedding = take_column(p.embed, words)     # range-checks the ids once
    except ShapeError:
        ids = np.atleast_1d(words)
        bad = ids[(ids < 0) | (ids >= p.vocab_size)]
        if not bad.size:
            raise
        raise ContractError(f"word id {bad[0]} outside vocabulary of {p.vocab_size}") from None
    state, alpha = advance(p, ctx, embedding, state)
    if out_wt is None:
        return DecodeStep(state=state, alpha_temp=alpha,
                          word_logits=linear(state.h2, p.out_w, p.out_b))
    logits = state.h2.data @ out_wt
    logits += p.out_b.data
    return DecodeStep(state=state, alpha_temp=alpha, word_logits=Tensor(logits))


def teacher_forced_nll(p: CaptionerParams, ctx: SegmentContext, inputs: np.ndarray,
                       targets: np.ndarray, mask: np.ndarray | None = None,
                       order: np.ndarray | None = None) -> Tensor:
    """Summed negative log-likelihood of ``targets`` when each position is
    fed its ``inputs`` word: L word ids per caption, or B x L for a padded
    batch, where ``mask`` marks the scored positions.

    Returns a scalar, or one sum per batch row, the rows taken in ``order``.
    A batch projects to the vocabulary only its S scored positions: their
    top states are taken as S flat rows, row by row in ``order``, scored,
    and summed back per row (``span_sums``). Padded positions add nothing to
    a sum or to any gradient, and cost no logits.
    """
    state = initial_state(p, inputs.shape[:-1])
    embeddings = take_column(p.embed, inputs)      # ... x L x embed_dim
    tops = []
    for i in range(inputs.shape[-1]):
        state, _ = advance(p, ctx, embeddings.row(i), state)
        tops.append(state.h2)
    if inputs.ndim == 1:
        return target_log_probs(stack_rows(tops), p.out_w, p.out_b, targets).sum() * -1.0
    scored = mask[order]
    at = np.arange(inputs.size).reshape(inputs.shape)[order][scored]
    picked = target_log_probs(stack_rows(tops, at), p.out_w, p.out_b, targets.reshape(-1)[at])
    return span_sums(picked, scored.sum(axis=-1)) * -1.0


@dataclass
class TeacherForcedResult:
    loss: Tensor            # mean negative log-likelihood over the caption's positions


def forward_teacher_forced(p: CaptionerParams, ctx: SegmentContext,
                           caption: list[int]) -> TeacherForcedResult:
    """Cross-entropy of a gold caption under teacher forcing.

    ``caption`` must run BOS ... EOS without PAD; every target position
    contributes one term to the mean.
    """
    if not caption:
        raise ContractError("empty caption")
    if caption[0] != BOS_ID:
        raise ContractError("caption must start with BOS")
    if len(caption) > MAX_CAPTION_WORDS + 2:
        raise ContractError(f"caption longer than {MAX_CAPTION_WORDS} words plus sentinels")
    if PAD_ID in caption:
        raise ContractError("caption holds PAD; teacher forcing takes one unpadded caption")
    if len(caption) < 2 or caption[-1] != EOS_ID:
        raise ContractError("caption must end with EOS")
    for w in caption:
        if not 0 <= w < p.vocab_size:
            raise ContractError(f"word id {w} outside vocabulary of {p.vocab_size}")

    ids = np.array(caption)
    loss_sum = teacher_forced_nll(p, ctx, ids[:-1], ids[1:])
    return TeacherForcedResult(loss=loss_sum * (1.0 / (len(caption) - 1)))


def tile_context(ctx: SegmentContext, rows: int) -> SegmentContext:
    """A segment's context repeated as ``rows`` identical batch rows, in
    plain tensors off the tape, so that ``advance`` steps ``rows``
    hypotheses at once."""
    def tile(t: Tensor | None) -> Tensor | None:
        return None if t is None else Tensor(np.broadcast_to(t.data, (rows,) + t.shape))

    return SegmentContext(frames=tile(ctx.frames), pooled=tile(ctx.pooled),
                          states=tile(ctx.states), keys=tile(ctx.keys))


def beam_select(logp: np.ndarray, log_prob: np.ndarray, finished: np.ndarray,
                rank: np.ndarray, beam_width: int) -> tuple[np.ndarray, ...]:
    """The next beam pool: the ``beam_width`` best finished entries and
    one-word extensions of live ones, by log-probability, then token order.

    ``logp`` holds one row of word log-probabilities per pool entry (rows
    past the pool are ignored) and ``rank`` each entry's place in token
    order. Returns, best first, each new entry's backpointer into the pool,
    its new word (-1 for a finished entry carried over), log-probability and
    rank. A finished entry's row holds one candidate, itself, in column 0
    (-inf fills the rest and is never kept). One cut keeps the flat scores
    at least the ``beam_width``-th best, ties included, and only those are
    sorted. Token order, smaller first, is the parent's order, then the new
    word's: no entry's tokens are a prefix of another's (each ends in EOS,
    or all reach the cap at once), and a carried entry has no siblings.
    """
    vocab, carry = logp.shape[1], finished.any()
    scores = logp[:log_prob.size] + log_prob[:, None]
    if carry:
        scores[finished] = -np.inf
        scores[finished, 0] = log_prob[finished]
    scores = scores.ravel()
    kth = max(scores.size - beam_width, 0)
    picked = np.flatnonzero(scores >= np.partition(scores, kth)[kth])
    if carry:
        picked = picked[scores[picked] > -np.inf]
    parent, word = np.divmod(picked, vocab)
    if carry:
        word[finished[parent]] = -1
    cand_lp = scores[picked]
    key = rank[parent] * (vocab + 1) + word
    order = np.lexsort((key, -cand_lp))[:beam_width]
    return parent[order], word[order], cand_lp[order], np.argsort(np.argsort(key[order]))


def beam_search(p: CaptionerParams, ctx: SegmentContext, beam_width: int,
                max_words: int = MAX_CAPTION_WORDS) -> Hypothesis:
    """Breadth-limited search by accumulated log-probability.

    Finished hypotheses stay in the pool and compete with fresh expansions
    (``beam_select``); ties break on the smaller token sequence so width 1
    reproduces greedy decoding exactly.

    Each step runs the whole pool through one ``decode_step`` at
    ``beam_width`` rows. Row i holds pool entry i modulo the pool size, so
    spare rows hold copies that are never scored, and every step of a
    search makes the same BLAS calls. The pool is kept in arrays, and each
    step records its backpointers, new words and frame attention, from
    which the best entry's tokens and alphas are read back at the end.
    A step whose backpointers leave every row in place (42% of the
    benchmark's paper-shape steps) keeps the decoder state as it is.
    The search ends when every entry has finished or at the word cap.
    A pool whose scores are not all finite (overflowed activations make
    every log-probability NaN) raises ``ContractError``.

    The steps project to the vocabulary from one C-contiguous copy of
    ``out_w.T``, made once per search (``decode_step``'s ``out_wt``). With
    OpenBLAS's SkylakeX kernel, one thread, at 5 rows and V=1000 that
    product takes 11 µs where ``linear``'s transposed operand takes 27 µs,
    with the same bits; at V up to about 200 the bits can differ in the last
    place. The tests hold the search to the per-hypothesis ``linear``
    search: the same tokens and log-probability within 1e-12.

    Nothing here needs a gradient, so ``cli.caption_dataset`` runs the
    search off the tape (``tensor.no_tape``): no step builds a graph. On
    the tape it returns the same bits.
    """
    if beam_width < 1:
        raise ContractError("beam width must be at least 1")
    rows = tile_context(ctx, beam_width)
    ring = np.arange(beam_width)
    in_place = ring.tolist()
    slot = np.zeros(beam_width, dtype=np.intp)     # the pool entry each row holds
    state = initial_state(p, (beam_width,))
    feed = np.full(1, BOS_ID)
    log_prob = np.zeros(1)
    finished = np.zeros(1, dtype=bool)
    rank = np.zeros(1, dtype=np.int64)
    out_wt = np.ascontiguousarray(p.out_w.data.T)
    history = []
    while True:
        step = decode_step(p, rows, feed[slot], state, out_wt)
        parent, word, log_prob, rank = beam_select(log_softmax(step.word_logits).data,
                                                   log_prob, finished, rank, beam_width)
        if not (log_prob.size and np.isfinite(log_prob).all()):
            raise ContractError("non-finite word log-probabilities: the features or "
                                "weights overflow the decoder")
        history.append((parent, word, step.alpha_temp.data))
        finished = (word < 0) | (word == EOS_ID)
        if len(history) >= max_words or finished.all():
            break
        feed = np.where(finished, PAD_ID, word)
        slot = ring % parent.size
        source = parent[slot]
        state = step.state
        if source.tolist() != in_place:
            state = DecoderState(*(Tensor(s.data[source]) for s in (
                state.h1, state.c1, state.h2, state.c2)))
    tokens, alphas, k = [], [], 0
    for parent, word, alpha in reversed(history):
        if word[k] >= 0:
            tokens.append(int(word[k]))
            alphas.append(alpha[parent[k]])
        k = parent[k]
    return Hypothesis(tokens=(BOS_ID, *tokens[::-1]), log_prob=float(log_prob[0]),
                      alphas=tuple(alphas[::-1]))
