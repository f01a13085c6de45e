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

import numpy as np

from .data import BOS_ID, EOS_ID, MAX_CAPTION_WORDS, PAD_ID
from .layers import LstmParams, MlpParams, glorot_uniform, init_lstm, init_mlp, lstm_step, mlp_forward
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    additive_attention,
    concat,
    gather,
    linear,
    log_softmax,
    matmul,
    stack_rows,
    take_column,
)


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
    img_proj_dim: int
    interaction_hidden: int
    use_image: bool = True
    use_objects: bool = True
    use_coattention: bool = True

    def __post_init__(self):
        if not (self.use_image or self.use_objects):
            raise ContractError("at least one of the image/object pathways must be active")
        if self.vocab_size < 3:
            raise ContractError("vocabulary must cover at least PAD, BOS, EOS")
        expected_attn_in = self.lang_hidden + self.img_proj_dim + self.embed_dim
        if self.attn_lstm.input_size != expected_attn_in:
            raise ShapeError(
                f"attention LSTM input width {self.attn_lstm.input_size}, "
                f"expected {expected_attn_in}")
        expected_lang_in = self.attn_hidden \
            + (self.img_proj_dim if self.use_image else 0) \
            + (self.interaction_hidden if self.use_objects else 0)
        if self.lang_lstm.input_size != expected_lang_in:
            raise ShapeError(
                f"language LSTM input width {self.lang_lstm.input_size}, "
                f"expected {expected_lang_in}")

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.embed.shape[0]

    @property
    def attn_hidden(self) -> int:
        return self.attn_lstm.hidden_size

    @property
    def lang_hidden(self) -> int:
        return self.lang_lstm.hidden_size

    def tensors(self) -> dict[str, Tensor]:
        out = {}
        if self.img_proj is not None:
            for name, t in self.img_proj.tensors().items():
                out[f"img_proj.{name}"] = t
        for name, t in self.attn_lstm.tensors().items():
            out[f"attn_lstm.{name}"] = t
        out["temporal.w_h"] = self.temporal_w_h
        out["temporal.w_c"] = self.temporal_w_c
        out["temporal.w_a"] = self.temporal_w_a
        out["embed"] = self.embed
        for name, t in self.lang_lstm.tensors().items():
            out[f"lang_lstm.{name}"] = t
        out["out.w"] = self.out_w
        out["out.b"] = self.out_b
        return out


def init_captioner(rng: np.random.Generator, *, image_dim: int, vocab_size: int,
                   img_proj_dim: int, embed_dim: int, attn_hidden: int,
                   lang_hidden: int, interaction_hidden: int,
                   use_image: bool = True, use_objects: bool = True,
                   use_coattention: bool = True) -> CaptionerParams:
    if not (use_image or use_objects):
        raise ContractError("at least one of the image/object pathways must be active")
    key_dim = img_proj_dim if use_image else interaction_hidden
    lang_in = attn_hidden + (img_proj_dim if use_image else 0) \
        + (interaction_hidden if use_objects else 0)
    return CaptionerParams(
        img_proj=init_mlp(rng, [image_dim, img_proj_dim]) if use_image else None,
        attn_lstm=init_lstm(rng, lang_hidden + img_proj_dim + embed_dim, attn_hidden),
        temporal_w_h=glorot_uniform(rng, img_proj_dim, attn_hidden),
        temporal_w_c=glorot_uniform(rng, img_proj_dim, key_dim),
        temporal_w_a=Tensor(rng.uniform(-np.sqrt(6.0 / (img_proj_dim + 1)),
                                        np.sqrt(6.0 / (img_proj_dim + 1)),
                                        size=img_proj_dim), requires_grad=True),
        embed=glorot_uniform(rng, embed_dim, vocab_size),
        lang_lstm=init_lstm(rng, lang_in, lang_hidden),
        out_w=glorot_uniform(rng, vocab_size, lang_hidden),
        out_b=Tensor(np.zeros(vocab_size), requires_grad=True),
        img_proj_dim=img_proj_dim,
        interaction_hidden=interaction_hidden,
        use_image=use_image,
        use_objects=use_objects,
        use_coattention=use_coattention,
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
    ``frame_mask`` B x T, True at a segment's real frames; None for a
                  segment alone
    """

    frames: Tensor | None
    pooled: Tensor
    states: Tensor | None
    keys: Tensor
    length: int
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

    ``tokens`` starts with BOS and may end with EOS; ``log_prob`` is the
    plain sum of word log-probabilities (no length normalization);
    ``alphas`` holds the frame attention of the step that produced each
    token after BOS.
    """

    tokens: tuple[int, ...]
    log_prob: float
    finished: bool
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
    padded batch whose real frames ``frame_mask`` marks."""
    if len(v_c.shape) < 2 or v_c.shape[-2] < 1:
        raise ContractError(f"frame features must be a T x D matrix with T >= 1, got {v_c.shape}")
    length = v_c.shape[-2]
    if p.use_objects:
        if not interactions:
            raise ContractError("object pathway active but no interaction states given")
        if len(interactions) != length:
            raise ShapeError(f"{len(interactions)} interaction states for {length} frames")
        states = stack_rows(interactions)
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
                          length=length, frame_mask=frame_mask)


def initial_state(p: CaptionerParams, batch: tuple[int, ...] = ()) -> DecoderState:
    """Zero LSTM states: vectors, or one row per segment of a batch."""
    return DecoderState(h1=Tensor(np.zeros(batch + (p.attn_hidden,))),
                        c1=Tensor(np.zeros(batch + (p.attn_hidden,))),
                        h2=Tensor(np.zeros(batch + (p.lang_hidden,))),
                        c2=Tensor(np.zeros(batch + (p.lang_hidden,))))


def advance(p: CaptionerParams, ctx: SegmentContext, embedding: Tensor,
            state: DecoderState) -> tuple[DecoderState, Tensor]:
    """Advance both LSTMs one word, given the previous word's embedding (one
    row per batch row). Returns the new state and the frame distribution.

    The frame distribution is computed once and reused for every aggregation
    in the step, so image evidence and interaction states are weighted by the
    same attention. Padded frames get exactly zero attention.
    """
    x1 = concat([state.h2, ctx.pooled, embedding])
    h1, c1 = lstm_step(p.attn_lstm, x1, state.h1, state.c1)

    alpha = additive_attention(ctx.keys, linear(h1, p.temporal_w_h), p.temporal_w_a,
                               ctx.frame_mask)

    parts = [h1]
    if p.use_image:
        parts.append(matmul(alpha, ctx.frames))
    if p.use_objects:
        if p.use_coattention:
            parts.append(matmul(alpha, ctx.states))
        else:
            parts.append(frame_mean(ctx.states, ctx.frame_mask))
    h2, c2 = lstm_step(p.lang_lstm, concat(parts), state.h2, state.c2)
    return DecoderState(h1=h1, c1=c1, h2=h2, c2=c2), alpha


def decode_step(p: CaptionerParams, ctx: SegmentContext, prev_word: int,
                state: DecoderState) -> DecodeStep:
    """Advance both LSTMs one word (see ``advance``) and score the
    vocabulary."""
    if not 0 <= prev_word < p.vocab_size:
        raise ContractError(f"word id {prev_word} outside vocabulary of {p.vocab_size}")
    state, alpha = advance(p, ctx, take_column(p.embed, prev_word), state)
    return DecodeStep(state=state, alpha_temp=alpha,
                      word_logits=linear(state.h2, p.out_w, p.out_b))


def teacher_forced_nll(p: CaptionerParams, ctx: SegmentContext, inputs: np.ndarray,
                       targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Summed negative log-likelihood of ``targets`` when each position is
    fed its ``inputs`` word: L word ids per caption, or B x L for a padded
    batch, where ``mask`` marks the scored positions (None: all of them).
    Returns a scalar, or one sum per batch row; padded positions add nothing
    to it or to any gradient."""
    state = initial_state(p, inputs.shape[:-1])
    embeddings = take_column(p.embed, inputs)      # ... x L x embed_dim
    tops = []
    for i in range(inputs.shape[-1]):
        state, _ = advance(p, ctx, embeddings[..., i, :], state)
        tops.append(state.h2)
    logits = linear(stack_rows(tops), p.out_w, p.out_b)
    return gather(log_softmax(logits), targets, mask).sum(axis=-1) * -1.0


@dataclass
class TeacherForcedResult:
    loss: Tensor            # mean negative log-likelihood over scored positions
    loss_sum: Tensor
    scored_positions: int


def forward_teacher_forced(p: CaptionerParams, ctx: SegmentContext,
                           caption: list[int]) -> TeacherForcedResult:
    """Cross-entropy of a gold caption under teacher forcing.

    ``caption`` must run BOS ... EOS; trailing PAD (from external batching)
    stops scoring. Every non-PAD target position contributes one term to the
    mean.
    """
    if not caption:
        raise ContractError("empty caption")
    if caption[0] != BOS_ID:
        raise ContractError("caption must start with BOS")
    if len(caption) > MAX_CAPTION_WORDS + 2:
        raise ContractError(f"caption longer than {MAX_CAPTION_WORDS} words plus sentinels")
    stripped = [w for w in caption if w != PAD_ID]
    if len(stripped) < 2 or stripped[-1] != EOS_ID:
        raise ContractError("caption must end with EOS")
    for w in caption:
        if not 0 <= w < p.vocab_size:
            raise ContractError(f"word id {w} outside vocabulary of {p.vocab_size}")

    ids = np.array(caption)
    pads = np.flatnonzero(ids[1:] == PAD_ID)
    scored = int(pads[0]) if pads.size else len(caption) - 1
    if scored == 0:
        raise ContractError("caption scores no position")
    loss_sum = teacher_forced_nll(p, ctx, ids[:scored], ids[1:scored + 1])
    return TeacherForcedResult(loss=loss_sum * (1.0 / scored), loss_sum=loss_sum,
                               scored_positions=scored)


def decode_greedy(p: CaptionerParams, ctx: SegmentContext,
                  max_words: int = MAX_CAPTION_WORDS) -> list[int]:
    """Argmax decoding from BOS; ties go to the lowest word id."""
    state = initial_state(p)
    prev = BOS_ID
    words: list[int] = []
    for _ in range(max_words):
        step = decode_step(p, ctx, prev, state)
        state = step.state
        nxt = int(np.argmax(step.word_logits.data))
        if nxt == EOS_ID:
            break
        words.append(nxt)
        prev = nxt
    return words


def tile_context(ctx: SegmentContext, rows: int) -> SegmentContext:
    """A segment's context repeated as ``rows`` identical batch rows, in
    plain tensors off the tape, so that ``advance`` steps ``rows``
    hypotheses at once."""
    def tile(t: Tensor | None) -> Tensor | None:
        return None if t is None else Tensor(np.broadcast_to(t.data, (rows,) + t.shape))

    return SegmentContext(frames=tile(ctx.frames), pooled=tile(ctx.pooled),
                          states=tile(ctx.states), keys=tile(ctx.keys), length=ctx.length)


def beam_step(p: CaptionerParams, ctx: SegmentContext, words: np.ndarray,
              state: DecoderState) -> tuple[DecoderState, Tensor, Tensor]:
    """One decode step for a batch of hypotheses, one per row: ``words``
    holds each row's previous word and ``ctx`` is tiled to as many rows.
    Returns the new state, the frame distributions and the word
    log-probabilities, one row each."""
    state, alpha = advance(p, ctx, take_column(p.embed, words), state)
    return state, alpha, log_softmax(linear(state.h2, p.out_w, p.out_b))


def beam_select(logp: np.ndarray, log_prob: np.ndarray, finished: np.ndarray,
                rank: np.ndarray, beam_width: int) -> tuple[np.ndarray, ...]:
    """The next beam pool: the ``beam_width`` best of the finished entries
    and of every one-word extension of a live entry, by log-probability and
    then by token order, smaller first.

    ``logp`` holds one row of word log-probabilities per pool entry (rows
    past the pool are ignored) and ``rank`` each entry's place in token
    order. Returns, best first, each new entry's backpointer into the pool,
    its new word (-1 for a finished entry carried over), log-probability and
    rank. Only candidates scoring at least the ``beam_width``-th best score,
    ties included, are sorted, which keeps the same pool as sorting every
    candidate. Token order is the parent's order, then the new word's: no
    entry's tokens are a prefix of another's (each ends in EOS, or all reach
    the cap at once), and a carried entry has no siblings.
    """
    live, done = np.flatnonzero(~finished), np.flatnonzero(finished)
    scores = log_prob[live, None] + logp[live]
    every = np.concatenate([log_prob[done], scores.ravel()])
    kth = max(every.size - beam_width, 0)
    cut = np.partition(every, kth)[kth]
    kept = done[log_prob[done] >= cut]
    vocab = logp.shape[1]
    at, grown = np.divmod(np.flatnonzero(scores >= cut), vocab)
    parent = np.concatenate([kept, live[at]])
    word = np.concatenate([np.full(kept.size, -1), grown])
    cand_lp = np.concatenate([log_prob[kept], scores[at, grown]])
    key = rank[parent] * (vocab + 1) + word
    order = np.lexsort((key, -cand_lp))[:beam_width]
    return parent[order], word[order], cand_lp[order], np.argsort(np.argsort(key[order]))


def beam_search(p: CaptionerParams, ctx: SegmentContext, beam_width: int,
                max_words: int = MAX_CAPTION_WORDS) -> Hypothesis:
    """Breadth-limited search by accumulated log-probability.

    Finished hypotheses stay in the pool and compete with fresh expansions
    (``beam_select``); ties break on the smaller token sequence so width 1
    reproduces greedy decoding exactly.

    Each step runs the whole pool through one ``beam_step`` at
    ``beam_width`` rows. Row i holds pool entry i modulo the pool size, so
    spare rows hold copies that are never scored, and every step of a
    search makes the same BLAS calls. The pool is kept in arrays, and each
    step records its backpointers, new words and frame attention, from
    which the best entry's tokens and alphas are read back at the end.
    """
    if beam_width < 1:
        raise ContractError("beam width must be at least 1")
    rows = tile_context(ctx, beam_width)
    ring = np.arange(beam_width)
    state = initial_state(p, (beam_width,))
    word = np.full(1, BOS_ID)
    log_prob = np.zeros(1)
    finished = np.zeros(1, dtype=bool)
    rank = np.zeros(1, dtype=np.int64)
    history = []
    while not finished.all():
        feed = np.where(finished, PAD_ID, word)
        state, alpha, logp = beam_step(p, rows, feed[ring % feed.size], state)
        parent, word, log_prob, rank = beam_select(logp.data, log_prob, finished, rank,
                                                   beam_width)
        history.append((parent, word, alpha.data))
        finished = (word < 0) | (word == EOS_ID) | (len(history) >= max_words)
        source = parent[ring % parent.size]
        state = DecoderState(*(Tensor(s.data[source])
                               for s in (state.h1, state.c1, state.h2, state.c2)))
    tokens, alphas, k = [], [], 0
    for parent, word, alpha in reversed(history):
        if word[k] >= 0:
            tokens.append(int(word[k]))
            alphas.append(alpha[parent[k]])
        k = parent[k]
    return Hypothesis(tokens=(BOS_ID, *tokens[::-1]), log_prob=float(log_prob[0]),
                      finished=True, alphas=tuple(alphas[::-1]))
