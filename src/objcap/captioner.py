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
    concat,
    log_softmax,
    matmul,
    softmax,
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
    """Per-segment inputs precomputed once before decoding.

    ``frames``    projected image features, one row per frame (None without
                  the image pathway)
    ``pooled``    mean of the projected rows, or zeros without the pathway
    ``states``    interaction states stacked one row per frame (None without
                  the object pathway)
    ``keys``      the frame-attention keys, ``frames`` (or ``states`` without
                  the image pathway) times ``temporal_w_c.T``
    """

    frames: Tensor | None
    pooled: Tensor
    states: Tensor | None
    keys: Tensor
    length: int


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
    """A beam-search partial caption.

    ``tokens`` starts with BOS and may end with EOS; ``log_prob`` is the
    plain sum of word log-probabilities (no length normalization);
    ``alphas`` holds the frame attention of the step that produced each
    token after BOS.
    """

    tokens: tuple[int, ...]
    log_prob: float
    state: DecoderState
    finished: bool
    alphas: tuple[np.ndarray, ...] = ()

    @property
    def words(self) -> list[int]:
        body = self.tokens[1:]
        if body and body[-1] == EOS_ID:
            body = body[:-1]
        return list(body)


def precompute_frames(p: CaptionerParams, v_c: Tensor,
                      interactions: list[Tensor] | None) -> SegmentContext:
    """Project the frame features, pool them, stack interaction states, and
    compute the frame-attention keys."""
    if len(v_c.shape) != 2 or v_c.shape[0] < 1:
        raise ContractError(f"frame features must be a T x D matrix with T >= 1, got {v_c.shape}")
    length = v_c.shape[0]
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
        pooled = frames.mean(axis=0)
    else:
        frames = None
        pooled = Tensor(np.zeros(p.img_proj_dim))
    keys = matmul(frames if p.use_image else states, p.temporal_w_c.T)
    return SegmentContext(frames=frames, pooled=pooled, states=states, keys=keys,
                          length=length)


def initial_state(p: CaptionerParams) -> DecoderState:
    return DecoderState(h1=Tensor(np.zeros(p.attn_hidden)),
                        c1=Tensor(np.zeros(p.attn_hidden)),
                        h2=Tensor(np.zeros(p.lang_hidden)),
                        c2=Tensor(np.zeros(p.lang_hidden)))


def decode_step(p: CaptionerParams, ctx: SegmentContext, prev_word: int,
                state: DecoderState) -> DecodeStep:
    """Advance both LSTMs one word and score the vocabulary.

    The frame distribution is computed once and reused for every aggregation
    in the step, so image evidence and interaction states are weighted by the
    same attention.
    """
    if not 0 <= prev_word < p.vocab_size:
        raise ContractError(f"word id {prev_word} outside vocabulary of {p.vocab_size}")
    embedding = take_column(p.embed, prev_word)
    x1 = concat([state.h2, ctx.pooled, embedding])
    h1, c1 = lstm_step(p.attn_lstm, x1, state.h1, state.c1)

    query = matmul(p.temporal_w_h, h1)
    scores = matmul((ctx.keys + query).tanh(), p.temporal_w_a)
    alpha = softmax(scores)

    parts = [h1]
    if p.use_image:
        parts.append(matmul(alpha, ctx.frames))
    if p.use_objects:
        if p.use_coattention:
            parts.append(matmul(alpha, ctx.states))
        else:
            parts.append(ctx.states.mean(axis=0))
    h2, c2 = lstm_step(p.lang_lstm, concat(parts), state.h2, state.c2)

    logits = matmul(p.out_w, h2) + p.out_b
    return DecodeStep(state=DecoderState(h1=h1, c1=c1, h2=h2, c2=c2),
                      alpha_temp=alpha, word_logits=logits)


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

    state = initial_state(p)
    loss_sum = None
    scored = 0
    for i in range(len(caption) - 1):
        gold = caption[i + 1]
        if gold == PAD_ID:
            break
        step = decode_step(p, ctx, caption[i], state)
        state = step.state
        nll = -log_softmax(step.word_logits)[gold]
        loss_sum = nll if loss_sum is None else loss_sum + nll
        scored += 1
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


def beam_search(p: CaptionerParams, ctx: SegmentContext, beam_width: int,
                max_words: int = MAX_CAPTION_WORDS) -> Hypothesis:
    """Breadth-limited search by accumulated log-probability.

    Finished hypotheses stay in the pool and compete with fresh expansions;
    ties break on the smaller token sequence so width 1 reproduces greedy
    decoding exactly. Hypotheses are built only for candidates scoring at
    least the ``beam_width``-th best score, ties included, which keeps the
    same pool as sorting every candidate.
    """
    if beam_width < 1:
        raise ContractError("beam width must be at least 1")
    pool = [Hypothesis(tokens=(BOS_ID,), log_prob=0.0, state=initial_state(p),
                       finished=False)]
    while any(not h.finished for h in pool):
        finished = [h for h in pool if h.finished]
        live = [h for h in pool if not h.finished]
        steps = [decode_step(p, ctx, h.tokens[-1], h.state) for h in live]
        scores = np.stack([h.log_prob + log_softmax(step.word_logits).data
                           for h, step in zip(live, steps)])
        every = np.concatenate([[h.log_prob for h in finished], scores.ravel()])
        kth = max(every.size - beam_width, 0)
        cut = np.partition(every, kth)[kth]
        candidates = [h for h in finished if h.log_prob >= cut]
        for i, w in np.argwhere(scores >= cut).tolist():
            hyp, step = live[i], steps[i]
            candidates.append(Hypothesis(
                tokens=hyp.tokens + (w,),
                log_prob=float(scores[i, w]),
                state=step.state,
                finished=w == EOS_ID or len(hyp.tokens) >= max_words,
                alphas=hyp.alphas + (step.alpha_temp.data,),
            ))
        candidates.sort(key=lambda h: (-h.log_prob, h.tokens))
        pool = candidates[:beam_width]
    return pool[0]
