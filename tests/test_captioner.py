import gc
import math
import weakref

import numpy as np
import pytest

from objcap.captioner import (
    BOS_ID,
    EOS_ID,
    Hypothesis,
    DecoderState,
    SegmentContext,
    advance,
    beam_search,
    beam_select,
    decode_step,
    forward_teacher_forced,
    initial_state,
    precompute_frames,
    teacher_forced_nll,
    tile_context,
)
from objcap.data import PAD_ID
from objcap.model import ModelConfig, init_model, segment_context
from objcap.tensor import ContractError, Tensor, log_softmax

from helpers import (
    FD_TOL,
    add_op,
    advance_chain,
    beam_search_by_hypothesis,
    beam_select_general,
    decode_greedy,
    max_fd_error,
    mul_op,
    scalar_lstm_step,
    scalar_mlp,
    scalar_softmax,
)

TINY = dict(image_dim=4, object_dim=4, num_groups=2, attn_dim=3,
            interaction_hidden=3, img_proj_dim=3, embed_dim=3,
            attn_hidden=3, lang_hidden=3)


def tiny_model(seed=0, vocab_size=6, **overrides):
    cfg = ModelConfig(vocab_size=vocab_size, **{**TINY, **overrides})
    return init_model(cfg, seed=seed)


def random_segment(rng, t=2, n=2, dim=4):
    image = rng.normal(size=(t, dim))
    objects = [rng.normal(size=(n, dim)) for _ in range(t)]
    return image, objects


def make_ctx(model, rng, t=2, n=2):
    image, objects = random_segment(rng, t=t, n=n, dim=model.config.image_dim)
    ctx, _ = segment_context(model, image, objects)
    return ctx


class TestPrecomputeFrames:
    def test_single_frame_pool_equals_projection(self):
        m = tiny_model(1)
        rng = np.random.default_rng(1)
        ctx = make_ctx(m, rng, t=1)
        assert np.max(np.abs(ctx.pooled.data - ctx.frames.data[0])) < 1e-15

    def test_identical_frames_pool_equals_any_row(self):
        m = tiny_model(2)
        rng = np.random.default_rng(2)
        row = rng.normal(size=4)
        image = np.tile(row, (3, 1))
        objects = [rng.normal(size=(2, 4)) for _ in range(3)]
        ctx, _ = segment_context(m, image, objects)
        assert np.max(np.abs(ctx.pooled.data - ctx.frames.data[0])) < 1e-12

    def test_pool_matches_explicit_mean(self):
        m = tiny_model(3)
        rng = np.random.default_rng(3)
        ctx = make_ctx(m, rng, t=3)
        expected = sum(ctx.frames.data[i] for i in range(3)) / 3.0
        assert np.max(np.abs(ctx.pooled.data - expected)) < 1e-12

    def test_zero_frames_rejected(self):
        m = tiny_model(4)
        with pytest.raises(ContractError):
            segment_context(m, np.zeros((0, 4)), [])


class TestDecodeStep:
    def test_single_frame_attention_is_one(self):
        m = tiny_model(5)
        rng = np.random.default_rng(5)
        ctx = make_ctx(m, rng, t=1)
        step = decode_step(m.captioner, ctx, BOS_ID, initial_state(m.captioner))
        assert step.alpha_temp.data.tolist() == [1.0]
        expected_vhat = ctx.frames.data[0]
        expected_hhat = ctx.states.data[0]
        # with T=1 the weighted sums reduce to the single rows
        assert np.max(np.abs(step.alpha_temp.data @ ctx.frames.data - expected_vhat)) < 1e-15
        assert np.max(np.abs(step.alpha_temp.data @ ctx.states.data - expected_hhat)) < 1e-15

    def test_zero_params_give_uniform_attention_and_zero_logits(self):
        m = tiny_model(6)
        for t in m.named_parameters().values():
            t.data[:] = 0.0
        rng = np.random.default_rng(6)
        ctx = make_ctx(m, rng, t=3)
        step = decode_step(m.captioner, ctx, BOS_ID, initial_state(m.captioner))
        assert np.max(np.abs(step.alpha_temp.data - 1.0 / 3)) < 1e-15
        assert np.array_equal(step.word_logits.data, np.zeros(6))

    def test_matches_fully_unrolled_scalar_oracle(self):
        m = tiny_model(7)
        p = m.captioner
        rng = np.random.default_rng(7)
        ctx = make_ctx(m, rng, t=2)
        prev = 4
        step = decode_step(p, ctx, prev, initial_state(p))

        # scalar re-implementation over plain lists
        emb = [p.embed.data[r][prev] for r in range(p.embed.shape[0])]
        x1 = [0.0] * p.lang_hidden + ctx.pooled.data.tolist() + emb
        h1, _ = scalar_lstm_step(p.attn_lstm.wx.data.tolist(),
                                 p.attn_lstm.wh.data.tolist(),
                                 p.attn_lstm.b.data.tolist(),
                                 x1, [0.0] * p.attn_hidden, [0.0] * p.attn_hidden)
        query = [sum(p.temporal_w_h.data[r][j] * h1[j] for j in range(p.attn_hidden))
                 for r in range(p.img_proj_dim)]
        scores = []
        for t in range(2):
            xa = [math.tanh(query[r] + sum(p.temporal_w_c.data[r][j] * ctx.frames.data[t][j]
                                           for j in range(p.img_proj_dim)))
                  for r in range(p.img_proj_dim)]
            scores.append(sum(p.temporal_w_a.data[r] * xa[r] for r in range(p.img_proj_dim)))
        alpha = scalar_softmax(scores)
        vhat = [alpha[0] * ctx.frames.data[0][j] + alpha[1] * ctx.frames.data[1][j]
                for j in range(p.img_proj_dim)]
        hhat = [alpha[0] * ctx.states.data[0][j] + alpha[1] * ctx.states.data[1][j]
                for j in range(ctx.states.shape[1])]
        x2 = h1 + vhat + hhat
        h2, _ = scalar_lstm_step(p.lang_lstm.wx.data.tolist(),
                                 p.lang_lstm.wh.data.tolist(),
                                 p.lang_lstm.b.data.tolist(),
                                 x2, [0.0] * p.lang_hidden, [0.0] * p.lang_hidden)
        logits = [p.out_b.data[r] + sum(p.out_w.data[r][j] * h2[j]
                                        for j in range(p.lang_hidden))
                  for r in range(p.vocab_size)]
        assert np.max(np.abs(step.alpha_temp.data - np.array(alpha))) < 1e-12
        assert np.max(np.abs(step.word_logits.data - np.array(logits))) < 1e-12

    def test_unknown_word_id_rejected(self):
        m = tiny_model(8)
        ctx = make_ctx(m, np.random.default_rng(8))
        with pytest.raises(ContractError, match="word id 6 outside vocabulary"):
            decode_step(m.captioner, ctx, 6, initial_state(m.captioner))
        rows = tile_context(ctx, 3)
        for words, bad in (([BOS_ID, 6, 4], 6), ([4, -1, 7], -1)):
            with pytest.raises(ContractError, match=f"word id {bad} outside vocabulary"):
                decode_step(m.captioner, rows, np.array(words), initial_state(m.captioner, (3,)))

    def test_alpha_sums_to_one_across_random_steps(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            m = tiny_model(seed=100 + trial)
            ctx = make_ctx(m, rng, t=int(rng.integers(1, 5)))
            state = initial_state(m.captioner)
            for w in (BOS_ID, 4, 5):
                step = decode_step(m.captioner, ctx, w, state)
                state = step.state
                assert abs(step.alpha_temp.data.sum() - 1.0) < 1e-9

    def test_dropped_step_graph_is_freed_without_gc(self):
        m = tiny_model(27)
        ctx = make_ctx(m, np.random.default_rng(27))
        gc.disable()
        try:
            step = decode_step(m.captioner, ctx, BOS_ID, initial_state(m.captioner))
            logits = weakref.ref(step.word_logits)
            del step
            assert logits() is None
        finally:
            gc.enable()


class TestWordStep:
    """``advance`` runs the decoder's word step as one op,
    ``tensor.word_step``; ``helpers.advance_chain`` is the op-by-op chain it
    replaced. Two steps from leaf inputs must give the same h1, c1, h2, c2
    and alpha, and the same gradient in every input, bit for bit."""

    WIDTHS = dict(image_dim=4, object_dim=4, attn_dim=3, interaction_hidden=5,
                  img_proj_dim=4, embed_dim=3, attn_hidden=6, lang_hidden=7)

    @staticmethod
    def leaves(p, rng, lead, frames, masked):
        """A context, two embeddings and a start state, each a leaf that
        requires a gradient; ``masked`` pads some frames of every row but
        the first."""
        def leaf(*shape):
            return Tensor(rng.normal(size=lead + shape), requires_grad=True)

        mask = None
        if masked:
            mask = rng.random(size=lead + (frames,)) < 0.6
            mask[..., 0] = True
            mask[0] = True
        ctx = SegmentContext(
            frames=leaf(frames, p.img_proj_dim) if p.use_image else None,
            pooled=leaf(p.img_proj_dim),
            states=leaf(frames, 5) if p.use_objects else None,
            keys=leaf(frames, p.img_proj_dim), frame_mask=mask)
        state = DecoderState(h1=leaf(p.attn_hidden), c1=leaf(p.attn_hidden),
                             h2=leaf(p.lang_hidden), c2=leaf(p.lang_hidden))
        return ctx, [leaf(p.embed.shape[0]) for _ in range(2)], state

    @pytest.mark.parametrize("mode", [{}, {"use_image": False}, {"use_objects": False},
                                      {"use_coattention": False}])
    @pytest.mark.parametrize("lead,masked", [((), False), ((5,), False), ((5,), True),
                                             ((16,), False), ((16,), True)])
    def test_equals_the_op_by_op_chain_bitwise(self, mode, lead, masked):
        m = init_model(ModelConfig(vocab_size=6, **{**self.WIDTHS, **mode}), seed=31)
        p = m.captioner
        weights = [p.attn_lstm.wx, p.attn_lstm.wh, p.attn_lstm.b, p.lang_lstm.wx,
                   p.lang_lstm.wh, p.lang_lstm.b, p.temporal_w_h, p.temporal_w_a]
        rng = np.random.default_rng(31)
        for trial in range(6):
            ctx, embeddings, start = self.leaves(p, rng, lead, int(rng.integers(1, 7)), masked)
            inputs = weights + [ctx.pooled, ctx.keys, *embeddings, start.h1, start.c1,
                                start.h2, start.c2]
            inputs += [x for x in (ctx.frames, ctx.states) if x is not None]
            # every output of both steps weighted, or only each step's h2,
            # as teacher forcing reads them
            only_h2 = trial % 2 == 1
            loss_weights = [[Tensor(rng.normal(size=lead + (n,))) for n in (
                p.attn_hidden, p.attn_hidden, p.lang_hidden, p.lang_hidden)] for _ in range(2)]
            runs = []
            for step in (advance, advance_chain):
                for x in inputs:
                    x.zero_grad()
                state, outputs = start, []
                for embedding in embeddings:
                    state, alpha = step(p, ctx, embedding, state)
                    outputs.append([state.h1, state.c1, state.h2, state.c2, alpha])
                terms = [mul_op(out, w).sum() for outs, ws in zip(outputs, loss_weights)
                         for k, (out, w) in enumerate(zip(outs, ws)) if not only_h2 or k == 2]
                loss = terms[0]
                for term in terms[1:]:
                    loss = add_op(loss, term)
                loss.backward()
                runs.append([out.data.tobytes() for outs in outputs for out in outs]
                            + [x.grad.tobytes() for x in inputs])
            assert runs[0] == runs[1], (mode, lead, masked, trial)


class TestTeacherForcing:
    def test_uniform_logits_give_log_vocab(self):
        m = tiny_model(10)
        for t in m.named_parameters().values():
            t.data[:] = 0.0
        ctx = make_ctx(m, np.random.default_rng(10))
        res = forward_teacher_forced(m.captioner, ctx, [BOS_ID, 4, 5, EOS_ID])
        assert abs(res.loss.item() - math.log(6)) < 1e-12

    def test_one_word_caption_scores_two_positions(self):
        m = tiny_model(11)
        ctx = make_ctx(m, np.random.default_rng(11))
        res = forward_teacher_forced(m.captioner, ctx, [BOS_ID, 4, EOS_ID])
        ids = np.array([BOS_ID, 4, EOS_ID])
        loss_sum = teacher_forced_nll(m.captioner, ctx, ids[:-1], ids[1:])
        assert res.loss.item() == loss_sum.item() * (1.0 / 2)

    def test_trailing_pad_excluded(self):
        """PAD is rejected wherever it sits, trailing included: batches are
        padded inside model.batch_nll, never by the caller."""
        m = tiny_model(12)
        ctx = make_ctx(m, np.random.default_rng(12))
        for padded in ([BOS_ID, 4, EOS_ID, PAD_ID], [BOS_ID, 4, PAD_ID, EOS_ID],
                       [BOS_ID, PAD_ID, 4, EOS_ID]):
            with pytest.raises(ContractError, match="PAD"):
                forward_teacher_forced(m.captioner, ctx, padded)

    def test_empty_and_malformed_captions_rejected(self):
        m = tiny_model(13)
        ctx = make_ctx(m, np.random.default_rng(13))
        for bad in ([], [BOS_ID], [BOS_ID, 4], [4, EOS_ID], [BOS_ID, PAD_ID, 4, EOS_ID]):
            with pytest.raises(ContractError):
                forward_teacher_forced(m.captioner, ctx, bad)
        for word in (m.captioner.vocab_size, -1):
            with pytest.raises(ContractError, match=f"word id {word} outside vocabulary"):
                forward_teacher_forced(m.captioner, ctx, [BOS_ID, word, EOS_ID])

    def test_gradient_matches_finite_differences(self):
        m = tiny_model(14)
        rng = np.random.default_rng(14)
        image, objects = random_segment(rng, t=2, n=2)
        caption = [BOS_ID, 4, 5, EOS_ID]
        leaves = [t for name, t in sorted(m.named_parameters().items())
                  if name.startswith("captioner.")]

        def loss_fn():
            ctx, _ = segment_context(m, image, objects)
            return forward_teacher_forced(m.captioner, ctx, caption).loss

        assert max_fd_error(loss_fn, leaves) < FD_TOL


class TestGreedy:
    """Greedy decoding is beam search at width 1; ``helpers.decode_greedy``
    is the argmax loop it is held to."""

    def test_eos_dominant_gives_empty_caption(self):
        m = tiny_model(15)
        m.captioner.out_b.data[EOS_ID] = 50.0
        ctx = make_ctx(m, np.random.default_rng(15))
        assert beam_search(m.captioner, ctx, beam_width=1).words == []

    def test_deterministic(self):
        m = tiny_model(16)
        ctx = make_ctx(m, np.random.default_rng(16))
        a, b = beam_search(m.captioner, ctx, 1), beam_search(m.captioner, ctx, 1)
        assert (a.tokens, a.log_prob) == (b.tokens, b.log_prob)

    def test_respects_word_cap(self):
        m = tiny_model(17)
        m.captioner.out_b.data[EOS_ID] = -50.0
        ctx = make_ctx(m, np.random.default_rng(17))
        assert len(beam_search(m.captioner, ctx, beam_width=1, max_words=5).words) == 5

    def test_equals_beam_width_one_on_random_models(self):
        for seed in range(50):
            m = tiny_model(seed=200 + seed, vocab_size=7)
            ctx = make_ctx(m, np.random.default_rng(seed), t=2, n=2)
            greedy = decode_greedy(m.captioner, ctx, max_words=8)
            best = beam_search(m.captioner, ctx, beam_width=1, max_words=8)
            assert greedy == best.words, f"seed {seed}"


def enumerate_best(p, ctx, max_words):
    """Exhaustive search over every terminated sequence, same tie-break."""
    best = None

    def visit(tokens, lp, state, n_words):
        nonlocal best
        step = decode_step(p, ctx, tokens[-1], state)
        logp = log_softmax(step.word_logits).data
        for w in range(p.vocab_size):
            lp2 = lp + float(logp[w])
            t2 = tokens + (w,)
            if w == EOS_ID or n_words + 1 >= max_words:
                if best is None or (-lp2, t2) < (-best[1], best[0]):
                    best = (t2, lp2)
            else:
                visit(t2, lp2, step.state, n_words + 1)

    visit((BOS_ID,), 0.0, initial_state(p), 0)
    return best


class TestBeamSearch:
    def test_zero_width_rejected(self):
        m = tiny_model(18)
        ctx = make_ctx(m, np.random.default_rng(18))
        with pytest.raises(ContractError):
            beam_search(m.captioner, ctx, beam_width=0)

    @pytest.mark.parametrize("width", [1, 3])
    def test_non_finite_scores_rejected(self, width):
        """NaN log-probabilities leave no candidate to keep; the search
        says so instead of indexing an empty pool."""
        m = tiny_model(19)
        ctx = make_ctx(m, np.random.default_rng(19))
        m.captioner.out_b.data[:] = np.nan
        with pytest.raises(ContractError, match="non-finite word log-probabilities"):
            beam_search(m.captioner, ctx, beam_width=width)

    def test_matches_exhaustive_enumeration_on_tiny_vocab(self):
        for seed in range(10):
            m = tiny_model(seed=300 + seed, vocab_size=3)
            ctx = make_ctx(m, np.random.default_rng(seed), t=2, n=2)
            tokens, lp = enumerate_best(m.captioner, ctx, max_words=3)
            # width 16 exceeds every reachable frontier, so the search is exact
            hyp = beam_search(m.captioner, ctx, beam_width=16, max_words=3)
            assert hyp.tokens == tokens
            assert abs(hyp.log_prob - lp) < 1e-12

    def test_dominant_path_returned_at_every_width(self):
        # plant an overwhelming peak through the output bias with all other
        # parameters zeroed, so logits are position-independent and every
        # deviation from the planted path costs at least 25 nats
        m = tiny_model(19, vocab_size=6)
        for t in m.named_parameters().values():
            t.data[:] = 0.0
        m.captioner.out_b.data[4] = 25.0
        m.captioner.out_b.data[np.arange(6) != 4] = -25.0
        ctx = make_ctx(m, np.random.default_rng(19))
        results = [beam_search(m.captioner, ctx, beam_width=w, max_words=4)
                   for w in (1, 2, 3, 4, 5)]
        assert results[0].tokens == (BOS_ID, 4, 4, 4, 4)
        for r in results[1:]:
            assert r.tokens == results[0].tokens

        # same check where the dominant path terminates with EOS immediately
        m.captioner.out_b.data[:] = -25.0
        m.captioner.out_b.data[EOS_ID] = 25.0
        results = [beam_search(m.captioner, ctx, beam_width=w, max_words=4)
                   for w in (1, 2, 3, 4, 5)]
        for r in results:
            assert r.tokens == (BOS_ID, EOS_ID)
            assert r.words == []

    def test_log_prob_monotone_in_width(self):
        for seed in range(12):
            m = tiny_model(seed=400 + seed, vocab_size=7)
            ctx = make_ctx(m, np.random.default_rng(seed), t=3, n=2)
            lps = [beam_search(m.captioner, ctx, beam_width=w, max_words=6).log_prob
                   for w in (1, 2, 3, 5)]
            for a, b in zip(lps, lps[1:]):
                assert b >= a - 1e-12, f"seed {seed}: {lps}"

    def test_matches_per_hypothesis_oracle(self):
        # 512 cases over the four mode rows, V 3-200, widths 1-8, caps 1-7;
        # every second model is tie-heavy: all parameters zeroed and a planted
        # output bias with few distinct values, so every step scores the
        # same exact ties and only the token order decides
        modes = (dict(use_image=True, use_objects=False),
                 dict(use_image=False, use_objects=True),
                 dict(),
                 dict(use_coattention=False))
        rng = np.random.default_rng(31)
        for case in range(512):
            vocab = int(rng.integers(3, 201))
            width, cap = int(rng.integers(1, 9)), int(rng.integers(1, 8))
            m = tiny_model(seed=case, vocab_size=vocab, **modes[case % 4])
            if case % 2:
                for t in m.named_parameters().values():
                    t.data[:] = 0.0
                m.captioner.out_b.data[:] = rng.integers(-2, 2, size=vocab)
            ctx = make_ctx(m, rng, t=int(rng.integers(1, 4)), n=int(rng.integers(0, 3)))
            hyp = beam_search(m.captioner, ctx, beam_width=width, max_words=cap)
            tokens, log_prob, alphas = beam_search_by_hypothesis(
                m.captioner, ctx, width, cap)
            where = f"case {case}: V={vocab} width={width} cap={cap}"
            assert hyp.tokens == tokens, where
            assert abs(hyp.log_prob - log_prob) <= 1e-12, where
            assert len(hyp.alphas) == len(alphas), where
            for a, b in zip(hyp.alphas, alphas):
                assert np.max(np.abs(a - b)) <= 1e-12, where

    @pytest.mark.parametrize("mode", [dict(use_image=True, use_objects=False),
                                      dict(use_image=False, use_objects=True),
                                      dict(), dict(use_coattention=False)],
                             ids=["image-only", "objects-only", "full", "no-coattention"])
    def test_matches_per_hypothesis_oracle_at_paper_width(self, mode):
        # widths 32 and V=1000, beam 5, cap 6: the search projects to the
        # vocabulary from its own copy of the output weights, the oracle
        # through ``linear``. EOS's output bias is raised a little in every
        # second model: of those searches some end at once, some carry a
        # finished entry to the cap and some never finish one
        rng = np.random.default_rng(33)
        for seed in range(4):
            m = init_model(ModelConfig(vocab_size=1000, **mode), seed=seed)
            if seed % 2:
                m.captioner.out_b.data[EOS_ID] += 0.02
            image = rng.normal(size=(5, 32))
            ctx, _ = segment_context(m, image, [rng.normal(size=(3, 32)) for _ in range(5)])
            hyp = beam_search(m.captioner, ctx, beam_width=5, max_words=6)
            tokens, log_prob, alphas = beam_search_by_hypothesis(m.captioner, ctx, 5, 6)
            assert hyp.tokens == tokens, f"seed {seed}"
            assert abs(hyp.log_prob - log_prob) <= 1e-12, f"seed {seed}"
            assert len(hyp.alphas) == len(alphas), f"seed {seed}"
            for a, b in zip(hyp.alphas, alphas):
                assert np.max(np.abs(a - b)) <= 1e-12, f"seed {seed}"

    def test_select_matches_sorting_every_candidate(self):
        # pools shaped as beam search makes them (live entries: EOS-free
        # tokens of one length; finished ones no longer, ending in EOS),
        # with integer log-probabilities, so exact ties across parents,
        # words and finished entries are common
        rng = np.random.default_rng(32)
        for case in range(400):
            vocab, width = int(rng.integers(3, 9)), int(rng.integers(1, 9))
            length = int(rng.integers(1, 5))
            others = [w for w in range(vocab) if w != EOS_ID]
            pool = set()
            while len(pool) < int(rng.integers(1, width + 1)):
                if length > 1 and rng.random() < 0.4:
                    body = rng.choice(others, size=int(rng.integers(0, length - 1)))
                    pool.add((BOS_ID, *body.tolist(), EOS_ID))
                else:
                    pool.add((BOS_ID, *rng.choice(others, size=length - 1).tolist()))
            tokens = [pool.pop() for _ in range(len(pool))]
            finished = np.array([t[-1] == EOS_ID for t in tokens])
            log_prob = rng.integers(-6, 1, size=len(tokens)).astype(float)
            logp = rng.integers(-3, 1, size=(width, vocab)).astype(float)
            rank = np.argsort(sorted(range(len(tokens)), key=tokens.__getitem__))

            candidates = [(log_prob[i], t) for i, t in enumerate(tokens) if finished[i]]
            candidates += [(log_prob[i] + logp[i, w], t + (w,))
                           for i, t in enumerate(tokens) if not finished[i]
                           for w in range(vocab)]
            expected = sorted(candidates, key=lambda c: (-c[0], c[1]))[:width]

            parent, word, new_lp, new_rank = beam_select(logp, log_prob, finished,
                                                         rank, width)
            got = [(lp, tokens[i] + ((w,) if w >= 0 else ()))
                   for i, w, lp in zip(parent.tolist(), word.tolist(), new_lp.tolist())]
            assert got == expected, f"case {case}"
            order = sorted(range(len(got)), key=lambda k: got[k][1])
            assert np.array_equal(new_rank, np.argsort(order)), f"case {case}"

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6])
    def test_select_without_finished_entries_equals_the_general_path(self, width):
        """Pools as a search grows them from BOS over random word
        log-probabilities: every step, either path of ``beam_select`` gives
        the general path's four arrays bit for bit. Every second case draws
        integer log-probabilities, so ties at the cut are common; early
        pools are smaller than the width, and EOS finishes entries that
        later steps carry over."""
        rng = np.random.default_rng(33 + width)
        steps = {False: 0, True: 0}     # by whether the pool held a finished entry
        for case in range(60):
            vocab = int(rng.integers(3, 12))
            log_prob, finished = np.zeros(1), np.zeros(1, dtype=bool)
            rank = np.zeros(1, dtype=np.int64)
            for _ in range(8):
                if case % 2:
                    logp = rng.integers(-3, 1, size=(width, vocab)).astype(float)
                else:
                    logp = np.log(rng.dirichlet(np.ones(vocab), size=width))
                got = beam_select(logp, log_prob, finished, rank, width)
                want = beam_select_general(logp, log_prob, finished, rank, width)
                for a, b in zip(got, want, strict=True):
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f"case {case}"
                steps[bool(finished.any())] += 1
                _, word, log_prob, rank = got
                finished = (word < 0) | (word == EOS_ID)
                if finished.all():
                    break
        assert steps[False] and (steps[True] or width == 1)    # one entry: EOS ends the search

    def test_hypothesis_invariants(self):
        m = tiny_model(20)
        ctx = make_ctx(m, np.random.default_rng(20))
        hyp = beam_search(m.captioner, ctx, beam_width=3)
        assert hyp.log_prob <= 0.0
        assert hyp.tokens[0] == BOS_ID
        assert len(hyp.tokens) <= 32
        assert hyp.tokens[-1] == EOS_ID or len(hyp.tokens) == 31   # finished: EOS or the cap


class TestModeFlags:
    def test_object_free_mode_ignores_object_features(self):
        m = tiny_model(21, use_objects=False)
        rng = np.random.default_rng(21)
        image, objects = random_segment(rng)
        ctx1, _ = segment_context(m, image, objects)
        perturbed = [o + rng.normal(size=o.shape) for o in objects]
        ctx2, _ = segment_context(m, image, perturbed)
        s1 = decode_step(m.captioner, ctx1, BOS_ID, initial_state(m.captioner))
        s2 = decode_step(m.captioner, ctx2, BOS_ID, initial_state(m.captioner))
        assert np.array_equal(s1.word_logits.data, s2.word_logits.data)
        assert beam_search(m.captioner, ctx1, 1).tokens == beam_search(m.captioner, ctx2, 1).tokens

    def test_image_free_mode_ignores_frame_features_given_interactions(self):
        m = tiny_model(22, use_image=False)
        rng = np.random.default_rng(22)
        interactions = [Tensor(rng.normal(size=3)) for _ in range(2)]
        v1 = Tensor(rng.normal(size=(2, 4)))
        v2 = Tensor(rng.normal(size=(2, 4)))
        ctx1 = precompute_frames(m.captioner, v1, interactions)
        ctx2 = precompute_frames(m.captioner, v2, interactions)
        s1 = decode_step(m.captioner, ctx1, BOS_ID, initial_state(m.captioner))
        s2 = decode_step(m.captioner, ctx2, BOS_ID, initial_state(m.captioner))
        assert np.array_equal(s1.word_logits.data, s2.word_logits.data)

    def test_both_pathways_off_rejected(self):
        with pytest.raises(ContractError):
            tiny_model(23, use_image=False, use_objects=False)

    def test_no_coattention_uses_time_mean(self):
        m = tiny_model(24, use_coattention=False)
        rng = np.random.default_rng(24)
        image, objects = random_segment(rng, t=3)
        ctx, _ = segment_context(m, image, objects)
        step = decode_step(m.captioner, ctx, BOS_ID, initial_state(m.captioner))
        # rebuild the language-LSTM input with the mean over interaction states
        from helpers import scalar_lstm_step as sls
        p = m.captioner
        x2 = (step.state.h1.data.tolist()
              + (step.alpha_temp.data @ ctx.frames.data).tolist()
              + ctx.states.data.mean(axis=0).tolist())
        h2, _ = sls(p.lang_lstm.wx.data.tolist(), p.lang_lstm.wh.data.tolist(),
                    p.lang_lstm.b.data.tolist(), x2,
                    [0.0] * p.lang_hidden, [0.0] * p.lang_hidden)
        logits = p.out_w.data @ np.array(h2) + p.out_b.data
        assert np.max(np.abs(step.word_logits.data - logits)) < 1e-12


def assert_products_position_free(p, rows, rng, draws=5):
    """The precondition of an exact replay at a beam's row count: each
    weight product of a decode step (``x @ w.T`` in ``linear`` and
    ``lstm_cell``), over ``rows`` rows, gives a row the bits it gets at
    row 0 of rows all equal to it. The narrow-output GEMM rounding line
    (``FOUND:`` in CHANGES.md, "a matrix-matrix product whose input rows
    are all equal can still give rows that differ in the last bits") saw
    this fail only at output widths 1, 2, 3 and 6, and the tiny model has 3
    and 6. ``matmul``'s products take each row as its own one-row product."""
    weights = [p.attn_lstm.wx, p.attn_lstm.wh, p.temporal_w_h, p.lang_lstm.wx,
               p.lang_lstm.wh, p.out_w]
    for out, inner in sorted({w.shape for w in weights}):
        for _ in range(draws):
            x, w = rng.normal(size=(rows, inner)), rng.normal(size=(out, inner))
            full = x @ w.T
            for r in range(rows):
                assert np.array_equal(full[r], (np.tile(x[r], (rows, 1)) @ w.T)[0]), (
                    f"a {rows} x {inner} @ {inner} x {out} product rounds row {r} by its "
                    "position (the narrow-output GEMM FOUND: line in CHANGES.md), so the "
                    "beam cannot be replayed bit for bit; the search is not at fault")


class TestCoattentionSharing:
    def test_one_distribution_weights_both_pathways(self):
        m = tiny_model(25)
        p = m.captioner
        rng = np.random.default_rng(25)
        image, objects = random_segment(rng, t=3)
        ctx, _ = segment_context(m, image, objects)
        step = decode_step(p, ctx, BOS_ID, initial_state(p))
        alpha = step.alpha_temp.data
        from helpers import scalar_lstm_step as sls
        x2 = (step.state.h1.data.tolist()
              + (alpha @ ctx.frames.data).tolist()
              + (alpha @ ctx.states.data).tolist())
        h2, _ = sls(p.lang_lstm.wx.data.tolist(), p.lang_lstm.wh.data.tolist(),
                    p.lang_lstm.b.data.tolist(), x2,
                    [0.0] * p.lang_hidden, [0.0] * p.lang_hidden)
        logits = p.out_w.data @ np.array(h2) + p.out_b.data
        assert np.max(np.abs(step.word_logits.data - logits)) < 1e-12

    def test_beam_records_one_alpha_per_token(self):
        for seed, width in ((26, 2), (27, 1), (28, 5)):
            m = tiny_model(seed)
            assert_products_position_free(m.captioner, width, np.random.default_rng(seed))
            ctx = make_ctx(m, np.random.default_rng(seed), t=4)
            hyp = beam_search(m.captioner, ctx, beam_width=width, max_words=5)
            assert len(hyp.alphas) == len(hyp.tokens) - 1
            # reference: re-run the decoder over the returned tokens at the
            # beam's row count, every row the same, and read row 0; products
            # over several rows may differ from a vector's in the last bits
            rows = tile_context(ctx, width)
            state = initial_state(m.captioner, (width,))
            for prev, alpha in zip(hyp.tokens, hyp.alphas):
                step = decode_step(m.captioner, rows, np.full(width, prev), state)
                state = step.state
                assert alpha.shape == (4,)
                assert abs(alpha.sum() - 1.0) < 1e-9
                assert np.array_equal(alpha, step.alpha_temp.data[0])
