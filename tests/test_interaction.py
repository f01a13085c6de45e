import math
from dataclasses import replace

import numpy as np
import pytest

from objcap import interaction
from objcap.interaction import init_interaction, interaction_sequence
from objcap.layers import init_lstm, lstm_step, named_tensors
from objcap.model import ModelConfig, init_model, segment_context
from objcap.tensor import ContractError, Tensor, pair_attention

from helpers import FD_TOL, max_fd_error, scalar_lstm_step, scalar_mlp, scalar_softmax

CONFIG = ModelConfig(vocab_size=3, image_dim=4, object_dim=5, num_groups=2, attn_dim=3,
                     interaction_hidden=4)


def make_params(seed=0):
    return init_interaction(np.random.default_rng(seed), CONFIG)


def make_segment(rng, counts, object_dim=5, image_dim=4):
    image = Tensor(rng.normal(size=(len(counts), image_dim)))
    return image, [rng.normal(size=(n, object_dim)) for n in counts]


def group_weights(p, k):
    """Group k's row block of each stacked role: w_h, w_c and the
    projection's w and b."""
    d = p.w_h.shape[0] // p.num_groups
    block = slice(k * d, (k + 1) * d)
    return p.w_h.data[block], p.w_c.data[block], p.proj.w.data[block], p.proj.b.data[block]


def oracle_sequence(p, image, object_feats):
    """Pure-numpy fold of the recurrence: per frame and group, project,
    bias, score, softmax and pool, then one scalar LSTM step."""
    h, c = [0.0] * p.hidden_size, [0.0] * p.hidden_size
    attn_dim = p.w_h.shape[0] // p.num_groups
    hiddens, alphas = [], []
    for v, objs in zip(image, object_feats):
        pooled, frame_alphas = [], []
        for g in range(p.num_groups):
            if objs.shape[0] == 0:
                pooled += [0.0] * attn_dim
                frame_alphas.append(None)
                continue
            w_h, w_c, proj_w, proj_b = group_weights(p, g)
            layer = (proj_w.tolist(), proj_b.tolist())
            proj = np.array([scalar_mlp([layer], row.tolist()) for row in objs])
            u = w_h @ np.array(h) + w_c @ v
            x = proj + u
            n = objs.shape[0]
            scores = [[float(np.dot(x[i], x[j])) / math.sqrt(attn_dim) for j in range(n)]
                      for i in range(n)]
            alpha = np.array([scalar_softmax(row) for row in scores])
            pooled += [sum(alpha[i] @ proj[:, k] for i in range(n)) / n
                       for k in range(attn_dim)]
            frame_alphas.append(alpha)
        h, c = scalar_lstm_step(p.lstm.wx.data.tolist(), p.lstm.wh.data.tolist(),
                                p.lstm.b.data.tolist(), pooled, h, c)
        hiddens.append(np.array(h))
        alphas.append(frame_alphas)
    return hiddens, alphas


def attend(projected, u):
    """One group's attention over every row of ``projected``, in order, as a
    batch of one: the n x n attention and the 1 x d pooled vector."""
    alpha, pooled = pair_attention(projected, np.arange(projected.shape[0])[None], u, None, 1)
    return alpha[0, 0], pooled


class TestGroupAttend:
    def test_single_object(self):
        rng = np.random.default_rng(1)
        projected = Tensor(rng.normal(size=(1, 3)))
        alpha, pooled = attend(projected, Tensor(rng.normal(size=(1, 3))))
        assert alpha.tolist() == [[1.0]]
        assert np.max(np.abs(pooled.data - projected.data[0])) < 1e-12

    def test_identical_objects_give_uniform_attention(self):
        rng = np.random.default_rng(2)
        row = rng.normal(size=3)
        alpha, pooled = attend(Tensor(np.tile(row, (3, 1))), Tensor(rng.normal(size=(1, 3))))
        assert np.max(np.abs(alpha - 1.0 / 3)) < 1e-12
        assert np.max(np.abs(pooled.data - row)) < 1e-9

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        proj = rng.normal(size=(4, 3))
        u = rng.normal(size=(1, 3))
        alpha_t, pooled_t = attend(Tensor(proj), Tensor(u))

        # explicit scalar recomputation: bias, score, softmax, pool
        x = proj + u
        scores = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                scores[i, j] = float(np.dot(x[i], x[j])) / math.sqrt(3)
        alpha = np.array([scalar_softmax(r.tolist()) for r in scores])
        pooled = (alpha @ proj).mean(axis=0)
        assert np.max(np.abs(alpha_t - alpha)) < 1e-12
        assert np.max(np.abs(pooled_t.data - pooled)) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 5):
            alpha, _ = attend(Tensor(rng.normal(size=(n, 3))), Tensor(rng.normal(size=(1, 3))))
            sums = alpha.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-9
            assert np.all(alpha > 0)

    def test_empty_frame_rejected(self):
        with pytest.raises(ContractError):
            attend(Tensor(np.zeros((0, 3))), Tensor(np.zeros((1, 3))))

    def test_score_scaling_uses_sqrt_attn_dim(self):
        # attention width 3: scores must equal the unscaled oracle / sqrt(3)
        rng = np.random.default_rng(6)
        proj = rng.normal(size=(3, 3))
        u = rng.normal(size=(1, 3))
        x = proj + u
        unscaled = x @ x.T
        alpha, _ = attend(Tensor(proj), Tensor(u))
        expected = np.array([scalar_softmax(r.tolist())
                             for r in unscaled * (1.0 / math.sqrt(3))])
        assert np.max(np.abs(alpha - expected)) < 1e-12


class TestInteractionStep:
    """One frame of the recurrence, run as a one-frame sequence."""

    def test_zero_lstm_params_give_zero_state(self):
        rng = np.random.default_rng(7)
        p = make_params(7)
        for t in named_tensors(p.lstm).values():
            t.data[:] = 0.0
        hs, _ = interaction_sequence(p, *make_segment(rng, [3]))
        assert np.array_equal(hs[0].data, np.zeros((1, 4)))

    def test_identical_groups_produce_identical_pooled(self):
        rng = np.random.default_rng(8)
        p = make_params(8)
        for t in (p.w_h, p.w_c, p.proj.w, p.proj.b):
            t.data[3:] = t.data[:3]     # group 1's row block := group 0's
        image, objects = make_segment(rng, [3])
        _, records = interaction_sequence(p, image, objects)
        _, _, proj_w, proj_b = group_weights(p, 0)
        proj = np.tanh(objects[0] @ proj_w.T + proj_b)
        pooled = [(alpha @ proj).mean(axis=0) for alpha in records[0]]
        assert np.array_equal(records[0][0], records[0][1])
        assert np.array_equal(pooled[0], pooled[1])

    def test_empty_frame_contributes_zero_pooled(self):
        rng = np.random.default_rng(9)
        p = make_params(9)
        hs, records = interaction_sequence(p, *make_segment(rng, [0]))
        assert records == [[None, None]]
        zeros = Tensor(np.zeros((1, 4)))
        h, _ = lstm_step(p.lstm, Tensor(np.zeros((1, 6))), zeros, zeros)
        assert np.array_equal(hs[0].data, h.data)

    def test_permutation_leaves_state_unchanged(self):
        rng = np.random.default_rng(10)
        p = make_params(10)
        image, objects = make_segment(rng, [5])
        hs1, _ = interaction_sequence(p, image, objects)
        hs2, _ = interaction_sequence(p, image, [objects[0][rng.permutation(5)]])
        assert np.max(np.abs(hs1[0].data - hs2[0].data)) < 1e-12


class TestInteractionSequence:
    def test_single_frame_equals_single_step(self):
        rng = np.random.default_rng(11)
        p = make_params(11)
        image, objects = make_segment(rng, [2])
        hs, recs = interaction_sequence(p, image, objects)
        expected, _ = oracle_sequence(p, image.data, objects)
        assert hs[0].shape == (1, 4)        # the segment runs as a batch of one
        assert np.max(np.abs(hs[0].data[0] - expected[0])) < 1e-12
        assert len(recs) == 1 and [alpha.shape for alpha in recs[0]] == [(2, 2)] * 2

    def test_all_zero_inputs_zero_params_give_zero_states(self):
        p = make_params(12)
        for t in named_tensors(p).values():
            t.data[:] = 0.0
        hs, _ = interaction_sequence(p, Tensor(np.zeros((3, 4))), [np.zeros((2, 5))] * 3)
        for h in hs:
            assert np.array_equal(h.data, np.zeros((1, 4)))

    def test_three_frames_match_stepwise_fold(self):
        # the middle frame is empty
        rng = np.random.default_rng(13)
        p = make_params(13)
        image, objects = make_segment(rng, [2, 0, 3])
        hs, records = interaction_sequence(p, image, objects)
        expected_hs, expected_alphas = oracle_sequence(p, image.data, objects)
        for h, expected in zip(hs, expected_hs, strict=True):
            assert np.max(np.abs(h.data - expected)) < 1e-12
        for frame, expected in zip(records, expected_alphas, strict=True):
            for alpha, oracle in zip(frame, expected, strict=True):
                if oracle is None:
                    assert alpha is None
                else:
                    assert np.max(np.abs(alpha - oracle)) < 1e-12

    def test_all_frames_empty(self):
        rng = np.random.default_rng(17)
        p = make_params(17)
        image, objects = make_segment(rng, [0, 0, 0])
        hs, records = interaction_sequence(p, image, objects)
        assert records == [[None, None]] * 3
        expected, _ = oracle_sequence(p, image.data, objects)
        for h, oracle in zip(hs, expected, strict=True):
            assert np.max(np.abs(h.data - oracle)) < 1e-12

    def test_objects_projected_once_for_all_groups(self, monkeypatch):
        """One projection of every object row, through the K groups'
        weights stacked one under another."""
        rng = np.random.default_rng(18)
        p = make_params(18)
        calls = []
        real = interaction.mlp_forward
        monkeypatch.setattr(interaction, "mlp_forward",
                            lambda proj, x: calls.append((x.shape, proj.w.shape)) or real(proj, x))
        interaction_sequence(p, *make_segment(rng, [2, 0, 3, 1]))
        assert calls == [((6, 5), (2 * 3, 5))]

    def test_empty_sequence_rejected(self):
        with pytest.raises(ContractError):
            segment_context(init_model(CONFIG, seed=14), np.zeros((0, 4)), [])

    def test_permutation_invariance_across_sequence(self):
        rng = np.random.default_rng(15)
        p = make_params(15)
        image, objects = make_segment(rng, [3, 4, 2])
        hs1, _ = interaction_sequence(p, image, objects)
        hs2, _ = interaction_sequence(
            p, image, [o[rng.permutation(o.shape[0])] for o in objects])
        for h1, h2 in zip(hs1, hs2):
            assert np.max(np.abs(h1.data - h2.data)) < 1e-12


@pytest.mark.parametrize("groups", [1, 2, 3])
def test_init_draws_group_by_group_then_the_lstm(groups):
    """Initialization draws each group in turn, w_h, w_c, then its
    projection, each with the group's own glorot bound, stacks group k as
    row block k, and draws the LSTM after them: a reordered draw would move
    every initial value, and with it every trained artifact."""
    cfg = replace(CONFIG, num_groups=groups)
    p = init_interaction(np.random.default_rng(19), cfg)
    rng = np.random.default_rng(19)
    d = cfg.attn_dim
    assert p.num_groups == groups and p.w_h.shape[0] == groups * d
    for k in range(groups):
        w_h, w_c, proj_w, proj_b = group_weights(p, k)
        for block, fan_in in [(w_h, cfg.interaction_hidden), (w_c, cfg.image_dim),
                              (proj_w, cfg.object_dim)]:
            bound = np.sqrt(6.0 / (fan_in + d))
            assert (block == rng.uniform(-bound, bound, size=(d, fan_in))).all()
        assert (proj_b == 0.0).all()
    lstm = init_lstm(rng, groups * d, cfg.interaction_hidden)
    for name, t in named_tensors(p.lstm).items():
        assert (t.data == getattr(lstm, name).data).all()


def test_gradient_of_final_state_wrt_all_params():
    rng = np.random.default_rng(16)
    p = make_params(16)
    image, objects = make_segment(rng, [2, 0, 3])
    leaves = list(named_tensors(p).values())

    def loss_fn():
        hs, _ = interaction_sequence(p, image, objects)
        return hs[-1].sum()

    assert max_fd_error(loss_fn, leaves) < FD_TOL
