from dataclasses import dataclass

import numpy as np
import pytest

from objcap.layers import (
    LstmParams,
    MlpParams,
    glorot_uniform,
    init_lstm,
    init_mlp,
    lstm_step,
    mlp_forward,
    named_tensors,
)
from objcap.model import ModelConfig, init_model
from objcap.tensor import ShapeError, Tensor

from helpers import FD_TOL, max_fd_error, scalar_lstm_step, scalar_mlp


def zero_lstm(input_size, hidden):
    return LstmParams(
        wx=Tensor(np.zeros((4 * hidden, input_size)), requires_grad=True),
        wh=Tensor(np.zeros((4 * hidden, hidden)), requires_grad=True),
        b=Tensor(np.zeros(4 * hidden), requires_grad=True),
    )


class TestLstmStep:
    def test_zero_params_zero_state_give_exact_zeros(self):
        p = zero_lstm(3, 4)
        x = Tensor(np.array([5.0, -2.0, 1.0]))
        h, c = lstm_step(p, x, Tensor(np.zeros(4)), Tensor(np.zeros(4)))
        assert np.array_equal(h.data, np.zeros(4))
        assert np.array_equal(c.data, np.zeros(4))

    def test_repeated_steps_match_scalar_oracle(self):
        rng = np.random.default_rng(11)
        p = init_lstm(rng, 2, 3)
        x = rng.normal(size=2)
        h = np.zeros(3)
        c = np.zeros(3)
        ho, co = list(h), list(c)
        ht, ct = Tensor(h), Tensor(c)
        xt = Tensor(x)
        for _ in range(4):
            ht, ct = lstm_step(p, xt, ht, ct)
            ho, co = scalar_lstm_step(
                p.wx.data.tolist(), p.wh.data.tolist(), p.b.data.tolist(),
                x.tolist(), ho, co)
        assert np.max(np.abs(ht.data - np.array(ho))) < 1e-12
        assert np.max(np.abs(ct.data - np.array(co))) < 1e-12

    def test_matches_op_by_op_expression_bitwise(self):
        def sigmoid(z):
            e = np.exp(-np.abs(z))
            return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

        rng = np.random.default_rng(5)
        for d, hs, scale in [(3, 4, 1.0), (32, 32, 1.0), (5, 7, 40.0), (1, 1, 1.0)]:
            p = init_lstm(rng, d, hs)
            p.b.data[:] = rng.normal(scale=scale, size=4 * hs)
            x, h, c = (rng.normal(size=n) for n in (d, hs, hs))
            z = (p.wx.data @ x + p.wh.data @ h) + p.b.data
            i, f = sigmoid(z[0:hs]), sigmoid(z[hs:2 * hs])
            g, o = np.tanh(z[2 * hs:3 * hs]), sigmoid(z[3 * hs:])
            c_ref = f * c + i * g
            h_ref = o * np.tanh(c_ref)
            h_t, c_t = lstm_step(p, Tensor(x), Tensor(h), Tensor(c))
            assert np.array_equal(h_t.data, h_ref) and np.array_equal(c_t.data, c_ref)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        p = init_lstm(rng, 3, 4)
        x = Tensor(rng.normal(size=3), requires_grad=True)
        leaves = [p.wx, p.wh, p.b, x]

        def loss_fn():
            h, c = lstm_step(p, x, Tensor(np.zeros(4)), Tensor(np.zeros(4)))
            h2, _ = lstm_step(p, x, h, c)
            return h2.sum()

        assert max_fd_error(loss_fn, leaves) < FD_TOL

    def test_dimension_mismatch(self):
        p = zero_lstm(3, 4)
        with pytest.raises(ShapeError):
            lstm_step(p, Tensor(np.zeros(5)), Tensor(np.zeros(4)), Tensor(np.zeros(4)))
        with pytest.raises(ShapeError):
            lstm_step(p, Tensor(np.zeros(3)), Tensor(np.zeros(2)), Tensor(np.zeros(4)))

    def test_forget_bias_initialized_to_one(self):
        p = init_lstm(np.random.default_rng(0), 2, 5)
        assert np.array_equal(p.b.data[5:10], np.ones(5))
        assert np.array_equal(p.b.data[:5], np.zeros(5))
        assert np.array_equal(p.b.data[10:], np.zeros(10))


class TestMlp:
    def test_zero_tanh_layer_gives_zero(self):
        p = MlpParams(w=Tensor(np.zeros((4, 3)), requires_grad=True),
                      b=Tensor(np.zeros(4), requires_grad=True))
        out = mlp_forward(p, Tensor(np.ones(3)))
        assert np.array_equal(out.data, np.zeros(4))

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        p = init_mlp(rng, 4, 5)
        p.b.data[:] = rng.normal(size=5)
        x = rng.normal(size=4)
        expected = scalar_mlp([(p.w.data.tolist(), p.b.data.tolist())], x.tolist())
        out = mlp_forward(p, Tensor(x))
        assert np.max(np.abs(out.data - np.array(expected))) < 1e-12

    def test_matrix_input_applies_row_wise(self):
        rng = np.random.default_rng(6)
        p = init_mlp(rng, 3, 4)
        m = rng.normal(size=(5, 3))
        out = mlp_forward(p, Tensor(m))
        for i in range(5):
            row = mlp_forward(p, Tensor(m[i]))
            assert np.max(np.abs(out.data[i] - row.data)) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(8)
        p = init_mlp(rng, 3, 4)
        p.b.data[:] = rng.normal(size=4)
        x = Tensor(rng.normal(size=(4, 3)) + 0.2, requires_grad=True)
        leaves = [x, p.w, p.b]

        def loss_fn():
            return mlp_forward(p, x).sum()

        assert max_fd_error(loss_fn, leaves) < FD_TOL

    def test_input_width_mismatch(self):
        p = init_mlp(np.random.default_rng(0), 3, 2)
        with pytest.raises(ShapeError):
            mlp_forward(p, Tensor(np.zeros(4)))


def test_glorot_bound_and_determinism():
    r1 = glorot_uniform(np.random.default_rng(42), 30, 20)
    r2 = glorot_uniform(np.random.default_rng(42), 30, 20)
    bound = np.sqrt(6.0 / 50)
    assert np.all(np.abs(r1.data) <= bound)
    assert np.array_equal(r1.data, r2.data)


# Model.named_parameters() keys, in order: they name every checkpoint entry
# and fix the summation order of the gradient-clip norm. Each is the
# parameter's attribute path; K groups stack into one tensor per role.
DEFAULT_NAMES = [
    "interaction.w_h", "interaction.w_c", "interaction.proj.w", "interaction.proj.b",
    "interaction.lstm.wx", "interaction.lstm.wh", "interaction.lstm.b",
    "captioner.img_proj.w", "captioner.img_proj.b",
    "captioner.attn_lstm.wx", "captioner.attn_lstm.wh", "captioner.attn_lstm.b",
    "captioner.temporal_w_h", "captioner.temporal_w_c", "captioner.temporal_w_a",
    "captioner.embed",
    "captioner.lang_lstm.wx", "captioner.lang_lstm.wh", "captioner.lang_lstm.b",
    "captioner.out_w", "captioner.out_b",
]
NO_IMAGE_NAMES = [name for name in DEFAULT_NAMES if not name.startswith("captioner.img_proj.")]


@dataclass
class _Leaf:
    w: Tensor
    b: Tensor


@dataclass
class _Tree:
    absent: _Leaf | None
    leaf: _Leaf
    top: Tensor
    count: int = 2
    flag: bool = True


class TestNamedTensors:
    @pytest.mark.parametrize("overrides, names", [
        ({}, DEFAULT_NAMES),
        ({"use_image": False}, NO_IMAGE_NAMES),
        ({"use_objects": False}, DEFAULT_NAMES),
        ({"use_coattention": False}, DEFAULT_NAMES),
        ({"num_groups": 3}, DEFAULT_NAMES),
    ], ids=["default", "no_image", "no_objects", "no_coattention", "three_groups"])
    def test_model_parameter_names_in_order(self, overrides, names):
        model = init_model(ModelConfig(vocab_size=14, **overrides), seed=0)
        assert list(model.named_parameters()) == names

    def test_walks_nested_containers_and_skips_none_counts_and_flags(self):
        leaf = _Leaf(w=Tensor(np.zeros(1)), b=Tensor(np.zeros(2)))
        top = Tensor(np.zeros(5))
        named = named_tensors(_Tree(absent=None, leaf=leaf, top=top), "root.")
        assert list(named) == ["root.leaf.w", "root.leaf.b", "root.top"]
        assert all(a is b for a, b in zip(named.values(), [leaf.w, leaf.b, top], strict=True))
        assert list(named_tensors(leaf)) == ["w", "b"]
