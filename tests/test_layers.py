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
)
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
        p = MlpParams(
            layers=[(Tensor(np.zeros((4, 3)), requires_grad=True),
                     Tensor(np.zeros(4), requires_grad=True))],
        )
        out = mlp_forward(p, Tensor(np.ones(3)))
        assert np.array_equal(out.data, np.zeros(4))

    def test_two_layer_matches_scalar_oracle(self):
        rng = np.random.default_rng(5)
        p = init_mlp(rng, [4, 5, 3])
        x = rng.normal(size=4)
        expected = scalar_mlp(
            [(w.data.tolist(), b.data.tolist()) for w, b in p.layers], x.tolist())
        out = mlp_forward(p, Tensor(x))
        assert np.max(np.abs(out.data - np.array(expected))) < 1e-12

    def test_matrix_input_applies_row_wise(self):
        rng = np.random.default_rng(6)
        p = init_mlp(rng, [3, 4])
        m = rng.normal(size=(5, 3))
        out = mlp_forward(p, Tensor(m))
        for i in range(5):
            row = mlp_forward(p, Tensor(m[i]))
            assert np.max(np.abs(out.data[i] - row.data)) < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(8)
        p = init_mlp(rng, [3, 4, 2])
        x = Tensor(rng.normal(size=(4, 3)) + 0.2, requires_grad=True)
        leaves = [x] + [t for w_b in p.layers for t in w_b]

        def loss_fn():
            return mlp_forward(p, x).sum()

        assert max_fd_error(loss_fn, leaves) < FD_TOL

    def test_bad_chaining_rejected(self):
        w1 = Tensor(np.zeros((4, 3)), requires_grad=True)
        b1 = Tensor(np.zeros(4), requires_grad=True)
        w2 = Tensor(np.zeros((2, 5)), requires_grad=True)
        b2 = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ShapeError):
            MlpParams(layers=[(w1, b1), (w2, b2)])

    def test_input_width_mismatch(self):
        p = init_mlp(np.random.default_rng(0), [3, 2])
        with pytest.raises(ShapeError):
            mlp_forward(p, Tensor(np.zeros(4)))


def test_glorot_bound_and_determinism():
    r1 = glorot_uniform(np.random.default_rng(42), 30, 20)
    r2 = glorot_uniform(np.random.default_rng(42), 30, 20)
    bound = np.sqrt(6.0 / 50)
    assert np.all(np.abs(r1.data) <= bound)
    assert np.array_equal(r1.data, r2.data)
