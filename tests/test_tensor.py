import math

import numpy as np
import pytest

from objcap.tensor import (
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

from helpers import FD_TOL, max_fd_error


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestMatmul:
    def test_identity(self):
        a = t(np.eye(2))
        b = t([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_dot_product(self):
        a = t([[1.0, 2.0]])
        b = t([[3.0], [4.0]])
        assert matmul(a, b).data.tolist() == [[11.0]]

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        got = matmul(t(a), t(b)).data
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(t(np.zeros((2, 3))), t(np.zeros((2, 2))))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(5, 6)), rng.normal(size=(6, 3))
        r1 = matmul(t(a), t(b)).data
        r2 = matmul(t(a.copy()), t(b.copy())).data
        assert np.array_equal(r1, r2)

    def test_vector_cases(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(3, 4))
        v = rng.normal(size=4)
        assert np.allclose(matmul(t(m), t(v)).data, m @ v)
        u = rng.normal(size=3)
        assert np.allclose(matmul(t(u), t(m)).data, u @ m)
        assert np.allclose(matmul(t(v), t(v)).data, v @ v)


class TestSoftmax:
    def test_symmetry(self):
        out = softmax(t([0.0, 0.0, 0.0]))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_large_scores_do_not_overflow(self):
        out = softmax(t([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] > 1 - 1e-12 and out.data[1] < 1e-12

    def test_matches_extended_precision_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        hi = np.exp(x.astype(np.longdouble))
        expected = (hi / hi.sum()).astype(np.float64)
        out = softmax(t(x)).data
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = rng.normal(scale=5.0, size=(4, 6))
            out = softmax(t(m), axis=1).data
            assert np.all(out > 0) and np.all(out < 1)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t([[1.0, -2.0], [0.5, 3.0]])
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 2)))

    def test_tanh_at_zero(self):
        x = t(np.zeros(4))
        x.tanh().sum().backward()
        assert np.array_equal(x.grad, np.ones(4))

    def test_non_scalar_rejected(self):
        x = t([1.0, 2.0])
        with pytest.raises(ContractError):
            x.backward()

    def test_second_backward_rejected(self):
        x = t([1.0, 2.0])
        loss = x.sum()
        loss.backward()
        with pytest.raises(ContractError):
            loss.backward()

    def test_fanout_gradients_add(self):
        x = t([1.0, 2.0])
        (x * x).sum().backward()
        assert np.allclose(x.grad, 2 * x.data)

    def test_gradients_accumulate_across_graphs(self):
        x = t([1.0, 2.0])
        x.sum().backward()
        x.sum().backward()
        assert np.array_equal(x.grad, 2 * np.ones(2))


def _fd_case(name, rng):
    """Build (loss_fn, leaves) for one randomized per-op check."""
    if name == "add":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(3, 4)))
        return lambda: (a + b).sum(), [a, b]
    if name == "add_rowvec":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=4))
        return lambda: ((a + b).tanh()).sum(), [a, b]
    if name == "mul":
        a, b = t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 3)))
        return lambda: (a * b).sum(), [a, b]
    if name == "scale":
        a = t(rng.normal(size=4))
        return lambda: (a * 2.5).tanh().sum(), [a]
    if name == "matmul":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 2)))
        return lambda: matmul(a, b).tanh().sum(), [a, b]
    if name == "matvec":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=4))
        return lambda: matmul(a, b).tanh().sum(), [a, b]
    if name == "vecmat":
        a, b = t(rng.normal(size=3)), t(rng.normal(size=(3, 4)))
        return lambda: matmul(a, b).tanh().sum(), [a, b]
    if name == "dot":
        a, b = t(rng.normal(size=4)), t(rng.normal(size=4))
        return lambda: matmul(a, b).tanh(), [a, b]
    if name == "tanh":
        a = t(rng.normal(size=(2, 3)))
        return lambda: a.tanh().sum(), [a]
    if name == "sigmoid":
        a = t(rng.normal(size=6))
        return lambda: a.sigmoid().sum(), [a]
    if name == "softmax":
        a = t(rng.normal(size=(3, 4)))
        w = t(rng.normal(size=(3, 4)), rg=False)
        return lambda: (softmax(a, axis=1) * w).sum(), [a]
    if name == "log_softmax":
        a = t(rng.normal(size=5))
        w = t(rng.normal(size=5), rg=False)
        return lambda: (log_softmax(a) * w).sum(), [a]
    if name == "mean":
        a = t(rng.normal(size=(3, 4)))
        return lambda: (a.mean(axis=0).tanh()).sum() + a.mean(), [a]
    if name == "transpose":
        a = t(rng.normal(size=(2, 5)))
        return lambda: (a.T * a.T).sum(), [a]
    if name == "concat":
        a, b = t(rng.normal(size=3)), t(rng.normal(size=2))
        return lambda: concat([a, b]).tanh().sum(), [a, b]
    if name == "stack_rows":
        a, b = t(rng.normal(size=4)), t(rng.normal(size=4))
        return lambda: stack_rows([a, b]).tanh().sum(), [a, b]
    if name == "take_column":
        a = t(rng.normal(size=(3, 4)))
        return lambda: take_column(a, 1).tanh().sum(), [a]
    if name == "getitem":
        a = t(rng.normal(size=6))
        return lambda: a[1:4].tanh().sum() + a[0].tanh(), [a]
    if name == "getitem_rows":
        a = t(rng.normal(size=(4, 3)))
        return lambda: a[1:3].tanh().sum() + a[0:2].tanh().sum(), [a]
    if name == "getitem_row":
        a = t(rng.normal(size=(3, 4)))
        return lambda: a[2].tanh().sum(), [a]
    if name == "neg":
        a = t(rng.normal(size=4))
        return lambda: (-a).tanh().sum(), [a]
    raise AssertionError(name)


ALL_OPS = [
    "add", "add_rowvec", "mul", "scale", "matmul", "matvec", "vecmat",
    "dot", "tanh", "sigmoid", "softmax", "log_softmax", "mean",
    "transpose", "concat", "stack_rows", "take_column", "getitem",
    "getitem_rows", "getitem_row", "neg",
]


@pytest.mark.parametrize("op", ALL_OPS)
def test_randomized_finite_difference(op):
    rng = np.random.default_rng(hash(op) % 2**32)
    for trial in range(100):
        loss_fn, leaves = _fd_case(op, rng)
        assert max_fd_error(loss_fn, leaves) < FD_TOL, f"{op} trial {trial}"


def test_uniform_log_softmax_value():
    out = log_softmax(t(np.zeros(7)))
    assert np.allclose(out.data, -math.log(7), atol=1e-15)


def test_forward_chains_stay_finite():
    rng = np.random.default_rng(99)
    for _ in range(50):
        a = t(rng.normal(scale=50.0, size=(4, 5)))
        b = t(rng.normal(scale=50.0, size=(5, 3)))
        out = softmax(matmul(a, b).tanh(), axis=1)
        out = matmul(out.T, out).sigmoid().mean(axis=0)
        assert np.all(np.isfinite(out.data))
        total = out.sum()
        total.backward()
        for leaf in (a, b):
            assert leaf.grad is None or np.all(np.isfinite(leaf.grad))
