import math
import re
import zlib

import numpy as np
import pytest

from objcap import tensor
from objcap.tensor import (
    ContractError,
    ShapeError,
    Tensor,
    additive_attention,
    concat,
    gather,
    linear,
    log_softmax,
    lstm_cell,
    masked_softmax,
    matmul,
    pair_attention,
    stack_rows,
    take_column,
    unpack_rows,
)

from helpers import (
    FD_TOL,
    add_op,
    additive_attention_chain,
    matmul_op,
    max_fd_error,
    mul_op,
    pair_attention_chain,
    softmax_op,
    t_times_reference,
    transpose_op,
)


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


class TestMatmul:
    """The two forms: a vector times a matrix, and each row of a batch
    times its own matrix."""

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        v, m = rng.normal(size=(3, 4)), rng.normal(size=(3, 4, 2))
        expected = np.zeros((3, 2))
        for b in range(3):
            for j in range(2):
                for k in range(4):
                    expected[b, j] += v[b, k] * m[b, k, j]
        assert np.max(np.abs(matmul(t(v), t(m)).data - expected)) < 1e-12
        for b in range(3):
            assert np.max(np.abs(matmul(t(v[b]), t(m[b])).data - expected[b])) < 1e-12

    def test_shape_error_names_both_shapes(self):
        # the first three are the matrix@matrix, matrix@vector and
        # vector@vector forms, which are not weights times rows
        for a, b in [((2, 3), (3, 2)), ((2, 3), (3,)), ((3,), (3,)), ((3,), (2, 4)),
                     ((2, 3), (2, 4, 5)), ((2, 3), (3, 3, 5)), ((2, 3, 4), (2, 3, 4, 5))]:
            with pytest.raises(ShapeError, match=re.escape(f"{a} @ {b}")):
                matmul(t(np.zeros(a)), t(np.zeros(b)))

    def test_deterministic_across_runs(self):
        rng = np.random.default_rng(7)
        for a, b in [(rng.normal(size=6), rng.normal(size=(6, 3))),
                     (rng.normal(size=(5, 6)), rng.normal(size=(5, 6, 3)))]:
            r1 = matmul(t(a), t(b)).data
            r2 = matmul(t(a.copy()), t(b.copy())).data
            assert np.array_equal(r1, r2)

    def test_vector_cases(self):
        rng = np.random.default_rng(1)
        u, m = rng.normal(size=3), rng.normal(size=(3, 4))
        assert np.array_equal(matmul(t(u), t(m)).data, u @ m)
        assert np.array_equal(matmul(t(u[None]), t(m[None])).data[0], u @ m)   # batch of one


class TestSoftmax:
    """The masked softmax both attention ops share."""

    def test_symmetry(self):
        out = masked_softmax(np.zeros(3))
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_large_scores_do_not_overflow(self):
        out = masked_softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] > 1 - 1e-12 and out[1] < 1e-12

    def test_matches_extended_precision_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        hi = np.exp(x.astype(np.longdouble))
        expected = (hi / hi.sum()).astype(np.float64)
        out = masked_softmax(x)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            out = masked_softmax(rng.normal(scale=5.0, size=(4, 6)))
            assert np.all(out > 0) and np.all(out < 1)
            assert np.max(np.abs(out.sum(axis=1) - 1.0)) < 1e-12

    def test_masked_entries_are_exactly_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.normal(scale=5.0, size=(3, 4, 5))
            mask = rng.random(size=(3, 4, 5)) < 0.5
            mask[0, 0] = False
            mask[1, 1] = True
            out = masked_softmax(x, mask)
            assert np.all(out[~mask] == 0.0)
            sums = out.sum(axis=-1)[mask.any(axis=-1)]
            assert np.max(np.abs(sums - 1.0)) < 1e-12
            assert np.array_equal(out[1, 1], masked_softmax(x[1, 1]))

    def test_all_masked_row_is_all_zeros(self):
        x = np.random.default_rng(6).normal(size=(2, 4))
        out = masked_softmax(x, np.array([[False] * 4, [True, False, True, False]]))
        assert np.array_equal(out[0], np.zeros(4))
        assert abs(out[1, 0] + out[1, 2] - 1.0) < 1e-15 and out[1, 1] == out[1, 3] == 0.0

    def test_mask_matches_the_valid_entries_alone(self):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=3.0, size=(20, 6))
        mask = rng.random(size=(20, 6)) < 0.7
        out = masked_softmax(x, mask)
        for row, keep, scores in zip(out, mask, x):
            if keep.any():
                alone = masked_softmax(scores[keep])
                assert np.max(np.abs(row[keep] - alone)) < 1e-15

    def test_mask_shape_checked(self):
        with pytest.raises(ShapeError, match="mask shape"):
            masked_softmax(np.zeros((2, 3)), np.ones(3, dtype=bool))


def _attention_case(op, rng, wide=False):
    """Random inputs for one fused attention op: a vector or a batch of 3
    layout, 1 to 4 entries of width 1 to 3 to attend over (``wide``: up to
    15 entries of width 32, the paper's shapes), and a mask or none; a
    batch's mask has an all-masked row. Returns (leaves, mask)."""
    lead = [(), (3,)][rng.integers(2)]
    n, d = (int(rng.integers(1, 16)), 32) if wide else (int(rng.integers(1, 5)),
                                                          int(rng.integers(1, 4)))
    mask = None
    if rng.integers(2):
        mask = rng.random(size=lead + (n,)) < 0.6
        if lead:
            mask[0] = False           # a segment with nothing to attend to
            mask[1, 0] = True
    rows, query = t(rng.normal(size=lead + (n, d))), t(rng.normal(size=lead + (d,)))
    leaves = [rows, query] + ([t(rng.normal(size=d))] if op == "additive" else [])
    return leaves, mask


class TestFusedAttention:
    """Each fused op against the op-by-op chain it replaced."""

    @pytest.mark.parametrize("op", ["pair", "additive"])
    def test_forward_bitwise_and_gradients_match_the_chain(self, op):
        rng = np.random.default_rng(8)
        for trial in range(200):
            leaves, mask = _attention_case(op, rng, wide=trial % 2 == 1)
            w = rng.normal(size=leaves[1].shape if op == "pair" else leaves[0].shape[:-1])
            runs = []
            for fused in (True, False):
                for leaf in leaves:
                    leaf.zero_grad()
                if op == "pair":
                    alpha, out = (pair_attention if fused else pair_attention_chain)(
                        *leaves, mask)
                else:
                    out = (additive_attention if fused else additive_attention_chain)(
                        *leaves, mask)
                    alpha = out.data
                mul_op(out, t(w, rg=False)).sum().backward()
                runs.append((alpha, out.data, [leaf.grad.copy() for leaf in leaves]))
            (a1, o1, g1), (a2, o2, g2) = runs
            assert np.array_equal(a1, a2) and np.array_equal(o1, o2)
            for x, y in zip(g1, g2):
                assert np.max(np.abs(x - y)) <= 1e-12 * max(np.max(np.abs(y)), 1e-300)

    def test_padding_gets_zero_attention_and_no_gradient(self):
        rng = np.random.default_rng(9)
        mask = np.array([[True, False, True, True], [False] * 4])
        rows, query = t(rng.normal(size=(2, 4, 3))), t(rng.normal(size=(2, 3)))
        alpha = additive_attention(rows, query, t(rng.normal(size=3)), mask)
        assert np.all(alpha.data[~mask] == 0.0)
        mul_op(alpha, t(rng.normal(size=(2, 4)), rg=False)).sum().backward()
        assert np.all(rows.grad[~mask] == 0.0) and np.all(query.grad[1] == 0.0)
        rows.zero_grad()
        pairs, pooled = pair_attention(rows, query, mask)
        pair_mask = mask[:, :, None] & mask[:, None, :]
        assert np.all(pairs[~pair_mask] == 0.0) and np.array_equal(pooled.data[1], np.zeros(3))
        mul_op(pooled, t(rng.normal(size=(2, 3)), rg=False)).sum().backward()
        assert np.all(rows.grad[~mask] == 0.0)

    def test_shapes_checked(self):
        z = t(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            pair_attention(z, t(np.zeros(2)))
        with pytest.raises(ContractError):
            pair_attention(t(np.zeros((0, 3))), t(np.zeros(3)))
        with pytest.raises(ShapeError):
            additive_attention(z, t(np.zeros(3)), t(np.zeros(2)))


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
        mul_op(x, x).sum().backward()
        assert np.allclose(x.grad, 2 * x.data)

    def test_gradients_accumulate_across_graphs(self):
        x = t([1.0, 2.0])
        x.sum().backward()
        x.sum().backward()
        assert np.array_equal(x.grad, 2 * np.ones(2))


# The requires-grad rule every op records its node by: per op, the shapes of
# its tensor inputs and a call on tensors of those shapes.
RULE_CASES = {
    "mul": ([(3,)], lambda x: x * 2.0),
    "getitem": ([(2, 3)], lambda x: x[1]),
    "tanh": ([(3,)], lambda x: x.tanh()),
    "sum": ([(2, 3)], lambda x: x.sum(axis=0)),
    "mean": ([(2, 3)], lambda x: x.mean()),
    "matmul": ([(2,), (2, 3)], matmul),
    "linear": ([(2, 3), (4, 3), (4,)], linear),
    "linear_no_bias": ([(2, 3), (4, 3)], linear),
    "pair_attention": ([(3, 2), (2,)], lambda p, u: pair_attention(p, u)[1]),
    "additive_attention": ([(3, 2), (2,), (2,)], additive_attention),
    "log_softmax": ([(4,)], log_softmax),
    "gather": ([(2, 4)], lambda x: gather(x, np.array([1, 3]))),
    "concat": ([(2,), (3,)], lambda a, b: concat([a, b])),
    "stack_rows": ([(3,), (3,)], lambda a, b: stack_rows([a, b])),
    "unpack_rows": ([(2, 3)], lambda x: unpack_rows(x, np.array([True, False, True]))),
    "take_column": ([(3, 4)], lambda m: take_column(m, np.array([0, 2]))),
    "lstm_cell": ([(8, 3), (8, 2), (8,), (3,), (2,), (2,)], lstm_cell),
}


@pytest.mark.parametrize("op", sorted(RULE_CASES))
def test_output_requires_grad_exactly_when_an_input_does(op):
    shapes, call = RULE_CASES[op]
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    arrays = [rng.normal(size=shape) for shape in shapes]
    out = call(*[Tensor(a) for a in arrays])
    assert not out.requires_grad and out._backward is None
    for i in range(len(arrays)):
        inputs = [Tensor(a, requires_grad=j == i) for j, a in enumerate(arrays)]
        out = call(*inputs)
        assert out.requires_grad and out._backward is not None
        (out if out.shape == () else out.sum()).backward()
        assert [x.grad is not None for x in inputs] == [j == i for j in range(len(inputs))]


def _signed_zeros(rng, shape, share=0.2):
    """Normal draws with about ``share`` of the entries set to exact zeros,
    half of them ``-0.0``."""
    x = rng.normal(size=shape)
    u = rng.random(shape)
    x[u < share] = 0.0
    x[u < share / 2] = -0.0
    return x


def _weight_grad_case(op, lead, rng):
    """(forward, leaves) for one weight-gradient case whose inputs have
    ``lead`` as their leading shape: ``()`` is a vector, one row."""
    def draw(*shape, share=0.2):
        return t(_signed_zeros(rng, shape, share))

    if op == "linear":
        leaves = [draw(*lead, 6), draw(3, 6), draw(3)]
        return lambda: linear(*leaves), leaves
    if op == "lstm_cell":
        # h_prev is all zeros in some cases, as on a first step
        h_share = 1.0 if rng.random() < 0.3 else 0.2
        leaves = [draw(16, 5), draw(16, 4), draw(16), draw(*lead, 5),
                  draw(*lead, 4, share=h_share), draw(*lead, 4)]
        return lambda: lstm_cell(*leaves), leaves
    leaves = [draw(6), draw(6, 3)]     # matmul: a vector on the left, one row at any ``lead``
    return lambda: matmul(*leaves), leaves


@pytest.mark.parametrize("op", ["linear", "lstm_cell", "matmul"])
def test_one_row_weight_gradients_keep_their_bits(op, monkeypatch):
    """A one-row ``a.T @ b`` takes ``np.dot``; every gradient must equal the
    one formed with ``@`` from the same factors, zero signs included."""
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    fast = tensor._t_times
    for lead in [(), (1,), (2,), (3,), (32,)] * 10:
        forward, leaves = _weight_grad_case(op, lead, rng)
        upstream = t(_signed_zeros(rng, forward().shape), rg=False)
        grads = []
        for t_times in (fast, t_times_reference):
            monkeypatch.setattr(tensor, "_t_times", t_times)
            for leaf in leaves:
                leaf.zero_grad()
            mul_op(forward(), upstream).sum().backward()
            grads.append([leaf.grad.tobytes() for leaf in leaves])
        assert grads[0] == grads[1], f"{op} rows {lead}"


def _fd_case(name, rng):
    """Build (loss_fn, leaves) for one randomized per-op check."""
    if name == "add":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(3, 4)))
        return lambda: add_op(a, b).sum(), [a, b]
    if name == "add_rowvec":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=4))
        return lambda: add_op(a, b).tanh().sum(), [a, b]
    if name == "scale":
        a = t(rng.normal(size=4))
        return lambda: (a * 2.5).tanh().sum(), [a]
    if name == "matmul":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 2)))
        return lambda: matmul_op(a, b).tanh().sum(), [a, b]
    if name == "matvec":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=4))
        return lambda: matmul_op(a, b).tanh().sum(), [a, b]
    if name == "vecmat":
        a, b = t(rng.normal(size=3)), t(rng.normal(size=(3, 4)))
        return lambda: matmul(a, b).tanh().sum(), [a, b]
    if name == "tanh":
        a = t(rng.normal(size=(2, 3)))
        return lambda: a.tanh().sum(), [a]
    if name == "lstm_cell":
        hs, d = 2, 3
        wx, wh = t(rng.normal(size=(4 * hs, d))), t(rng.normal(size=(4 * hs, hs)))
        # a wide bias puts preactivations past |z| = 30 on both sigmoid branches
        b = t(rng.normal(scale=rng.choice([1.0, 40.0]), size=4 * hs))
        x, h, c = t(rng.normal(size=d)), t(rng.normal(size=hs)), t(rng.normal(size=hs))
        w = t(rng.normal(size=2 * hs), rg=False)
        return lambda: mul_op(lstm_cell(wx, wh, b, x, h, c), w).sum(), [wx, wh, b, x, h, c]
    if name == "log_softmax":
        a = t(rng.normal(size=5))
        w = t(rng.normal(size=5), rg=False)
        return lambda: mul_op(log_softmax(a), w).sum(), [a]
    if name == "mean":
        a = t(rng.normal(size=(3, 4)))
        return lambda: add_op(a.mean(axis=0).tanh().sum(), a.mean()), [a]
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
        return lambda: add_op(a[1:4].tanh().sum(), a[0].tanh()), [a]
    if name == "getitem_rows":
        a = t(rng.normal(size=(4, 3)))
        return lambda: add_op(a[1:3].tanh().sum(), a[0:2].tanh().sum()), [a]
    if name == "getitem_row":
        a = t(rng.normal(size=(3, 4)))
        return lambda: a[2].tanh().sum(), [a]
    # batch axis and masks
    if name == "add_rows_batched":
        a, b = t(rng.normal(size=(2, 3, 4))), t(rng.normal(size=(2, 4)))
        return lambda: add_op(a, b).tanh().sum(), [a, b]
    if name == "vecmat_batched":
        a, b = t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 3, 4)))
        return lambda: matmul(a, b).tanh().sum(), [a, b]
    if name == "linear":
        lead = [(), (3,), (2, 3)][rng.integers(3)]
        x, w = t(rng.normal(size=lead + (4,))), t(rng.normal(size=(2, 4)))
        b = [None, t(rng.normal(size=2)), t(rng.normal(size=lead + (2,)))][rng.integers(3)]
        leaves = [x, w] + ([] if b is None else [b])
        return lambda: linear(x, w, b).tanh().sum(), leaves
    if name == "lstm_cell_rows":
        hs, d, rows = 2, 3, 3
        wx, wh = t(rng.normal(size=(4 * hs, d))), t(rng.normal(size=(4 * hs, hs)))
        b = t(rng.normal(scale=rng.choice([1.0, 40.0]), size=4 * hs))
        x, h = t(rng.normal(size=(rows, d))), t(rng.normal(size=(rows, hs)))
        c = t(rng.normal(size=(rows, hs)))
        w = t(rng.normal(size=(rows, 2 * hs)), rg=False)
        return lambda: mul_op(lstm_cell(wx, wh, b, x, h, c), w).sum(), [wx, wh, b, x, h, c]
    if name == "log_softmax_rows":
        a = t(rng.normal(size=(2, 3, 5)))
        w = t(rng.normal(size=(2, 3, 5)), rg=False)
        return lambda: mul_op(log_softmax(a), w).sum(), [a]
    if name == "gather":
        a = t(rng.normal(size=(2, 3, 5)))
        index = rng.integers(0, 5, size=(2, 3))
        mask = rng.random(size=(2, 3)) < 0.7
        return lambda: gather(log_softmax(a), index, mask).sum(), [a]
    if name == "take_columns":
        a = t(rng.normal(size=(3, 5)))
        ids = rng.integers(0, 5, size=[(4,), (2, 3)][rng.integers(2)])   # ids may repeat
        return lambda: take_column(a, ids).tanh().sum(), [a]
    if name == "unpack_rows":
        mask = rng.random(size=(2, 3)) < 0.5
        a = t(rng.normal(size=(int(mask.sum()), 3)))
        w = t(rng.normal(size=(2, 3, 3)), rg=False)
        return lambda: mul_op(unpack_rows(a, mask).tanh(), w).sum(), [a]
    if name == "sum_axis":
        a, axis = t(rng.normal(size=(2, 3, 4))), int(rng.integers(-3, 3))
        return lambda: a.sum(axis=axis).tanh().sum(), [a]
    if name == "mean_axis":
        a = t(rng.normal(size=(2, 3, 4)))
        return lambda: a.mean(axis=-2).tanh().sum(), [a]
    if name == "concat_rows":
        a, b = t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 2)))
        return lambda: concat([a, b]).tanh().sum(), [a, b]
    if name == "stack_rows_batched":
        a, b = t(rng.normal(size=(2, 4))), t(rng.normal(size=(2, 4)))
        w = t(rng.normal(size=(2, 2, 4)), rg=False)
        return lambda: mul_op(stack_rows([a, b]), w).sum(), [a, b]
    if name == "getitem_tuple":
        a = t(rng.normal(size=(2, 3, 4)))
        return lambda: add_op(add_op(a[..., 1, :].tanh().sum(), a[..., 0:2].tanh().sum()),
                              a[None, 1].tanh().sum()), [a]
    # the reference ops the attention chains in helpers.py are built from:
    # the fused ops' gradients are held to those chains, so each is checked
    # (add, add_rowvec, add_rows_batched, matmul and matvec above check
    # helpers.add_op and helpers.matmul_op too)
    if name == "mul":
        a, b = t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 3)))
        return lambda: mul_op(a, b).sum(), [a, b]
    if name == "softmax":
        a = t(rng.normal(size=(3, 4)))
        w = t(rng.normal(size=(3, 4)), rg=False)
        return lambda: mul_op(softmax_op(a), w).sum(), [a]
    if name == "softmax_masked":
        a = t(rng.normal(size=(2, 3, 4)))
        mask = rng.random(size=(2, 3, 4)) < 0.6
        mask[0, 1] = False                      # a row with no valid entry
        w = t(rng.normal(size=(2, 3, 4)), rg=False)
        return lambda: mul_op(softmax_op(a, mask), w).sum(), [a]
    if name == "transpose":
        a = t(rng.normal(size=(2, 5)))
        return lambda: mul_op(transpose_op(a), transpose_op(a)).sum(), [a]
    if name == "transpose_batched":
        a = t(rng.normal(size=(2, 3, 4)))
        w = t(rng.normal(size=(2, 4, 3)), rg=False)
        return lambda: mul_op(transpose_op(a), w).sum(), [a]
    if name == "matmul_batched":
        a, b = t(rng.normal(size=(2, 3, 4))), t(rng.normal(size=(2, 4, 2)))
        return lambda: matmul_op(a, b).tanh().sum(), [a, b]
    if name == "matvec_batched":
        a, b = t(rng.normal(size=(2, 3, 4))), t(rng.normal(size=4))
        return lambda: matmul_op(a, b).tanh().sum(), [a, b]
    if name in ("pair_attention", "additive_attention"):
        leaves, mask = _attention_case(name.split("_")[0], rng)
        if name == "pair_attention":
            w = t(rng.normal(size=leaves[1].shape), rg=False)
            return lambda: mul_op(pair_attention(*leaves, mask)[1], w).sum(), leaves
        w = t(rng.normal(size=leaves[0].shape[:-1]), rg=False)
        return lambda: mul_op(additive_attention(*leaves, mask), w).sum(), leaves
    raise AssertionError(name)


ALL_OPS = [
    "add", "add_rowvec", "scale", "matmul", "matvec", "vecmat",
    "tanh", "lstm_cell", "log_softmax", "mean",
    "concat", "stack_rows", "take_column", "getitem",
    "getitem_rows", "getitem_row",
    "add_rows_batched", "vecmat_batched", "linear",
    "lstm_cell_rows", "log_softmax_rows", "gather", "take_columns",
    "unpack_rows", "sum_axis", "mean_axis", "concat_rows",
    "stack_rows_batched", "getitem_tuple", "pair_attention", "additive_attention",
    "mul", "softmax", "softmax_masked", "transpose", "transpose_batched",
    "matmul_batched", "matvec_batched",
]


@pytest.mark.parametrize("op", ALL_OPS)
def test_randomized_finite_difference(op):
    rng = np.random.default_rng(zlib.crc32(op.encode()))
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
        b = t(rng.normal(scale=50.0, size=5))
        _, pooled = pair_attention(a, b)
        out = matmul(additive_attention(a, pooled, b), a).tanh()
        assert np.all(np.isfinite(out.data))
        total = out.sum()
        total.backward()
        for leaf in (a, b):
            assert leaf.grad is None or np.all(np.isfinite(leaf.grad))
