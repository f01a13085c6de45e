import math
import re
import weakref
import zlib

import numpy as np
import pytest

from objcap import tensor
from objcap.tensor import (
    ContractError,
    ShapeError,
    Tensor,
    linear,
    linear_tanh,
    log_softmax,
    lstm_cell,
    masked_softmax,
    matmul,
    no_tape,
    pair_attention,
    span_sums,
    stack_rows,
    take_column,
    target_log_probs,
    word_step,
)

from helpers import (
    FD_TOL,
    add_op,
    additive_attention_chain,
    additive_attention_op,
    concat_op,
    gather_op,
    linear_tanh_reference,
    lstm_cell_reference,
    matmul_op,
    matmul_reference,
    max_fd_error,
    mul_op,
    nodes_recorded,
    pair_attention_chain,
    pair_attention_placed,
    place_rows_reference,
    sigmoid_reference,
    softmax_op,
    t_times_reference,
    tanh_op,
    target_log_probs_chain,
    transpose_op,
)


def t(data, rg=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def hc(pair):
    """``lstm_cell``'s two outputs as one node ``[h; c]``, so a check weights
    both."""
    return concat_op(list(pair))


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

    def test_gradients_equal_the_former_backward(self):
        """One one-row product serves a vector and a batch; the vector form
        was ``v @ m``, and its weight gradient a one-row ``a.T @ g``, and a
        batch's weight gradient was a one-term matrix product. Both ranks,
        300 seeded cases, signed zeros among the inputs (a zero's sign may
        differ)."""
        rng = np.random.default_rng(11)
        for case in range(300):
            lead = [(), (1,), (int(rng.integers(2, 33)),)][case % 3]
            n, d = int(rng.integers(1, 16)), int(rng.integers(1, 33))
            a_data, b_data = _signed_zeros(rng, lead + (n,)), _signed_zeros(rng, lead + (n, d))
            upstream = t(_signed_zeros(rng, lead + (d,)), rg=False)
            results = []
            for op in (matmul, matmul_reference):
                a, b = t(a_data), t(b_data)
                out = op(a, b)
                mul_op(out, upstream).sum().backward()
                results.append((out.data, a.grad, b.grad))
            for got, want in zip(*results):
                assert np.array_equal(got, want), f"case {case}"

    def test_one_row_product_equals_the_vector_product(self):
        """A vector times a matrix, formed as a one-row matrix product,
        equals ``v @ m`` byte for byte, on a contiguous and on a transposed
        matrix, at the paper's widths and past them."""
        rng = np.random.default_rng(12)
        for n in (1, 2, 5, 15, 30, 200):
            for d in (1, 2, 3, 6, 32, 100, 512, 1000):
                v, w, m = rng.normal(size=n), rng.normal(size=d), rng.normal(size=(n, d))
                assert tensor._rows_times(v, m).tobytes() == (v @ m).tobytes(), (n, d)
                assert tensor._rows_times(w, m.T).tobytes() == (w @ m.T).tobytes(), (n, d)


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


def _attention_case(op, rng, wide=False, groups=None, extra_rows=0):
    """Random inputs for one fused attention op: a vector or a batch of 3
    layout, 1 to 4 entries of width 1 to 3 to attend over (``wide``: up to
    15 entries of width 32, the paper's shapes), and a mask or none; a
    batch's mask has an all-masked row. ``groups`` widens the entries to
    that many groups side by side; ``extra_rows`` makes a batch's query
    that many rows longer (always a batch then). The pair op gathers its
    entries from packed rows through a shuffled index, which may leave a
    row out, and takes only a batch: its vector layout is a batch of one,
    drawn from the same values. Returns (leaves, mask, index); the
    additive op has no index."""
    lead = (3,) if extra_rows else [(), (3,)][rng.integers(2)]
    n, d = (int(rng.integers(1, 16)), 32) if wide else (int(rng.integers(1, 5)),
                                                          int(rng.integers(1, 4)))
    d *= groups or 1
    mask = None
    if rng.integers(2):
        mask = rng.random(size=lead + (n,)) < 0.6
        if lead:
            mask[0] = False           # a segment with nothing to attend to
            mask[1, 0] = True
    index = None
    if op == "pair":
        lead = lead or (1,)
        mask = None if mask is None else mask.reshape(lead + (n,))
        count = n * lead[0]
        rows = t(rng.normal(size=(count + int(rng.integers(2)), d)))
        index = rng.permutation(rows.shape[0])[:count].reshape(lead + (n,))
    else:
        rows = t(rng.normal(size=lead + (n, d)))
    query = t(rng.normal(size=(lead[0] + extra_rows,) + (d,) if lead else (d,)))
    leaves = [rows, query] + ([t(rng.normal(size=d))] if op == "additive" else [])
    return leaves, mask, index


def _placed(rows, index, mask):
    """The frame's rows laid out as the former ``place_rows`` did."""
    return place_rows_reference(rows, index if mask is None else index[mask], mask)


def word_shapes(lead=(), n=3, image=True, objects=True):
    """The shapes of ``word_states``' inputs: a vector step (``lead`` ())
    or a batch's, over ``n`` frames, with hidden widths 2 and 3, and every
    other width 2."""
    h1, h2, w = 2, 3, 2
    return ([(4 * h1, h2 + 2 * w), (4 * h1, h1), (4 * h1,),
             (4 * h2, h1 + w * (image + objects)), (4 * h2, h2), (4 * h2,), (w, h1), (w,),
             lead + (w,), lead + (w,), lead + (n, w)] + [lead + (n, w)] * (image + objects)
            + [lead + (h1,), lead + (h1,), lead + (h2,), lead + (h2,)])


def word_states(x, image=True, objects=True, mask=None, coattention=True):
    """``word_step`` over its tensor inputs ``x`` in its order: the two
    LSTMs' three weights each, w_h, w_a, the embedding, pooled, keys, then
    frames and states when ``image`` and ``objects`` are set, then h1, c1,
    h2, c2. Returns alpha and the four new states end to end, one node."""
    x = list(x)
    frames = x.pop(11) if image else None
    states = x.pop(11) if objects else None
    alpha, *out = word_step(x[0:3], x[3:6], *x[6:11], frames, states, x[11:15], mask,
                            coattention)
    return alpha, concat_op(out)


class TestFusedAttention:
    """Each fused op against the op-by-op chain it replaced."""

    @pytest.mark.parametrize("op", ["pair", "additive"])
    def test_forward_bitwise_and_gradients_match_the_chain(self, op):
        rng = np.random.default_rng(8)
        for trial in range(200):
            leaves, mask, index = _attention_case(op, rng, wide=trial % 2 == 1)
            w = rng.normal(size=leaves[1].shape if op == "pair" else leaves[0].shape[:-1])
            runs = []
            for fused in (True, False):
                for leaf in leaves:
                    leaf.zero_grad()
                if op == "pair":
                    rows, query = leaves
                    if fused:
                        alpha, out = pair_attention(rows, index, query, mask, 1)
                        alpha = alpha[:, 0]
                    else:
                        alpha, out = pair_attention_chain(_placed(rows, index, mask), query, mask)
                else:
                    out = (additive_attention_op if fused else additive_attention_chain)(
                        *leaves, mask)
                    alpha = out.data
                mul_op(out, t(w, rg=False)).sum().backward()
                runs.append((alpha, out.data, [leaf.grad.copy() for leaf in leaves]))
            (a1, o1, g1), (a2, o2, g2) = runs
            assert np.array_equal(a1, a2) and np.array_equal(o1, o2)
            for x, y in zip(g1, g2):
                assert np.max(np.abs(x - y)) <= 1e-12 * max(np.max(np.abs(y)), 1e-300)

    def test_groups_equal_one_call_per_group(self):
        """Groups side by side, stacked on a batch axis inside the op, give
        each group's attention, pooled vector and gradients exactly as a
        call on that group's columns alone; the wide half of the trials has
        the paper's shapes (n up to 15, d = 32)."""
        rng = np.random.default_rng(10)
        for trial in range(200):
            groups = int(rng.integers(1, 4))
            leaves, mask, index = _attention_case("pair", rng, wide=trial % 2 == 1,
                                                  groups=groups)
            w = rng.normal(size=leaves[1].shape)
            alpha, out = pair_attention(leaves[0], index, leaves[1], mask, groups)
            mul_op(out, t(w, rg=False)).sum().backward()
            d = leaves[1].shape[-1] // groups
            for k in range(groups):
                cols = slice(k * d, (k + 1) * d)
                alone = [t(np.ascontiguousarray(leaf.data[..., cols])) for leaf in leaves]
                alpha_k, out_k = pair_attention(alone[0], index, alone[1], mask, 1)
                mul_op(out_k, t(np.ascontiguousarray(w[..., cols]), rg=False)).sum().backward()
                assert np.array_equal(alpha[:, k], alpha_k[:, 0])
                assert np.array_equal(out.data[..., cols], out_k.data)
                for leaf, leaf_k in zip(leaves, alone):
                    assert np.array_equal(leaf.grad[..., cols], leaf_k.grad)

    def test_padding_gets_zero_attention_and_no_gradient(self):
        """A padded entry gets zero weight and no gradient; a padded
        position's index is not read, here one past the last row. The
        decoder's frame attention is ``word_step``'s: a padded frame's key,
        frame and state get no gradient."""
        rng = np.random.default_rng(9)
        mask = np.array([[True, False, True, True], [False] * 4])
        x = [t(rng.normal(size=shape)) for shape in word_shapes((2,), 4)]
        alpha, out = word_states(x, mask=mask)
        assert np.all(alpha[~mask] == 0.0)
        mul_op(out, t(rng.normal(size=out.shape), rg=False)).sum().backward()
        for frame_rows in x[10:13]:     # keys, frames, states
            assert np.all(frame_rows.grad[~mask] == 0.0)
        rows, query = t(rng.normal(size=(2, 4, 3))), t(rng.normal(size=(2, 3)))
        packed, index = t(rows.data.reshape(8, 3)), np.arange(8).reshape(2, 4)
        pairs, pooled = pair_attention(packed, np.where(mask, index, 8), query, mask, 1)
        pair_mask = mask[:, :, None] & mask[:, None, :]
        assert np.all(pairs[:, 0][~pair_mask] == 0.0) and np.array_equal(pooled.data[1], np.zeros(3))
        mul_op(pooled, t(rng.normal(size=(2, 3)), rg=False)).sum().backward()
        assert np.all(packed.grad[index[~mask]] == 0.0)

    def test_gather_form_equals_gather_then_call(self):
        """The op gathers the frame's rows itself and forms them and
        ``x = p + u`` again in its backward. Its alpha, pooled vector and
        every gradient equal the former path, ``place_rows`` then the
        former op over the placed copy, bit for bit: a batch of one and of
        three, masked and not, one group and two, and a ``u`` longer than
        the batch; half the trials at the paper's shapes."""
        rng = np.random.default_rng(15)
        cases = [(batch, masked, groups, extra) for batch in (1, 3) for masked in (False, True)
                 for groups in (1, 2) for extra in (0, 2)]
        for trial in range(20):
            for batch, masked, groups, extra in cases:
                n, d = (int(rng.integers(1, 16)), 32) if trial % 2 else (int(rng.integers(1, 5)),
                                                                          int(rng.integers(1, 4)))
                width = d * groups
                rows = t(rng.normal(size=(n * batch + int(rng.integers(3)), width)))
                index = rng.permutation(rows.shape[0])[:n * batch].reshape(batch, n)
                mask = None
                if masked:
                    mask = rng.random(size=index.shape) < 0.6
                    mask[..., 0] = True
                    if batch > 1:
                        mask[1] = False
                u = t(rng.normal(size=(batch + extra, width)))
                w = t(rng.normal(size=(batch, width)), rg=False)
                runs = []
                for gather in (True, False):
                    rows.zero_grad()
                    u.zero_grad()
                    alpha, out = (pair_attention(rows, index, u, mask, groups) if gather else
                                  pair_attention_placed(_placed(rows, index, mask), u, mask,
                                                        groups))
                    mul_op(out, w).sum().backward()
                    runs.append([alpha, out.data, rows.grad, u.grad])
                for new, old in zip(*runs):
                    assert np.array_equal(new, old), (batch, masked, groups, extra)

    def test_shapes_checked(self):
        z, two, one = t(np.zeros((2, 3))), np.array([[1, 0]]), t(np.zeros((1, 3)))
        for rows, index, u, mask, groups in [
                (z, two, t(np.zeros((1, 2))), None, 1),          # bias width
                (t(np.zeros((1, 2, 3))), two, one, None, 1),     # rows not a matrix
                (z, np.array([[1.0, 0.0]]), one, None, 1),       # index not ints
                (z, np.array(1), one, None, 1),                  # index a scalar
                (z, np.array([1, 0]), t(np.zeros(3)), None, 1),  # the former one-frame form
                (z, np.array([1, 0]), one, None, 1),             # index a vector
                (z, two, one, np.array([[True]]), 1),            # mask shape
                (z, two, t(np.zeros(3)), None, 1),               # bias rank
                (z, np.array([[1, 0], [0, 1]]), one, None, 1),   # too few biases
                (z, two, one, None, 2),                          # groups split no width
                (z, two, one, None, 0)]:                         # no group
            with pytest.raises(ShapeError):
                pair_attention(rows, index, u, mask, groups)
        with pytest.raises(ContractError):
            pair_attention(t(np.zeros((0, 3))), np.zeros((1, 0), dtype=int), one, None, 1)
        good = word_shapes((2,), 3)
        for at, shape in [(10, (2, 3, 3)),      # keys wider than w_h's rows
                          (8, (3, 2)),          # an embedding row too many
                          (12, (2, 4, 2)),      # states for a frame too many
                          (13, (2, 2, 2)),      # h1 not a row per batch row
                          (16, (2, 2)),         # c2 narrower than h2
                          (3, (12, 5))]:        # language LSTM too narrow for its input
            x = [t(np.zeros(at_shape)) for at_shape in good]
            x[at] = t(np.zeros(shape))
            with pytest.raises(ShapeError, match="word_step"):
                word_states(x)
        with pytest.raises(ShapeError, match="word_step"):
            word_states([t(np.zeros(shape)) for shape in good], mask=np.ones((2, 4), dtype=bool))
        with pytest.raises(ShapeError, match="word_step"):      # sized for the frames left out
            word_states([t(np.zeros(shape)) for k, shape in enumerate(good) if k != 11],
                        image=False)


class TestPlaceRows:
    """The placement the former ``place_rows`` did, now inside
    ``pair_attention``: the frame's rows in index order, a zero row at each
    padded position, whose index is never read."""

    def test_places_rows_in_mask_order_over_zeros(self):
        rows = t(np.arange(12.0).reshape(4, 3))
        mask = np.array([[True, False], [False, True], [True, False]])
        index = np.array([[3, 1], [1, 0], [2, 1]])      # padded positions name row 1
        placed = t([[9, 10, 11], [0, 0, 0], [0, 0, 0], [0, 1, 2], [6, 7, 8], [0, 0, 0]])
        rng = np.random.default_rng(12)
        u, w = t(rng.normal(size=(3, 3)), rg=False), t(rng.normal(size=(3, 3)), rg=False)
        runs = []
        for source, at in ((rows, index), (placed, np.arange(6).reshape(3, 2))):
            alpha, out = pair_attention(source, at, u, mask, 1)
            mul_op(out, w).sum().backward()
            runs.append((alpha, out.data))
        for new, old in zip(*runs):
            assert np.array_equal(new, old)
        assert np.array_equal(rows.grad[[3, 0, 2]], placed.grad[[0, 3, 4]])
        assert np.all(rows.grad[1] == 0.0) and np.all(placed.grad[[1, 2, 5]] == 0.0)
        u = t(rng.normal(size=(1, 3)), rg=False)
        alpha, out = pair_attention(rows, np.array([[3, 0]]), u, None, 1)
        alpha_taken, out_taken = pair_attention(t(rows.data[[3, 0]]), np.array([[0, 1]]), u,
                                                None, 1)
        assert np.array_equal(alpha, alpha_taken) and np.array_equal(out.data, out_taken.data)

    def test_shapes_checked(self):
        rows, mask, u = t(np.zeros((3, 2))), np.array([[True, True]]), t(np.zeros((1, 2)))
        with pytest.raises(ShapeError):
            pair_attention(rows, np.array([[0]]), u, mask, 1)        # fewer entries than the mask
        with pytest.raises(ShapeError):
            pair_attention(rows, np.array([[0, 1, 2]]), u, mask, 1)  # more
        with pytest.raises(ShapeError):
            pair_attention(t(np.zeros(3)), np.array([[0, 1]]), u, None, 1)  # rows not a matrix


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t([[1.0, -2.0], [0.5, 3.0]])
        x.sum().backward()
        assert np.array_equal(x.grad, np.ones((2, 2)))

    def test_tanh_at_zero(self):
        x = t(np.zeros(4))
        tanh_op(x).sum().backward()
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

    def test_backward_frees_the_spent_graph(self):
        x = t(np.arange(3.0))
        hidden = tanh_op(x)
        alive = weakref.ref(hidden)
        loss = mul_op(hidden, hidden).sum()
        del hidden
        assert alive() is not None
        loss.backward()
        assert alive() is None and loss._prev == ()
        assert loss.item() == float(np.sum(np.tanh(np.arange(3.0)) ** 2))


class TestLstmCell:
    def test_sigmoid_keeps_its_bits(self):
        """The gates read the sigmoid with one division; they equal the
        former split with a division on each branch, bit for bit, on random
        preactivations, signed zeros and both ends of exp's range."""
        rng = np.random.default_rng(12)
        hs = 8
        edge = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308, 708.0, -709.0])
        zeros = lambda *shape: t(np.zeros(shape), rg=False)    # noqa: E731
        for trial in range(150):
            z = rng.normal(scale=[1.0, 40.0, 1e3][trial % 3], size=4 * hs)
            z[:edge.size] = rng.permutation(edge)
            c_prev = rng.normal(size=hs)
            # with zero weights the preactivations are the bias itself
            h, c = lstm_cell(zeros(4 * hs, 5), zeros(4 * hs, hs), t(z), zeros(5), zeros(hs),
                             t(c_prev, rg=False))
            s = sigmoid_reference(z)
            c_ref = s[hs:2 * hs] * c_prev + s[:hs] * np.tanh(z[2 * hs:3 * hs])
            assert c.data.tobytes() == c_ref.tobytes(), f"trial {trial}"
            assert h.data.tobytes() == (s[3 * hs:] * np.tanh(c_ref)).tobytes(), f"trial {trial}"
        z = np.concatenate([edge, rng.normal(scale=300.0, size=10_000)])
        e = np.exp(-np.abs(z))
        assert (np.where(z >= 0, 1.0, e) / (1.0 + e)).tobytes() == sigmoid_reference(z).tobytes()

    def test_either_output_alone_backpropagates(self):
        rng = np.random.default_rng(13)
        leaves = [t(rng.normal(size=shape)) for shape in
                  [(8, 3), (8, 2), (8,), (3,), (2,), (2,)]]
        for pick in (0, 1):
            loss = lambda: tanh_op(lstm_cell(*leaves)[pick]).sum()    # noqa: E731
            assert max_fd_error(loss, leaves) < FD_TOL


    def test_carried_rows_pass_through(self):
        """With fewer rows of x than of the state, the first rows step as
        a call on those rows alone does, bit for bit, and the others carry
        their state and its gradient unchanged."""
        rng = np.random.default_rng(14)
        for live in (1, 2, 3):
            w = [t(rng.normal(size=shape)) for shape in [(8, 3), (8, 2), (8,)]]
            x, h, c = t(rng.normal(size=(live, 3))), t(rng.normal(size=(4, 2))), \
                t(rng.normal(size=(4, 2)))
            up = rng.normal(size=(4, 4))
            h_out, c_out = lstm_cell(*w, x, h, c)
            mul_op(hc((h_out, c_out)), t(up, rg=False)).sum().backward()
            first = [t(h.data[:live]), t(c.data[:live])]
            h_1, c_1 = lstm_cell(*w, t(x.data), *first)
            mul_op(hc((h_1, c_1)), t(up[:live], rg=False)).sum().backward()
            assert np.array_equal(h_out.data[:live], h_1.data)
            assert np.array_equal(c_out.data[:live], c_1.data)
            assert np.array_equal(h_out.data[live:], h.data[live:])
            assert np.array_equal(c_out.data[live:], c.data[live:])
            assert np.array_equal(h.grad[:live], first[0].grad)
            assert np.array_equal(c.grad[:live], first[1].grad)
            assert np.array_equal(h.grad[live:], up[live:, :2])
            assert np.array_equal(c.grad[live:], up[live:, 2:])


def test_concat_shapes_checked():
    for parts in [[(2, 3), (3, 3)], [(3,), (2, 3)], [(), ()]]:
        with pytest.raises(ShapeError, match="concat over the last axis"):
            concat_op([t(np.zeros(shape)) for shape in parts])


def test_row_takes_one_row_at_any_rank():
    rng = np.random.default_rng(13)
    for shape in [(3, 4), (2, 3, 4)]:
        x = rng.normal(size=shape)
        assert np.array_equal(t(x).row(2).data, x[..., 2, :])
    for shape, i in [((3, 4), 3), ((2, 3, 4), -1), ((4,), 0)]:
        with pytest.raises(ShapeError, match=re.escape(f"row {i} out of range")):
            t(np.zeros(shape)).row(i)


# The requires-grad rule every op records its node by: per op, the shapes of
# its tensor inputs and a call on tensors of those shapes.
RULE_CASES = {
    "mul": ([(3,)], lambda x: x * 2.0),
    "row": ([(2, 3)], lambda x: x.row(1)),
    "sum": ([(2, 3)], lambda x: x.sum()),
    "mean": ([(2, 3)], lambda x: x.mean(axis=0)),
    "matmul": ([(2,), (2, 3)], matmul),
    "linear": ([(2, 3), (4, 3), (4,)], linear),
    "linear_no_bias": ([(2, 3), (4, 3)], linear),
    "linear_tanh": ([(2, 3), (4, 3), (4,)], linear_tanh),
    "pair_attention": ([(3, 2), (1, 2)],
                       lambda p, u: pair_attention(p, np.array([[2, 0]]), u, None, 1)[1]),
    "additive_attention": ([(3, 2), (2,), (2,)], additive_attention_op),
    "log_softmax": ([(4,)], log_softmax),
    "target_log_probs": ([(2, 3), (4, 3), (4,)],
                         lambda x, w, b: target_log_probs(x, w, b, np.array([1, 3]))),
    "concat": ([(2,), (3,)], lambda a, b: concat_op([a, b])),
    "stack_rows": ([(3,), (3,)], lambda a, b: stack_rows([a, b])),
    "span_sums": ([(5,)], lambda x: span_sums(x, np.array([2, 3]))),
    "place_rows": ([(3, 3), (1, 3)], lambda p, u: pair_attention(
        p, np.array([[2, 1, 0]]), u, np.array([[True, False, True]]), 1)[1]),
    "take_column": ([(3, 4)], lambda m: take_column(m, np.array([0, 2]))),
    "lstm_cell": ([(8, 3), (8, 2), (8,), (3,), (2,), (2,)], lambda *a: hc(lstm_cell(*a))),
    "word_step": (word_shapes(), lambda *x: word_states(x)[1]),
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


@pytest.mark.parametrize("op", sorted(RULE_CASES))
def test_no_tape_records_no_node_and_keeps_the_value(op):
    """Under ``no_tape`` an op whose inputs all require a gradient records
    no node, its own or an inner one (``lstm_cell``'s ``h`` and ``c``): the
    output has no inputs, no closure and no gradient to ask for, and its
    bits are the taped output's. ``backward()`` on it raises."""
    shapes, call = RULE_CASES[op]
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    arrays = [rng.normal(size=shape) for shape in shapes]
    taped = call(*[t(a) for a in arrays])
    with no_tape(), nodes_recorded() as nodes:
        out = call(*[t(a) for a in arrays])
    assert nodes == [0]
    assert out._prev == () and out._backward is None and not out.requires_grad
    assert out.data.tobytes() == taped.data.tobytes()
    with pytest.raises(ContractError, match="detached from the tape"):
        (out if out.shape == () else out.sum()).backward()


def test_no_tape_gives_back_the_callers_mode():
    """After a nested block, after an exception and after a decorated call,
    taping is back as it was."""
    x = t([1.0, -2.0])

    def taping():
        return (x * 2.0).requires_grad

    @no_tape()
    def failing():
        assert not taping()
        raise RuntimeError("inside")

    with no_tape():
        with no_tape():
            assert not taping()
        assert not taping()     # the inner block puts back the outer one's mode
    assert taping()
    with pytest.raises(RuntimeError, match="inside"):
        with no_tape():
            raise RuntimeError("inside")
    assert taping()
    with pytest.raises(RuntimeError, match="inside"):
        failing()
    assert taping()
    with no_tape():
        with pytest.raises(RuntimeError, match="inside"):
            failing()
        assert not taping()
    assert taping()


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
    # lstm_cell: h_prev is all zeros in some cases, as on a first step
    h_share = 1.0 if rng.random() < 0.3 else 0.2
    leaves = [draw(16, 5), draw(16, 4), draw(16), draw(*lead, 5),
              draw(*lead, 4, share=h_share), draw(*lead, 4)]
    return lambda: hc(lstm_cell(*leaves)), leaves


@pytest.mark.parametrize("op", ["linear", "lstm_cell"])
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


def test_linear_tanh_equals_linear_then_tanh():
    """The fused node keeps only its output; its value and every gradient
    equal ``linear`` then tanh as two nodes, bit for bit, zero signs
    included: a vector, one row, rows and a batch of them, with a bias of
    outputs or of the output's shape."""
    rng = np.random.default_rng(16)
    for lead in [(), (1,), (3,), (32,), (2, 3)] * 4:
        for full_bias in (False, True):
            leaves = [t(_signed_zeros(rng, lead + (6,))), t(_signed_zeros(rng, (5, 6))),
                      t(_signed_zeros(rng, lead + (5,) if full_bias else (5,)))]
            up = t(_signed_zeros(rng, lead + (5,)), rg=False)
            runs = []
            for fused in (True, False):
                for leaf in leaves:
                    leaf.zero_grad()
                out = linear_tanh(*leaves) if fused else tanh_op(linear(*leaves))
                mul_op(out, up).sum().backward()
                runs.append([out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves])
            assert runs[0] == runs[1], (lead, full_bias)


def _grad_bytes(out, leaves, up):
    """The bytes of ``out`` and of every leaf's gradient after a backward
    that weights ``out`` with the array ``up``."""
    for leaf in leaves:
        leaf.zero_grad()
    mul_op(out, t(up, rg=False)).sum().backward()
    return [out.data.tobytes()] + [leaf.grad.tobytes() for leaf in leaves]


def test_target_log_probs_equals_the_three_node_chain():
    """The word loss as one node equals ``linear``, ``log_softmax`` and
    ``gather`` as three, bit for bit, in value and every gradient, zero
    signs included: one vector, S = 1, rows and a batch of them, targets
    in the first and last columns among others."""
    rng = np.random.default_rng(20)
    for trial in range(40):
        lead = [(), (1,), (7,), (3, 4)][trial % 4]
        vocab = [1, 2, 9, 504][trial // 4 % 4]
        leaves = [t(_signed_zeros(rng, lead + (6,))), t(_signed_zeros(rng, (vocab, 6))),
                  t(_signed_zeros(rng, (vocab,)))]
        targets = rng.integers(0, vocab, size=lead)
        targets.reshape(-1)[:2] = [0, vocab - 1][:targets.size]
        up = _signed_zeros(rng, lead, share=0.4)
        runs = [_grad_bytes(op(*leaves, targets), leaves, up)
                for op in (target_log_probs, target_log_probs_chain)]
        assert runs[0] == runs[1], (lead, vocab)


def test_target_log_probs_checks_its_targets():
    x, w, b = t(np.zeros((2, 3))), t(np.zeros((4, 3))), t(np.zeros(4))
    for targets in [np.array([1]), np.array([[1, 2]]), np.array([0.0, 1.0])]:
        with pytest.raises(ShapeError, match="target_log_probs targets"):
            target_log_probs(x, w, b, targets)
    for targets in [np.array([0, 4]), np.array([-1, 0])]:
        with pytest.raises(ShapeError, match="out of range"):
            target_log_probs(x, w, b, targets)


def test_take_column_checks_its_ids():
    """Ids below 0 or past the last column raise, at every int width and at
    the extremes of int64 (the check casts ids to uint64, where a negative
    id wraps past any column count); ids in range, unsigned ids and no ids
    at all pass."""
    m = t(np.arange(12.0).reshape(3, 4))
    for ids in [4, -1, np.array([0, 4]), np.array([[2], [-1]]), np.array([-1], dtype=np.int8),
                np.array([-4], dtype=np.int32), np.array([np.iinfo(np.int64).min]),
                np.array([np.iinfo(np.int64).max]), np.array([4], dtype=np.uint16)]:
        with pytest.raises(ShapeError, match="out of range"):
            take_column(m, ids)
    with pytest.raises(ShapeError, match="an int or an array of ints"):
        take_column(m, np.array([1.0]))
    for ids in [0, 3, np.array([3, 0, 3]), np.array([[1], [2]], dtype=np.uint8),
                np.zeros((2, 0), dtype=int)]:
        assert np.array_equal(take_column(m, ids).data, m.data.T[np.asarray(ids)])


def test_linear_tanh_slope_in_blocks_keeps_its_bits():
    """The slope formed a block of rows at a time in the node's own
    gradient equals the former one-array form, bit for bit, in value and
    every gradient: at rank 3 and at row counts around the block size and
    at the paper's 6335 object rows."""
    rng = np.random.default_rng(21)
    block = tensor._SLOPE_ROWS
    for lead in [(1,), (block - 1,), (block,), (block + 1,), (6335,), (3, 5), (2, 700)]:
        leaves = [t(_signed_zeros(rng, lead + (4,))), t(_signed_zeros(rng, (6, 4))),
                  t(_signed_zeros(rng, (6,)))]
        up = _signed_zeros(rng, lead + (6,))
        runs = [_grad_bytes(op(*leaves), leaves, up)
                for op in (linear_tanh, linear_tanh_reference)]
        assert runs[0] == runs[1], lead


def test_lstm_cell_equals_its_former_form():
    """Keeping the candidate's tanh in the gate array and forming tanh(c)
    again in backward leaves every value and gradient as the former form
    gave them, bit for bit: a vector, rows, rows with some carried, and
    with ``h`` off the loss's graph."""
    rng = np.random.default_rng(22)
    hs, d = 3, 4
    for trial in range(60):
        rows = [None, 1, 5, 5][trial % 4]
        live = int(rng.integers(1, rows)) if trial % 4 == 3 else rows    # the others carry
        lead, x_lead = (() if rows is None else (rows,)), (() if rows is None else (live,))
        leaves = [t(_signed_zeros(rng, (4 * hs, d))), t(_signed_zeros(rng, (4 * hs, hs))),
                  t(rng.normal(scale=[1.0, 40.0][trial % 2], size=4 * hs)),
                  t(_signed_zeros(rng, x_lead + (d,))), t(_signed_zeros(rng, lead + (hs,))),
                  t(_signed_zeros(rng, lead + (hs,)))]
        c_only = trial % 5 == 0
        up = _signed_zeros(rng, lead + ((hs,) if c_only else (2 * hs,)))
        runs = []
        for op in (lstm_cell, lstm_cell_reference):
            h, c = op(*leaves)
            runs.append([h.data.tobytes()] + _grad_bytes(c if c_only else hc((h, c)), leaves, up))
        assert runs[0] == runs[1], (rows, live, c_only)


def test_node_gradients_are_owned_arrays():
    """Every node's gradient, when its backward runs, is a C-ordered array
    of its own, no view of another array (or none yet): ``linear_tanh``'s
    backward writes into it. Checked over a training graph with every op of a
    batch, and over a caption's graph alone."""
    from objcap.captioner import BOS_ID, EOS_ID, forward_teacher_forced
    from objcap.data import SegmentFeatures
    from objcap.model import ModelConfig, batch_nll, init_model, segment_context

    rng = np.random.default_rng(23)
    m = init_model(ModelConfig(vocab_size=9, image_dim=4, object_dim=5, attn_dim=3,
                               interaction_hidden=4, img_proj_dim=3, embed_dim=3,
                               attn_hidden=4, lang_hidden=4), seed=3)
    items = [(SegmentFeatures(segment_id=f"s{i}", image_feats=rng.normal(size=(len(n), 4)),
                              object_feats=[rng.normal(size=(k, 5)) for k in n],
                              captions=["unused"]), [BOS_ID, *words, EOS_ID])
             for i, (n, words) in enumerate([([2, 3], [4, 5]), ([3, 0, 1], [6]),
                                             ([1], [7, 8, 4])])]
    seg, caption = items[0]
    ctx, _ = segment_context(m, seg.image_feats, seg.object_feats)
    checked = []
    for loss in (batch_nll(m, items)[0].sum(),
                 forward_teacher_forced(m.captioner, ctx, caption).loss):
        seen, todo = set(), [loss]
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            todo.extend(node._prev)
            if node._backward is not None:
                def owned(out, backward=node._backward):
                    grad = out.grad     # None for an lstm_cell's c off the loss's graph
                    assert grad is None or grad.base is None and grad.flags.c_contiguous \
                        and grad.flags.owndata, backward.__qualname__
                    checked.append(backward.__qualname__.split(".")[0])
                    backward(out)
                node._backward = owned
        loss.backward()
    assert {"linear_tanh", "target_log_probs", "lstm_cell", "pair_attention"} <= set(checked)


def _fd_case(name, rng):
    """Build (loss_fn, leaves) for one randomized per-op check."""
    if name == "add":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(3, 4)))
        return lambda: add_op(a, b).sum(), [a, b]
    if name == "add_rowvec":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=4))
        return lambda: tanh_op(add_op(a, b)).sum(), [a, b]
    if name == "scale":
        a = t(rng.normal(size=4))
        return lambda: tanh_op(a * 2.5).sum(), [a]
    if name == "matmul":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=(4, 2)))
        return lambda: tanh_op(matmul_op(a, b)).sum(), [a, b]
    if name == "matvec":
        a, b = t(rng.normal(size=(3, 4))), t(rng.normal(size=4))
        return lambda: tanh_op(matmul_op(a, b)).sum(), [a, b]
    if name == "vecmat":
        a, b = t(rng.normal(size=3)), t(rng.normal(size=(3, 4)))
        return lambda: tanh_op(matmul(a, b)).sum(), [a, b]
    if name == "tanh":
        a = t(rng.normal(size=(2, 3)))
        return lambda: tanh_op(a).sum(), [a]
    if name == "lstm_cell":
        hs, d = 2, 3
        wx, wh = t(rng.normal(size=(4 * hs, d))), t(rng.normal(size=(4 * hs, hs)))
        # a wide bias puts preactivations past |z| = 30 on both sigmoid branches
        b = t(rng.normal(scale=rng.choice([1.0, 40.0]), size=4 * hs))
        x, h, c = t(rng.normal(size=d)), t(rng.normal(size=hs)), t(rng.normal(size=hs))
        w = t(rng.normal(size=2 * hs), rg=False)
        return lambda: mul_op(hc(lstm_cell(wx, wh, b, x, h, c)), w).sum(), [wx, wh, b, x, h, c]
    if name == "log_softmax":
        a = t(rng.normal(size=5))
        w = t(rng.normal(size=5), rg=False)
        return lambda: mul_op(log_softmax(a), w).sum(), [a]
    if name == "mean":
        a = t(rng.normal(size=(3, 4)))
        return lambda: add_op(tanh_op(a.mean(axis=0)).sum(), tanh_op(a.mean(axis=1)).sum()), [a]
    if name == "concat":
        a, b = t(rng.normal(size=3)), t(rng.normal(size=2))
        return lambda: tanh_op(concat_op([a, b])).sum(), [a, b]
    if name == "stack_rows":
        a, b = t(rng.normal(size=4)), t(rng.normal(size=4))
        return lambda: tanh_op(stack_rows([a, b])).sum(), [a, b]
    if name == "take_column":
        a = t(rng.normal(size=(3, 4)))
        return lambda: tanh_op(take_column(a, 1)).sum(), [a]
    # batch axis and masks
    if name == "add_rows_batched":
        a, b = t(rng.normal(size=(2, 3, 4))), t(rng.normal(size=(2, 4)))
        return lambda: tanh_op(add_op(a, b)).sum(), [a, b]
    if name == "vecmat_batched":
        a, b = t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 3, 4)))
        return lambda: tanh_op(matmul(a, b)).sum(), [a, b]
    if name == "linear":
        lead = [(), (3,), (2, 3)][rng.integers(3)]
        x, w = t(rng.normal(size=lead + (4,))), t(rng.normal(size=(2, 4)))
        b = [None, t(rng.normal(size=2)), t(rng.normal(size=lead + (2,)))][rng.integers(3)]
        leaves = [x, w] + ([] if b is None else [b])
        return lambda: tanh_op(linear(x, w, b)).sum(), leaves
    if name == "linear_tanh":
        lead = [(), (3,), (2, 3)][rng.integers(3)]
        x, w = t(rng.normal(size=lead + (4,))), t(rng.normal(size=(2, 4)))
        b = [t(rng.normal(size=2)), t(rng.normal(size=lead + (2,)))][rng.integers(2)]
        up = t(rng.normal(size=lead + (2,)), rg=False)
        return lambda: mul_op(linear_tanh(x, w, b), up).sum(), [x, w, b]
    if name == "lstm_cell_rows":
        hs, d, rows = 2, 3, 3
        wx, wh = t(rng.normal(size=(4 * hs, d))), t(rng.normal(size=(4 * hs, hs)))
        b = t(rng.normal(scale=rng.choice([1.0, 40.0]), size=4 * hs))
        x, h = t(rng.normal(size=(rows, d))), t(rng.normal(size=(rows, hs)))
        c = t(rng.normal(size=(rows, hs)))
        w = t(rng.normal(size=(rows, 2 * hs)), rg=False)
        return lambda: mul_op(hc(lstm_cell(wx, wh, b, x, h, c)), w).sum(), [wx, wh, b, x, h, c]
    if name == "log_softmax_rows":
        a = t(rng.normal(size=(2, 3, 5)))
        w = t(rng.normal(size=(2, 3, 5)), rg=False)
        return lambda: mul_op(log_softmax(a), w).sum(), [a]
    if name == "gather":
        a = t(rng.normal(size=(2, 3, 5)))
        index = rng.integers(0, 5, size=(2, 3))
        return lambda: gather_op(log_softmax(a), index).sum(), [a]
    if name == "target_log_probs":
        lead = [(), (1,), (3,), (2, 3)][rng.integers(4)]
        x, w = t(rng.normal(size=lead + (4,))), t(rng.normal(size=(5, 4)))
        b = t(rng.normal(size=5))
        targets = rng.integers(0, 5, size=lead)
        up = t(rng.normal(size=lead), rg=False)
        return lambda: mul_op(target_log_probs(x, w, b, targets), up).sum(), [x, w, b]
    if name == "take_columns":
        a = t(rng.normal(size=(3, 5)))
        ids = rng.integers(0, 5, size=[(4,), (2, 3)][rng.integers(2)])   # ids may repeat
        return lambda: tanh_op(take_column(a, ids)).sum(), [a]
    if name == "lstm_cell_carried":
        hs, d, rows = 2, 3, int(rng.integers(2, 5))
        live = int(rng.integers(1, rows))               # the rows after it carry
        wx, wh = t(rng.normal(size=(4 * hs, d))), t(rng.normal(size=(4 * hs, hs)))
        b = t(rng.normal(scale=rng.choice([1.0, 40.0]), size=4 * hs))
        x, h = t(rng.normal(size=(live, d))), t(rng.normal(size=(rows, hs)))
        c = t(rng.normal(size=(rows, hs)))
        w = t(rng.normal(size=(rows, 2 * hs)), rg=False)
        return lambda: mul_op(hc(lstm_cell(wx, wh, b, x, h, c)), w).sum(), [wx, wh, b, x, h, c]
    if name == "stack_rows_at":
        lead = [(), (3,)][rng.integers(2)]
        a, b = t(rng.normal(size=lead + (4,))), t(rng.normal(size=lead + (4,)))
        at = rng.permutation(2 * (lead or (1,))[0])[:int(rng.integers(1, 2 * (lead or (1,))[0]))]
        w = t(rng.normal(size=(at.size, 4)), rg=False)
        return lambda: mul_op(stack_rows([a, b], at), w).sum(), [a, b]
    if name == "span_sums":
        lengths = rng.integers(1, 4, size=int(rng.integers(1, 4)))
        a = t(rng.normal(size=int(lengths.sum())))
        w = t(rng.normal(size=lengths.size), rg=False)
        return lambda: mul_op(span_sums(tanh_op(a), lengths), w).sum(), [a]
    if name == "mean_axis":
        a = t(rng.normal(size=(2, 3, 4)))
        return lambda: tanh_op(a.mean(axis=-2)).sum(), [a]
    if name == "concat_rows":
        a, b = t(rng.normal(size=(2, 3))), t(rng.normal(size=(2, 2)))
        return lambda: tanh_op(concat_op([a, b])).sum(), [a, b]
    if name == "stack_rows_batched":
        a, b = t(rng.normal(size=(2, 4))), t(rng.normal(size=(2, 4)))
        w = t(rng.normal(size=(2, 2, 4)), rg=False)
        return lambda: mul_op(stack_rows([a, b]), w).sum(), [a, b]
    if name == "row":
        a = t(rng.normal(size=[(3, 4), (2, 3, 4)][rng.integers(2)]))
        return lambda: add_op(tanh_op(a.row(1)).sum(), tanh_op(a.row(2)).sum()), [a]
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
        return lambda: tanh_op(matmul_op(a, b)).sum(), [a, b]
    if name == "matvec_batched":
        a, b = t(rng.normal(size=(2, 3, 4))), t(rng.normal(size=4))
        return lambda: tanh_op(matmul_op(a, b)).sum(), [a, b]
    if name in ("pair_attention_groups", "pair_attention_longer_u"):
        groups = int(rng.integers(2, 4)) if name.endswith("groups") else 1
        leaves, mask, index = _attention_case("pair", rng, groups=groups,
                                              extra_rows=int(name.endswith("longer_u")))
        rows, query = leaves
        w = t(rng.normal(size=index.shape[:-1] + rows.shape[-1:]), rg=False)
        return lambda: mul_op(pair_attention(rows, index, query, mask, groups)[1],
                              w).sum(), leaves
    if name == "place_rows":
        # the rows alone, through a masked index whose padded positions name
        # a row no real entry takes: that row's gradient must stay zero
        lead = [(1,), (3,)][rng.integers(2)]
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        count = n * lead[0]
        rows = t(rng.normal(size=(count + int(rng.integers(1, 3)), d)))
        order = rng.permutation(rows.shape[0])
        mask = rng.random(size=lead + (n,)) < 0.6
        mask[..., 0] = True
        index = np.where(mask, order[:count].reshape(lead + (n,)), order[count])
        u, w = t(rng.normal(size=lead + (d,)), rg=False), t(rng.normal(size=lead + (d,)), rg=False)
        return lambda: mul_op(pair_attention(rows, index, u, mask, 1)[1], w).sum(), [rows]
    if name in ("pair_attention", "additive_attention"):
        leaves, mask, index = _attention_case(name.split("_")[0], rng)
        if name == "pair_attention":
            rows, query = leaves
            w = t(rng.normal(size=query.shape), rg=False)
            return lambda: mul_op(pair_attention(rows, index, query, mask, 1)[1],
                                  w).sum(), leaves
        w = t(rng.normal(size=leaves[0].shape[:-1]), rg=False)
        return lambda: mul_op(additive_attention_op(*leaves, mask), w).sum(), leaves
    if name == "word_step":
        # a vector or a batch of 2 over 1 to 3 frames, masked or not, with
        # either pathway left out or the states' plain mean
        lead, n = [(), (2,)][rng.integers(2)], int(rng.integers(1, 4))
        image, objects = [(True, True), (False, True), (True, False)][rng.integers(3)]
        coattention = bool(rng.integers(2))
        mask = None
        if lead and rng.integers(2):
            mask = rng.random(size=lead + (n,)) < 0.6
            mask[:, 0] = True
        leaves = [t(rng.normal(size=shape)) for shape in word_shapes(lead, n, image, objects)]
        w = t(rng.normal(size=lead + (10,)), rg=False)
        return lambda: mul_op(word_states(leaves, image, objects, mask, coattention)[1],
                              w).sum(), leaves
    raise AssertionError(name)


ALL_OPS = [
    "add", "add_rowvec", "scale", "matmul", "matvec", "vecmat",
    "tanh", "lstm_cell", "log_softmax", "mean",
    "concat", "stack_rows", "take_column",
    "add_rows_batched", "vecmat_batched", "linear", "linear_tanh",
    "lstm_cell_rows", "log_softmax_rows", "gather", "take_columns",
    "place_rows", "mean_axis", "concat_rows",
    "stack_rows_batched", "row", "pair_attention", "additive_attention",
    "mul", "softmax", "softmax_masked", "transpose", "transpose_batched",
    "matmul_batched", "matvec_batched",
    "lstm_cell_carried", "pair_attention_groups", "pair_attention_longer_u",
    "stack_rows_at", "span_sums", "target_log_probs", "word_step",
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
    """The interaction's pooled vector feeds the decoder's word step, every
    input at scale 50: values and gradients stay finite."""
    rng = np.random.default_rng(99)
    for _ in range(50):
        a = t(rng.normal(scale=50.0, size=(4, 2)))
        b = t(rng.normal(scale=50.0, size=(1, 2)))
        _, pooled = pair_attention(a, np.arange(4)[None], b, None, 1)
        x = [t(rng.normal(scale=50.0, size=shape)) for shape in word_shapes((1,), 4)]
        alpha, out = word_states(x[:9] + [pooled] + x[10:])
        out = tanh_op(out)
        assert np.all(np.isfinite(alpha)) and np.all(np.isfinite(out.data))
        total = out.sum()
        total.backward()
        for leaf in (a, b, *x):
            assert leaf.grad is None or np.all(np.isfinite(leaf.grad))
