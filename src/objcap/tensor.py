"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records a backward closure on its output node. Calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates gradients additively, so a value consumed several times receives
the sum of all its downstream contributions. A closure takes its node as an
argument instead of closing over it, so the tape holds no reference cycles
and a graph is freed as soon as its last reference goes.

Batch axis: the ops that take vectors also take a batch of them, one per
row of a matrix, and the ops that take matrices also take a batch of them
along a leading axis. A segment alone runs the same code as a batch, without
the leading axis. ``pair_attention``, ``additive_attention`` and ``gather``
take a mask for padded entries.

Tape policy: each forward pass builds a fresh graph, every op recording its
node through ``_record``, which marks it as requiring a gradient when any
input does and only then attaches the backward closure. ``backward()`` runs
once per graph root and raises on a second call. It frees the graph as it
walks it: once a node has passed its gradient on, it drops its closure, its
gradient and its links to its inputs, so a spent node lives only as long as
the caller holds it, and the root keeps only its value. Leaf gradients
persist until ``zero_grad()``.
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager

import numpy as np


@contextmanager
def collector_paused():
    """Disable Python's cyclic garbage collector while the body runs, then
    put back the caller's setting, also on an exception.

    Safe around tape work because the tape holds no reference cycles:
    reference counting frees every spent graph. It pays because every node
    an op records counts toward the next collection, so with the collector
    on a training run collects every few ops and walks the young graph (a
    few thousand tracked objects at batch 32) each time for nothing: 1.8%
    of desk-scale batch-1 training time, measured. Also usable as a
    function decorator.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ContractError(ValueError):
    """An operation was called outside its documented contract."""


class Tensor:
    """A dense float64 array plus its place in the gradient tape.

    ``data`` is always a C-contiguous float64 ndarray; scalar results use
    shape ``()``. ``grad`` stays ``None`` until a backward pass touches the
    node.
    """

    __slots__ = ("data", "requires_grad", "grad", "_prev", "_backward", "_backward_done",
                 "__weakref__")

    def __init__(self, data, requires_grad: bool = False, _prev: tuple = ()):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags.c_contiguous:  # ascontiguousarray would distort 0-d
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._prev = _prev
        self._backward = None
        self._backward_done = False

    # -- bookkeeping -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single value, got shape {self.shape}")
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        """Add ``g`` (this tensor's shape) to the gradient; the first one is
        stored as a C-ordered copy, since ``g`` may be a view of another
        array or a ``broadcast_to``."""
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate gradients of all tape ancestors of this scalar."""
        if self.data.shape != ():
            raise ContractError(f"backward() requires a scalar loss, got shape {self.shape}")
        if not self.requires_grad:
            raise ContractError("backward() on a tensor detached from the tape")
        if self._backward_done:
            raise ContractError("backward() already ran on this graph root")
        self._backward_done = True

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for child in node._prev:
                if id(child) not in visited:
                    stack.append((child, False))

        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node)
                node._backward = None  # release closures, graph is spent
                node.grad = None       # passed on to the inputs; free it now
            node._prev = ()            # the last reference to a spent input goes

    def _check_axis(self, axis: int | None, op: str) -> None:
        rank = len(self.shape)
        if axis is not None and not -rank <= axis < rank:
            raise ShapeError(f"{op} over axis {axis} unsupported for shape {self.shape}")

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: float) -> "Tensor":
        """Scale by a number."""
        if not isinstance(other, (int, float)):
            raise TypeError("mul expects a float")
        s = float(other)

        def _backward(out):
            self._accumulate(out.grad * s)

        return _record(self.data * s, (self,), _backward)

    def row(self, i: int) -> "Tensor":
        """Row ``i`` of a matrix, or of each matrix of a batch: ``x[..., i, :]``."""
        if len(self.shape) < 2 or not 0 <= i < self.shape[-2]:
            raise ShapeError(f"row {i} out of range for shape {self.shape}")

        def _backward(out):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[..., i, :] += out.grad

        return _record(self.data[..., i, :], (self,), _backward)

    # -- activations -------------------------------------------------------

    def tanh(self) -> "Tensor":
        def _backward(out):
            self._accumulate((1.0 - out.data * out.data) * out.grad)

        return _record(np.tanh(self.data), (self,), _backward)

    # -- reductions & layout -----------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        """Sum of every entry, or along one axis."""
        self._check_axis(axis, "sum")

        def _backward(out):
            g = out.grad if axis is None else np.expand_dims(out.grad, axis)
            self._accumulate(np.broadcast_to(g, self.shape))

        return _record(self.data.sum(axis=axis), (self,), _backward)

    def mean(self, axis: int) -> "Tensor":
        """Mean along one axis."""
        self._check_axis(axis, "mean")
        n = self.shape[axis]

        def _backward(out):
            self._accumulate(np.broadcast_to(np.expand_dims(out.grad / n, axis), self.shape))

        return _record(self.data.mean(axis=axis), (self,), _backward)


def _record(data, inputs: tuple, backward) -> Tensor:
    """An op's output node over ``inputs``: it requires a gradient when any
    input does, and only then carries ``backward``, called with the node."""
    out = Tensor(data, _prev=inputs)
    for t in inputs:
        if t.requires_grad:
            out.requires_grad, out._backward = True, backward
            break
    return out


# -- binary / n-ary operations ----------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Weights times rows: a vector (n) times a matrix (n x d), or each row
    of a (B x n) times its own matrix of b (B x n x d)."""
    if len(a.shape) not in (1, 2) or a.shape != b.shape[:-1]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")

    def _backward(out):
        g = out.grad[..., None, :]      # each row of the product as a one-row matrix
        if a.requires_grad:
            a._accumulate((g @ np.swapaxes(b.data, -1, -2))[..., 0, :])
        if b.requires_grad:
            b._accumulate(a.data[..., :, None] * g)

    return _record(_rows_times(a.data, b.data), (a, b), _backward)


def _t_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a.T @ b`` for two matrices with equal row counts. With one row it
    is an outer product: ``@`` forms that in numpy's own loop, several
    times slower than ``np.dot`` through BLAS, and each entry is a single
    product either way, so the bits are the same. With two or more rows
    ``@`` calls BLAS itself and stays; ``np.dot`` was slower there on the
    widest weights."""
    return np.dot(a.T, b) if a.shape[0] == 1 else a.T @ b


def _rows_times(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Each row of ``v`` (n, or B x n) times its own matrix of ``m`` (n x d,
    or B x n x d), as a one-row matrix product."""
    return (v[..., None, :] @ m)[..., 0, :]


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w.T + b`` over the last axis of ``x``: ``w`` is out x in, one
    row per output. ``b`` is a vector of outputs or has the output's shape."""
    if len(w.shape) != 2 or len(x.shape) < 1 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear shape mismatch: {x.shape} @ {w.shape}.T")
    out_data = x.data @ w.data.T
    if b is not None:
        if b.shape != out_data.shape and b.shape != (w.shape[0],):
            raise ShapeError(f"linear bias shape {b.shape} for output {out_data.shape}")
        out_data += b.data

    def _backward(out):
        g = out.grad
        rows = g.reshape(-1, w.shape[0])
        if x.requires_grad:
            x._accumulate(g @ w.data)
        if w.requires_grad:
            w._accumulate(_t_times(rows, x.data.reshape(-1, w.shape[1])))
        if b is not None and b.requires_grad:
            b._accumulate(g if b.shape == g.shape else rows.sum(axis=0))

    return _record(out_data, (x, w) if b is None else (x, w, b), _backward)


def masked_softmax(x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Exponentials normalized along the last axis, shifted by each row's
    maximum so large scores cannot overflow.

    Where ``mask`` (x's shape) is False the result is exactly 0.0; a row
    with no True entry is all zeros.
    """
    if mask is None:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)
    if mask.shape != x.shape:
        raise ShapeError(f"softmax mask shape {mask.shape} for scores {x.shape}")
    kept = np.where(mask, x, -np.inf)
    top = kept.max(axis=-1, keepdims=True)
    e = np.exp(kept - np.where(np.isneginf(top), 0.0, top))   # exp(-inf) == 0.0
    total = e.sum(axis=-1, keepdims=True)
    return e / np.where(total > 0.0, total, 1.0)


def pair_attention(projected: Tensor, u: Tensor,
                   mask: np.ndarray | None = None) -> tuple[np.ndarray, Tensor]:
    """Pairwise self-attention over object rows, pooled, as one node.

    ``projected`` is n x d (or B x n x d) and ``u`` one bias of width d (or
    one per batch row). With ``x = projected + u`` on every row, ``alpha =
    softmax(x @ x.T / sqrt(d))`` row by row and the result is the mean over
    rows of ``alpha @ projected``, taken as (mean of alpha's rows) @
    projected. ``mask`` (n, or B x n) marks the real rows: a padded row or
    column gets exactly zero attention, the mean runs over the real rows
    only, and a batch row without one pools to zeros.

    Returns ``alpha``, an array off the tape, and the pooled vector (d, or B
    x d). The forward repeats the op-by-op chain's numpy operations in order,
    the transpose as a contiguous copy, so it is the same bit for bit.
    """
    p_shape = projected.shape
    if len(p_shape) not in (2, 3) or u.shape != p_shape[:-2] + p_shape[-1:]:
        raise ShapeError(f"pair_attention shape mismatch: rows {p_shape}, bias {u.shape}")
    if p_shape[-2] < 1:
        raise ContractError("pair_attention needs at least one object row")
    p = projected.data
    x = p + u.data[..., None, :]
    scale = 1.0 / math.sqrt(p_shape[-1])
    scores = (x @ np.ascontiguousarray(np.swapaxes(x, -1, -2))) * scale
    if mask is None:
        alpha, weights = masked_softmax(scores), None
        mean = alpha.mean(axis=-2)
    else:
        alpha = masked_softmax(scores, mask[..., :, None] & mask[..., None, :])
        weights = mask / np.maximum(mask.sum(axis=-1, keepdims=True), 1)
        mean = _rows_times(weights, alpha)

    def _backward(out):
        g = out.grad
        g_mean = _rows_times(g, np.swapaxes(p, -1, -2))
        g_alpha = (np.broadcast_to(g_mean[..., None, :] / p_shape[-2], alpha.shape)
                   if weights is None else weights[..., :, None] * g_mean[..., None, :])
        g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(axis=-1, keepdims=True)) * scale
        g_x = (g_scores + np.swapaxes(g_scores, -1, -2)) @ x     # x feeds both sides of x @ x.T
        if projected.requires_grad:
            projected._accumulate(g_x + mean[..., :, None] * g[..., None, :])
        if u.requires_grad:
            u._accumulate(g_x.sum(axis=-2))

    return alpha, _record(_rows_times(mean, p), (projected, u), _backward)


def additive_attention(keys: Tensor, query: Tensor, w_a: Tensor,
                       mask: np.ndarray | None = None) -> Tensor:
    """``softmax(tanh(keys + query) @ w_a)`` as one node: a distribution
    over the T rows of ``keys`` (T x A, or B x T x A with one query row per
    batch row), scored against ``query`` (A, or B x A) through ``w_a`` (A).

    Where ``mask`` (T, or B x T) is False the weight is exactly 0.0 and
    passes no gradient. The forward repeats the op-by-op chain's numpy
    operations in its order, so the result is the same bit for bit.
    """
    k_shape = keys.shape
    if (len(k_shape) not in (2, 3) or query.shape != k_shape[:-2] + k_shape[-1:]
            or w_a.shape != k_shape[-1:]):
        raise ShapeError(f"additive_attention shape mismatch: keys {k_shape}, "
                         f"query {query.shape}, w_a {w_a.shape}")
    hidden = np.tanh(keys.data + query.data[..., None, :])
    alpha = masked_softmax(hidden @ w_a.data, mask)

    def _backward(out):
        g = out.grad
        g_scores = alpha * (g - (g * alpha).sum(axis=-1, keepdims=True))
        g_z = (1.0 - hidden * hidden) * (g_scores[..., None] * w_a.data)
        if keys.requires_grad:
            keys._accumulate(g_z)
        if query.requires_grad:
            query._accumulate(g_z.sum(axis=-2))
        if w_a.requires_grad:
            w_a._accumulate(g_scores.reshape(-1) @ hidden.reshape(-1, k_shape[-1]))

    return _record(alpha, (keys, query, w_a), _backward)


def log_softmax(x: Tensor) -> Tensor:
    """Log of softmax over a vector, or over each row along the last axis,
    computed with the max-shift trick."""
    if len(x.shape) < 1:
        raise ShapeError(f"log_softmax needs a vector, got shape {x.shape}")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def _backward(out):
        g = out.grad
        x._accumulate(g - np.exp(out.data) * g.sum(axis=-1, keepdims=True))

    return _record(shifted - lse, (x,), _backward)


def gather(x: Tensor, index, mask: np.ndarray | None = None) -> Tensor:
    """One entry of each vector along the last axis: ``x[..., index]``, with
    ``index`` shaped like ``x`` without its last axis. Where ``mask`` is
    False the result is 0.0 and passes no gradient."""
    index = np.asarray(index)
    if len(x.shape) < 1 or index.shape != x.shape[:-1] \
            or not np.issubdtype(index.dtype, np.integer):
        raise ShapeError(f"gather index shape {index.shape} for shape {x.shape}")
    if mask is not None and mask.shape != index.shape:
        raise ShapeError(f"gather mask shape {mask.shape} for index shape {index.shape}")
    if np.any((index < 0) | (index >= x.shape[-1])):
        raise ShapeError(f"gather index out of range for shape {x.shape}")
    at = index[..., None]
    picked = np.take_along_axis(x.data, at, axis=-1)[..., 0]
    if mask is not None:
        picked = np.where(mask, picked, 0.0)

    def _backward(out):
        g = out.grad if mask is None else np.where(mask, out.grad, 0.0)
        grad = np.zeros_like(x.data)
        np.put_along_axis(grad, at, g[..., None], axis=-1)
        x._accumulate(grad)

    return _record(picked, (x,), _backward)


def concat(parts: list[Tensor]) -> Tensor:
    """Join vectors end to end; for batches of vectors, row by row."""
    if not parts:
        raise ContractError("concat of an empty list")
    datas = [p.data for p in parts]
    lead = datas[0].shape[:-1]
    for d in datas:
        if d.ndim < 1 or d.shape[:-1] != lead:
            raise ShapeError(f"concat needs vectors with equal leading axes, got shape {d.shape}")

    def _backward(out):
        off = 0
        for p in parts:
            n = p.shape[-1]
            if p.requires_grad:
                p._accumulate(out.grad[..., off:off + n])
            off += n

    return _record(np.concatenate(datas, axis=-1), tuple(parts), _backward)


def stack_rows(rows: list[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one vector per row; stack
    batches of vectors (B x D each) into B x n x D."""
    if not rows:
        raise ContractError("stack_rows of an empty list")
    shape = rows[0].shape
    for r in rows:
        if len(r.shape) < 1 or r.shape != shape:
            raise ShapeError(f"stack_rows needs equal-length vectors, got {r.shape} vs {shape}")

    def _backward(out):
        for i, r in enumerate(rows):
            if r.requires_grad:
                r._accumulate(out.grad[..., i, :])

    return _record(np.stack([r.data for r in rows], axis=-2), tuple(rows), _backward)


def place_rows(rows: Tensor, index: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Rows ``index`` of a matrix, in that order: as they are, shaped
    ``index.shape + (width,)`` for an index of any shape (B x n for a frame
    with no padded row), or, for a flat index, placed at the True entries
    of ``mask`` (taken in C order) with a zero row at every other position,
    shaped ``mask.shape + (width,)``. No row may be placed twice, so each
    row's gradient is the one entry it was placed at."""
    if len(rows.shape) != 2 or mask is not None and np.shape(index) != (np.count_nonzero(mask),):
        raise ShapeError(f"place_rows: index {np.shape(index)} into rows {rows.shape}")
    data = rows.data[index]
    if mask is not None:
        placed = np.zeros(mask.shape + rows.shape[1:])
        placed[mask] = data
        data = placed

    def _backward(out):
        if rows.grad is None:
            rows.grad = np.zeros_like(rows.data)
        rows.grad[index] += out.grad if mask is None else out.grad[mask]

    return _record(data, (rows,), _backward)


def take_column(m: Tensor, j) -> Tensor:
    """Column ``j`` of a matrix; for an int array of column ids, those
    columns as rows, shaped ``ids.shape + (rows,)``. The gradient flows only
    into the columns taken."""
    if len(m.shape) != 2:
        raise ShapeError(f"take_column needs a matrix, got shape {m.shape}")
    j = np.asarray(j)
    if j.dtype.kind not in "iu":
        raise ShapeError(f"take_column needs an int or an array of ints, got {j!r}")
    if j.size and (j.min() < 0 or j.max() >= m.shape[1]):
        raise ShapeError(f"column {j} out of range for shape {m.shape}")

    def _backward(out):
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        np.add.at(m.grad.T, j, out.grad)    # ids may repeat

    return _record(m.data.T[j], (m,), _backward)


def lstm_cell(wx: Tensor, wh: Tensor, b: Tensor, x: Tensor, h_prev: Tensor,
              c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step: ``(h, c)``, two vectors of length H, or one row each
    per row of a batch (x B x D, h_prev and c_prev B x H).

    Gates are four stacked blocks of ``(wx @ x + wh @ h_prev) + b`` in the
    order input, forget, cell candidate, output; ``c = f*c_prev + i*g`` and
    ``h = o*tanh(c)``. ``c`` owns the backward; ``h`` is a node over ``c``
    that hands its gradient to ``c``'s backward, which runs after it. The
    backward forms each factor in the order the op-by-op chain of matmul,
    add, sigmoid, tanh and mul would.
    """
    x_shape, h_shape = x.data.shape, h_prev.data.shape
    if len(x_shape) not in (1, 2) or x_shape[:-1] != h_shape[:-1]:
        raise ShapeError(f"lstm_cell needs vector (or batched row) x and h_prev, "
                         f"got {x_shape}, {h_shape}")
    d, hs = x_shape[-1], h_shape[-1]
    if (wx.data.shape != (4 * hs, d) or wh.data.shape != (4 * hs, hs)
            or b.data.shape != (4 * hs,) or c_prev.data.shape != h_shape):
        raise ShapeError(f"lstm_cell shape mismatch: wx {wx.shape}, wh {wh.shape}, "
                         f"b {b.shape}, x {x.shape}, h_prev {h_prev.shape}, "
                         f"c_prev {c_prev.shape}")
    z = (x.data @ wx.data.T + h_prev.data @ wh.data.T) + b.data
    # sigmoid split by sign so exp never overflows
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0, 1.0, e) / (1.0 + e)
    i, f, o = s[..., :hs], s[..., hs:2 * hs], s[..., 3 * hs:]
    g = np.tanh(z[..., 2 * hs:3 * hs])
    c_data = f * c_prev.data + i * g
    tc = np.tanh(c_data)
    handed = []     # h's gradient, from h's backward to c's

    def _backward_c(c):
        dh = handed[0] if handed else 0.0       # h may be off the loss's graph
        dc = (1.0 - tc * tc) * (dh * o)
        if c.grad is not None:
            dc += c.grad
        slope = s * (1.0 - s)
        slope[..., 2 * hs:3 * hs] = 1.0 - g * g
        dz = slope * np.concatenate([dc * g, dc * c_prev.data, dc * i, dh * tc], axis=-1)
        dz_rows = dz.reshape(-1, 4 * hs)
        if wx.requires_grad:
            wx._accumulate(_t_times(dz_rows, x.data.reshape(-1, d)))
        if wh.requires_grad:
            wh._accumulate(_t_times(dz_rows, h_prev.data.reshape(-1, hs)))
        if b.requires_grad:
            b._accumulate(dz_rows.sum(axis=0))
        if x.requires_grad:
            x._accumulate(dz @ wx.data)
        if h_prev.requires_grad:
            h_prev._accumulate(dz @ wh.data)
        if c_prev.requires_grad:
            c_prev._accumulate(dc * f)

    def _backward_h(h):
        handed.append(h.grad)

    c = _record(c_data, (wx, wh, b, x, h_prev, c_prev), _backward_c)
    return _record(o * tc, (c,), _backward_h), c
