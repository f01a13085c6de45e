"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records a backward closure on its output node. Calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates gradients additively, so a value consumed several times receives
the sum of all its downstream contributions. A closure takes its node as an
argument instead of closing over it, so the tape holds no reference cycles
and a graph is freed as soon as its last reference goes.

Batch axis: the ops that take vectors also take a batch of them, one per
row of a matrix, and the ops that take matrices also take a batch of them
along a leading axis, which a segment alone runs without; ``frame_step``,
the interaction's whole frame step, takes only a batch. It and
``word_step``, the decoder's whole word step, take a mask for padded
entries. Two ops let a batch skip rows that need no work: ``lstm_cell`` and
``frame_step`` step only the first rows of their state and carry the rest.
``stack_rows`` can keep only chosen rows, and ``span_sums`` sums a vector's
entries back into one total per batch row.

Tape policy: each forward pass builds a fresh graph, every op recording its
node through ``_record``, which marks it as requiring a gradient when any
input does and only then attaches the backward closure. Under ``no_tape``
an op records nothing, its output a bare tensor, so work that never
backpropagates (captioning and validation) builds no graph, with the same
arithmetic. A node keeps only the arrays its backward reads, beyond its
inputs: an intermediate that is cheap to form is formed again in backward
by the same numpy operations, so no bit moves (``frame_step``'s gathered
object rows and ``x = p + u``, ``word_step``'s attention tanh,
``linear_tanh``'s pre-activation, every LSTM's ``tanh(c)``;
``target_log_probs`` keeps no logits). Nor does a backward make a temporary
of a large output's full size: a node owns its gradient, a C-ordered array
no other array views, so ``linear_tanh`` forms its slope in it a block of
rows at a time, and ``target_log_probs`` turns its kept log-probabilities
into the logits' gradient in place. ``backward()`` runs once per graph root
and raises on a second call. It frees the graph as it walks it: once a node
has passed its gradient on, it drops its closure, its gradient and its
links to its inputs, so a spent node lives only as long as the caller holds
it, and the root keeps only its value. Leaf gradients persist until
``zero_grad()``.
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


_taping = True     # cleared while a ``no_tape`` block runs


@contextmanager
def no_tape():
    """Build no graph while the body runs: every op returns a bare tensor
    (no inputs, no backward closure, ``requires_grad`` False), whatever its
    inputs require, so ``backward()`` on a result raises ``ContractError``.
    The caller's mode comes back afterwards, also on an exception and when
    nested. Also usable as a function decorator."""
    global _taping
    was_taping, _taping = _taping, False
    try:
        yield
    finally:
        _taping = was_taping


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
        array or a ``broadcast_to``. So a node owns its gradient, as it does
        where an op allocates it, and a backward may write into it."""
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

    # -- reductions & layout -----------------------------------------------

    def sum(self) -> "Tensor":
        """Sum of every entry."""

        def _backward(out):
            self._accumulate(np.broadcast_to(out.grad, self.shape))

        return _record(self.data.sum(), (self,), _backward)

    def mean(self, axis: int) -> "Tensor":
        """Mean along one axis."""
        if not -len(self.shape) <= axis < len(self.shape):
            raise ShapeError(f"mean over axis {axis} unsupported for shape {self.shape}")
        n = self.shape[axis]

        def _backward(out):
            self._accumulate(np.broadcast_to(np.expand_dims(out.grad / n, axis), self.shape))

        return _record(self.data.mean(axis=axis), (self,), _backward)


def _record(data, inputs: tuple, backward) -> Tensor:
    """An op's output node over ``inputs``: it requires a gradient when any
    input does, and only then carries ``backward``, called with the node.
    Under ``no_tape`` it is a bare tensor."""
    if not _taping:
        return Tensor(data)
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


def _affine(x: Tensor, w: Tensor, b: Tensor | None):
    """``x @ w.T + b`` as a fresh array, and the backward that takes that
    array's gradient to ``x``, ``w`` and ``b``."""
    if len(w.shape) != 2 or len(x.shape) < 1 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear shape mismatch: {x.shape} @ {w.shape}.T")
    out_data = x.data @ w.data.T
    if b is not None:
        if b.shape != out_data.shape and b.shape != (w.shape[0],):
            raise ShapeError(f"linear bias shape {b.shape} for output {out_data.shape}")
        out_data += b.data

    def grads(g):
        rows = g.reshape(-1, w.shape[0])
        if x.requires_grad:
            x._accumulate(g @ w.data)
        if w.requires_grad:
            w._accumulate(_t_times(rows, x.data.reshape(-1, w.shape[1])))
        if b is not None and b.requires_grad:
            b._accumulate(g if b.shape == g.shape else rows.sum(axis=0))

    return out_data, grads, ((x, w) if b is None else (x, w, b))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w.T + b`` over the last axis of ``x``: ``w`` is out x in, one
    row per output. ``b`` is a vector of outputs or has the output's shape."""
    data, grads, inputs = _affine(x, w, b)
    return _record(data, inputs, lambda out: grads(out.grad))


# rows of the output that linear_tanh's backward forms its slope over at once
_SLOPE_ROWS = 1024


def linear_tanh(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``tanh(linear(x, w, b))`` as one node, which keeps no pre-activation.
    The backward forms ``(1 - y*y) * grad`` from the output y into the
    node's own gradient (which it owns, C-ordered), ``_SLOPE_ROWS`` rows at
    a time, so it makes no array of the output's size, and hands it to
    ``linear``'s backward. The product is the two-node chain's, factors
    swapped, so the bits are the same."""
    data, grads, inputs = _affine(x, w, b)

    def _backward(out):
        y, g = (a.reshape(-1, a.shape[-1]) for a in (out.data, out.grad))
        for start in range(0, y.shape[0], _SLOPE_ROWS):
            block = slice(start, start + _SLOPE_ROWS)
            slope = y[block] * y[block]
            np.subtract(1.0, slope, out=slope)
            g[block] *= slope
        grads(out.grad)

    return _record(np.tanh(data, out=data), inputs, _backward)


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


def log_softmax(x: Tensor) -> Tensor:
    """Log of softmax over a vector, or over each row along the last axis,
    computed with the max-shift trick; the shifted copy becomes the
    result in place."""
    if len(x.shape) < 1:
        raise ShapeError(f"log_softmax needs a vector, got shape {x.shape}")
    logp = x.data - x.data.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))

    def _backward(out):
        g = out.grad
        x._accumulate(g - np.exp(out.data) * g.sum(axis=-1, keepdims=True))

    return _record(logp, (x,), _backward)


def target_log_probs(x: Tensor, w: Tensor, b: Tensor, targets) -> Tensor:
    """The log-probability of each row's target under ``softmax(linear(x, w,
    b))``, ``targets`` shaped like ``x`` without its last axis: one node for
    ``linear``, ``log_softmax`` and one entry per row, with their numpy
    operations in their order, so value and gradients keep their bits. The
    logits become the log-probabilities in place, and only those are kept;
    the backward, their last reader, turns them into the logits' gradient
    in place: ``0.0 - exp(logp) * g`` off the target, ``g - exp(logp) * g``
    at it, the second ``g`` being the chain's row sum of the one-entry
    gradient (``g`` itself, a ``-0.0`` made ``+0.0``)."""
    logp, grads, inputs = _affine(x, w, b)
    targets = np.asarray(targets)
    if targets.shape != logp.shape[:-1] or targets.dtype.kind not in "iu":
        raise ShapeError(f"target_log_probs targets {targets.shape} for logits {logp.shape}")
    if np.any((targets < 0) | (targets >= logp.shape[-1])):
        raise ShapeError(f"target_log_probs target out of range for logits {logp.shape}")
    at = targets[..., None]
    logp -= logp.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))

    def _backward(out):
        g = out.grad[..., None]
        d = np.exp(logp, out=logp)      # the last read of logp
        d *= g + 0.0
        picked = np.take_along_axis(d, at, axis=-1)
        np.subtract(0.0, d, out=d)
        np.put_along_axis(d, at, g - picked, axis=-1)
        grads(d)

    return _record(np.take_along_axis(logp, at, axis=-1)[..., 0], inputs, _backward)


def span_sums(x: Tensor, lengths) -> Tensor:
    """Sums of consecutive spans of a vector: sum k adds up the next
    ``lengths[k]`` entries (each at least 1). Each span is summed as
    ``Tensor.sum`` sums a vector, so one span equals ``x.sum()`` bit for
    bit."""
    lengths = np.asarray(lengths)
    if len(x.shape) != 1 or lengths.ndim != 1 or lengths.sum() != x.shape[0] \
            or np.any(lengths < 1):
        raise ShapeError(f"span_sums: spans {lengths.tolist()} over shape {x.shape}")
    ends = np.cumsum(lengths).tolist()

    def _backward(out):
        x._accumulate(np.repeat(out.grad, lengths))

    return _record(np.array([x.data[end - n:end].sum() for n, end in zip(lengths.tolist(), ends)]),
                   (x,), _backward)


def stack_rows(rows: list[Tensor], at: np.ndarray | None = None) -> Tensor:
    """Stack equal-length vectors into a matrix, one vector per row; stack
    batches of vectors (B x D each) into B x n x D. With ``at``, only some
    of the stacked rows: read as one matrix, batch row after batch row, the
    stack gives rows ``at``, in that order (``len(at)`` x D); no row may be
    taken twice."""
    if not rows:
        raise ContractError("stack_rows of an empty list")
    shape = rows[0].shape
    for r in rows:
        if len(r.shape) < 1 or r.shape != shape:
            raise ShapeError(f"stack_rows needs equal-length vectors, got {r.shape} vs {shape}")
    data = np.stack([r.data for r in rows], axis=-2)
    stacked = data.shape
    if at is not None:
        data = data.reshape(-1, shape[-1])[at]

    def _backward(out):
        g = out.grad
        if at is not None:
            g = np.zeros(stacked)
            g.reshape(-1, shape[-1])[at] = out.grad
        for i, r in enumerate(rows):
            if r.requires_grad:
                r._accumulate(g[..., i, :])

    return _record(data, tuple(rows), _backward)


def take_column(m: Tensor, j) -> Tensor:
    """Column ``j`` of a matrix; for an int array of column ids, those
    columns as rows, shaped ``ids.shape + (rows,)``. The gradient flows only
    into the columns taken."""
    if len(m.shape) != 2:
        raise ShapeError(f"take_column needs a matrix, got shape {m.shape}")
    j = np.asarray(j)
    if j.dtype.kind not in "iu":
        raise ShapeError(f"take_column needs an int or an array of ints, got {j!r}")
    # one reduction for both ends: a negative id cast to uint64 wraps past
    # any column count
    if j.size and j.astype(np.uint64).max() >= m.shape[1]:
        raise ShapeError(f"column {j} out of range for shape {m.shape}")

    def _backward(out):
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        np.add.at(m.grad.T, j, out.grad)    # ids may repeat

    return _record(m.data.T[j], (m,), _backward)


def _handing(handed: list, k: int = 0):
    """A backward that hands its node's gradient to slot k of ``handed``,
    for the op's owning node, an input of this one, to read later."""
    def _backward_hand(node):
        handed[k] = node.grad
    return _backward_hand


def _lstm_forward(wx: np.ndarray, wh: np.ndarray, b: np.ndarray, x: np.ndarray,
                  hp: np.ndarray, cp: np.ndarray) -> tuple[np.ndarray, ...]:
    """One LSTM step on arrays: the gate activations, with the cell
    candidate's tanh in the block its sigmoid would take, then c and h."""
    hs = hp.shape[-1]
    z = (x @ wx.T + hp @ wh.T) + b
    # sigmoid split by sign so exp never overflows; the cell candidate's
    # block then holds its tanh instead
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0, 1.0, e) / (1.0 + e)
    s[..., 2 * hs:3 * hs] = np.tanh(z[..., 2 * hs:3 * hs])
    c = s[..., hs:2 * hs] * cp + s[..., :hs] * s[..., 2 * hs:3 * hs]
    return s, c, s[..., 3 * hs:] * np.tanh(c)


def _lstm_backward(s: np.ndarray, c: np.ndarray, cp: np.ndarray, dh, dc_out,
                   wx: Tensor, wh: Tensor, b: Tensor, x: np.ndarray,
                   hp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The backward of ``_lstm_forward``'s step, given its gates ``s`` and
    ``c``, h's gradient ``dh`` and c's own ``dc_out`` (either may be None):
    accumulates the weights' gradients and returns the gates' gradient dz
    and c's full gradient dc, for the caller to form ``dz @ wx`` (x's),
    ``dz @ wh`` (h_prev's) and ``dc * f`` (c_prev's). Each factor is formed
    in the order the op-by-op chain would form it."""
    hs = c.shape[-1]
    if dh is None:
        dh = 0.0
    g = s[..., 2 * hs:3 * hs]
    tc = np.tanh(c)
    dc = (1.0 - tc * tc) * (dh * s[..., 3 * hs:])
    if dc_out is not None:
        dc += dc_out
    slope = s * (1.0 - s)
    slope[..., 2 * hs:3 * hs] = 1.0 - g * g
    dz = slope * np.concatenate([dc * g, dc * cp, dc * s[..., :hs], dh * tc], axis=-1)
    dz_rows = dz.reshape(-1, 4 * hs)
    if wx.requires_grad:
        wx._accumulate(_t_times(dz_rows, x.reshape(-1, x.shape[-1])))
    if wh.requires_grad:
        wh._accumulate(_t_times(dz_rows, hp.reshape(-1, hs)))
    if b.requires_grad:
        b._accumulate(dz_rows.sum(axis=0))
    return dz, dc


def _lstm(wx: Tensor, wh: Tensor, b: Tensor, x: np.ndarray, h_prev: Tensor, c_prev: Tensor):
    """``_lstm_forward`` on the first len(x) rows of ``h_prev`` and
    ``c_prev`` (all when ``x`` has their leading shape), the other rows
    carried. Returns h, c and the backward (None off the tape), which takes
    h's and c's gradients (either may be None), accumulates the weights',
    h_prev's and c_prev's, the carried rows' passing straight back, and
    returns the gates' gradient dz (x's is ``dz @ wx``)."""
    hp, cp = h_prev.data, c_prev.data
    rows, hs = hp.shape[:-1], hp.shape[-1]
    a = x.shape[0] if x.shape[:-1] != rows else None   # rows stepped, when some carry
    if a is not None:
        hp, cp = hp[:a], cp[:a]
    s, c, h = _lstm_forward(wx.data, wh.data, b.data, x, hp, cp)
    if a is not None:
        c, h = np.concatenate([c, c_prev.data[a:]]), np.concatenate([h, h_prev.data[a:]])
    if not _taping:     # no backward will run
        return h, c, None

    def backward(dh, dc_out):
        if a is not None:
            carried = [np.zeros((rows[0] - a, hs)) if grad is None else grad[a:]
                       for grad in (dh, dc_out)]
            dh, dc_out = (None if grad is None else grad[:a] for grad in (dh, dc_out))
        dz, dc = _lstm_backward(s, c if a is None else c[:a], cp, dh, dc_out, wx, wh, b, x, hp)
        if h_prev.requires_grad:
            g_h = dz @ wh.data
            h_prev._accumulate(g_h if a is None else np.concatenate([g_h, carried[0]]))
        if c_prev.requires_grad:
            g_c = dc * s[..., hs:2 * hs]
            c_prev._accumulate(g_c if a is None else np.concatenate([g_c, carried[1]]))
        return dz

    return h, c, backward


def lstm_cell(wx: Tensor, wh: Tensor, b: Tensor, x: Tensor, h_prev: Tensor,
              c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step: ``(h, c)``, two vectors of length H, or one row each
    per row of a batch (x a x D, h_prev and c_prev B x H with B >= a).

    Only the first a rows step; the other B - a rows of ``h_prev`` and
    ``c_prev`` are carried into ``h`` and ``c`` unchanged, with their
    gradients. Gates are four stacked blocks of ``(wx @ x + wh @ h_prev) +
    b`` in the order input, forget, cell candidate, output; ``c = f*c_prev +
    i*g`` and ``h = o*tanh(c)``. ``c`` owns the backward; ``h`` is a node
    over ``c`` that hands its gradient to ``c``'s backward, which runs after
    it. The backward forms each factor in the order the op-by-op chain of
    matmul, add, sigmoid, tanh and mul would. The node keeps one array of
    gate activations, the candidate's tanh in the block its sigmoid would
    take, and its backward forms ``tanh(c)`` again from ``c``.
    """
    x_shape, h_shape = x.data.shape, h_prev.data.shape
    if (len(x_shape) not in (1, 2) or len(h_shape) != len(x_shape)
            or x_shape[:-1] > h_shape[:-1]):
        raise ShapeError(f"lstm_cell needs vector (or batched row) x and h_prev, "
                         f"got {x_shape}, {h_shape}")
    d, hs = x_shape[-1], h_shape[-1]
    if (wx.data.shape != (4 * hs, d) or wh.data.shape != (4 * hs, hs)
            or b.data.shape != (4 * hs,) or c_prev.data.shape != h_shape):
        raise ShapeError(f"lstm_cell shape mismatch: wx {wx.shape}, wh {wh.shape}, "
                         f"b {b.shape}, x {x.shape}, h_prev {h_prev.shape}, "
                         f"c_prev {c_prev.shape}")
    h_data, c_data, lstm_backward = _lstm(wx, wh, b, x.data, h_prev, c_prev)
    handed = [None]     # h's gradient, handed on to c's backward

    def _backward_c(c):
        dz = lstm_backward(handed[0], c.grad)
        if x.requires_grad:
            x._accumulate(dz @ wx.data)

    c = _record(c_data, (wx, wh, b, x, h_prev, c_prev), _backward_c)
    return _record(h_data, (c,), _handing(handed)), c


def frame_step(lstm: tuple[Tensor, Tensor, Tensor], w_h: Tensor, rows: Tensor | None,
               index: np.ndarray, contexts: Tensor, t: int, state: tuple[Tensor, Tensor],
               mask: np.ndarray | None = None, groups: int = 1,
               ) -> tuple[np.ndarray | None, Tensor, Tensor]:
    """One frame of the interaction recurrence as one op, over B batch rows
    of which the first a run (``index`` a x n); ``state`` is ``(h_prev,
    c_prev)``, B x H each, and ``lstm`` the LSTM's ``(wx, wh, b)``.

    The state term ``u = h_prev @ w_h.T + contexts[:, t]`` (contexts B x T
    x G·d) is formed for all B rows; its first a rows bias self-attention
    over the frame's object pairs. ``index`` names the objects in the
    packed matrix ``rows``, no row twice, and ``mask`` (a x n; None when
    nothing is padded) marks the real ones. Group k of ``groups`` owns
    columns k·d to (k+1)·d and attends over its rows p: with ``x = p + u``,
    ``alpha = softmax(x @ x.T / sqrt(d))``, pooled as (mean of alpha's
    rows) @ p over the real rows, a padded row or column getting exactly
    zero attention. A frame with no object pools zeros and reads neither
    ``rows``, ``w_h`` nor ``contexts``. The LSTM steps the a rows on the
    groups' pooled vectors end to end and carries the rest (``_lstm``).

    Returns alpha (a x G x n x n; None for an empty frame), off the tape,
    and h and c: ``c`` owns the backward and ``h`` hands it its gradient.
    The forward makes the numpy calls of the op-by-op chain (``Tensor.row``,
    ``linear``, the pair attention, ``lstm_cell``) in their order, without
    the row's copy, and the backward forms each factor as the chain did,
    ``h_prev`` taking the LSTM's part before the state term's as the
    chain's tape walk added them, so every bit is the chain's. The node
    keeps u, the gates, the pooled vectors, alpha and the pooling weights;
    its backward gathers p and forms x again. Under ``no_tape`` it returns
    bare tensors and builds no backward.
    """
    (wx, wh, b), (h_prev, c_prev) = lstm, state
    index, h_shape, c_shape = np.asarray(index), h_prev.data.shape, contexts.data.shape
    (batch, hs), width, k = h_shape if len(h_shape) == 2 else (0, 0), wx.data.shape[-1], groups
    a, n = index.shape if index.ndim == 2 else (0, 0)
    if (index.ndim != 2 or index.dtype.kind not in "iu" or not 1 <= a <= batch or k < 1
            or width % k or getattr(mask, "shape", index.shape) != index.shape
            or len(c_shape) != 3 or not 0 <= t < c_shape[1]
            or (c_prev.data.shape, wx.data.shape, wh.data.shape, b.data.shape, w_h.data.shape,
                c_shape[::2]) != ((batch, hs), (4 * hs, width), (4 * hs, hs), (4 * hs,),
                                  (width, hs), (batch, width))
            or n and getattr(rows, "shape", ())[1:] != (width,)):     # rows: a matrix
        raise ShapeError(f"frame_step shape mismatch: state {[x.shape for x in state]}, index "
                         f"{index.shape}, mask {getattr(mask, 'shape', None)}, rows "
                         f"{getattr(rows, 'shape', None)}, contexts {contexts.shape} at {t}, "
                         f"w_h {w_h.shape}, LSTM {[x.shape for x in lstm]}, groups {groups}")
    if n:
        d = width // k
        u = h_prev.data @ w_h.data.T
        u += contexts.data[:, t]
        bias = u[:a].reshape(a, k, 1, d)
        taken = index if mask is None else index[mask]

        def gathered():     # a x k x n x d, each group's rows a contiguous matrix
            if mask is None:
                placed = rows.data[index]
            else:
                placed = np.zeros(index.shape + (width,))
                placed[mask] = rows.data[taken]
            return np.ascontiguousarray(np.swapaxes(placed.reshape(a, n, k, d), -2, -3))

        p = gathered()
        x = p + bias
        scale = 1.0 / math.sqrt(d)
        scores = (x @ np.ascontiguousarray(np.swapaxes(x, -1, -2))) * scale
        if mask is None:
            alpha, weights = masked_softmax(scores), None
            mean = alpha.mean(axis=-2)
        else:
            pairs = (mask[..., :, None] & mask[..., None, :])[..., None, :, :]
            alpha = masked_softmax(scores, np.broadcast_to(pairs, scores.shape))
            weights = (mask / np.maximum(mask.sum(axis=-1, keepdims=True), 1))[..., None, :]
            mean = _rows_times(weights, alpha)
        pooled = _rows_times(mean, p).reshape(a, width)
    else:
        alpha, pooled = None, np.zeros((a, width))
    h_data, c_data, lstm_backward = _lstm(wx, wh, b, pooled, h_prev, c_prev)
    if not _taping:     # the bare tensors _record would return, without building a backward
        return alpha, Tensor(h_data), Tensor(c_data)
    handed = [None]     # h's gradient, handed on to c's backward

    def _backward_c(c):
        dz = lstm_backward(handed[0], c.grad)
        if not n:
            return
        p = gathered()
        x = p + bias
        g = (dz @ wx.data).reshape(a, k, d)
        g_mean = _rows_times(g, np.swapaxes(p, -1, -2))
        g_alpha = (np.broadcast_to(g_mean[..., None, :] / n, alpha.shape)
                   if weights is None else weights[..., :, None] * g_mean[..., None, :])
        g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(axis=-1, keepdims=True)) * scale
        g_x = (g_scores + np.swapaxes(g_scores, -1, -2)) @ x     # x feeds both sides of x @ x.T
        if rows.requires_grad:
            g_p = np.swapaxes(g_x + mean[..., :, None] * g[..., None, :], -2, -3)
            g_p = g_p.reshape(index.shape + (width,))
            if rows.grad is None:
                rows.grad = np.zeros_like(rows.data)
            rows.grad[taken] += g_p if mask is None else g_p[mask]
        if h_prev.requires_grad or w_h.requires_grad or contexts.requires_grad:
            g_u = np.zeros((batch, width))
            g_u[:a] = g_x.sum(axis=-2).reshape(a, width)
            if h_prev.requires_grad:
                h_prev._accumulate(g_u @ w_h.data)
            if w_h.requires_grad:
                w_h._accumulate(_t_times(g_u, h_prev.data))
            if contexts.requires_grad:
                if contexts.grad is None:
                    contexts.grad = np.zeros_like(contexts.data)
                contexts.grad[:, t] += g_u

    # the state term's inputs get a gradient only where it is read
    attention = (rows, w_h, contexts) if n else ()
    c = _record(c_data, (wx, wh, b, *attention, h_prev, c_prev), _backward_c)
    return alpha, _record(h_data, (c,), _handing(handed)), c


def _added(total: np.ndarray | None, g: np.ndarray) -> np.ndarray:
    """``total + g`` as ``Tensor._accumulate`` forms a gradient: a C-ordered
    copy of ``g`` when there is no total yet, else ``g`` added in place."""
    if total is None:
        return np.array(g, dtype=np.float64, order="C")
    total += g
    return total


def word_step(attn: tuple[Tensor, Tensor, Tensor], lang: tuple[Tensor, Tensor, Tensor],
              w_h: Tensor, w_a: Tensor, embedding: Tensor, pooled: Tensor, keys: Tensor,
              frames: Tensor | None, states: Tensor | None,
              state: tuple[Tensor, Tensor, Tensor, Tensor], mask: np.ndarray | None = None,
              coattention: bool = True) -> tuple[np.ndarray, Tensor, Tensor, Tensor, Tensor]:
    """One word of the caption decoder as one op, for a vector or for each
    row of a batch (B rows, every input with a leading batch axis).

    ``state`` is ``(h1, c1, h2, c2)``, the attention and the language LSTM's
    (``attn`` and ``lang``, each ``(wx, wh, b)`` as ``lstm_cell`` takes
    them). The attention LSTM steps on ``[h2; pooled; embedding]``; its h1
    scores the T rows of ``keys`` (T x A) as ``softmax(tanh(keys + h1 @
    w_h.T) @ w_a)``, alpha. Where ``mask`` (T, or B x T; None when no frame
    is padded) is False the weight is exactly 0.0, and that frame's key,
    frame and state get no gradient. The language LSTM steps on h1
    followed by ``alpha @ frames`` (None: left out) and ``alpha @ states``
    (None: left out), or without ``coattention`` the mean of ``states``
    over the real frames instead.

    Returns alpha, an array off the tape, and the new h1, c1, h2, c2. The
    forward repeats the numpy operations of the op-by-op chain (concat,
    ``lstm_cell``, ``linear``, the attention, ``matmul`` and concat again,
    ``lstm_cell``) in their order, so it is the same bit for bit, and so is
    the backward: it forms each factor as that chain would, and adds each
    gradient into each input in the chain's order. ``c2`` owns the
    backward; h1, c1 and h2 are nodes over it that hand their gradients to
    it, as ``lstm_cell``'s ``h`` does. The node keeps both LSTMs' inputs and
    gates, the query and alpha; its backward forms the attention's tanh
    again. Under ``no_tape`` it returns bare tensors and builds no backward.
    """
    (awx, awh, ab), (lwx, lwh, lb) = attn, lang
    h1p, c1p, h2p, c2p = state
    parts = [t for t in (frames, states) if t is not None]
    h1_shape, h2_shape = h1p.data.shape, h2p.data.shape
    lead, h1s, h2s = h1_shape[:-1], h1_shape[-1], h2_shape[-1]
    frame_rows, a_dim = lead + keys.data.shape[-2:-1], keys.data.shape[-1]
    x1_widths = (h2s, pooled.data.shape[-1], embedding.data.shape[-1])
    x2_widths, row_shapes = [h1s], [keys.data.shape[:-1]]     # row_shapes: one per frame
    for t in parts:
        x2_widths.append(t.data.shape[-1])
        row_shapes.append(t.data.shape[:-1])
    if (len(h1_shape) not in (1, 2) or row_shapes != [frame_rows] * len(row_shapes)
            or c1p.data.shape != h1_shape or c2p.data.shape != lead + (h2s,)
            or h2_shape[:-1] != lead or pooled.data.shape[:-1] != lead
            or embedding.data.shape[:-1] != lead
            or mask is not None and mask.shape != frame_rows
            or (awx.data.shape, awh.data.shape, ab.data.shape, w_h.data.shape, w_a.data.shape,
                lwx.data.shape, lwh.data.shape, lb.data.shape)
            != ((4 * h1s, sum(x1_widths)), (4 * h1s, h1s), (4 * h1s,), (a_dim, h1s), (a_dim,),
                (4 * h2s, sum(x2_widths)), (4 * h2s, h2s), (4 * h2s,))):
        raise ShapeError(f"word_step shape mismatch: states {[t.shape for t in state]}, "
                         f"pooled {pooled.shape}, embedding {embedding.shape}, keys "
                         f"{keys.shape}, frames {None if frames is None else frames.shape}, "
                         f"states {None if states is None else states.shape}, mask "
                         f"{None if mask is None else mask.shape}, attention LSTM "
                         f"{[t.shape for t in attn]}, w_h {w_h.shape}, w_a {w_a.shape}, "
                         f"language LSTM {[t.shape for t in lang]}")

    x1 = np.concatenate([h2p.data, pooled.data, embedding.data], axis=-1)
    s1, c1, h1 = _lstm_forward(awx.data, awh.data, ab.data, x1, h1p.data, c1p.data)
    q = h1 @ w_h.data.T
    alpha = masked_softmax(np.tanh(keys.data + q[..., None, :]) @ w_a.data, mask)
    attends = frames is not None or states is not None and coattention
    mean = None     # the weights of the mean over real frames, without coattention
    if states is not None and not coattention and mask is not None:
        mean = mask / mask.sum(axis=-1, keepdims=True)
    pooled_parts = [h1]
    if frames is not None:
        pooled_parts.append(_rows_times(alpha, frames.data))
    if states is not None:
        pooled_parts.append(_rows_times(alpha, states.data) if coattention else
                            states.data.mean(axis=-2) if mean is None else
                            _rows_times(mean, states.data))
    x2 = np.concatenate(pooled_parts, axis=-1)
    s2, c2, h2 = _lstm_forward(lwx.data, lwh.data, lb.data, x2, h2p.data, c2p.data)
    if not _taping:     # the bare tensors _record would return, without building a backward
        return alpha, Tensor(h1), Tensor(c1), Tensor(h2), Tensor(c2)
    handed = [None, None, None]     # h1's, c1's and h2's gradients, handed on to c2's backward

    def _backward(out):
        dh1, dc1, dh2 = handed
        dz2, dc2 = _lstm_backward(s2, c2, c2p.data, dh2, out.grad, lwx, lwh, lb, x2, h2p.data)
        g_x2 = dz2 @ lwx.data
        if h2p.requires_grad:
            h2p._accumulate(dz2 @ lwh.data)
        if c2p.requires_grad:
            c2p._accumulate(dc2 * s2[..., h2s:2 * h2s])
        dh1 = _added(dh1, g_x2[..., :h1s])
        g_alpha, off = None, h1s
        for t, width in zip(parts, x2_widths[1:]):
            g = np.array(g_x2[..., off:off + width], order="C")
            off += width
            if t is states and not coattention:
                if t.requires_grad:
                    t._accumulate(np.broadcast_to(np.expand_dims(g / t.shape[-2], -2), t.shape)
                                  if mean is None else mean[..., :, None] * g[..., None, :])
                continue
            g_t = (g[..., None, :] @ np.swapaxes(t.data, -1, -2))[..., 0, :]
            g_alpha = _added(g_alpha, g_t)
            if t.requires_grad:
                t._accumulate(alpha[..., :, None] * g[..., None, :])
        if attends:
            hid = np.tanh(keys.data + q[..., None, :])
            g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(axis=-1, keepdims=True))
            g_z = (1.0 - hid * hid) * (g_scores[..., None] * w_a.data)
            if keys.requires_grad:
                keys._accumulate(g_z)
            if w_a.requires_grad:
                w_a._accumulate(g_scores.reshape(-1) @ hid.reshape(-1, a_dim))
            g_q = g_z.sum(axis=-2)
            dh1 = _added(dh1, g_q @ w_h.data)
            if w_h.requires_grad:
                w_h._accumulate(_t_times(g_q.reshape(-1, a_dim), h1.reshape(-1, h1s)))
        dz1, dc1 = _lstm_backward(s1, c1, c1p.data, dh1, dc1, awx, awh, ab, x1, h1p.data)
        g_x1 = dz1 @ awx.data
        if h1p.requires_grad:
            h1p._accumulate(dz1 @ awh.data)
        if c1p.requires_grad:
            c1p._accumulate(dc1 * s1[..., h1s:2 * h1s])
        off = 0
        for t, width in zip((h2p, pooled, embedding), x1_widths):
            if t.requires_grad:
                t._accumulate(g_x1[..., off:off + width])
            off += width

    # the attention's inputs get a gradient only where alpha is read; the
    # order puts keys' backward before pooled's, as the chain's ran
    attention = (w_h, w_a, keys) if attends else ()
    c2_node = _record(c2, (awx, awh, ab, lwx, lwh, lb, *attention, *parts, pooled, embedding,
                           h1p, c1p, h2p, c2p), _backward)
    return (alpha, *(_record(data, (c2_node,), _handing(handed, k))
                     for k, data in enumerate((h1, c1, h2))), c2_node)
