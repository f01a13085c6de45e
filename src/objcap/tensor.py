"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation records a backward closure on its output node. Calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates gradients additively, so a value consumed several times receives
the sum of all its downstream contributions. A closure takes its node as an
argument instead of closing over it, so the tape holds no reference cycles
and a graph is freed as soon as its last reference goes.

Tape policy: each forward pass builds a fresh graph; ``backward()`` may be
called once per graph root and raises on a second call. Gradients persist on
``requires_grad`` leaves until ``zero_grad()``.
"""

from __future__ import annotations

import numpy as np


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

    def __init__(self, data, requires_grad: bool = False, _prev: tuple = ()):
        arr = np.asarray(data, dtype=np.float64)
        if not arr.flags["C_CONTIGUOUS"]:  # ascontiguousarray would distort 0-d
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

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single value, got shape {self.shape}")
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node)
                node._backward = None  # release closures, graph is spent

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            raise TypeError("add expects a Tensor")
        a, b = self, other
        if a.shape == b.shape:
            out_data = a.data + b.data
            row_broadcast = False
        elif len(a.shape) == 2 and b.shape == (a.shape[1],):
            # matrix + row vector: the vector is added to every row
            out_data = a.data + b.data
            row_broadcast = True
        else:
            raise ShapeError(f"add shape mismatch: {a.shape} + {b.shape}")
        out = Tensor(out_data, requires_grad=a.requires_grad or b.requires_grad, _prev=(a, b))

        def _backward(out):
            g = out.grad
            if a.requires_grad:
                a._accumulate(g)
            if b.requires_grad:
                b._accumulate(g.sum(axis=0) if row_broadcast else g)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __neg__(self) -> "Tensor":
        out = Tensor(-self.data, requires_grad=self.requires_grad, _prev=(self,))

        def _backward(out):
            self._accumulate(-out.grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __mul__(self, other) -> "Tensor":
        if isinstance(other, (int, float)):
            s = float(other)
            out = Tensor(self.data * s, requires_grad=self.requires_grad, _prev=(self,))

            def _backward(out):
                self._accumulate(out.grad * s)

            if out.requires_grad:
                out._backward = _backward
            return out
        if not isinstance(other, Tensor):
            raise TypeError("mul expects a Tensor or a float")
        if self.shape != other.shape:
            raise ShapeError(f"mul shape mismatch: {self.shape} * {other.shape}")
        a, b = self, other
        out = Tensor(a.data * b.data, requires_grad=a.requires_grad or b.requires_grad, _prev=(a, b))

        def _backward(out):
            if a.requires_grad:
                a._accumulate(out.grad * b.data)
            if b.requires_grad:
                b._accumulate(out.grad * a.data)

        if out.requires_grad:
            out._backward = _backward
        return out

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __getitem__(self, key) -> "Tensor":
        """Integer index (element of a vector, row of a matrix) or slice
        (entries of a vector, rows of a matrix)."""
        if isinstance(key, int):
            if key < 0 or key >= self.shape[0]:
                raise ShapeError(f"index {key} out of range for shape {self.shape}")
            out = Tensor(self.data[key], requires_grad=self.requires_grad, _prev=(self,))
            idx = key
        elif isinstance(key, slice) and len(self.shape) in (1, 2):
            out = Tensor(self.data[key], requires_grad=self.requires_grad, _prev=(self,))
            idx = key
        else:
            raise ShapeError(f"unsupported index {key!r} for shape {self.shape}")

        def _backward(out):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            self.grad[idx] += out.grad

        if out.requires_grad:
            out._backward = _backward
        return out

    # -- activations -------------------------------------------------------

    def tanh(self) -> "Tensor":
        out = Tensor(np.tanh(self.data), requires_grad=self.requires_grad, _prev=(self,))

        def _backward(out):
            self._accumulate((1.0 - out.data * out.data) * out.grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        # split by sign so exp never overflows
        x = self.data
        y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                     np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        out = Tensor(y, requires_grad=self.requires_grad, _prev=(self,))

        def _backward(out):
            self._accumulate(out.data * (1.0 - out.data) * out.grad)

        if out.requires_grad:
            out._backward = _backward
        return out

    # -- reductions & layout -----------------------------------------------

    def sum(self) -> "Tensor":
        out = Tensor(np.sum(self.data), requires_grad=self.requires_grad, _prev=(self,))

        def _backward(out):
            self._accumulate(np.full_like(self.data, float(out.grad)))

        if out.requires_grad:
            out._backward = _backward
        return out

    def mean(self, axis: int | None = None) -> "Tensor":
        if axis is None:
            out = Tensor(np.mean(self.data), requires_grad=self.requires_grad, _prev=(self,))

            def _backward(out):
                self._accumulate(np.full_like(self.data, float(out.grad) / self.data.size))

        elif axis == 0 and len(self.shape) == 2:
            n = self.shape[0]
            out = Tensor(self.data.mean(axis=0), requires_grad=self.requires_grad, _prev=(self,))

            def _backward(out):
                self._accumulate(np.broadcast_to(out.grad / n, self.shape).copy())

        else:
            raise ShapeError(f"mean over axis {axis} unsupported for shape {self.shape}")

        if out.requires_grad:
            out._backward = _backward
        return out

    @property
    def T(self) -> "Tensor":
        if len(self.shape) != 2:
            raise ShapeError(f"transpose needs a matrix, got shape {self.shape}")
        out = Tensor(self.data.T, requires_grad=self.requires_grad, _prev=(self,))

        def _backward(out):
            self._accumulate(out.grad.T)

        if out.requires_grad:
            out._backward = _backward
        return out


# -- binary / n-ary operations ----------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; accepts matrix@matrix, matrix@vector, vector@matrix
    and vector@vector (dot product, scalar result)."""
    if len(a.shape) == 0 or len(b.shape) == 0 or len(a.shape) > 2 or len(b.shape) > 2:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data, requires_grad=a.requires_grad or b.requires_grad, _prev=(a, b))

    def _backward(out):
        g = out.grad
        ar, br = len(a.shape), len(b.shape)
        if a.requires_grad:
            if ar == 2 and br == 2:
                a._accumulate(g @ b.data.T)
            elif ar == 2 and br == 1:
                a._accumulate(np.outer(g, b.data))
            elif ar == 1 and br == 2:
                a._accumulate(b.data @ g)
            else:
                a._accumulate(g * b.data)
        if b.requires_grad:
            if ar == 2 and br == 2:
                b._accumulate(a.data.T @ g)
            elif ar == 2 and br == 1:
                b._accumulate(a.data.T @ g)
            elif ar == 1 and br == 2:
                b._accumulate(np.outer(a.data, g))
            else:
                b._accumulate(g * a.data)

    if out.requires_grad:
        out._backward = _backward
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Exponentials normalized along ``axis``, shifted by the slice maximum
    so large scores cannot overflow."""
    rank = len(x.shape)
    if rank == 0 or axis >= rank or axis < -rank:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)
    out = Tensor(y, requires_grad=x.requires_grad, _prev=(x,))

    def _backward(out):
        g = out.grad
        dot = np.sum(g * out.data, axis=axis, keepdims=True)
        x._accumulate(out.data * (g - dot))

    if out.requires_grad:
        out._backward = _backward
    return out


def log_softmax(x: Tensor) -> Tensor:
    """Log of softmax over a vector, computed with the max-shift trick."""
    if len(x.shape) != 1:
        raise ShapeError(f"log_softmax needs a vector, got shape {x.shape}")
    shifted = x.data - np.max(x.data)
    lse = np.log(np.sum(np.exp(shifted)))
    out = Tensor(shifted - lse, requires_grad=x.requires_grad, _prev=(x,))

    def _backward(out):
        g = out.grad
        x._accumulate(g - np.exp(out.data) * np.sum(g))

    if out.requires_grad:
        out._backward = _backward
    return out


def concat(parts: list[Tensor]) -> Tensor:
    """Concatenate vectors into one longer vector."""
    if not parts:
        raise ContractError("concat of an empty list")
    for p in parts:
        if len(p.shape) != 1:
            raise ShapeError(f"concat needs vectors, got shape {p.shape}")
    out = Tensor(np.concatenate([p.data for p in parts]),
                 requires_grad=any(p.requires_grad for p in parts),
                 _prev=tuple(parts))

    def _backward(out):
        off = 0
        for p in parts:
            n = p.shape[0]
            if p.requires_grad:
                p._accumulate(out.grad[off:off + n])
            off += n

    if out.requires_grad:
        out._backward = _backward
    return out


def stack_rows(rows: list[Tensor]) -> Tensor:
    """Stack equal-length vectors into a matrix, one vector per row."""
    if not rows:
        raise ContractError("stack_rows of an empty list")
    width = rows[0].shape
    for r in rows:
        if len(r.shape) != 1 or r.shape != width:
            raise ShapeError(f"stack_rows needs equal-length vectors, got {r.shape} vs {width}")
    out = Tensor(np.stack([r.data for r in rows]),
                 requires_grad=any(r.requires_grad for r in rows),
                 _prev=tuple(rows))

    def _backward(out):
        for i, r in enumerate(rows):
            if r.requires_grad:
                r._accumulate(out.grad[i])

    if out.requires_grad:
        out._backward = _backward
    return out


def take_column(m: Tensor, j: int) -> Tensor:
    """Column ``j`` of a matrix; the gradient flows only into that column."""
    if len(m.shape) != 2:
        raise ShapeError(f"take_column needs a matrix, got shape {m.shape}")
    if j < 0 or j >= m.shape[1]:
        raise ShapeError(f"column {j} out of range for shape {m.shape}")
    out = Tensor(m.data[:, j], requires_grad=m.requires_grad, _prev=(m,))

    def _backward(out):
        if m.grad is None:
            m.grad = np.zeros_like(m.data)
        m.grad[:, j] += out.grad

    if out.requires_grad:
        out._backward = _backward
    return out
