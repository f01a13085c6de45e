"""Shared oracles for the test suite.

The finite-difference checker is the independent reference for every gradient
assertion: central differences at step 1e-6 in double precision, compared with
a relative error that falls back to an absolute scale of 1e-3 for gradients
too small for the difference quotient to resolve.
"""

from __future__ import annotations

import math

import numpy as np

FD_STEP = 1e-6
FD_TOL = 1e-5


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-3)


def max_fd_error(loss_fn, tensors, step: float = FD_STEP) -> float:
    """Worst relative error between tape gradients and central differences.

    ``loss_fn`` must rebuild the forward graph from scratch and return the
    scalar loss Tensor; ``tensors`` are the leaves to check. Gradients are
    taken from one analytic backward pass, then every parameter entry is
    wiggled by ±step.
    """
    for t in tensors:
        t.zero_grad()
    loss = loss_fn()
    loss.backward()
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in tensors]

    worst = 0.0
    for t, g in zip(tensors, grads):
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = loss_fn().item()
            flat[i] = orig - step
            f_minus = loss_fn().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * step)
            worst = max(worst, rel_err(gflat[i], fd))
    return worst


def scalar_sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def scalar_lstm_step(wx, wh, b, x, h_prev, c_prev):
    """Pure-Python LSTM recurrence over nested lists, gate order i,f,g,o."""
    hs = len(b) // 4
    gates = []
    for r in range(4 * hs):
        acc = b[r]
        for j, xv in enumerate(x):
            acc += wx[r][j] * xv
        for j, hv in enumerate(h_prev):
            acc += wh[r][j] * hv
        gates.append(acc)
    h, c = [], []
    for u in range(hs):
        i = scalar_sigmoid(gates[u])
        f = scalar_sigmoid(gates[hs + u])
        g = math.tanh(gates[2 * hs + u])
        o = scalar_sigmoid(gates[3 * hs + u])
        cu = f * c_prev[u] + i * g
        c.append(cu)
        h.append(o * math.tanh(cu))
    return h, c


def scalar_softmax(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def scalar_mlp(layers, x):
    """Tanh layers over nested lists. layers: list of (w as nested list,
    b as list); x: list."""
    out = list(x)
    for w, b in layers:
        nxt = []
        for r in range(len(b)):
            acc = b[r]
            for j, v in enumerate(out):
                acc += w[r][j] * v
            nxt.append(math.tanh(acc))
        out = nxt
    return out
