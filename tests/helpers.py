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


def beam_search_by_hypothesis(p, ctx, beam_width: int, max_words: int):
    """Reference beam search that steps each live hypothesis on its own with
    the vector ``decode_step`` and keeps the pool as Python objects. Returns
    ``(tokens, log_prob, finished, alphas)`` of the best hypothesis, under
    the same selection (the ``np.partition`` cut) and the same tie rule
    (``(-log_prob, tokens)``) as ``captioner.beam_search``."""
    from objcap.captioner import BOS_ID, EOS_ID, decode_step, initial_state
    from objcap.tensor import log_softmax

    # pool entries: (tokens, log_prob, state, finished, alphas)
    pool = [((BOS_ID,), 0.0, initial_state(p), False, ())]
    while any(not h[3] for h in pool):
        finished = [h for h in pool if h[3]]
        live = [h for h in pool if not h[3]]
        steps = [decode_step(p, ctx, h[0][-1], h[2]) for h in live]
        scores = np.stack([h[1] + log_softmax(step.word_logits).data
                           for h, step in zip(live, steps)])
        every = np.concatenate([[h[1] for h in finished], scores.ravel()])
        kth = max(every.size - beam_width, 0)
        cut = np.partition(every, kth)[kth]
        candidates = [h for h in finished if h[1] >= cut]
        for i, w in np.argwhere(scores >= cut).tolist():
            (tokens, _, _, _, alphas), step = live[i], steps[i]
            candidates.append((tokens + (w,), float(scores[i, w]), step.state,
                               w == EOS_ID or len(tokens) >= max_words,
                               alphas + (step.alpha_temp.data,)))
        candidates.sort(key=lambda h: (-h[1], h[0]))
        pool = candidates[:beam_width]
    tokens, log_prob, _, finished, alphas = pool[0]
    return tokens, log_prob, finished, alphas


# -- the op-by-op attention chains that tensor.pair_attention and
# tensor.additive_attention fused, kept as references. The transpose,
# softmax and batched product ops they used are no longer in the core, so
# each is rebuilt here from its former code.

def _node(data, parents, grads):
    """A tape node over ``parents`` whose backward hands ``grads(out_grad)``
    (one array per parent) to the parents."""
    from objcap.tensor import Tensor

    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents),
                 _prev=tuple(parents))

    def _backward(out):
        for p, g in zip(parents, grads(out.grad)):
            if p.requires_grad:
                p._accumulate(g)

    if out.requires_grad:
        out._backward = _backward
    return out


def transpose_op(x):
    """A matrix's transpose, or each matrix's of a batch; the Tensor stores
    it as a contiguous copy."""
    return _node(np.swapaxes(x.data, -1, -2), [x], lambda g: [np.swapaxes(g, -1, -2)])


def softmax_op(x, mask=None):
    """Max-shifted softmax over the last axis; masked entries are 0.0."""
    if mask is None:
        e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
        y = e / e.sum(axis=-1, keepdims=True)
    else:
        kept = np.where(mask, x.data, -np.inf)
        top = kept.max(axis=-1, keepdims=True)
        e = np.exp(kept - np.where(np.isneginf(top), 0.0, top))
        total = e.sum(axis=-1, keepdims=True)
        y = e / np.where(total > 0.0, total, 1.0)
    return _node(y, [x], lambda g: [y * (g - (g * y).sum(axis=-1, keepdims=True))])


def matmul_op(a, b):
    """A matrix (or a batch of them) times a matrix (a batch of them) or
    one vector shared by the batch."""
    vec = b.data.ndim == 1
    pb = b.data[:, None] if vec else b.data

    def grads(g):
        g = g[..., None] if vec else g
        gb = np.swapaxes(a.data, -1, -2) @ g
        return [g @ np.swapaxes(pb, -1, -2),
                gb.reshape(-1, b.shape[0]).sum(axis=0) if vec else gb]

    return _node(a.data @ b.data, [a, b], grads)


def pair_attention_chain(projected, u, mask=None):
    """``tensor.pair_attention`` as the chain of ops it replaced."""
    from objcap.tensor import Tensor, matmul

    x = projected + u
    scores = matmul_op(x, transpose_op(x)) * (1.0 / math.sqrt(projected.shape[-1]))
    if mask is None:
        alpha = softmax_op(scores)
        return alpha.data, matmul(alpha.mean(axis=-2), projected)
    alpha = softmax_op(scores, mask[..., :, None] & mask[..., None, :])
    weights = mask / np.maximum(mask.sum(axis=-1, keepdims=True), 1)
    return alpha.data, matmul(matmul(Tensor(weights), alpha), projected)


def additive_attention_chain(keys, query, w_a, mask=None):
    """``tensor.additive_attention`` as the chain of ops it replaced."""
    return softmax_op(matmul_op((keys + query).tanh(), w_a), mask)
