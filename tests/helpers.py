"""Shared oracles for the test suite.

The finite-difference checker is the independent reference for every gradient
assertion: central differences at step 1e-6 in double precision, compared with
a relative error that falls back to an absolute scale of 1e-3 for gradients
too small for the difference quotient to resolve.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

from objcap import tensor
from objcap.data import MAX_CAPTION_WORDS

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


def decode_greedy(p, ctx, max_words: int = MAX_CAPTION_WORDS) -> list[int]:
    """Argmax decoding from BOS with the vector ``decode_step``; ties go to
    the lowest word id. The independent reference that beam search at
    width 1 is held to."""
    from objcap.captioner import BOS_ID, EOS_ID, decode_step, initial_state

    state = initial_state(p)
    prev = BOS_ID
    words: list[int] = []
    for _ in range(max_words):
        step = decode_step(p, ctx, prev, state)
        state = step.state
        nxt = int(np.argmax(step.word_logits.data))
        if nxt == EOS_ID:
            break
        words.append(nxt)
        prev = nxt
    return words


def beam_search_by_hypothesis(p, ctx, beam_width: int, max_words: int):
    """Reference beam search that steps each live hypothesis on its own with
    the vector ``decode_step`` and keeps the pool as Python objects. Returns
    ``(tokens, log_prob, alphas)`` of the best hypothesis, under
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
    tokens, log_prob, _, _, alphas = pool[0]
    return tokens, log_prob, alphas


def beam_select_general(logp, log_prob, finished, rank, beam_width: int):
    """``captioner.beam_select``'s path for a pool with finished entries,
    run on any pool: the reference its shorter path for a pool without
    them is held to, bit for bit."""
    live, done = np.flatnonzero(~finished), np.flatnonzero(finished)
    scores = log_prob[live, None] + logp[live]
    every = np.concatenate([log_prob[done], scores.ravel()])
    kth = max(every.size - beam_width, 0)
    cut = np.partition(every, kth)[kth]
    kept = done[log_prob[done] >= cut]
    vocab = logp.shape[1]
    at, grown = np.divmod(np.flatnonzero(scores >= cut), vocab)
    parent = np.concatenate([kept, live[at]])
    word = np.concatenate([np.full(kept.size, -1), grown])
    cand_lp = np.concatenate([log_prob[kept], scores[at, grown]])
    key = rank[parent] * (vocab + 1) + word
    order = np.lexsort((key, -cand_lp))[:beam_width]
    return parent[order], word[order], cand_lp[order], np.argsort(np.argsort(key[order]))


@contextmanager
def nodes_recorded():
    """Count the tape nodes (op outputs linked to their inputs) that ops
    record while the body runs, by wrapping ``tensor._record``, through
    which every op records its output. Yields a one-entry list that holds
    the count."""
    record, count = tensor._record, [0]

    def counting(data, inputs, backward):
        out = record(data, inputs, backward)
        count[0] += bool(out._prev)
        return out

    tensor._record = counting
    try:
        yield count
    finally:
        tensor._record = record


def t_times_reference(a, b):
    """``a.T @ b`` as ``@`` forms it at any row count: the reference for
    the core's one-row weight gradients, which go through ``np.dot``."""
    return a.T @ b


def sigmoid_reference(z):
    """The sign-split sigmoid as ``tensor.lstm_cell`` formed it with a
    division on each branch."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def matmul_reference(a, b):
    """``tensor.matmul`` in its former two forms: a vector times a matrix
    as ``v @ m`` with a one-row ``a.T @ g`` through ``np.dot`` for the
    weight gradient, and a batch as one-row matrix products with the
    weight gradient as the one-term matrix product of each row of ``a``,
    transposed, with its row of the upstream gradient."""
    pa = a.data[..., None, :]

    def grads(g):
        g = g.reshape(pa.shape[:-1] + b.shape[-1:])
        return [(g @ np.swapaxes(b.data, -1, -2)).reshape(a.shape),
                np.dot(pa.T, g) if pa.ndim == 2 else np.swapaxes(pa, -1, -2) @ g]

    forward = a.data @ b.data if a.data.ndim == 1 else (pa @ b.data)[:, 0, :]
    return _node(forward, [a, b], grads)


# -- the op-by-op attention chains that tensor.pair_attention and
# additive_attention_op fused, kept as references. The add, transpose,
# softmax and matrix product ops they used are no longer in the core, so
# each is rebuilt here from its former code; so are tanh and the
# element-wise product that weights op outputs in the FD cases.

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


def add_op(a, b):
    """Element-wise sum of equal shapes, or a matrix plus a bias added to
    every row (a batch of matrices plus one bias per matrix)."""
    rows = a.shape != b.shape
    assert not rows or b.shape == a.shape[:-2] + a.shape[-1:], (a.shape, b.shape)
    return _node(a.data + (b.data[..., None, :] if rows else b.data), [a, b],
                 lambda g: [g, g.sum(axis=-2) if rows else g])


def tanh_op(x):
    """Element-wise tanh; its backward reads only the output. The core's
    tanh is fused into ``tensor.linear_tanh``; the FD cases squash op
    outputs with this one."""
    y = np.tanh(x.data)
    return _node(y, [x], lambda g: [(1.0 - y * y) * g])


def gather_op(x, index):
    """One entry of each vector along the last axis: ``x[..., index]``.
    The former core ``gather``, verbatim: the word loss took it after
    ``log_softmax``, and ``tensor.target_log_probs`` is held to that chain;
    the batch tests pick one row's loss with it."""
    from objcap.tensor import ShapeError, _record

    index = np.asarray(index)
    if len(x.shape) < 1 or index.shape != x.shape[:-1] \
            or not np.issubdtype(index.dtype, np.integer):
        raise ShapeError(f"gather index shape {index.shape} for shape {x.shape}")
    if np.any((index < 0) | (index >= x.shape[-1])):
        raise ShapeError(f"gather index out of range for shape {x.shape}")
    at = index[..., None]

    def _backward(out):
        grad = np.zeros_like(x.data)
        np.put_along_axis(grad, at, out.grad[..., None], axis=-1)
        x._accumulate(grad)

    return _record(np.take_along_axis(x.data, at, axis=-1)[..., 0], (x,), _backward)


def mul_op(a, b):
    """Element-wise product of equal shapes: the FD cases weight an op's
    output with it."""
    assert a.shape == b.shape, (a.shape, b.shape)
    return _node(a.data * b.data, [a, b], lambda g: [g * b.data, g * a.data])


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

    x = add_op(projected, u)
    scores = matmul_op(x, transpose_op(x)) * (1.0 / math.sqrt(projected.shape[-1]))
    if mask is None:
        alpha = softmax_op(scores)
        return alpha.data, matmul(alpha.mean(axis=-2), projected)
    alpha = softmax_op(scores, mask[..., :, None] & mask[..., None, :])
    weights = mask / np.maximum(mask.sum(axis=-1, keepdims=True), 1)
    return alpha.data, matmul(matmul(Tensor(weights), alpha), projected)


def additive_attention_chain(keys, query, w_a, mask=None):
    """``additive_attention_op`` as the chain of ops it replaced."""
    return softmax_op(matmul_op(tanh_op(add_op(keys, query)), w_a), mask)


# -- the op-by-op decoder step that tensor.word_step fused, kept as its
# reference: the former core ops concat and additive_attention, verbatim,
# and captioner.advance as it composed them with lstm_cell, linear and
# matmul.

def concat_op(parts):
    """Join tensors end to end along the last axis, which their shapes must
    share otherwise: vectors end to end, batches of vectors row by row."""
    from objcap.tensor import ContractError, ShapeError, _record

    if not parts:
        raise ContractError("concat of an empty list")
    datas = [p.data for p in parts]
    try:
        data = np.concatenate(datas, axis=-1)
    except ValueError:      # ranks or leading lengths differ, or a part is a scalar
        raise ShapeError(f"concat over the last axis of shapes "
                         f"{[d.shape for d in datas]}") from None

    def _backward(out):
        off = 0
        for p in parts:
            n = p.shape[-1]
            if p.requires_grad:
                p._accumulate(out.grad[..., off:off + n])
            off += n

    return _record(data, tuple(parts), _backward)


def additive_attention_op(keys, query, w_a, mask=None):
    """``softmax(tanh(keys + query) @ w_a)`` as one node: a distribution
    over the T rows of ``keys`` (T x A, or B x T x A with one query row per
    batch row), scored against ``query`` (A, or B x A) through ``w_a`` (A).

    Where ``mask`` (T, or B x T) is False the weight is exactly 0.0 and
    passes no gradient. The forward repeats the op-by-op chain's numpy
    operations in its order, so the result is the same bit for bit. The
    node keeps only ``alpha``; its backward forms the tanh again.
    """
    from objcap.tensor import ShapeError, _record, masked_softmax

    k_shape = keys.shape
    if (len(k_shape) not in (2, 3) or query.shape != k_shape[:-2] + k_shape[-1:]
            or w_a.shape != k_shape[-1:]):
        raise ShapeError(f"additive_attention shape mismatch: keys {k_shape}, "
                         f"query {query.shape}, w_a {w_a.shape}")

    def hidden():
        return np.tanh(keys.data + query.data[..., None, :])

    alpha = masked_softmax(hidden() @ w_a.data, mask)

    def _backward(out):
        hid = hidden()
        g = out.grad
        g_scores = alpha * (g - (g * alpha).sum(axis=-1, keepdims=True))
        g_z = (1.0 - hid * hid) * (g_scores[..., None] * w_a.data)
        if keys.requires_grad:
            keys._accumulate(g_z)
        if query.requires_grad:
            query._accumulate(g_z.sum(axis=-2))
        if w_a.requires_grad:
            w_a._accumulate(g_scores.reshape(-1) @ hid.reshape(-1, k_shape[-1]))

    return _record(alpha, (keys, query, w_a), _backward)


def advance_chain(p, ctx, embedding, state):
    """``captioner.advance`` as the chain of ops it ran before
    ``tensor.word_step``: returns the new ``DecoderState`` and alpha, a
    node."""
    from objcap.captioner import DecoderState, frame_mean
    from objcap.layers import lstm_step
    from objcap.tensor import linear, matmul

    x1 = concat_op([state.h2, ctx.pooled, embedding])
    h1, c1 = lstm_step(p.attn_lstm, x1, state.h1, state.c1)

    alpha = additive_attention_op(ctx.keys, linear(h1, p.temporal_w_h), p.temporal_w_a,
                                  ctx.frame_mask)

    parts = [h1]
    if p.use_image:
        parts.append(matmul(alpha, ctx.frames))
    if p.use_objects:
        if p.use_coattention:
            parts.append(matmul(alpha, ctx.states))
        else:
            parts.append(frame_mean(ctx.states, ctx.frame_mask))
    h2, c2 = lstm_step(p.lang_lstm, concat_op(parts), state.h2, state.c2)
    return DecoderState(h1=h1, c1=c1, h2=h2, c2=c2), alpha


# -- the former two-op path of tensor.pair_attention: place_rows gathered a
# frame's rows into a padded copy, and the op attended over that copy and
# kept it, with x = p + u, for its backward. Both are kept verbatim as the
# reference that the gathering op is held to with ==.

def place_rows_reference(rows, index, mask=None):
    """Rows ``index`` of a matrix, in that order: as they are, shaped
    ``index.shape + (width,)``, or, for a flat index, placed at the True
    entries of ``mask`` (taken in C order) with a zero row at every other
    position, shaped ``mask.shape + (width,)``."""
    from objcap.tensor import _record

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


def pair_attention_placed(projected, u, mask=None, groups=None):
    """The former ``tensor.pair_attention`` over placed rows ``projected``
    (n x d, or B x n x d)."""
    from objcap.tensor import _record, _rows_times, masked_softmax

    p_shape = projected.shape
    lead, n, width = p_shape[:-2], p_shape[-2], p_shape[-1]
    k = 1 if groups is None else groups
    d = width // k
    bias = u.data[:lead[0]] if lead else u.data

    def by_group():
        return np.ascontiguousarray(np.swapaxes(projected.data.reshape(lead + (n, k, d)), -2, -3))

    p = by_group()
    x = p + bias.reshape(lead + (k, 1, d))
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

    def _backward(out):
        g = out.grad.reshape(lead + (k, d))
        g_mean = _rows_times(g, np.swapaxes(by_group(), -1, -2))
        g_alpha = (np.broadcast_to(g_mean[..., None, :] / n, alpha.shape)
                   if weights is None else weights[..., :, None] * g_mean[..., None, :])
        g_scores = alpha * (g_alpha - (g_alpha * alpha).sum(axis=-1, keepdims=True)) * scale
        g_x = (g_scores + np.swapaxes(g_scores, -1, -2)) @ x
        if projected.requires_grad:
            g_p = g_x + mean[..., :, None] * g[..., None, :]
            projected._accumulate(np.swapaxes(g_p, -2, -3).reshape(p_shape))
        if u.requires_grad:
            g_u = g_x.sum(axis=-2).reshape(bias.shape)
            if g_u.shape != u.shape:
                g_u = np.concatenate([g_u, np.zeros((u.shape[0] - lead[0], width))])
            u._accumulate(g_u)

    pooled = _rows_times(mean, p).reshape(lead + (width,))
    return (alpha if groups else alpha[..., 0, :, :]), _record(pooled, (projected, u), _backward)


# -- corpus BLEU and CIDEr-D as they were written before metrics.ngrams
# counted every order at once: one pass per n-gram order, kept as the
# references the metrics are held to with ==.

def _ngram_counts_by_order(tokens, n):
    from collections import Counter

    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_reference(candidates, references):
    """Corpus BLEU@1..4, counting each n-gram order in its own pass."""
    from collections import Counter

    matched = [0] * 4
    possible = [0] * 4
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        cand_len += len(cand)
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        for n in range(1, 5):
            counts = _ngram_counts_by_order(cand, n)
            if not counts:
                continue
            max_ref = Counter()
            for r in refs:
                for gram, c in _ngram_counts_by_order(r, n).items():
                    if c > max_ref[gram]:
                        max_ref[gram] = c
            possible[n - 1] += sum(counts.values())
            matched[n - 1] += sum(min(c, max_ref[gram]) for gram, c in counts.items())

    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    scores = []
    log_sum = 0.0
    dead = False
    for n in range(4):
        p = matched[n] / possible[n] if possible[n] else 0.0
        if p <= 0.0:
            dead = True
        if dead:
            scores.append(0.0)
        else:
            log_sum += math.log(p)
            scores.append(brevity * math.exp(log_sum / (n + 1)))
    return scores


def _tfidf_vector_reference(counts, doc_freq, log_num_docs):
    vec = [dict() for _ in range(4)]
    norm = [0.0] * 4
    for gram, tf in counts.items():
        idf = log_num_docs - math.log(max(1.0, doc_freq[gram]))
        n = len(gram) - 1
        vec[n][gram] = tf * idf
        norm[n] += vec[n][gram] ** 2
    return vec, [math.sqrt(v) for v in norm]


def cider_d_reference(candidates, references):
    """Corpus CIDEr-D and its per-segment values, counting each n-gram
    order in its own pass; sigma 6, scale 10."""
    from collections import Counter

    def all_orders(sentence):
        counts = Counter()
        for n in range(1, 5):
            counts.update(_ngram_counts_by_order(sentence, n))
        return counts

    doc_freq = Counter()
    for refs in references:
        seen = set()
        for ref in refs:
            for n in range(1, 5):
                seen.update(_ngram_counts_by_order(ref, n))
        doc_freq.update(seen)
    log_num_docs = math.log(len(references))

    per_segment = []
    for cand, refs in zip(candidates, references):
        cand_vec, cand_norm = _tfidf_vector_reference(all_orders(cand), doc_freq,
                                                      log_num_docs)
        total = 0.0
        for ref in refs:
            ref_vec, ref_norm = _tfidf_vector_reference(all_orders(ref), doc_freq,
                                                        log_num_docs)
            delta = float(len(cand) - len(ref))
            penalty = math.exp(-(delta ** 2) / (2.0 * 6.0 ** 2))
            for n in range(4):
                dot = sum(min(w, ref_vec[n].get(gram, 0.0)) * ref_vec[n].get(gram, 0.0)
                          for gram, w in cand_vec[n].items())
                if cand_norm[n] > 0 and ref_norm[n] > 0:
                    total += penalty * dot / (cand_norm[n] * ref_norm[n]) / 4
        per_segment.append(10.0 * total / len(refs))
    return sum(per_segment) / len(per_segment), per_segment


# -- the former forms of the ops whose backward no longer makes full-size
# temporaries, verbatim, as the references they are held to with ==: the
# word loss as three nodes, linear_tanh's slope as one array of the output's
# size, and lstm_cell keeping a separate candidate tanh and tanh(c).

def target_log_probs_chain(x, w, b, targets):
    """``tensor.target_log_probs`` as the three nodes it replaced."""
    from objcap.tensor import linear, log_softmax

    return gather_op(log_softmax(linear(x, w, b)), targets)


def linear_tanh_reference(x, w, b):
    """The former ``tensor.linear_tanh``."""
    from objcap.tensor import _affine, _record

    data, grads, inputs = _affine(x, w, b)
    return _record(np.tanh(data, out=data), inputs,
                   lambda out: grads((1.0 - out.data * out.data) * out.grad))


def lstm_cell_reference(wx, wh, b, x, h_prev, c_prev):
    """The former ``tensor.lstm_cell``, its shape checks left out."""
    from objcap.tensor import _record, _t_times

    x_shape, h_shape = x.data.shape, h_prev.data.shape
    d, hs = x_shape[-1], h_shape[-1]
    a = x_shape[0] if x_shape[:-1] != h_shape[:-1] else None   # rows stepped, when some carry
    hp, cp = (h_prev.data, c_prev.data) if a is None else (h_prev.data[:a], c_prev.data[:a])
    z = (x.data @ wx.data.T + hp @ wh.data.T) + b.data
    # sigmoid split by sign so exp never overflows
    e = np.exp(-np.abs(z))
    s = np.where(z >= 0, 1.0, e) / (1.0 + e)
    i, f, o = s[..., :hs], s[..., hs:2 * hs], s[..., 3 * hs:]
    g = np.tanh(z[..., 2 * hs:3 * hs])
    c_data = f * cp + i * g
    tc = np.tanh(c_data)
    h_data = o * tc
    if a is not None:
        c_data = np.concatenate([c_data, c_prev.data[a:]])
        h_data = np.concatenate([h_data, h_prev.data[a:]])
    handed = []     # h's gradient, from h's backward to c's

    def _backward_c(c):
        dh = handed[0] if handed else None      # h may be off the loss's graph
        dc_out = c.grad
        if a is not None:   # the carried rows pass their gradients straight back
            carried = [np.zeros((h_shape[0] - a, hs)) if grad is None else grad[a:]
                       for grad in (dh, dc_out)]
            dh, dc_out = (None if grad is None else grad[:a] for grad in (dh, dc_out))
        if dh is None:
            dh = 0.0
        dc = (1.0 - tc * tc) * (dh * o)
        if dc_out is not None:
            dc += dc_out
        slope = s * (1.0 - s)
        slope[..., 2 * hs:3 * hs] = 1.0 - g * g
        dz = slope * np.concatenate([dc * g, dc * cp, dc * i, dh * tc], axis=-1)
        dz_rows = dz.reshape(-1, 4 * hs)
        if wx.requires_grad:
            wx._accumulate(_t_times(dz_rows, x.data.reshape(-1, d)))
        if wh.requires_grad:
            wh._accumulate(_t_times(dz_rows, hp.reshape(-1, hs)))
        if b.requires_grad:
            b._accumulate(dz_rows.sum(axis=0))
        if x.requires_grad:
            x._accumulate(dz @ wx.data)
        if h_prev.requires_grad:
            g_h = dz @ wh.data
            h_prev._accumulate(g_h if a is None else np.concatenate([g_h, carried[0]]))
        if c_prev.requires_grad:
            g_c = dc * f
            c_prev._accumulate(g_c if a is None else np.concatenate([g_c, carried[1]]))

    def _backward_h(h):
        handed.append(h.grad)

    c = _record(c_data, (wx, wh, b, x, h_prev, c_prev), _backward_c)
    return _record(h_data, (c,), _backward_h), c
