"""Training loop: ADAM with bias correction, plateau learning-rate drops,
deterministic batching in fixed micro-batches (run in forked workers where
a second CPU is usable), and a versioned binary checkpoint.

ADAM runs over flat float64 buffers. An ``AdamState`` lays them out on its
first step (``adam_step``): one for the parameters and one for each moment,
in sorted-name order (``_flat_views``, the training workers' layout too).
Each parameter's Tensor and each moment's entry then holds its view. The
state owns the layout: while ``train`` runs the model's parameters are
views of its buffer, and ``train`` ends the layout before it returns
(``AdamState.release``), so the parameters it returns own their arrays and
only the moments' two buffers live on with the state. A step's workspace,
the gradients' copy and a scratch, is one array that the step makes and
frees: kept between steps, it would sit through every backward's peak.

Checkpoint layout (integers little-endian u32 unless noted):

    magic      4 bytes  b"VCKP"
    version    u32      2
    step       u64      optimizer step counter
    config     u32 byte length + UTF-8 JSON (model dims, train settings,
                        vocabulary)
    entries    u32 count, then per entry:
                   name   u32 byte length + UTF-8
                   rank   u32, dims u32 each
                   data   float64 little-endian, row-major

Entry names are "param/", "adam_m/" and "adam_v/" plus the model's parameter
name, its attribute path (``interaction.proj.w``, ``captioner.out_w``);
the parameter names are the keys of one dict, so no two entries share a
name, and reloading reproduces forward outputs bitwise. Version 1 named the
K interaction groups' weights one group at a time; its files are rejected
and must be retrained. A JSON sidecar (path + ".json") echoes the config
block.

Entries are written and read one at a time, in name order. A save writes
each straight from the model's or the ADAM state's array, and adds beyond
them only the zeros of one ADAM moment not yet made. A load reads the
header, builds the model its config names with ``init_model`` drawing
nothing (``seed=None``), then reads each entry into a fresh array that is
copied into its parameter or kept as its ADAM moment; beyond what it
returns it holds one entry at a time.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import (Dataset, Reader, ValidationError, Vocabulary, build_vocab, encode_caption,
                   read_json, write_json)
from .model import Model, ModelConfig, batch_nll, config_from_dict, init_model
from .tensor import ContractError, Tensor, collector_paused, no_tape

CKPT_MAGIC = b"VCKP"
CKPT_VERSION = 2


@dataclass
class TrainConfig:
    lr: float = 1e-3
    plateau_factor: float = 0.1
    plateau_patience: int = 5
    min_improvement: float = 1e-4
    batch_size: int = 32
    max_epochs: int = 100
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float | None = None
    stop_train_loss: float | None = None

    def validate(self) -> "TrainConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ContractError(f"train config {f.name!r} must be finite, got {value}")
        if self.lr <= 0:
            raise ContractError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ContractError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.max_epochs < 0:
            raise ContractError(f"max_epochs must be non-negative, got {self.max_epochs}")
        if self.seed < 0:
            raise ContractError(f"train config 'seed' must be non-negative, got {self.seed}")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ContractError("plateau_factor must be in (0, 1)")
        if self.plateau_patience < 1:
            raise ContractError("plateau_patience must be at least 1")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ContractError("beta1 and beta2 must be in [0, 1)")
        if not self.eps > 0.0:
            raise ContractError("eps must be positive")
        if self.grad_clip is not None and not self.grad_clip > 0.0:
            raise ContractError("grad_clip must be positive when set")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return config_from_dict(cls, d, "train")


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    # adam_step's layout: the parameters' views of the flat parameter
    # buffer, then the flat parameter and moment buffers (module docstring)
    flat: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def release(self, params: dict[str, Tensor]) -> None:
        """End the flat layout: each of ``params`` gets its own copy of its
        array and the flat parameter buffer goes; the moments stay views of
        theirs."""
        for p in params.values():
            p.data = p.data.copy()
        self.flat = None


def _lay_out(params: dict[str, Tensor], state: AdamState) -> tuple:
    """Move ``params``' arrays into one flat buffer, and ``state``'s moments
    (zeros where it holds none) into one each, as views in sorted-name
    order (``_flat_views``); returns the layout ``state.flat`` keeps."""
    size = sum(p.data.size for p in params.values())
    data, m, v = np.empty(size), np.zeros(size), np.zeros(size)
    views = _flat_views(data, params)
    for name, view in views.items():
        view[...] = params[name].data
        params[name].data = view
    for moments, buffer in ((state.m, m), (state.v, v)):
        for name, view in _flat_views(buffer, params).items():
            if name in moments:
                view[...] = moments[name]
            moments[name] = view
    return views, data, m, v


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """One ADAM update in place: 14 elementwise operations, each run once
    over the flat buffers of ``state.flat`` (laid out on first use and again
    once a parameter's array is not its view) and over the step's workspace,
    one array made here: the gradients copied in, and a scratch. Each
    element is formed as in ``p -= lr * m_hat / (sqrt(v_hat) + eps)``, in
    that order."""
    for name in sorted(params):
        if grads[name].shape != params[name].data.shape:
            raise ContractError(f"gradient shape {grads[name].shape} != param shape "
                                f"{params[name].data.shape} for {name}")
    if state.flat is None or state.flat[0].keys() != params.keys() or any(
            params[name].data is not view for name, view in state.flat[0].items()):
        state.flat = _lay_out(params, state)
    views, data, m, v = state.flat
    state.step += 1
    t = state.step
    g, s = np.empty((2, data.size))
    np.concatenate([grads[name] for name in views], axis=None, out=g)
    m *= beta1
    np.multiply(g, 1.0 - beta1, out=s)
    m += s
    v *= beta2
    np.multiply(g, 1.0 - beta2, out=s)
    s *= g
    v += s
    # sqrt(v_hat) + eps in the scratch, then lr * m_hat / it over the gradient
    np.divide(v, 1.0 - beta2 ** t, out=s)
    np.sqrt(s, out=s)
    s += eps
    np.divide(m, 1.0 - beta1 ** t, out=g)
    g *= lr
    g /= s
    data -= g
    return state


@dataclass
class TrainResult:
    model: Model
    vocab: Vocabulary
    adam: AdamState
    log: list[dict]


def _dataset_items(segments, vocab):
    items = []
    for seg in segments:
        for cap in seg.captions:
            items.append((seg, encode_caption(vocab, cap)))
    return items


# Validation runs in chunks of this many segments whatever the training
# batch size (the default batch), so its loss does not depend on it.
VALIDATION_CHUNK = 32


def _fault(items, split: str, what) -> ContractError:
    ids = ", ".join(dict.fromkeys(seg.segment_id for seg, _ in items))
    return ContractError(f"{split} batch of segments {ids}: {what}")


@no_tape()
def _faults_alone(model: Model, item) -> bool:
    try:
        rows, _ = batch_nll(model, [item])
    except FloatingPointError:
        return True
    return not np.isfinite(rows.data).all()


def _checked_nll(model: Model, items, split: str) -> tuple[Tensor, int]:
    """``batch_nll`` over ``items``, a fault raised as a ``ContractError``
    that names only the faulting segments: for a non-finite loss those of
    non-finite rows, for a numpy fault (under the CLI's ``np.errstate``)
    those that fault alone, found on the error path only (the whole batch
    if none does)."""
    try:
        rows, tokens = batch_nll(model, items)
    except FloatingPointError as exc:
        bad = [item for item in items if _faults_alone(model, item)]
        raise _fault(bad or items, split, exc) from None
    finite = np.isfinite(rows.data)
    if not finite.all():
        bad = [item for item, ok in zip(items, finite) if not ok]
        raise _fault(bad, split, "non-finite loss")
    return rows, tokens


@no_tape()
def _mean_loss(model: Model, items, chunk_size: int) -> float:
    """Mean loss per scored position over ``items``, in chunks of
    ``chunk_size``, each a forward off the tape (``no_tape``): it builds no
    graph, and each intermediate is freed once read. A fault names the
    faulting segments (``_checked_nll``)."""
    total, count = 0.0, 0
    for start in range(0, len(items), chunk_size):
        rows, tokens = _checked_nll(model, items[start:start + chunk_size], "validation")
        total += float(np.sum(rows.data))
        count += tokens
        del rows    # gone before the next chunk's forward, not once it returns
    return total / count


# Every training batch above this many items runs as consecutive
# micro-batches of it (the last may be shorter), so the cut, and with it
# every bit, does not depend on how many processes run them; like
# VALIDATION_CHUNK it is not in the checkpoint.
MICRO_BATCH = 16


def _worker_count(micro_batches: int) -> int:
    """Processes to fork beside ``train`` for batches of ``micro_batches``:
    one per micro-batch past the first, up to the usable CPUs less one.
    None where ``os.sched_getaffinity`` is missing: it is Linux's, where a
    fork after numpy has loaded its BLAS is safe. It changes the speed
    only, never a bit."""
    if micro_batches < 2 or not hasattr(os, "sched_getaffinity"):
        return 0
    return min(micro_batches - 1, len(os.sched_getaffinity(0)) - 1)


def _micro_grads(model: Model, params: dict[str, Tensor], items,
                 tokens: int) -> tuple[float, dict[str, np.ndarray]]:
    """Forward and backward of one micro-batch, its loss scaled by
    1/``tokens`` (the whole batch's), in a fresh accumulation: returns its
    loss sum and the gradients, taken off the parameters. A fault names
    ``items`` (``_checked_nll``; past the loss, all of them)."""
    rows, _ = _checked_nll(model, items, "training")
    try:
        loss_sum = rows.sum()
        (loss_sum * (1.0 / tokens)).backward()
    except FloatingPointError as exc:
        raise _fault(items, "training", exc) from None
    grads = {}
    for name, p in params.items():
        grads[name] = np.zeros_like(p.data) if p.grad is None else p.grad
        p.zero_grad()
    return loss_sum.item(), grads


def _flat_views(buffer, params: dict[str, Tensor], block: int = 0) -> dict[str, np.ndarray]:
    """Arrays of ``params``' shapes laid one after another, in sorted-name
    order, as float64 in block ``block`` of ``buffer`` (a block holds one
    array of each)."""
    flat, views = np.frombuffer(buffer, dtype=np.float64), {}
    offset = block * sum(p.data.size for p in params.values())
    for name in sorted(params):
        shape = params[name].data.shape
        views[name] = flat[offset:offset + math.prod(shape)].reshape(shape)
        offset += math.prod(shape)
    return views


# in a worker process: (model, its parameters, the items, the shared mapping)
_served = None


def _serve(model: Model, items, mapping: mmap.mmap) -> None:
    """A worker's start: its parameters become the views of block 0."""
    global _served
    params = model.named_parameters()
    for name, view in _flat_views(mapping, params).items():
        params[name].data = view
    _served = model, params, items, mapping


def _serve_micro_batch(m: int, chunk: list[int], tokens: int) -> float:
    """Run micro-batch ``m`` (``chunk`` indexes the items) in a worker: its
    gradient goes to block ``m`` of the mapping, its loss sum is returned."""
    model, params, items, mapping = _served
    loss_sum, grads = _micro_grads(model, params, [items[i] for i in chunk], tokens)
    for name, view in _flat_views(mapping, params, m).items():
        view[...] = grads[name]
    return loss_sum


class _Workers:
    """A pool of processes forked by ``train`` that run micro-batches beside
    it; leaving the ``with`` reaps them.

    With P processes, this one counted, micro-batch m of a batch runs here
    when m % P is 0 and in the pool otherwise. The workers compute on the
    parameters in block 0 of one anonymous shared mapping, which ``submit``
    writes from the caller's own arrays before each batch, so no array the
    caller holds is backed by it; micro-batch m's gradient comes back in
    block m, its loss sum or its fault through its future.
    """

    def __init__(self, count: int, model: Model, items, micro_batches: int):
        # imported here, off the import of this module that every command pays
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        self._processes = count + 1
        self._params = model.named_parameters()
        size = sum(p.data.size for p in self._params.values())
        self._mapping = mmap.mmap(-1, 8 * size * micro_batches)
        self._pool = ProcessPoolExecutor(count, get_context("fork"), initializer=_serve,
                                         initargs=(model, items, self._mapping))

    def submit(self, params: dict[str, Tensor], chunks: list[list[int]], tokens: int) -> dict:
        """Write the parameters into the mapping and send the pool its
        micro-batches of the batch; returns their futures, as {m: future}."""
        for name, view in _flat_views(self._mapping, self._params).items():
            view[...] = params[name].data
        return {m: self._pool.submit(_serve_micro_batch, m, chunks[m], tokens)
                for m in range(len(chunks)) if m % self._processes}

    def gradient(self, m: int) -> dict[str, np.ndarray]:
        """Views of micro-batch ``m``'s gradient, once its future is done."""
        return _flat_views(self._mapping, self._params, m)

    def __enter__(self) -> "_Workers":
        return self

    def __exit__(self, kind, exc, tb) -> None:
        """Wait for the pool's work, reap the workers, let go of the mapping.
        A worker's death breaks the pool, which stops the others with
        SIGTERM (exit code -15), and becomes one ``ChildProcessError``."""
        from concurrent.futures.process import BrokenProcessPool

        processes = getattr(self._pool, "_processes", None) or {}   # shutdown drops the pool's
        self._pool.shutdown(cancel_futures=True)
        with suppress(BufferError):     # a view an exception's frames hold: freed with it
            self._mapping.close()
        if isinstance(exc, BrokenProcessPool):
            ended = {pid: p.exitcode for pid, p in processes.items() if p.exitcode}
            dead = {pid: code for pid, code in ended.items() if code != -15} or ended
            named = ", ".join(f"{pid} (exit code {code})" for pid, code in sorted(dead.items()))
            raise ChildProcessError(f"training worker process {named} died; training stopped")


def _batch_grads(model: Model, params: dict[str, Tensor], items, batch: list[int],
                 tokens: int, workers: _Workers | None) -> tuple[float, dict[str, np.ndarray]]:
    """Loss sum and gradient of the batch of ``items`` that ``batch``
    indexes: those of its micro-batches of ``MICRO_BATCH``, each scaled by
    1/``tokens`` (the batch's scored tokens) and summed in micro-batch
    order. Micro-batch m runs here or in ``workers`` (``_Workers``). A
    fault raised is the first micro-batch's."""
    chunks = [batch[k:k + MICRO_BATCH] for k in range(0, len(batch), MICRO_BATCH)]
    pending = {} if workers is None or len(chunks) < 2 else workers.submit(params, chunks, tokens)
    results, faults, losses = {}, {}, {}
    for m in range(len(chunks)):
        if m in pending:
            continue
        try:
            results[m] = _micro_grads(model, params, [items[i] for i in chunks[m]], tokens)
        except Exception as exc:    # raised below, unless an earlier micro-batch faulted
            faults[m] = exc
            break
    for m, future in pending.items():
        try:
            losses[m] = future.result()
        except Exception as exc:
            faults[m] = exc
    if faults:
        raise faults[min(faults)]
    for m, loss in losses.items():  # viewed only now: no view of the mapping outlives a fault
        results[m] = loss, workers.gradient(m)
    loss_sum, grads = results.pop(0)
    for m in range(1, len(chunks)):
        loss, more = results.pop(m)
        loss_sum += loss
        for name, g in grads.items():
            g += more[name]
    return loss_sum, grads


@collector_paused()
def train(cfg: TrainConfig, dataset: Dataset,
          model_overrides: dict | None = None) -> TrainResult:
    """Teacher-forced training over the manifest's train split.

    The vocabulary comes from the training captions, feature widths from the
    data itself. A batch of up to ``MICRO_BATCH`` items runs as one padded
    graph (``model.batch_nll``); a larger one as consecutive micro-batches
    of ``MICRO_BATCH``, each a graph of its own, its loss scaled by 1/(the
    batch's scored tokens), their gradients summed in micro-batch order
    before clipping and ADAM (``_batch_grads``). On Linux, where a second
    CPU is usable, micro-batches past the first also run in a pool of
    worker processes forked once the model is built (``_Workers``, one per
    micro-batch past the first, up to the usable CPUs less one) and reaped
    before this returns or raises; the bits are those of one process.
    Validation runs as chunks of ``VALIDATION_CHUNK`` segments. Identical
    (config, dataset) pairs produce byte-identical checkpoints: shuffling,
    initialization and accumulation order all flow from the seed. The cyclic
    garbage collector is paused meanwhile.
    """
    cfg.validate()
    if not dataset.train or not dataset.val:
        raise ContractError("dataset needs non-empty train and val splits")

    vocab = build_vocab([c for seg in dataset.train for c in seg.captions])
    overrides = {} if model_overrides is None else model_overrides
    if not isinstance(overrides, dict) or "vocab_size" in overrides:
        raise ContractError("model config must be a JSON object without 'vocab_size'")
    # the width of the first training frame with objects; an empty frame may be (0, 0)
    object_dim = next((objs.shape[1] for seg in dataset.train for objs in seg.object_feats
                       if objs.shape[0]), None)
    if object_dim is None:
        raise ContractError("no training frame has an object, so the object width is unknown")
    model_cfg = ModelConfig.from_dict({
        "image_dim": dataset.train[0].image_feats.shape[1],
        "object_dim": object_dim,
        **overrides, "vocab_size": vocab.size})
    model = init_model(model_cfg, seed=cfg.seed)

    params = model.named_parameters()
    adam = AdamState()
    shuffle_rng = np.random.default_rng(cfg.seed + 1)
    train_items = _dataset_items(dataset.train, vocab)
    val_items = _dataset_items(dataset.val, vocab)
    lr = cfg.lr
    best_val = float("inf")
    stale_epochs = 0
    log: list[dict] = []

    micro_batches = -(-min(cfg.batch_size, len(train_items)) // MICRO_BATCH)
    count = _worker_count(micro_batches) if cfg.max_epochs else 0
    with _Workers(count, model, train_items, micro_batches) if count else nullcontext() as workers:
        for epoch in range(cfg.max_epochs):
            order = shuffle_rng.permutation(len(train_items)).tolist()
            epoch_total, epoch_count = 0.0, 0
            for start in range(0, len(order), cfg.batch_size):
                batch = order[start:start + cfg.batch_size]
                # the batch's scored positions, counted before any forward
                tokens = sum(len(train_items[i][1]) - 1 for i in batch)
                loss_sum, grads = _batch_grads(model, params, train_items, batch, tokens, workers)
                epoch_total += loss_sum
                epoch_count += tokens
                try:    # a fault past the gradients, in clipping or ADAM, names the batch
                    if cfg.grad_clip is not None:
                        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                        if norm > cfg.grad_clip:
                            scale = cfg.grad_clip / norm
                            grads = {n: g * scale for n, g in grads.items()}
                    adam_step(params, grads, adam, lr, cfg.beta1, cfg.beta2, cfg.eps)
                    del grads   # no gradient outlives its step
                except FloatingPointError as exc:
                    raise _fault([train_items[i] for i in batch], "training", exc) from None

            train_loss = epoch_total / epoch_count
            val_loss = _mean_loss(model, val_items, VALIDATION_CHUNK)
            log.append({"epoch": epoch, "lr": lr, "train_loss": train_loss,
                        "val_loss": val_loss})

            if best_val - val_loss > cfg.min_improvement:
                stale_epochs = 0
            else:
                stale_epochs += 1
                if stale_epochs >= cfg.plateau_patience:
                    lr *= cfg.plateau_factor
                    stale_epochs = 0
            best_val = min(best_val, val_loss)
            if cfg.stop_train_loss is not None and train_loss < cfg.stop_train_loss:
                break

    adam.release(params)
    return TrainResult(model=model, vocab=vocab, adam=adam, log=log)


# -- checkpoint io ------------------------------------------------------------


def save_checkpoint(path: str | Path, model: Model, vocab: Vocabulary,
                    adam: AdamState, train_cfg: TrainConfig) -> None:
    """Write the header, then one entry at a time in name order, straight
    from the model's and ``adam``'s arrays; a moment ADAM has not made yet
    is written as zeros, made for its entry alone."""
    params = model.named_parameters()
    sources = {"param": {name: p.data for name, p in params.items()},
               "adam_m": adam.m, "adam_v": adam.v}
    entries = sorted(f"{kind}/{name}" for kind in sources for name in params)
    config = {"model": model.config.to_dict(), "train": train_cfg.to_dict(),
              "vocab": vocab.to_list(), "format_version": CKPT_VERSION}
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CKPT_MAGIC + struct.pack("<IQI", CKPT_VERSION, adam.step, len(blob)) + blob
                + struct.pack("<I", len(entries)))
        for entry in entries:
            kind, _, name = entry.partition("/")
            arr = sources[kind].get(name)
            if arr is None:
                arr = np.zeros_like(params[name].data)
            raw = entry.encode("utf-8")
            f.write(struct.pack(f"<I{len(raw)}sI{arr.ndim}I", len(raw), raw, arr.ndim,
                                *arr.shape))
            f.write(np.ascontiguousarray(arr, dtype="<f8"))
    write_json(f"{path}.json", config)


@dataclass
class Checkpoint:
    model: Model
    vocab: Vocabulary
    adam: AdamState
    train_config: TrainConfig


def _checkpoint_model(blob: dict) -> tuple[Model, Vocabulary]:
    vocab = Vocabulary.from_list(blob["vocab"])
    model = init_model(ModelConfig.from_dict(blob["model"]), seed=None)
    if vocab.size != model.config.vocab_size:
        raise ContractError(f"checkpoint vocabulary has {vocab.size} words, its model "
                            f"config 'vocab_size' {model.config.vocab_size}")
    return model, vocab


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read the header, build the model its config names, then read one
    entry at a time into the model's parameters and a fresh ``AdamState``.
    A fault in the config or in the entry table is raised only once the
    whole file has parsed, so a parse fault anywhere reports first."""
    with open(path, "rb") as f:
        r = Reader(f, error=lambda msg, off: ContractError(f"checkpoint {msg} (at byte {off})"))
        if r.pull(4) != CKPT_MAGIC:
            raise r.error("has bad magic", 0)
        version = r.u32()
        if version != CKPT_VERSION:
            raise r.error(f"version {version} is unsupported", 4)
        step = struct.unpack("<Q", r.pull(8))[0]
        blob_at = r.off
        blob = read_json(path, r.text())
        if not isinstance(blob, dict) or not {"vocab", "model", "train"} <= blob.keys():
            raise r.error("config must be a JSON object with 'vocab', 'model' and 'train'",
                          blob_at)
        try:
            model, vocab = _checkpoint_model(blob)
            params, fault = model.named_parameters(), None
        except (ValidationError, ContractError) as exc:     # raised once the entries parse
            params, fault = {}, exc
        adam = AdamState(step=step)
        moments = {"adam_m": adam.m, "adam_v": adam.v}
        shapes: dict[str, tuple[int, ...]] = {}     # each name's last shape read
        for _ in range(r.u32()):
            name = r.text()
            ndim = r.u32()
            if ndim > 2:   # every parameter is a vector or a matrix
                raise r.error(f"tensor {name} has rank {ndim}", r.off - 4)
            shape = tuple(r.u32() for _ in range(ndim))
            start = r.off
            arr = r.floats(math.prod(shape)).reshape(shape)
            if not np.all(np.isfinite(arr)):
                raise r.error(f"tensor {name} has non-finite values", start)
            shapes[name] = shape
            kind, _, key = name.partition("/")
            if key not in params or params[key].data.shape != shape:
                continue
            if kind == "param":
                params[key].data[:] = arr
            elif kind in moments:
                moments[kind][key] = arr
        r.end()
    if fault is not None:
        raise fault
    expected = {f"{kind}/{name}" for name in params for kind in ("param", "adam_m", "adam_v")}
    if expected != set(shapes):
        raise ContractError("checkpoint tensor table does not match the model layout")
    for entry, shape in shapes.items():
        want = params[entry.partition("/")[2]].data.shape
        if shape != want:
            raise ContractError(f"checkpoint tensor {entry} has shape {shape}, "
                                f"expected {want}")
    return Checkpoint(model=model, vocab=vocab, adam=adam,
                      train_config=TrainConfig.from_dict(blob["train"]))
