"""Training loop: ADAM with bias correction, plateau learning-rate drops,
deterministic batching, and a versioned binary checkpoint.

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
those names are the keys of one dict, so no two entries share a name, and
reloading reproduces forward outputs bitwise. Version 1 named the K
interaction groups' weights one group at a time; its files are rejected and
must be retrained. A JSON sidecar (path + ".json") echoes the config block.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .data import Dataset, Reader, Vocabulary, build_vocab, encode_caption, read_json
from .model import Model, ModelConfig, batch_nll, config_from_dict, init_model
from .tensor import ContractError, Tensor, collector_paused

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


def adam_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """One ADAM update in place; parameters are visited in sorted-name order
    so accumulation order never varies."""
    state.step += 1
    t = state.step
    for name in sorted(params):
        p = params[name]
        g = grads[name]
        if g.shape != p.data.shape:
            raise ContractError(f"gradient shape {g.shape} != param shape {p.data.shape}"
                                f" for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        # p -= lr * m_hat / (sqrt(v_hat) + eps), built in place in that order
        den = v / (1.0 - beta2 ** t)
        np.sqrt(den, out=den)
        den += eps
        step = m / (1.0 - beta1 ** t)
        step *= lr
        step /= den
        p.data -= step
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


def _mean_loss(model: Model, items, chunk_size: int) -> float:
    """Mean loss per scored position over ``items``, in chunks of
    ``chunk_size`` as forward-only graphs; a fault names the faulting
    segments (``_checked_nll``)."""
    total, count = 0.0, 0
    for start in range(0, len(items), chunk_size):
        rows, tokens = _checked_nll(model, items[start:start + chunk_size], "validation")
        total += float(np.sum(rows.data))
        count += tokens
        del rows    # a graph never backpropagated: free it before the next chunk builds one
    return total / count


@collector_paused()
def train(cfg: TrainConfig, dataset: Dataset,
          model_overrides: dict | None = None) -> TrainResult:
    """Teacher-forced training over the manifest's train split.

    The vocabulary comes from the training captions, feature widths from the
    data itself. Each batch runs as one padded graph (``model.batch_nll``),
    and validation as chunks of ``VALIDATION_CHUNK`` segments. Identical
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

    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(len(train_items))
        epoch_total, epoch_count = 0.0, 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_items[i] for i in order[start:start + cfg.batch_size]]
            rows, tokens = _checked_nll(model, batch, "training")
            try:    # a fault past the loss, in backward or ADAM, names the batch
                loss_sum = rows.sum()
                batch_loss = loss_sum * (1.0 / tokens)
                batch_loss.backward()
                epoch_total += loss_sum.item()
                epoch_count += tokens
                grads = {name: (np.zeros_like(p.data) if p.grad is None else p.grad)
                         for name, p in params.items()}
                if cfg.grad_clip is not None:
                    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
                    if norm > cfg.grad_clip:
                        scale = cfg.grad_clip / norm
                        grads = {n: g * scale for n, g in grads.items()}
                adam_step(params, grads, adam, lr, cfg.beta1, cfg.beta2, cfg.eps)
                for p in params.values():   # no gradient outlives its step
                    p.zero_grad()
                del grads
            except FloatingPointError as exc:
                raise _fault(batch, "training", exc) from None

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

    return TrainResult(model=model, vocab=vocab, adam=adam, log=log)


# -- checkpoint io ------------------------------------------------------------


def save_checkpoint(path: str | Path, model: Model, vocab: Vocabulary,
                    adam: AdamState, train_cfg: TrainConfig) -> None:
    entries: list[tuple[str, np.ndarray]] = []
    for name, p in model.named_parameters().items():
        entries.append((f"param/{name}", p.data))
        entries.append((f"adam_m/{name}", adam.m.get(name, np.zeros_like(p.data))))
        entries.append((f"adam_v/{name}", adam.v.get(name, np.zeros_like(p.data))))
    entries.sort(key=lambda e: e[0])

    config = {"model": model.config.to_dict(), "train": train_cfg.to_dict(),
              "vocab": vocab.to_list(), "format_version": CKPT_VERSION}
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    chunks = [CKPT_MAGIC, struct.pack("<I", CKPT_VERSION),
              struct.pack("<Q", adam.step),
              struct.pack("<I", len(blob)), blob,
              struct.pack("<I", len(entries))]
    for name, arr in entries:
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(raw)))
        chunks.append(raw)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))
    Path(str(path) + ".json").write_text(json.dumps(config, sort_keys=True, indent=1) + "\n")


@dataclass
class Checkpoint:
    model: Model
    vocab: Vocabulary
    adam: AdamState
    train_config: TrainConfig


def load_checkpoint(path: str | Path) -> Checkpoint:
    r = Reader(Path(path).read_bytes(),
               error=lambda msg, off: ContractError(f"checkpoint {msg} (at byte {off})"))
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
    table: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text()
        ndim = r.u32()
        if ndim > 2:   # every parameter is a vector or a matrix
            raise r.error(f"tensor {name} has rank {ndim}", r.off - 4)
        shape = tuple(r.u32() for _ in range(ndim))
        start = r.off
        table[name] = r.floats(math.prod(shape)).reshape(shape)
        if not np.all(np.isfinite(table[name])):
            raise r.error(f"tensor {name} has non-finite values", start)
    r.end()

    vocab = Vocabulary.from_list(blob["vocab"])
    model = init_model(ModelConfig.from_dict(blob["model"]), seed=0)
    if vocab.size != model.config.vocab_size:
        raise ContractError(f"checkpoint vocabulary has {vocab.size} words, its model "
                            f"config 'vocab_size' {model.config.vocab_size}")
    adam = AdamState(step=step)
    params = model.named_parameters()
    expected = {f"{kind}/{name}" for name in params for kind in ("param", "adam_m", "adam_v")}
    if expected != set(table):
        raise ContractError("checkpoint tensor table does not match the model layout")
    for entry, arr in table.items():
        shape = params[entry.partition("/")[2]].data.shape
        if arr.shape != shape:
            raise ContractError(f"checkpoint tensor {entry} has shape {arr.shape}, "
                                f"expected {shape}")
    for name, p in params.items():
        p.data[:] = table[f"param/{name}"]
        adam.m[name] = table[f"adam_m/{name}"]
        adam.v[name] = table[f"adam_v/{name}"]
    return Checkpoint(model=model, vocab=vocab, adam=adam,
                      train_config=TrainConfig.from_dict(blob["train"]))
