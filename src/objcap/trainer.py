"""Training loop: ADAM with bias correction, plateau learning-rate drops,
deterministic batching, and a versioned binary checkpoint.

Checkpoint layout (integers little-endian u32 unless noted):

    magic      4 bytes  b"VCKP"
    version    u32      1
    step       u64      optimizer step counter
    config     u32 byte length + UTF-8 JSON (model dims, train settings,
                        vocabulary)
    entries    u32 count, then per entry:
                   name   u32 byte length + UTF-8
                   rank   u32, dims u32 each
                   data   float64 little-endian, row-major

Entry names are "param/", "adam_m/" and "adam_v/" plus the model's parameter
name; the set must be collision-free and reloading reproduces forward
outputs bitwise. A JSON sidecar (path + ".json") echoes the config block.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, Reader, Vocabulary, build_vocab, encode_caption
from .model import Model, ModelConfig, config_from_dict, init_model, segment_context
from .captioner import forward_teacher_forced
from .tensor import ContractError, Tensor

CKPT_MAGIC = b"VCKP"
CKPT_VERSION = 1


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
        if self.lr <= 0 or self.batch_size < 1 or self.max_epochs < 0:
            raise ContractError("lr, batch_size and max_epochs must be positive")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ContractError("plateau_factor must be in (0, 1)")
        if self.plateau_patience < 1:
            raise ContractError("plateau_patience must be at least 1")
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
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
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


def _mean_loss(model: Model, items) -> float:
    total, count = 0.0, 0
    for seg, ids in items:
        ctx, _ = segment_context(model, seg.image_feats, seg.object_feats)
        res = forward_teacher_forced(model.captioner, ctx, ids)
        total += res.loss_sum.item()
        count += res.scored_positions
    return total / count


def train(cfg: TrainConfig, dataset: Dataset,
          model_overrides: dict | None = None) -> TrainResult:
    """Teacher-forced training over the manifest's train split.

    The vocabulary comes from the training captions, feature widths from the
    data itself. Identical (config, dataset) pairs produce byte-identical
    checkpoints: shuffling, initialization and accumulation order all flow
    from the seed.
    """
    cfg.validate()
    if not dataset.train or not dataset.val:
        raise ContractError("dataset needs non-empty train and val splits")

    vocab = build_vocab([c for seg in dataset.train for c in seg.captions])
    overrides = {} if model_overrides is None else model_overrides
    if not isinstance(overrides, dict) or "vocab_size" in overrides:
        raise ContractError("model config must be a JSON object without 'vocab_size'")
    model_cfg = ModelConfig.from_dict({
        "image_dim": dataset.train[0].image_feats.shape[1],
        "object_dim": dataset.train[0].object_feats[0].shape[1],
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
            for p in params.values():
                p.zero_grad()
            loss_sum = None
            tokens = 0
            for seg, ids in batch:
                ctx, _ = segment_context(model, seg.image_feats, seg.object_feats)
                res = forward_teacher_forced(model.captioner, ctx, ids)
                loss_sum = res.loss_sum if loss_sum is None else loss_sum + res.loss_sum
                tokens += res.scored_positions
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

        train_loss = epoch_total / epoch_count
        val_loss = _mean_loss(model, val_items)
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


def _config_blob(model: Model, vocab: Vocabulary, train_cfg: TrainConfig) -> dict:
    return {"model": model.config.to_dict(), "train": train_cfg.to_dict(),
            "vocab": vocab.to_list(), "format_version": CKPT_VERSION}


def save_checkpoint(path: str | Path, model: Model, vocab: Vocabulary,
                    adam: AdamState, train_cfg: TrainConfig) -> None:
    params = model.named_parameters()
    entries: list[tuple[str, np.ndarray]] = []
    for name, p in params.items():
        entries.append((f"param/{name}", p.data))
        entries.append((f"adam_m/{name}", adam.m.get(name, np.zeros_like(p.data))))
        entries.append((f"adam_v/{name}", adam.v.get(name, np.zeros_like(p.data))))
    names = [n for n, _ in entries]
    if len(set(names)) != len(names):
        raise ContractError("parameter names collide")
    entries.sort(key=lambda e: e[0])

    blob = json.dumps(_config_blob(model, vocab, train_cfg), sort_keys=True).encode("utf-8")
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
    Path(str(path) + ".json").write_text(
        json.dumps(_config_blob(model, vocab, train_cfg), sort_keys=True, indent=1) + "\n")


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
    blob = json.loads(r.text())
    if not isinstance(blob, dict) or not {"vocab", "model", "train"} <= blob.keys():
        raise r.error("config must be a JSON object with 'vocab', 'model' and 'train'",
                      blob_at)
    table: dict[str, np.ndarray] = {}
    for _ in range(r.u32()):
        name = r.text()
        ndim = r.u32()
        shape = tuple(r.u32() for _ in range(ndim))
        start = r.off
        table[name] = r.floats(math.prod(shape)).reshape(shape)
        if not np.all(np.isfinite(table[name])):
            raise r.error(f"tensor {name} has non-finite values", start)

    vocab = Vocabulary.from_list(blob["vocab"])
    model = init_model(ModelConfig.from_dict(blob["model"]), seed=0)
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
