"""Whole-model bundle: configuration, seeded construction, named parameters,
the segment-level forward that feeds the decoder, and the padded batch that
training runs as one graph."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .captioner import (
    CaptionerParams,
    SegmentContext,
    init_captioner,
    precompute_frames,
    teacher_forced_nll,
)
from .data import MAX_CAPTION_WORDS
from .interaction import (
    InteractionParams,
    init_interaction,
    interaction_sequence,
    interaction_states,
    pack_objects,
)
from .layers import named_tensors
from .tensor import ContractError, Tensor

_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def config_from_dict(cls, d, section: str):
    """Build the config dataclass ``cls`` from a JSON object, rejecting
    unknown or missing keys and wrongly typed values; a float field gets ``float(value)``."""
    if not isinstance(d, dict):
        raise ContractError(f"{section} config must be a JSON object")
    declared = {f.name: f.type for f in fields(cls)}
    values = {}
    for key, value in d.items():
        if key not in declared:
            raise ContractError(f"unknown {section} config key {key!r}")
        kind, _, optional = declared[key].partition(" | ")
        if not (value is None and optional or type(value) in _JSON_TYPES[kind]):
            raise ContractError(f"{section} config {key!r} must be {declared[key]}, "
                                f"got {value!r}")
        try:
            values[key] = float(value) if kind == "float" and value is not None else value
        except OverflowError:   # a JSON integer too large for a float
            raise ContractError(f"{section} config {key!r} is too large for a float") from None
    try:
        return cls(**values)
    except TypeError as exc:  # a key without a default is missing
        raise ContractError(f"{section} config: {exc}") from None


@dataclass
class ModelConfig:
    """Dimensions and mode flags; defaults are the desk-scale setting."""

    vocab_size: int
    image_dim: int = 32
    object_dim: int = 32
    num_groups: int = 2
    attn_dim: int = 32
    interaction_hidden: int = 32
    img_proj_dim: int = 32
    embed_dim: int = 16
    attn_hidden: int = 32
    lang_hidden: int = 32
    max_words: int = 30
    use_image: bool = True
    use_objects: bool = True
    use_coattention: bool = True

    def validate(self) -> "ModelConfig":
        if not 1 <= self.max_words <= MAX_CAPTION_WORDS:
            raise ContractError(f"model config 'max_words' must be in 1..{MAX_CAPTION_WORDS}, "
                                f"got {self.max_words}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and value < 1:
                raise ContractError(f"model config {f.name!r} must be at least 1, got {value}")
        if self.vocab_size < 3:
            raise ContractError(f"model config 'vocab_size' must cover PAD, BOS and EOS, "
                                f"got {self.vocab_size}")
        if not (self.use_image or self.use_objects):
            raise ContractError("model config needs 'use_image' or 'use_objects'")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Keys and types as ``config_from_dict`` checks them; ``init_model``
        validates the values."""
        return config_from_dict(cls, d, "model")


@dataclass
class Model:
    config: ModelConfig
    interaction: InteractionParams
    captioner: CaptionerParams

    def named_parameters(self) -> dict[str, Tensor]:
        """Every parameter, named by ``layers.named_tensors``; the config holds none."""
        return named_tensors(self)


def init_model(config: ModelConfig, seed: int) -> Model:
    config.validate()
    rng = np.random.default_rng(seed)
    interaction = init_interaction(rng, config)
    captioner = init_captioner(rng, config)
    return Model(config=config, interaction=interaction, captioner=captioner)


def check_features(cfg: ModelConfig, image: np.ndarray, objects: list[np.ndarray]) -> None:
    """Reject a segment whose image features are not T x D (T >= 1), with
    other than one object array per frame, or widths other than the model's."""
    if image.ndim != 2 or image.shape[0] < 1:
        raise ContractError(f"image features must be T x D with T >= 1, got {image.shape}")
    if len(objects) != image.shape[0]:
        raise ContractError("one object array per frame required")
    widths = {objs.shape[1] for objs in objects if objs.shape[0]}
    if image.shape[1] != cfg.image_dim or widths - {cfg.object_dim}:
        raise ContractError(f"feature widths image {image.shape[1]}, objects {sorted(widths)}; "
                            f"the model takes image {cfg.image_dim}, objects {cfg.object_dim}")


def segment_context(model: Model, image_feats: np.ndarray,
                    object_feats: list[np.ndarray],
                    ) -> tuple[SegmentContext, list[list[np.ndarray | None]]]:
    """Run the interaction module over a segment and precompute decoder inputs.

    ``image_feats`` is T x image_dim; ``object_feats`` holds one n_t x
    object_dim array per frame (n_t may be 0). Returns the decoder context
    and, per frame, each group's object-attention matrix for tracing (empty
    without the object pathway). ``check_features`` checks the segment first.
    """
    check_features(model.config, image_feats, object_feats)
    v_c = Tensor(image_feats)
    hiddens, records = None, []
    if model.config.use_objects:
        hiddens, records = interaction_sequence(model.interaction, v_c, object_feats)
    ctx = precompute_frames(model.captioner, v_c, hiddens)
    return ctx, records


def batch_nll(model: Model, items: list[tuple]) -> tuple[Tensor, int]:
    """Teacher-forced negative log-likelihood of B (segment, encoded caption)
    pairs as one graph; returns the per-row sums (B), in the order of
    ``items``, and the number of scored positions.

    Segments are padded to the most frames and objects, captions to the
    longest; padding changes no row's value or gradient. The graph runs
    its rows longest segment first (a stable sort by frame count), so the
    segments still running at frame t are the first rows: only those are
    attended and stepped, and a segment past its end carries its last state
    (``interaction_states``). Only the scored caption positions are
    projected to the vocabulary (``teacher_forced_nll``). Masks come only
    from padding: a frame where no running segment has a padded object row
    attends unmasked, and the frame masks go only to a batch whose segments
    differ in frame count. A batch of one has nothing to pad, so it runs
    the path of every other size and equals its segment alone
    (``segment_context``) bit for bit. Each segment is checked once, by
    ``check_features``, and a failing one is rejected by id.
    """
    cfg = model.config
    for seg, _ in items:
        try:
            check_features(cfg, seg.image_feats, seg.object_feats)
        except ContractError as exc:
            raise ContractError(f"segment {seg.segment_id}: {exc}") from None
    by_frames = sorted(range(len(items)), key=lambda b: -items[b][0].image_feats.shape[0])
    segments = [items[b][0] for b in by_frames]
    captions = [items[b][1] for b in by_frames]

    frames = segments[0].image_feats.shape[0]
    image = np.zeros((len(segments), frames, cfg.image_dim))
    frame_mask = np.zeros((len(segments), frames), dtype=bool)
    for b, seg in enumerate(segments):
        image[b, :seg.image_feats.shape[0]] = seg.image_feats
        frame_mask[b, :seg.image_feats.shape[0]] = True
    frame_mask = None if frame_mask.all() else frame_mask
    objects, object_mask = pack_objects([seg.object_feats for seg in segments])

    positions = max(len(ids) for ids in captions) - 1
    inputs = np.zeros((len(items), positions), dtype=np.int64)
    targets = np.zeros((len(items), positions), dtype=np.int64)
    scored = np.zeros((len(items), positions), dtype=bool)
    for b, ids in enumerate(captions):
        inputs[b, :len(ids) - 1] = ids[:-1]
        targets[b, :len(ids) - 1] = ids[1:]
        scored[b, :len(ids) - 1] = True

    v_c = Tensor(image)
    hiddens = None
    if cfg.use_objects:
        hiddens, _ = interaction_states(model.interaction, v_c, objects, object_mask, frame_mask)
    ctx = precompute_frames(model.captioner, v_c, hiddens, frame_mask)
    rows = teacher_forced_nll(model.captioner, ctx, inputs, targets, scored, np.argsort(by_frames))
    return rows, int(scored.sum())
