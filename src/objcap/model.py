"""Whole-model bundle: configuration, seeded construction, named parameters,
and the segment-level forward that feeds the decoder."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .captioner import (
    CaptionerParams,
    SegmentContext,
    init_captioner,
    precompute_frames,
)
from .interaction import InteractionParams, init_interaction, interaction_sequence
from .tensor import ContractError, Tensor

_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def config_from_dict(cls, d, section: str):
    """Build the config dataclass ``cls`` from a JSON object, rejecting
    unknown or missing keys and values of the wrong type."""
    if not isinstance(d, dict):
        raise ContractError(f"{section} config must be a JSON object")
    declared = {f.name: f.type for f in fields(cls)}
    for key, value in d.items():
        if key not in declared:
            raise ContractError(f"unknown {section} config key {key!r}")
        kind, _, optional = declared[key].partition(" | ")
        if not (value is None and optional or type(value) in _JSON_TYPES[kind]):
            raise ContractError(f"{section} config {key!r} must be {declared[key]}, "
                                f"got {value!r}")
    try:
        return cls(**d)
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return config_from_dict(cls, d, "model")


@dataclass
class Model:
    config: ModelConfig
    interaction: InteractionParams
    captioner: CaptionerParams

    def named_parameters(self) -> dict[str, Tensor]:
        out = {}
        for name, t in self.interaction.tensors().items():
            out[f"interaction.{name}"] = t
        for name, t in self.captioner.tensors().items():
            out[f"captioner.{name}"] = t
        return out


def init_model(config: ModelConfig, seed: int) -> Model:
    rng = np.random.default_rng(seed)
    interaction = init_interaction(
        rng,
        image_dim=config.image_dim,
        object_dim=config.object_dim,
        num_groups=config.num_groups,
        attn_dim=config.attn_dim,
        hidden_size=config.interaction_hidden,
    )
    captioner = init_captioner(
        rng,
        image_dim=config.image_dim,
        vocab_size=config.vocab_size,
        img_proj_dim=config.img_proj_dim,
        embed_dim=config.embed_dim,
        attn_hidden=config.attn_hidden,
        lang_hidden=config.lang_hidden,
        interaction_hidden=config.interaction_hidden,
        use_image=config.use_image,
        use_objects=config.use_objects,
        use_coattention=config.use_coattention,
    )
    return Model(config=config, interaction=interaction, captioner=captioner)


def segment_context(model: Model, image_feats: np.ndarray,
                    object_feats: list[np.ndarray],
                    ) -> tuple[SegmentContext, list[list[np.ndarray | None]]]:
    """Run the interaction module over a segment and precompute decoder inputs.

    ``image_feats`` is T x image_dim; ``object_feats`` holds one n_t x
    object_dim array per frame (n_t may be 0). Returns the decoder context
    and, per frame, each group's object-attention matrix for tracing (empty
    without the object pathway).
    """
    if image_feats.ndim != 2 or image_feats.shape[0] < 1:
        raise ContractError(f"image features must be T x D with T >= 1, got {image_feats.shape}")
    if len(object_feats) != image_feats.shape[0]:
        raise ContractError("one object array per frame required")
    v_c = Tensor(image_feats)
    hiddens, records = None, []
    if model.config.use_objects:
        hiddens, records = interaction_sequence(model.interaction, v_c, object_feats)
    ctx = precompute_frames(model.captioner, v_c, hiddens)
    return ctx, records
