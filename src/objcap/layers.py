"""Reusable learned layers: the LSTM cell and the one-layer tanh MLP, and
the walker that names the parameters of any container of them.

Gate layout in ``LstmParams`` is fixed as four stacked blocks in the order
input, forget, cell-candidate, output. The forget-gate bias block is
initialized to 1.0; all weight matrices draw from a seeded uniform
±sqrt(6/(fan_in+fan_out)) so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .tensor import Tensor, linear_tanh, lstm_cell


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=(fan_out, fan_in)), requires_grad=True)


def named_tensors(params, prefix: str = "") -> dict[str, Tensor]:
    """Name the tensors of the dataclass ``params`` by attribute path, in
    field order, after ``prefix``: a nested dataclass's tensors under
    ``<field>.``. Anything else (``None``, counts, mode flags) gives nothing."""
    out = {}
    for f in fields(params):
        value = getattr(params, f.name)
        if isinstance(value, Tensor):
            out[prefix + f.name] = value
        elif is_dataclass(value):
            out.update(named_tensors(value, f"{prefix}{f.name}."))
    return out


@dataclass
class LstmParams:
    """Weights of one LSTM cell: ``wx`` (4H x D), ``wh`` (4H x H), ``b`` (4H)."""

    wx: Tensor
    wh: Tensor
    b: Tensor

    @property
    def hidden_size(self) -> int:
        return self.wx.shape[0] // 4


def init_lstm(rng: np.random.Generator, input_size: int, hidden_size: int) -> LstmParams:
    b = np.zeros(4 * hidden_size)
    b[hidden_size:2 * hidden_size] = 1.0  # forget gate starts open
    return LstmParams(
        wx=glorot_uniform(rng, 4 * hidden_size, input_size),
        wh=glorot_uniform(rng, 4 * hidden_size, hidden_size),
        b=Tensor(b, requires_grad=True),
    )


def lstm_step(p: LstmParams, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM recurrence step on vectors, or on a batch of them one per
    row; returns (h, c)."""
    return lstm_cell(p.wx, p.wh, p.b, x, h_prev, c_prev)


@dataclass
class MlpParams:
    """One affine layer followed by tanh: ``w`` (out x in), ``b`` (out)."""

    w: Tensor
    b: Tensor


def init_mlp(rng: np.random.Generator, input_size: int, output_size: int) -> MlpParams:
    return MlpParams(w=glorot_uniform(rng, output_size, input_size),
                     b=Tensor(np.zeros(output_size), requires_grad=True))


def mlp_forward(p: MlpParams, x: Tensor) -> Tensor:
    """Apply the MLP to a vector or, row by row, along the last axis, as one
    node (``linear_tanh``)."""
    return linear_tanh(x, p.w, p.b)
