"""Reusable learned layers: the LSTM cell and the small MLP.

Gate layout in ``LstmParams`` is fixed as four stacked blocks in the order
input, forget, cell-candidate, output. The forget-gate bias block is
initialized to 1.0; all weight matrices draw from a seeded uniform
±sqrt(6/(fan_in+fan_out)) so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ContractError, ShapeError, Tensor, linear, lstm_cell


def glorot_uniform(rng: np.random.Generator, fan_out: int, fan_in: int) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=(fan_out, fan_in)), requires_grad=True)


@dataclass
class LstmParams:
    """Weights of one LSTM cell: ``wx`` (4H x D), ``wh`` (4H x H), ``b`` (4H)."""

    wx: Tensor
    wh: Tensor
    b: Tensor

    def __post_init__(self):
        if len(self.wx.shape) != 2 or len(self.wh.shape) != 2 or len(self.b.shape) != 1:
            raise ShapeError("LstmParams expects wx, wh matrices and a bias vector")
        four_h, _ = self.wx.shape
        if four_h % 4 != 0:
            raise ShapeError(f"LSTM weight rows must be 4*H, got {four_h}")
        h = four_h // 4
        if self.wh.shape != (four_h, h) or self.b.shape != (four_h,):
            raise ShapeError(
                f"inconsistent LSTM shapes: wx {self.wx.shape}, wh {self.wh.shape}, b {self.b.shape}")

    @property
    def hidden_size(self) -> int:
        return self.wx.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.wx.shape[1]

    def tensors(self) -> dict[str, Tensor]:
        return {"wx": self.wx, "wh": self.wh, "b": self.b}


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
    hs = p.hidden_size
    hc = lstm_cell(p.wx, p.wh, p.b, x, h_prev, c_prev)
    return hc[..., 0:hs], hc[..., hs:2 * hs]


@dataclass
class MlpParams:
    """Chained affine layers, each followed by tanh."""

    layers: list[tuple[Tensor, Tensor]]

    def __post_init__(self):
        if not self.layers:
            raise ContractError("MlpParams needs at least one layer")
        for (w, b) in self.layers:
            if len(w.shape) != 2 or b.shape != (w.shape[0],):
                raise ShapeError(f"bad MLP layer shapes: w {w.shape}, b {b.shape}")
        for (w_prev, _), (w_next, _) in zip(self.layers, self.layers[1:]):
            if w_next.shape[1] != w_prev.shape[0]:
                raise ShapeError(
                    f"MLP layers do not chain: {w_prev.shape} then {w_next.shape}")

    @property
    def input_size(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_size(self) -> int:
        return self.layers[-1][0].shape[0]

    def tensors(self) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"l{i}.w"] = w
            out[f"l{i}.b"] = b
        return out


def init_mlp(rng: np.random.Generator, sizes: list[int]) -> MlpParams:
    layers = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        layers.append((glorot_uniform(rng, fan_out, fan_in),
                       Tensor(np.zeros(fan_out), requires_grad=True)))
    return MlpParams(layers=layers)


def mlp_forward(p: MlpParams, x: Tensor) -> Tensor:
    """Apply the MLP to a vector or, row by row, along the last axis."""
    if len(x.shape) < 1 or x.shape[-1] != p.input_size:
        raise ShapeError(f"mlp_forward input shape {x.shape}, expected width {p.input_size}")
    out = x
    for w, b in p.layers:
        out = linear(out, w, b).tanh()
    return out
