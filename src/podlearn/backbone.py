"""Small convolutional feature extractor with per-stage activation taps.

Each stage is a run of 3x3 conv blocks; stages after the first enter at
stride 2. The final conv of every stage has no trailing ReLU, so the tapped
stage maps are signed; the activation is applied on the consuming side (next
stage entry, and before the pooling head). The head is a global average pool
into a dense layer producing the flat embedding.

The whole extractor is one autodiff node with several outputs (the stage
maps and the embedding) and one hand-written reverse pass. Inside it,
activations stay batch-innermost (C, W, H, B) from layer to layer, the
layout :func:`podlearn.tensor.conv_windows` copies fastest; only the input
batch and the tapped stage maps cross into (B, C, W, H).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor, _make_multi, col2im, conv_windows, padded_cwhb, recording
from .tensor import conv2d  # noqa: F401  (perfbench's tracer self-test patches it here)


@dataclass(frozen=True)
class BackboneConfig:
    input_shape: tuple[int, int, int] = (3, 8, 8)
    stage_filters: tuple[int, ...] = (8, 16, 32)
    blocks_per_stage: int = 1
    embedding_dim: int = 32

    def __post_init__(self):
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ContractError(f"bad input_shape {self.input_shape}")
        if len(self.stage_filters) < 2:
            raise ContractError("need at least 2 stages")
        if min(self.stage_filters) < 1 or self.blocks_per_stage < 1:
            raise ContractError(f"bad stages: filters {self.stage_filters}, "
                                f"{self.blocks_per_stage} blocks each")
        if self.embedding_dim < 1:
            raise ContractError(f"embedding_dim must be >= 1, got {self.embedding_dim}")


@dataclass
class StageOutputs:
    """Signed end-of-stage maps plus the flat embedding of one forward pass."""

    stage_maps: list[Tensor] = field(default_factory=list)
    embedding: Tensor | None = None


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Backbone:
    """Feature extractor; parameters are named tensors in ``self.params``."""

    def __init__(self, config: BackboneConfig, seed: int = 0):
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        c_in = config.input_shape[0]
        for i, filters in enumerate(config.stage_filters):
            for j in range(config.blocks_per_stage):
                shape = (filters, c_in, 3, 3)
                self.params[f"stage{i}.block{j}.weight"] = Tensor(
                    _kaiming_uniform(rng, shape, fan_in=c_in * 9), requires_grad=True
                )
                self.params[f"stage{i}.block{j}.bias"] = Tensor(
                    np.zeros(filters), requires_grad=True
                )
                c_in = filters
        self.params["head.weight"] = Tensor(
            _kaiming_uniform(rng, (c_in, config.embedding_dim), fan_in=c_in),
            requires_grad=True,
        )
        self.params["head.bias"] = Tensor(
            np.zeros(config.embedding_dim), requires_grad=True
        )

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    def forward_with_stages(self, batch: Tensor) -> StageOutputs:
        """Run the extractor, returning every signed stage map and the embedding.

        The reverse pass takes the gradients of any of the outputs; an output
        no loss reached costs nothing. Layer state for it is kept only when
        the call records gradients.
        """
        expected = self.config.input_shape
        if batch.data.ndim != 4 or batch.shape[1:] != expected:
            raise ShapeError(
                "backbone", f"batch shape {batch.shape} != (B, {expected})"
            )
        blocks = self.config.blocks_per_stage
        # (weight, bias, stride, tapped) per conv, in forward order
        convs = [(self.params[f"stage{i}.block{j}.weight"], self.params[f"stage{i}.block{j}.bias"],
                  2 if (i > 0 and j == 0) else 1, j == blocks - 1)
                 for i in range(len(self.config.stage_filters)) for j in range(blocks)]
        head_w, head_b = self.params["head.weight"], self.params["head.bias"]
        parents = (batch, *(t for conv in convs for t in conv[:2]), head_w, head_b)
        track = recording(parents)

        B = batch.shape[0]
        xp = padded_cwhb(batch.data, 1)
        saved = []  # per conv: its padded input's shape, its columns, where its output is > 0
        maps = []
        for k, (w, b, s, tapped) in enumerate(convs):
            Cout = w.shape[0]
            Wo, Ho = (xp.shape[1] - 3) // s + 1, (xp.shape[2] - 3) // s + 1
            cols = conv_windows(xp, 3, 3, s, Wo, Ho).reshape(xp.shape[0] * 9, Wo * Ho * B)
            y = (w.data.reshape(Cout, -1) @ cols).reshape(Cout, Wo, Ho, B)
            y += b.data[:, None, None, None]
            in_shape = xp.shape
            if k < len(convs) - 1:  # relu straight into the next conv's padded input
                xp = np.zeros((Cout, Wo + 2, Ho + 2, B))
                np.maximum(y, 0.0, out=xp[:, 1:-1, 1:-1])
            if tapped:
                maps.append(np.ascontiguousarray(y.transpose(3, 0, 1, 2)))
            if track:
                saved.append((in_shape, cols, y > 0))
            del cols, y  # a no-grad forward holds one conv's columns at a time
        pooled = np.maximum(maps[-1], 0.0).mean(axis=(2, 3))
        embedding = pooled @ head_w.data + head_b.data

        def vjp(grads):
            g_maps, g_emb = list(grads[:-1]), grads[-1]
            g_head = [None, None]
            g_next = None  # gradient on the current conv's output, from above
            if g_emb is not None:
                g_head = [pooled.T @ g_emb, g_emb.sum(axis=0)]
                g_pooled = (g_emb @ head_w.data.T)[:, :, None, None]
                _, _, W, H = maps[-1].shape
                g_next = (np.broadcast_to(g_pooled, maps[-1].shape) / (W * H)
                          * (maps[-1] > 0)).transpose(1, 2, 3, 0)
            g_convs = []
            for k in reversed(range(len(convs))):
                w, _, s, tapped = convs[k]
                in_shape, cols, _ = saved[k]
                g_y = g_next
                g_map = g_maps.pop() if tapped else None
                if g_map is not None:
                    g_map = g_map.transpose(1, 2, 3, 0)
                    g_y = g_map if g_y is None else g_y + g_map
                g_next = None
                if g_y is None:
                    g_convs += [None, None]
                    continue
                Cout = w.shape[0]
                g2 = g_y.reshape(Cout, -1)
                g_convs += [g2.sum(axis=1), (g2 @ cols.T).reshape(w.shape)]
                if k > 0 or batch.requires_grad:
                    _, Wo, Ho, _ = g_y.shape
                    g_xp = col2im(w.data.reshape(Cout, -1).T @ g2, in_shape, 3, 3, s, Wo, Ho)
                    g_next = g_xp[:, 1:-1, 1:-1]
                    if k > 0:  # back through the relu on the previous conv's output
                        g_next = g_next * saved[k - 1][2]
            g_x = None if g_next is None else g_next.transpose(3, 0, 1, 2)
            return (g_x, *g_convs[::-1], *g_head)

        outs = _make_multi([*maps, embedding], "backbone", parents, vjp)
        return StageOutputs(stage_maps=list(outs[:-1]), embedding=outs[-1])
