"""Small convolutional feature extractor with per-stage activation taps.

Each stage is a run of 3x3 conv blocks; stages after the first enter at
stride 2. The final conv of every stage has no trailing ReLU, so the tapped
stage maps are signed; the activation is applied on the consuming side (next
stage entry, and before the pooling head). The head is a global average pool
into a dense layer producing the flat embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError
from .tensor import Tensor, add, conv2d, matmul, relu, tmean


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
        """Run the extractor, returning every signed stage map and the embedding."""
        expected = self.config.input_shape
        if batch.data.ndim != 4 or batch.shape[1:] != expected:
            raise ShapeError(
                "backbone", f"batch shape {batch.shape} != (B, {expected})"
            )
        h = batch
        maps: list[Tensor] = []
        blocks = self.config.blocks_per_stage
        for i in range(len(self.config.stage_filters)):
            if i > 0:
                h = relu(h)
            for j in range(blocks):
                h = conv2d(
                    h,
                    self.params[f"stage{i}.block{j}.weight"],
                    self.params[f"stage{i}.block{j}.bias"],
                    stride=2 if (i > 0 and j == 0) else 1,
                    padding=1,
                )
                if j < blocks - 1:
                    h = relu(h)
            maps.append(h)
        pooled = tmean(relu(h), axis=(2, 3))
        embedding = add(matmul(pooled, self.params["head.weight"]), self.params["head.bias"])
        return StageOutputs(stage_maps=maps, embedding=embedding)
