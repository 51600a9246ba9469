"""Pooled-feature distillation losses between teacher and student activations.

Each loss compares a pair of stage maps (B, C, W, H) after summing over a
mode-specific subset of axes. Less pooling pins the student harder to the
teacher; more pooling leaves it freer to reorganize. Pipeline per sample:
square elementwise, sum over the pooled axes, flatten, L2-normalize the
pooled vector, then squared Euclidean distance; batches are averaged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ContractError, ShapeError
from .tensor import Tensor, l2_normalize, reshape, scale, square, sub, tmean, tsum


class PodMode(str, Enum):
    PIXEL = "pixel"      # no pooling: strictest match
    CHANNEL = "channel"  # sum over channels, keep the spatial grid
    GAP = "gap"          # sum over both spatial axes, keep channels
    WIDTH = "width"      # sum over the width axis
    HEIGHT = "height"    # sum over the height axis
    SPATIAL = "spatial"  # width loss + height loss


# Axis groups of a (B, C, W, H) map summed away by each mode; the loss adds
# one distance per group.
_POOLED_AXES = {
    PodMode.PIXEL: ((),),
    PodMode.CHANNEL: ((1,),),
    PodMode.GAP: ((2, 3),),
    PodMode.WIDTH: ((2,),),
    PodMode.HEIGHT: ((3,),),
    PodMode.SPATIAL: ((2,), (3,)),
}


@dataclass(frozen=True)
class PodConfig:
    """Weights and pooling mode of the combined distillation loss."""

    lambda_c: float = 3.0
    lambda_f: float = 1.0
    mode: PodMode = PodMode.SPATIAL

    def __post_init__(self):
        for name in ("lambda_c", "lambda_f"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ContractError(f"PodConfig.{name} must be finite and >= 0, got {v}")


def _unit_distance(a: Tensor, b: Tensor) -> Tensor:
    """Squared distance of the L2-normalized rows of ``a`` and ``b``, batch-averaged."""
    ua = l2_normalize(reshape(a, (a.shape[0], -1)), axis=-1)
    ub = l2_normalize(reshape(b, (b.shape[0], -1)), axis=-1)
    return tmean(tsum(square(sub(ua, ub)), axis=-1))


def pod_pooled(a: Tensor, b: Tensor, mode: PodMode) -> Tensor:
    """Pooled distillation loss between two same-shape stage maps."""
    mode = PodMode(mode)
    if a.shape != b.shape:
        raise ShapeError("pod_pooled", f"stage maps differ: {a.shape} vs {b.shape}")
    if a.data.ndim != 4 or a.shape[0] < 1:
        raise ShapeError("pod_pooled", f"expected (B, C, W, H) maps, got {a.shape}")
    sa, sb = square(a), square(b)
    total = None
    for axes in _POOLED_AXES[mode]:
        d = _unit_distance(tsum(sa, axis=axes), tsum(sb, axis=axes))
        total = d if total is None else total + d
    return total


def pod_flat(h_teacher: Tensor, h_student: Tensor) -> Tensor:
    """Squared distance of L2-normalized embeddings, batch-averaged.

    Bounded in [0, 4]: 0 for embeddings equal up to positive scale, 4 for
    antipodal ones.
    """
    if h_teacher.shape != h_student.shape:
        raise ShapeError(
            "pod_flat", f"embeddings differ: {h_teacher.shape} vs {h_student.shape}"
        )
    if h_teacher.data.ndim != 2:
        raise ShapeError("pod_flat", f"expected (B, D) embeddings, got {h_teacher.shape}")
    return _unit_distance(h_teacher, h_student)


def pod_final(teacher, student, cfg: PodConfig, scale_factor: float) -> Tensor:
    """Combined distillation loss over all stage maps plus the flat embedding.

    ``scale_factor`` is the adaptive factor sqrt(seen / new) supplied by the
    protocol; both terms are multiplied by it. The intermediate term averages
    over the constrained stage maps.
    """
    if not (math.isfinite(scale_factor) and scale_factor > 0):
        raise ContractError(f"pod_final: scale must be positive, got {scale_factor}")
    t_maps, s_maps = teacher.stage_maps, student.stage_maps
    if len(t_maps) != len(s_maps):
        raise ShapeError(
            "pod_final", f"stage counts differ: {len(t_maps)} vs {len(s_maps)}"
        )
    total = None
    if cfg.lambda_c > 0 and t_maps:
        inter = pod_pooled(t_maps[0], s_maps[0], cfg.mode)
        for tm, sm in zip(t_maps[1:], s_maps[1:]):
            inter = inter + pod_pooled(tm, sm, cfg.mode)
        total = scale(inter, cfg.lambda_c / len(t_maps))
    if cfg.lambda_f > 0:
        flat = scale(pod_flat(teacher.embedding, student.embedding), cfg.lambda_f)
        total = flat if total is None else total + flat
    if total is None:
        return Tensor(0.0)
    return scale(total, scale_factor)
