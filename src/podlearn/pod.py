"""Pooled-feature distillation between teacher and student activations.

One loss compares stage maps (B, C, W, H) after summing over the axes its
pooling mode, a :class:`PodMode` setting, names. Less pooling pins the
student harder to the teacher; more pooling leaves it freer to reorganize.
Pipeline per sample: square elementwise, sum over the pooled axes, flatten,
L2-normalize the pooled vector, then squared Euclidean distance; batches
are averaged.

Width and height pooling each read the squared map once, with work
proportional to its W*H pixels whatever the map size: width pooling is one
``einsum`` that adds the rows in index order (bitwise the axis sum), and
height pooling is one matrix-vector product of the (B*C*W, H) map with a
ones vector, so BLAS picks its summation order (within a few ulp of the
axis sum). SPATIAL reads both from the same two calls, so its loss is
exactly WIDTH's plus HEIGHT's. PIXEL, CHANNEL and GAP sum their axes directly.

One function, :func:`_rows`, lays a forward out as a (B, F) row matrix of
segments side by side: each stage map pooled over each axis group of the
mode, in ``_POOLED_AXES`` order, then the embedding. Every segment is
L2-normalized on its own: one ``np.add.reduceat`` over the segment starts
takes all the norms (adding each segment in column order, within a few ulp
of ``np.sum``), and ``tensor.unit_from_norm`` applies the package's one
zero-norm rule, so a dead segment zeroes only its own columns.
:func:`pod_targets` is this builder on the frozen teacher, run once per task.

The loss, :func:`pod_final`, is one autodiff primitive: a weighted sum, over
segments, of the batch-mean squared distance between a student forward's
rows and the teacher's, with weight lambda_c / n_stages on each stage
segment and lambda_f on the embedding. Its one hand-written vjp takes the
row gradient through the normalization with one segmented dot and one
per-segment scale, then through each stage map's pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .backbone import StageOutputs
from .errors import ContractError, ShapeError
from .tensor import Tensor, _make, unit_from_norm


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


def _axis_sum(sq: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The squared (B, C, W, H) map ``sq`` summed over ``axes``."""
    if axes == (2,):
        return np.einsum("bcwh->bch", sq)
    if axes == (3,):
        return (sq.reshape(-1, sq.shape[3]) @ np.ones(sq.shape[3])).reshape(sq.shape[:3])
    return sq.sum(axis=axes)


def _pooled(sq: np.ndarray, mode: PodMode) -> list[np.ndarray]:
    """The squared map summed over each axis group of ``mode``."""
    return [_axis_sum(sq, axes) for axes in _POOLED_AXES[mode]]


def _rows(outs: StageOutputs, mode: PodMode):
    """The unit pooled rows of ``outs``'s stage maps under ``mode``, then its
    unit embedding: ``(unit, inv, widths, starts)``, with each segment's
    reciprocal norm (0 if dead), width and first column."""
    inputs = [*outs.stage_maps, outs.embedding]
    if any(0 in t.shape for t in inputs):
        raise ShapeError("pod", "expected at least one sample and no empty axis, "
                         f"got {[t.shape for t in inputs]}")
    parts = [p.reshape(len(p), -1) for m in outs.stage_maps
             for p in _pooled(m.data * m.data, mode)]
    parts.append(outs.embedding.data)
    widths = [p.shape[1] for p in parts]
    starts = np.cumsum([0, *widths[:-1]])
    rows = np.concatenate(parts, axis=1)
    inv = unit_from_norm(1.0, np.sqrt(np.add.reduceat(rows * rows, starts, axis=1)))[0]
    return rows * np.repeat(inv, widths, axis=1), inv, widths, starts


def pod_targets(outs: StageOutputs, mode: PodMode) -> np.ndarray:
    """A forward reduced to the (B, F) rows :func:`pod_final` compares against."""
    return _rows(outs, PodMode(mode))[0]


def pod_final(teacher: np.ndarray, student: StageOutputs, cfg: PodConfig,
              scale_factor: float) -> Tensor:
    """Combined distillation loss over all stage maps plus the flat embedding.

    ``teacher`` holds the frozen teacher's :func:`pod_targets` under
    ``cfg.mode`` for the same samples, in the same order. ``scale_factor`` is
    the adaptive factor sqrt(seen / new) supplied by the protocol; both terms
    are multiplied by it. The intermediate term averages over the constrained
    stage maps. Gradients go into the student's stage maps and embedding only.
    """
    if not (math.isfinite(scale_factor) and scale_factor > 0):
        raise ContractError(f"pod_final: scale must be positive, got {scale_factor}")
    mode = PodMode(cfg.mode)
    maps, emb = student.stage_maps, student.embedding
    unit, inv, widths, starts = _rows(student, mode)
    if teacher.shape != unit.shape:
        raise ShapeError("pod_final", f"targets {teacher.shape} do not fit student maps "
                         f"{[sm.shape for sm in maps]} and embedding {emb.shape} "
                         f"under mode {mode.value}: expected {unit.shape}")
    weights = np.full(len(widths), cfg.lambda_c / max(len(maps), 1))
    weights[-1] = cfg.lambda_f
    diff = teacher - unit
    # one contiguous row of B per segment, so each mean adds like a (B,) mean
    per_segment = np.ascontiguousarray(
        np.add.reduceat(diff * diff, starts, axis=1).T).mean(axis=1)

    def vjp(g):
        # through the normalization: one segmented dot, one per-segment scale
        c = -weights * (2.0 * scale_factor * g / len(diff))
        dot = np.add.reduceat(diff * unit, starts, axis=1)
        rows_grad = ((diff - unit * np.repeat(dot, widths, axis=1))
                     * np.repeat(c * inv, widths, axis=1))
        segments = iter(np.split(rows_grad, starts[1:], axis=1))
        grads = []
        for m in maps:
            # each segment in its map's shape, the pooled axes kept as size 1
            first, *rest = [next(segments).reshape([1 if i in axes else n
                                                    for i, n in enumerate(m.shape)])
                            for axes in _POOLED_AXES[mode]]
            grads.append(2.0 * m.data * sum(rest, first) if m.requires_grad else None)
        grads.append(next(segments) if emb.requires_grad else None)
        return grads

    return _make(np.asarray((weights * per_segment).sum() * scale_factor), "pod_final",
                 [*maps, emb], vjp)
