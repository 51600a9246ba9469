"""Pooled-feature distillation losses between teacher and student activations.

Each loss compares a pair of stage maps (B, C, W, H) after summing over a
mode-specific subset of axes. Less pooling pins the student harder to the
teacher; more pooling leaves it freer to reorganize. Pipeline per sample:
square elementwise, sum over the pooled axes, flatten, L2-normalize the
pooled vector, then squared Euclidean distance; batches are averaged.

Width and height pooling each read the squared map once, with work
proportional to its W*H pixels whatever the map size: width pooling is one
``einsum`` that adds the rows in index order (bitwise the axis sum), and
height pooling is one matrix-vector product of the (B*C*W, H) map with a
ones vector, so BLAS picks its summation order (within a few ulp of the
axis sum). SPATIAL reads both from the same two calls, so its loss is
exactly WIDTH's plus HEIGHT's. PIXEL, CHANNEL and GAP sum their axes directly.

Each loss is one autodiff primitive: its forward runs that pipeline in
numpy, and a hand-written vjp returns the gradient of each input that takes
one. The teacher is frozen for a whole task, so its half of the pipeline can
be run once: :func:`pod_targets` reduces a teacher forward to one row matrix
of unit pooled rows and the unit embedding, and :func:`pod_final` compares a
student forward against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .backbone import StageOutputs
from .errors import ContractError, ShapeError
from .tensor import Tensor, _make, unit_vectors, unit_vectors_vjp


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


def _unit_groups(x: np.ndarray, mode: PodMode) -> list[tuple]:
    """``unit_vectors`` of the squared map pooled over each axis group of ``mode``."""
    return [unit_vectors(p.reshape(x.shape[0], -1)) for p in _pooled(x * x, mode)]


def _unit_groups_vjp(x: np.ndarray, mode: PodMode, groups, grads) -> np.ndarray:
    """Gradient into the map ``x`` from gradients on its unit pooled rows."""
    total = None
    for axes, (y, alive, safe), g in zip(_POOLED_AXES[mode], groups, grads):
        pooled = tuple(n for i, n in enumerate(x.shape) if i not in axes)
        g = np.expand_dims(unit_vectors_vjp(g, y, alive, safe).reshape(pooled), axes)
        total = g if total is None else total + g
    return 2.0 * x * total


def _distances(rows_a, rows_b):
    """Sum over paired (B, F) unit rows of their batch-mean squared distance.

    Returns the sum and the per-pair differences ``a - b``; the gradient of
    the sum is ``2 * diff / B`` into ``a`` and its negative into ``b``.
    """
    total, diffs = None, []
    for ua, ub in zip(rows_a, rows_b):
        if ua.shape != ub.shape:
            raise ShapeError("pod", f"pooled rows differ: {ua.shape} vs {ub.shape}")
        diff = ua - ub
        d = (diff * diff).sum(axis=-1).mean()
        total = d if total is None else total + d
        diffs.append(diff)
    return total, diffs


def pod_pooled(a: Tensor, b: Tensor, mode: PodMode) -> Tensor:
    """Pooled distillation loss between two same-shape stage maps."""
    mode = PodMode(mode)
    if a.shape != b.shape:
        raise ShapeError("pod_pooled", f"stage maps differ: {a.shape} vs {b.shape}")
    if a.data.ndim != 4 or a.shape[0] < 1:
        raise ShapeError("pod_pooled", f"expected (B, C, W, H) maps, got {a.shape}")
    ga, gb = _unit_groups(a.data, mode), _unit_groups(b.data, mode)
    total, diffs = _distances([u[0] for u in ga], [u[0] for u in gb])

    def vjp(g):
        grads = [2.0 * diff * (g / a.shape[0]) for diff in diffs]
        return (
            _unit_groups_vjp(a.data, mode, ga, grads) if a.requires_grad else None,
            _unit_groups_vjp(b.data, mode, gb, [-x for x in grads]) if b.requires_grad else None,
        )

    return _make(np.asarray(total), "pod_pooled", (a, b), vjp)


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
    ua, ub = unit_vectors(h_teacher.data), unit_vectors(h_student.data)
    total, (diff,) = _distances([ua[0]], [ub[0]])

    def vjp(g):
        gd = 2.0 * diff * (g / h_teacher.shape[0])
        return (
            unit_vectors_vjp(gd, *ua) if h_teacher.requires_grad else None,
            unit_vectors_vjp(-gd, *ub) if h_student.requires_grad else None,
        )

    return _make(np.asarray(total), "pod_flat", (h_teacher, h_student), vjp)


def pod_targets(outs: StageOutputs, mode: PodMode) -> np.ndarray:
    """A forward reduced to the (B, F) rows :func:`pod_final` compares against.

    Each stage map's unit pooled rows, axis group by axis group in
    ``_POOLED_AXES`` order, followed by the unit embedding, side by side.
    """
    mode = PodMode(mode)
    rows = [y for m in outs.stage_maps for y, _, _ in _unit_groups(m.data, mode)]
    return np.concatenate(rows + [unit_vectors(outs.embedding.data)[0]], axis=1)


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
    s_maps = student.stage_maps
    mode = PodMode(cfg.mode)
    axes_groups = _POOLED_AXES[mode]
    widths = [math.prod(n for i, n in enumerate(sm.shape) if i and i not in axes)
              for sm in s_maps for axes in axes_groups] + [student.embedding.shape[1]]
    rows = student.embedding.shape[0]
    if teacher.shape != (rows, sum(widths)):
        raise ShapeError("pod_final", f"targets {teacher.shape} do not fit student maps "
                         f"{[sm.shape for sm in s_maps]} and embedding "
                         f"{student.embedding.shape} under mode {mode.value}: "
                         f"expected {(rows, sum(widths))}")
    *t_groups, t_emb = np.split(teacher, np.cumsum(widths)[:-1], axis=1)
    n = len(axes_groups)

    total = None
    stage_terms = []  # (map, its unit groups, teacher - student differences)
    if cfg.lambda_c > 0 and s_maps:
        weight_c = cfg.lambda_c / len(s_maps)
        inter = None
        for i, sm in enumerate(s_maps):
            groups = _unit_groups(sm.data, mode)
            d, diffs = _distances(t_groups[i * n : (i + 1) * n], [u[0] for u in groups])
            inter = d if inter is None else inter + d
            stage_terms.append((sm, groups, diffs))
        total = inter * weight_c
    emb = None
    if cfg.lambda_f > 0:
        emb = unit_vectors(student.embedding.data)
        flat, (flat_diff,) = _distances([t_emb], [emb[0]])
        flat = flat * cfg.lambda_f
        total = flat if total is None else total + flat
    if total is None:
        return Tensor(0.0)

    def vjp(g):
        g = g * scale_factor
        grads = []
        if stage_terms:
            c = g * weight_c / rows
            for sm, groups, diffs in stage_terms:
                grads.append(_unit_groups_vjp(
                    sm.data, mode, groups, [-(2.0 * diff * c) for diff in diffs]
                ) if sm.requires_grad else None)
        if emb is not None:
            c = g * cfg.lambda_f / rows
            grads.append(unit_vectors_vjp(-(2.0 * flat_diff * c), *emb)
                         if student.embedding.requires_grad else None)
        return tuple(grads)

    parents = [sm for sm, _, _ in stage_terms]
    if emb is not None:
        parents.append(student.embedding)
    return _make(np.asarray(total * scale_factor), "pod_final", parents, vjp)
