"""Pooled-feature distillation losses between teacher and student activations.

Each loss compares stage maps (B, C, W, H) after summing over a
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

One function, :func:`_rows`, lays a forward out as a (B, F) row matrix of
segments side by side: each stage map pooled over each axis group of the
mode, in ``_POOLED_AXES`` order, then the embedding. Every segment is
L2-normalized on its own: one ``np.add.reduceat`` over the segment starts
takes all the norms (adding each segment in column order, within a few ulp
of ``np.sum``), and ``tensor.unit_from_norm`` applies the package's one
zero-norm rule, so a dead segment zeroes only its own columns.
:func:`pod_targets` is this builder on the frozen teacher, run once per task.

Every loss is one autodiff primitive on this path: a weighted sum, over
segments, of the batch-mean squared distance between two row matrices.
:func:`pod_pooled` compares two maps, :func:`pod_flat` two embeddings, and
:func:`pod_final` a student forward against teacher rows, with weight
lambda_c / n_stages on each stage segment and lambda_f on the embedding. Its
one hand-written vjp, :func:`_rows_vjp`, takes the row gradient through the
normalization with one segmented dot and one per-segment scale, then through
each stage map's pooling.
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


@dataclass(frozen=True)
class _Rows:
    """One forward's unit rows and the segment layout :func:`_rows_vjp` needs."""

    maps: list[Tensor]
    emb: Tensor | None
    inputs: list[Tensor]  # the maps, then the embedding if any
    mode: PodMode | None
    unit: np.ndarray      # (B, F): the unit segments side by side
    inv: np.ndarray       # (B, n_seg): each segment's reciprocal norm, 0 if dead
    widths: list[int]     # columns of each segment
    starts: np.ndarray    # first column of each segment


def _rows(maps: list[Tensor], emb: Tensor | None, mode: PodMode | None) -> _Rows:
    """The unit pooled rows of ``maps`` under ``mode``, then the unit ``emb``."""
    inputs = [*maps, *([emb] if emb is not None else [])]
    if any(0 in t.shape for t in inputs):
        raise ShapeError("pod", "expected at least one sample and no empty axis, "
                         f"got {[t.shape for t in inputs]}")
    parts = [p.reshape(len(p), -1) for m in maps for p in _pooled(m.data * m.data, mode)]
    if emb is not None:
        parts.append(emb.data)
    widths = [p.shape[1] for p in parts]
    starts = np.cumsum([0, *widths[:-1]])
    rows = np.concatenate(parts, axis=1)
    inv = unit_from_norm(1.0, np.sqrt(np.add.reduceat(rows * rows, starts, axis=1)))[0]
    unit = rows * np.repeat(inv, widths, axis=1)
    return _Rows(maps, emb, inputs, mode, unit, inv, widths, starts)


def _rows_vjp(r: _Rows, diff: np.ndarray, weights: np.ndarray) -> list:
    """Gradients into ``r.inputs`` from ``diff`` on the unit rows, each
    segment's columns scaled by that segment's entry of ``weights``."""
    if not any(t.requires_grad for t in r.inputs):
        return [None] * len(r.inputs)
    dot = np.add.reduceat(diff * r.unit, r.starts, axis=1)
    g = ((diff - r.unit * np.repeat(dot, r.widths, axis=1))
         * np.repeat(weights * r.inv, r.widths, axis=1))
    segments = iter(np.split(g, r.starts[1:], axis=1))
    grads = []
    for m in r.maps:
        # each segment in its map's shape, the pooled axes kept as size 1
        first, *rest = [next(segments).reshape([1 if i in axes else n
                                                for i, n in enumerate(m.shape)])
                        for axes in _POOLED_AXES[r.mode]]
        grads.append(2.0 * m.data * sum(rest, first) if m.requires_grad else None)
    if r.emb is not None:
        grads.append(next(segments) if r.emb.requires_grad else None)
    return grads


def _distance(name: str, a: _Rows | np.ndarray, b: _Rows, weights: np.ndarray,
              scale: float = 1.0) -> Tensor:
    """``scale`` times the ``weights``-weighted sum, over segments, of the
    batch-mean squared distance between the rows ``a`` and ``b``.

    ``a`` is a :class:`_Rows` of the same layout as ``b``, or a constant
    (B, F) row matrix such as :func:`pod_targets` returns.
    """
    diff = (a.unit if isinstance(a, _Rows) else a) - b.unit
    # one contiguous row of B per segment, so each mean adds like a (B,) mean
    per_segment = np.ascontiguousarray(
        np.add.reduceat(diff * diff, b.starts, axis=1).T).mean(axis=1)
    parents = [*a.inputs, *b.inputs] if isinstance(a, _Rows) else b.inputs

    def vjp(g):
        c = weights * (2.0 * scale * g / len(diff))
        grads = _rows_vjp(a, diff, c) if isinstance(a, _Rows) else []
        return (*grads, *_rows_vjp(b, diff, -c))

    return _make(np.asarray((weights * per_segment).sum() * scale), name, parents, vjp)


def pod_pooled(a: Tensor, b: Tensor, mode: PodMode) -> Tensor:
    """Pooled distillation loss between two same-shape stage maps."""
    mode = PodMode(mode)
    if a.shape != b.shape:
        raise ShapeError("pod_pooled", f"stage maps differ: {a.shape} vs {b.shape}")
    if a.data.ndim != 4:
        raise ShapeError("pod_pooled", f"expected (B, C, W, H) maps, got {a.shape}")
    return _distance("pod_pooled", _rows([a], None, mode), _rows([b], None, mode),
                     np.ones(len(_POOLED_AXES[mode])))


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
    return _distance("pod_flat", _rows([], h_teacher, None), _rows([], h_student, None),
                     np.ones(1))


def pod_targets(outs: StageOutputs, mode: PodMode) -> np.ndarray:
    """A forward reduced to the (B, F) rows :func:`pod_final` compares against."""
    return _rows(outs.stage_maps, outs.embedding, PodMode(mode)).unit


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
    s_maps = student.stage_maps
    rows = _rows(s_maps, student.embedding, mode)
    if teacher.shape != rows.unit.shape:
        raise ShapeError("pod_final", f"targets {teacher.shape} do not fit student maps "
                         f"{[sm.shape for sm in s_maps]} and embedding "
                         f"{student.embedding.shape} under mode {mode.value}: "
                         f"expected {rows.unit.shape}")
    weights = np.full(len(rows.widths), cfg.lambda_c / max(len(s_maps), 1))
    weights[-1] = cfg.lambda_f
    return _distance("pod_final", teacher, rows, weights, scale_factor)
