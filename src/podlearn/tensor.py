"""Minimal dense-tensor autodiff engine.

Every value is a 64-bit float numpy array wrapped in a :class:`Tensor`.
Primitives record a vector-Jacobian-product closure on their output, so a
single :meth:`Tensor.backward` call on a scalar seed populates ``grad`` on
every reachable leaf with ``requires_grad=True``. A primitive with several
outputs (:func:`_make_multi`) gets one closure over all of their gradients.
Values are validated to be finite at creation and after every primitive.

The convolution kernel (:func:`conv_windows`, :func:`col2im`) works on
batch-innermost (C, W, H, B) buffers; :func:`conv2d` wraps it for
(B, C, W, H) tensors, and the backbone runs it layer to layer.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph recording inside its block."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        raise NumericError(f"{op}: produced non-finite values")


class Tensor:
    """Dense n-dimensional float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "tensor")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar seed.

        Accumulates ``d(self)/d(leaf)`` into ``leaf.grad`` for every
        ``requires_grad`` leaf (a tensor no primitive produced) reachable
        through the recorded graph; intermediate results keep ``grad=None``.
        Repeated calls without clearing grads keep accumulating.
        """
        if self.data.size != 1:
            raise ContractError(
                f"backward: seed must be scalar, got shape {self.shape}"
            )
        order = _toposort(self)
        adjoint: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = adjoint.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.requires_grad:
                    if node.grad is None:
                        node.grad = np.zeros_like(node.data)
                    node.grad += g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None:
                    continue
                key = id(parent)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + pg
                else:
                    adjoint[key] = pg

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def recording(parents: Sequence[Tensor]) -> bool:
    """Whether a primitive over ``parents`` records its vjp: gradients are
    enabled and some parent takes one."""
    return _GRAD_ENABLED and any(p.requires_grad for p in parents)


def _make(
    data: np.ndarray,
    op: str,
    parents: Sequence[Tensor],
    vjp: Callable[[np.ndarray], tuple[np.ndarray | None, ...]],
) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    track = recording(parents)
    out.requires_grad = track
    if track:
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
    return out


class _Slots(dict):
    """Adjoint of a multi-output node: output position -> that output's gradient.

    ``backward`` sums the adjoints a node receives with ``+``; for slots the
    sum is the union, each output filing its gradient once.
    """

    __slots__ = ()

    def __add__(self, other):
        return _Slots({**self, **other})


def _make_multi(
    datas: Sequence[np.ndarray],
    op: str,
    parents: Sequence[Tensor],
    vjp: Callable[[tuple[np.ndarray | None, ...]], tuple[np.ndarray | None, ...]],
) -> tuple[Tensor, ...]:
    """The outputs of one primitive with several results.

    Every output's one parent is a hidden node holding ``parents`` and
    ``vjp``. Each output passes its summed gradient on to the node under its
    position; the sweep reaches the node after all of its outputs, so
    ``vjp`` runs once, on one gradient per output: None for an output no
    loss reached.
    """
    n = len(datas)
    node = _make(np.empty(0), op, parents,
                 lambda slots: vjp(tuple(slots.get(k) for k in range(n))))
    return tuple(_make(d, op, (node,), lambda g, k=k: (_Slots({k: g}),))
                 for k, d in enumerate(datas))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _binary_shape_ok(a: Tensor, b: Tensor) -> bool:
    try:
        np.broadcast_shapes(a.shape, b.shape)
        return True
    except ValueError:
        return False


# -- elementwise primitives --------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    if not _binary_shape_ok(a, b):
        raise ShapeError("add", f"cannot combine {a.shape} with {b.shape}")
    return _make(
        a.data + b.data,
        "add",
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a: Tensor, b: Tensor) -> Tensor:
    if not _binary_shape_ok(a, b):
        raise ShapeError("sub", f"cannot combine {a.shape} with {b.shape}")
    return _make(
        a.data - b.data,
        "sub",
        (a, b),
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _binary_shape_ok(a, b):
        raise ShapeError("mul", f"cannot combine {a.shape} with {b.shape}")
    return _make(
        a.data * b.data,
        "mul",
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        ),
    )


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    return _make(a.data * s, "scale", (a,), lambda g: (g * s,))


def square(a: Tensor) -> Tensor:
    return _make(a.data * a.data, "square", (a,), lambda g: (2.0 * a.data * g,))


def relu(a: Tensor) -> Tensor:
    return _make(np.maximum(a.data, 0.0), "relu", (a,), lambda g: (g * (a.data > 0),))


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return _make(out, "log", (a,), lambda g: (g / a.data,))


def exp(a: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(a.data)
    return _make(out, "exp", (a,), lambda g: (g * out,))


# -- shape plumbing -----------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size and -1 not in shape:
        raise ShapeError("reshape", f"cannot view {a.shape} as {shape}")
    return _make(
        a.data.reshape(shape), "reshape", (a,), lambda g: (g.reshape(a.shape),)
    )


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError("transpose", f"expected 2-D input, got {a.shape}")
    return _make(a.data.T.copy(), "transpose", (a,), lambda g: (g.T,))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ShapeError("concat", "no tensors given")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _make(data, "concat", tuple(tensors), vjp)


# -- reductions ---------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape, axis, keepdims) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape).copy()
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if not keepdims:
        for ax in sorted(ax % len(shape) for ax in axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape).copy()


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over all elements, one axis, or any axis subset."""
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return _make(
        np.asarray(out),
        "sum",
        (a,),
        lambda g: (_expand_reduced(np.asarray(g), a.shape, axis, keepdims),),
    )


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else int(
        np.prod([a.shape[ax] for ax in ((axis,) if isinstance(axis, int) else axis)])
    )
    return _make(
        np.asarray(out),
        "mean",
        (a,),
        lambda g: (
            _expand_reduced(np.asarray(g), a.shape, axis, keepdims) / count,
        ),
    )


# -- linear algebra -----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul", f"expected 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", f"inner extents differ: {a.shape} @ {b.shape}")
    return _make(
        a.data @ b.data,
        "matmul",
        (a, b),
        lambda g: (g @ b.data.T, a.data.T @ g),
    )


_ZERO_NORM = 1e-8  # a slice whose L2 norm is at most this normalizes to zero


def unit_from_norm(x, norm: np.ndarray, eps: float = _ZERO_NORM):
    """``x`` over ``norm``, its slices' L2 norm broadcast to it: ``(unit, alive, safe_norm)``.

    Slices whose norm is at most ``eps`` map to the zero vector; with
    ``x = 1.0`` this gives each slice's reciprocal norm, zero on dead slices.
    """
    alive = norm > eps
    safe = np.where(alive, norm, 1.0)
    return np.where(alive, x / safe, 0.0), alive, safe


def unit_vectors(x: np.ndarray, axis: int = -1, eps: float = _ZERO_NORM):
    """Numpy core of :func:`l2_normalize`: ``(unit, alive, safe_norm)``.

    The fused loss primitives call this (or :func:`unit_from_norm`, on norms
    they take themselves) and :func:`unit_vectors_vjp` directly, so every
    normalization in the package follows one rule.
    """
    return unit_from_norm(x, np.sqrt(np.sum(x * x, axis=axis, keepdims=True)), eps)


def unit_vectors_vjp(g, y, alive, safe, axis: int = -1) -> np.ndarray:
    """Gradient through :func:`unit_vectors`; zero on the dead slices."""
    dot = np.sum(g * y, axis=axis, keepdims=True)
    return np.where(alive, (g - y * dot) / safe, 0.0)


def l2_normalize(a: Tensor, axis: int = -1, eps: float = _ZERO_NORM) -> Tensor:
    """Normalize to unit L2 norm along ``axis``.

    Slices whose norm is at most ``eps`` map to the zero vector (with zero
    gradient) instead of blowing up.
    """
    if eps <= 0:
        raise ContractError("l2_normalize: eps must be positive")
    y, alive, safe = unit_vectors(a.data, axis, eps)
    return _make(y, "l2_normalize", (a,),
                 lambda g: (unit_vectors_vjp(g, y, alive, safe, axis),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _make(y, "softmax", (a,), vjp)


# -- spatial primitives --------------------------------------------------------
#
# Convolutions work on batch-innermost (C, W, H, B) buffers: every receptive
# field row of the im2col copy then runs over B contiguous doubles.


def padded_cwhb(x: np.ndarray, p: int) -> np.ndarray:
    """A (B, C, W, H) array as a zero-padded (C, W + 2p, H + 2p, B) buffer."""
    B, C, W, H = x.shape
    xp = np.zeros((C, W + 2 * p, H + 2 * p, B))
    xp[:, p : p + W, p : p + H] = x.transpose(1, 2, 3, 0)
    return xp


def conv_windows(xp: np.ndarray, KW: int, KH: int, s: int, Wo: int, Ho: int) -> np.ndarray:
    """Every receptive field of a C-contiguous padded (Cin, Wp, Hp, B)
    buffer, as a view.

    Shape (Cin, KW, KH, Wo, Ho, B): entry (c, u, v, i, j, b) is the pixel
    (c, u + s*i, v + s*j, b) that kernel offset (u, v) of output (i, j)
    reads. Reshaped to (Cin*KW*KH, Wo*Ho*B), it is the im2col matrix whose
    product with a (Cout, Cin*KW*KH) kernel is the (Cout, Wo, Ho, B) output.
    """
    Cin, _, _, B = xp.shape
    sc, sw, sh, sb = xp.strides
    return np.ndarray((Cin, KW, KH, Wo, Ho, B), xp.dtype, xp,
                      strides=(sc, sw, sh, s * sw, s * sh, sb))


@functools.lru_cache(maxsize=4)
def _scatter_index(Cin: int, Wp: int, Hp: int, KW: int, KH: int, s: int,
                   Wo: int, Ho: int, B: int) -> np.ndarray:
    """Flat index into a padded (Cin, Wp, Hp, B) buffer of each entry of
    :func:`conv_windows`, in its row-major order.

    Keyed by layer geometry and batch size. A task's steps see two batch
    sizes, its full batch and its last partial one, and a backbone of three
    one-block stages has two convs that take an input gradient: four entries
    serve a task. The bound keeps a run of many batch sizes from holding one
    index each. The array is read-only because every call with that key
    shares it.
    """
    c, u, v, i, j, b = np.ogrid[:Cin, :KW, :KH, :Wo, :Ho, :B]
    index = (((c * Wp + u + s * i) * Hp + v + s * j) * B + b).ravel()
    index.setflags(write=False)
    return index


def col2im(gcols: np.ndarray, xp_shape: tuple[int, int, int, int],
           KW: int, KH: int, s: int, Wo: int, Ho: int) -> np.ndarray:
    """Adjoint of :func:`conv_windows`: (Cin, KW, KH, Wo, Ho, B) column
    gradients summed onto their padded (Cin, Wp, Hp, B) pixels.

    One ``np.bincount`` through a cached index adds each pixel's
    contributions in column order, kernel offset (u, v) by offset from zero,
    as a loop of strided adds per offset would.
    """
    index = _scatter_index(*xp_shape[:3], KW, KH, s, Wo, Ho, xp_shape[3])
    return np.bincount(index, weights=gcols.ravel(),
                       minlength=math.prod(xp_shape)).reshape(xp_shape)


def conv2d(
    x: Tensor,
    w: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over (B, C, W, H) inputs with zero padding.

    A layout wrapper over :func:`conv_windows` and :func:`col2im`, the
    kernel the backbone runs: the input is padded batch-innermost, and the
    columns are taken in (b, i, j) order, so the forward pass and the weight
    gradient are one GEMM each over the batch-major output. The input
    gradient is one GEMM back to columns and one scatter. It is skipped when
    ``x`` takes no gradient (a network's input batch).
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv2d", f"expected 4-D input/kernel, got {x.shape}, {w.shape}")
    B, Cin, W, H = x.shape
    Cout, Cw, KW, KH = w.shape
    if Cw != Cin:
        raise ShapeError("conv2d", f"kernel channels {Cw} != input channels {Cin}")
    if bias is not None and bias.shape != (Cout,):
        raise ShapeError("conv2d", f"bias shape {bias.shape} != ({Cout},)")
    s, p = int(stride), int(padding)
    if s < 1 or p < 0:
        raise ContractError(f"conv2d: invalid stride={s} padding={p}")
    Wo = (W + 2 * p - KW) // s + 1
    Ho = (H + 2 * p - KH) // s + 1
    if Wo < 1 or Ho < 1:
        raise ShapeError("conv2d", f"kernel {KW}x{KH} too large for {W}x{H} (pad {p})")

    xp = padded_cwhb(x.data, p)
    xp_shape = xp.shape
    # rows (c, u, v) in the order of w's trailing axes, columns (b, i, j)
    windows = conv_windows(xp, KW, KH, s, Wo, Ho).transpose(0, 1, 2, 5, 3, 4)
    cols = windows.reshape(Cin * KW * KH, -1)
    wmat = w.data.reshape(Cout, -1)
    y = (wmat @ cols).reshape(Cout, B, Wo, Ho)
    if bias is not None:
        y += bias.data[:, None, None, None]
    out = np.ascontiguousarray(y.transpose(1, 0, 2, 3))

    parents = (x, w) if bias is None else (x, w, bias)

    def vjp(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(Cout, -1)
        gw = (g2 @ cols.T).reshape(w.shape)
        gx = None
        if x.requires_grad:
            gcols = (wmat.T @ g2).reshape(-1, B, Wo, Ho).transpose(0, 2, 3, 1)
            gxp = col2im(gcols, xp_shape, KW, KH, s, Wo, Ho)
            gx = gxp[:, p : p + W, p : p + H].transpose(3, 0, 1, 2)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _make(out, "conv2d", parents, vjp)
