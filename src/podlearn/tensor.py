"""Minimal dense-tensor autodiff engine.

Every value is a 64-bit float numpy array wrapped in a :class:`Tensor`.
Primitives record a vector-Jacobian-product closure on their output, so a
single :meth:`Tensor.backward` call on a scalar seed populates ``grad`` on
every reachable leaf with ``requires_grad=True``. Values are validated to be
finite at creation and after every primitive.
"""

from __future__ import annotations

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
        ``requires_grad`` tensor reachable through the recorded graph.
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
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
            if node._vjp is None:
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

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    __rmul__ = __mul__

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
    track = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.requires_grad = track
    if track:
        out._parents = tuple(parents)
        out._vjp = vjp
    else:
        out._parents = ()
        out._vjp = None
    return out


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
    mask = a.data > 0
    return _make(np.where(mask, a.data, 0.0), "relu", (a,), lambda g: (g * mask,))


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


def l2_normalize(a: Tensor, axis: int = -1, eps: float = 1e-8) -> Tensor:
    """Normalize to unit L2 norm along ``axis``.

    Slices whose norm is at most ``eps`` map to the zero vector (with zero
    gradient) instead of blowing up.
    """
    if eps <= 0:
        raise ContractError("l2_normalize: eps must be positive")
    norm = np.sqrt(np.sum(a.data * a.data, axis=axis, keepdims=True))
    alive = norm > eps
    safe = np.where(alive, norm, 1.0)
    y = np.where(alive, a.data / safe, 0.0)

    def vjp(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return (np.where(alive, (g - y * dot) / safe, 0.0),)

    return _make(y, "l2_normalize", (a,), vjp)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        return (y * (g - dot),)

    return _make(y, "softmax", (a,), vjp)


# -- spatial primitives --------------------------------------------------------


def conv2d(
    x: Tensor,
    w: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2-D convolution over (B, C, W, H) inputs with zero padding.

    Unrolled (im2col) form: every receptive field becomes one column of a
    (Cin*KW*KH, B*Wo*Ho) matrix, so the forward pass and the weight gradient
    are one GEMM each. The input gradient is one GEMM back to columns, folded
    onto the padded input with one strided add per kernel offset; it is
    skipped when ``x`` takes no gradient (a network's input batch).
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

    padded_shape = (W + 2 * p, H + 2 * p)
    xp = np.zeros((B, Cin, *padded_shape))
    xp[:, :, p : p + W, p : p + H] = x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, (KW, KH), axis=(2, 3))
    # rows (c, u, v) in the order of w's trailing axes, columns (b, i, j)
    cols = windows[:, :, ::s, ::s].transpose(1, 4, 5, 0, 2, 3).reshape(Cin * KW * KH, -1)
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
            gcols = (wmat.T @ g2).reshape(Cin, KW, KH, B, Wo, Ho)
            gxp = np.zeros((Cin, B, *padded_shape))
            for u in range(KW):
                for v in range(KH):
                    gxp[:, :, u : u + s * Wo : s, v : v + s * Ho : s] += gcols[:, u, v]
            gx = gxp[:, :, p : p + W, p : p + H].transpose(1, 0, 2, 3)
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    return _make(out, "conv2d", parents, vjp)
