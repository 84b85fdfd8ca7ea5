"""Dense float tensors with taped reverse-mode gradients.

A Tensor wraps a numpy array; every op that can influence a loss records a
backward closure on the result, so the tape is implicit in the parent links.
``Tensor.backward()`` walks the tape once in reverse topological order and
accumulates into ``.grad``. 64-bit floats are the default; float32 can be
requested per tensor. ``finite_difference_gradient`` is the independent
oracle used to check every differentiable op.

A scalar whose gradient has a closed form is one fused node:
``scalar_with_grad(value, x, grad)`` records ``value`` with ``grad`` as its
derivative with respect to ``x``, so the tape holds one node instead of the
chain of elementary ops that would compute the same value. The losses use it.
The model's layers are fused the same way: ``conv_dense`` is the whole
backbone (conv3x3 -> act -> 1x1 -> act) and ``affine_last`` the classifier
head, each one node with a hand-written backward.
"""
from __future__ import annotations

import contextlib

import numpy as np

from .exceptions import OracleError, ShapeError

DEFAULT_DTYPE = np.float64

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (frozen models, eval)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    # keep numpy from hijacking `ndarray <op> Tensor`
    __array_ufunc__ = None

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def backward(self):
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                parent.grad = g if parent.grad is None else parent.grad + g

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __neg__(self):
        return mul(self, -1.0)

    def __truediv__(self, other):
        return div(self, other)

    def __pow__(self, p):
        return power(self, p)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.requires_grad else 'no'})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _from_op(data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data - b.data

    def bw(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)

    return _from_op(data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def bw(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return _from_op(data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data / b.data

    def bw(g):
        return (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        )

    return _from_op(data, (a, b), bw)


def power(a, p: float) -> Tensor:
    a = as_tensor(a)
    p = float(p)
    data = a.data**p

    def bw(g):
        return (g * p * a.data ** (p - 1.0),)

    return _from_op(data, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-D operands")
    data = a.data @ b.data

    def bw(g):
        return g @ b.data.T, a.data.T @ g

    return _from_op(data, (a, b), bw)


def exp(a) -> Tensor:
    a = as_tensor(a)
    data = np.exp(a.data)

    def bw(g):
        return (g * data,)

    return _from_op(data, (a,), bw)


def log(a) -> Tensor:
    a = as_tensor(a)
    data = np.log(a.data)

    def bw(g):
        return (g / a.data,)

    return _from_op(data, (a,), bw)


def scalar_with_grad(value, x: Tensor, grad: np.ndarray) -> Tensor:
    """A scalar computed outside the tape, with ``grad`` = d value / d ``x``.

    The node's only parent is ``x``; its backward scales ``grad`` by the
    incoming gradient.
    """
    x = as_tensor(x)

    def bw(g):
        return (grad * g,)

    return _from_op(np.asarray(value, dtype=x.data.dtype), (x,), bw)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def bw(g):
        return (g * (1.0 - data * data),)

    return _from_op(data, (a,), bw)


def relu(a) -> Tensor:
    a = as_tensor(a)
    data = np.maximum(a.data, 0.0)

    def bw(g):
        return (g * (a.data > 0),)

    return _from_op(data, (a,), bw)


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, a.data.shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, a.data.shape).copy(),)

    return _from_op(data, (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    data = a.data.reshape(shape)

    def bw(g):
        return (g.reshape(a.data.shape),)

    return _from_op(data, (a,), bw)


def narrow_last(a: Tensor, start: int, size: int) -> Tensor:
    """Slice [start, start+size) along the last axis."""
    a = as_tensor(a)
    if start < 0 or start + size > a.data.shape[-1]:
        raise ShapeError("narrow_last slice out of range")
    data = a.data[..., start : start + size]

    def bw(g):
        z = np.zeros_like(a.data)
        z[..., start : start + size] = g
        return (z,)

    return _from_op(data, (a,), bw)


def _conv_columns(xd: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """The [B*H*W, 9*Cin] im2col columns of a 3x3 same-padding convolution of
    ``xd`` [B,H,W,Cin] with kernel ``wd`` [3,3,Cin,Cout], ordered (di, dj, cin):
    one copy of the strided windows of the zero-padded input."""
    if xd.ndim != 4:
        raise ShapeError("conv3x3 input must be [B,H,W,Cin]")
    if wd.shape[:2] != (3, 3) or wd.shape[2] != xd.shape[3]:
        raise ShapeError("conv3x3 kernel must be [3,3,Cin,Cout] matching input channels")
    B, H, W, cin = xd.shape
    xp = np.zeros((B, H + 2, W + 2, cin), dtype=xd.dtype)
    xp[:, 1:-1, 1:-1, :] = xd
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(B * H * W, 9 * cin)


def conv3x3(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """3x3 same-padding convolution on [B,H,W,Cin] with kernel [3,3,Cin,Cout].

    The gradient with respect to ``x`` is computed only when ``x`` requires
    one.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    xd, wd = x.data, w.data
    flat = _conv_columns(xd, wd)
    B, H, W, cin = xd.shape
    cout = wd.shape[3]
    data = (flat @ wd.reshape(9 * cin, cout) + b.data).reshape(B, H, W, cout)
    need_x = x.requires_grad

    def bw(g):
        gf = g.reshape(B * H * W, cout)
        gw = (flat.T @ gf).reshape(3, 3, cin, cout)
        gb = gf.sum(axis=0)
        if not need_x:
            return None, gw, gb
        gcols = (gf @ wd.reshape(9 * cin, cout).T).reshape(B, H, W, 3, 3, cin)
        gxp = np.zeros((B, H + 2, W + 2, cin), dtype=xd.dtype)
        for di in range(3):
            for dj in range(3):
                gxp[:, di : di + H, dj : dj + W, :] += gcols[:, :, :, di, dj, :]
        return gxp[:, 1:-1, 1:-1, :], gw, gb

    return _from_op(data, (x, w, b), bw)


def _activate(a: np.ndarray, activation: str) -> None:
    """Apply ``activation`` to ``a`` in place."""
    if activation == "tanh":
        np.tanh(a, out=a)
    else:
        np.maximum(a, 0.0, out=a)


def _activation_grad(y: np.ndarray, g: np.ndarray, activation: str) -> np.ndarray:
    """The gradient reaching an activation's input, from its output ``y`` and
    the gradient ``g`` reaching that output; the same arithmetic as the
    ``tanh``/``relu`` nodes (relu's y > 0 exactly where its input is)."""
    if activation == "tanh":
        t = y * y
        np.subtract(1.0, t, out=t)
        t *= g
        return t
    return g * (y > 0)


def conv_dense(x, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, activation: str) -> Tensor:
    """act(act(conv3x3(x, w1, b1)) @ w2 + b2) as one tape node.

    ``x`` is [B,H,W,Cin] data: no gradient flows to it. ``w2`` [Cmid, Cout]
    is a dense map over the channels (a 1x1 convolution); ``activation`` is
    "tanh" or "relu". The result and the gradients of ``w1, b1, w2, b2``
    equal, bit for bit, those of the composition ``conv3x3 -> act ->
    affine_last -> act``: the forward works in place, the node keeps only the
    im2col columns and the two activation outputs, and its backward makes
    the numpy calls that composition's nodes make.
    """
    if activation not in ("tanh", "relu"):
        raise ShapeError(f"unknown activation {activation!r}")
    xd = as_tensor(x).data
    w1, b1, w2, b2 = (as_tensor(t) for t in (w1, b1, w2, b2))
    cols = _conv_columns(xd, w1.data)
    h = cols @ w1.data.reshape(cols.shape[1], -1)
    h += b1.data
    _activate(h, activation)
    f = h @ w2.data
    f += b2.data
    _activate(f, activation)

    def bw(g):
        gf = _activation_grad(f, g.reshape(f.shape), activation)
        gh = _activation_grad(h, gf @ w2.data.T, activation)
        return (cols.T @ gh).reshape(w1.data.shape), gh.sum(axis=0), h.T @ gf, gf.sum(axis=0)

    return _from_op(f.reshape(xd.shape[:3] + f.shape[-1:]), (w1, b1, w2, b2), bw)


def affine_last(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense map over the last axis, [..., Cin] @ [Cin, Cout] + [Cout], as
    one tape node."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    flat = x.data.reshape(-1, x.data.shape[-1])
    out = flat @ w.data
    out += b.data

    def bw(g):
        gf = g.reshape(out.shape)
        gx = (gf @ w.data.T).reshape(x.data.shape) if x.requires_grad else None
        return gx, flat.T @ gf, gf.sum(axis=0)

    return _from_op(out.reshape(x.data.shape[:-1] + out.shape[-1:]), (x, w, b), bw)


def finite_difference_gradient(f, x: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x; the oracle for all ops."""
    if eps <= 0:
        raise ValueError("eps must be positive")

    def evaluate() -> float:
        out = f(x)
        v = float(out.data) if isinstance(out, Tensor) else float(out)
        if not np.isfinite(v):
            raise OracleError("objective returned a non-finite value during probing")
        return v

    grad = np.zeros_like(x.data)
    it = np.nditer(x.data, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = x.data[ix]
        x.data[ix] = orig + eps
        fp = evaluate()
        x.data[ix] = orig - eps
        fm = evaluate()
        x.data[ix] = orig
        grad[ix] = (fp - fm) / (2.0 * eps)
        it.iternext()
    return grad


def check_gradient(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max |reverse-mode - central difference| normalized by the oracle scale."""
    x.zero_grad()
    out = f(x)
    out.backward()
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
    numeric = finite_difference_gradient(f, x, eps)
    scale = max(np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)
