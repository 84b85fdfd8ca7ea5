"""Dense float tensors with taped reverse-mode gradients.

A Tensor wraps a numpy array; every node that can influence a loss records a
backward closure on the result, so the tape is implicit in the parent links.
``Tensor.backward()`` walks the tape once in reverse topological order and
accumulates into ``.grad``.

The tape has few kinds of node, each with a hand-written backward. The
model's layers: ``conv_dense`` is the whole backbone (conv3x3 -> tanh -> 1x1
-> tanh) and ``affine_last`` the classifier head. Every scalar is one
``scalar_node(value, (parent, grad), ...)``, which records ``value`` with the
closed-form gradient of each parent: a loss over the logits or the features,
the drift penalty over the parameters, the objective over its weighted terms.
``conv3x3``, ``tanh`` and the full sum ``tsum`` are the pieces the fused
backbone is checked against. ``finite_difference_gradient`` is the
independent oracle used to check every gradient.

Both layers are limited by memory traffic, not arithmetic, so they keep
their working set in cache. ``conv_dense`` walks the pixels in blocks of
about ``TILE`` (whole images while they fit, else rows of one image) and cuts
each block's im2col columns from the padded input when it reaches it; its
output is that of the composition bit for bit, its weight gradients only
when the batch is one block (otherwise the blocks' sums are added in another
order). ``affine_last`` stores its result channel-major, one contiguous row
of pixels per output channel, behind the usual [..., C] view, which is the
layout the losses read.

Arrays keep the dtype they come in: a node computes in the dtype of its
inputs (float32 or float64, the parameters' dtype during training; see
``model``), and so does its backward. A scalar node stores its value as a
float64 0-d array, and its backward scales the closed-form gradients by a
Python float, which keeps their dtype. ``DEFAULT_DTYPE`` is only what a
``Tensor`` makes of data that is not floating point. The finite-difference
oracle needs float64: in float32 a central difference at ``eps=1e-5`` is
off by about 1e-3 of the gradient.
"""
from __future__ import annotations

import contextlib

import numpy as np

from .exceptions import OracleError, ShapeError

DEFAULT_DTYPE = np.float64
# pixels per block of the backbone (conv_dense): a block's im2col columns,
# activations and their gradients, about 1.7 MB at 3 input and 16 hidden
# channels, stay in a 2 MB L2 cache; of 512 to 8192, 1024 and 2048 were the
# fastest at 8x64x64 on an x86 core with 2 MB of L2
TILE = 2048

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

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

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


def scalar_node(value, *terms) -> Tensor:
    """A scalar computed outside the tape, from closed-form gradients.

    Each term is ``(parent, grad)`` with ``grad`` = d value / d ``parent``; the
    node's backward scales every ``grad`` by the incoming gradient, in the
    dtype of ``grad``. This is the only way a scalar enters the tape: each
    loss, the penalty and the objective that sums them are one node each.
    """
    parents = tuple(p for p, _ in terms)
    grads = tuple(g for _, g in terms)

    def bw(g):
        # a Python float: a 0-d float64 array would promote float32 grads
        g = float(g)
        return tuple(grad * g for grad in grads)

    return _from_op(np.asarray(value, dtype=DEFAULT_DTYPE), parents, bw)


def tsum(a: Tensor) -> Tensor:
    """The sum of every entry of ``a``, as one node."""
    return scalar_node(a.data.sum(), (a, np.ones_like(a.data)))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def bw(g):
        return (g * (1.0 - data * data),)

    return _from_op(data, (a,), bw)


def _conv_windows(xd: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """The 3x3 windows of ``xd`` [B,H,W,Cin] zero-padded by one pixel, as a
    strided [B,H,W,3,3,Cin] view (no copy), checked against the kernel
    ``wd`` [3,3,Cin,Cout]."""
    if xd.ndim != 4:
        raise ShapeError("conv3x3 input must be [B,H,W,Cin]")
    if wd.shape[:2] != (3, 3) or wd.shape[2] != xd.shape[3]:
        raise ShapeError("conv3x3 kernel must be [3,3,Cin,Cout] matching input channels")
    B, H, W, cin = xd.shape
    xp = np.zeros((B, H + 2, W + 2, cin), dtype=xd.dtype)
    xp[:, 1:-1, 1:-1, :] = xd
    windows = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(1, 2))
    return windows.transpose(0, 1, 2, 4, 5, 3)


def _conv_columns(xd: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """The [B*H*W, 9*Cin] im2col columns of a 3x3 same-padding convolution of
    ``xd`` [B,H,W,Cin] with kernel ``wd`` [3,3,Cin,Cout], ordered (di, dj, cin):
    one copy of the strided windows of the zero-padded input."""
    return _conv_windows(xd, wd).reshape(-1, 9 * xd.shape[3])


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


def _tanh_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient reaching a tanh's input, from its output ``y`` and the
    gradient ``g`` reaching that output; the same arithmetic as the ``tanh``
    node."""
    t = y * y
    np.subtract(1.0, t, out=t)
    t *= g
    return t


def _tiles(B: int, H: int, W: int):
    """Blocks of about ``TILE`` pixels of a [B,H,W] batch, in pixel order, as
    (image slice, row slice, pixel slice): whole images while they fit in
    one block, else a block of rows of one image."""
    if H * W <= TILE:
        per = TILE // (H * W)
        for b in range(0, B, per):
            e = min(b + per, B)
            yield slice(b, e), slice(0, H), slice(b * H * W, e * H * W)
        return
    rows = max(1, TILE // W)
    for b in range(B):
        for r in range(0, H, rows):
            e = min(r + rows, H)
            yield slice(b, b + 1), slice(r, e), slice((b * H + r) * W, (b * H + e) * W)


def conv_dense(x, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """tanh(tanh(conv3x3(x, w1, b1)) @ w2 + b2) as one tape node.

    ``x`` is [B,H,W,Cin] data: no gradient flows to it. ``w2`` [Cmid, Cout]
    is a dense map over the channels (a 1x1 convolution). Forward and
    backward walk the pixels in blocks of about ``TILE`` (``_tiles``); each
    block's im2col columns are cut from the padded input when the block is
    reached, so the working set stays in cache and the full column matrix
    never exists. The node keeps only the two tanh outputs. The result equals
    that of the composition ``conv3x3 -> tanh -> affine_last -> tanh`` bit for
    bit; the gradients of ``w1, b1, w2, b2`` do so when the batch is one
    block, and otherwise differ only in the order the blocks' sums are added.
    """
    xd = as_tensor(x).data
    w1, b1, w2, b2 = (as_tensor(t) for t in (w1, b1, w2, b2))
    windows = _conv_windows(xd, w1.data)
    B, H, W, cin = xd.shape
    k1 = w1.data.reshape(9 * cin, -1)
    h = np.empty((B * H * W, k1.shape[1]), dtype=np.result_type(xd, k1))
    f = np.empty((h.shape[0], w2.data.shape[1]), dtype=h.dtype)
    for bs, rs, ps in _tiles(B, H, W):
        ht, ft = h[ps], f[ps]
        np.matmul(windows[bs, rs].reshape(-1, 9 * cin), k1, out=ht)
        ht += b1.data
        np.tanh(ht, out=ht)
        np.matmul(ht, w2.data, out=ft)
        ft += b2.data
        np.tanh(ft, out=ft)

    def bw(g):
        g = g.reshape(f.shape)
        gw1, gb1, gw2, gb2 = (np.zeros_like(a) for a in (k1, b1.data, w2.data, b2.data))
        for bs, rs, ps in _tiles(B, H, W):
            gf = _tanh_grad(f[ps], g[ps])
            gh = _tanh_grad(h[ps], gf @ w2.data.T)
            gw1 += windows[bs, rs].reshape(-1, 9 * cin).T @ gh
            gb1 += gh.sum(axis=0)
            gw2 += h[ps].T @ gf
            gb2 += gf.sum(axis=0)
        return gw1.reshape(w1.data.shape), gb1, gw2, gb2

    return _from_op(f.reshape(xd.shape[:3] + f.shape[-1:]), (w1, b1, w2, b2), bw)


def affine_last(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense map over the last axis, [..., Cin] @ [Cin, Cout] + [Cout], as
    one tape node.

    The result is stored channel-major, as ``w.T @ x.T`` [Cout, pixels], and
    returned as the usual [..., Cout] view: each of the losses reads it one
    contiguous channel row at a time. The backward takes its gradient in
    either layout.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    flat = x.data.reshape(-1, x.data.shape[-1])
    rows = w.data.T @ flat.T
    rows += b.data[:, None]
    out = rows.T

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
