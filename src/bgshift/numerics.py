"""Dense float tensors with taped reverse-mode gradients.

A Tensor wraps a numpy array; every node that can influence a loss records a
backward closure on the result, so the tape is implicit in the parent links.
``Tensor.backward()`` walks the tape once in reverse topological order and
accumulates into ``.grad``. Only leaves keep a gradient (the parameters, or
any tensor built with ``requires_grad`` and no parents): an interior node's
``.grad`` is set back to None as soon as its backward has passed it on to
its parents, so the output, the logits and the features hold None after
``backward()``, and a second ``backward()`` on the same tape adds its
gradient to the leaves once more, no stale interior gradient compounding it.
The forward arrays a node's backward reads (the layers' inputs and
activations, a scalar node's closed-form gradients) are held by its
closure, so a tape's arrays live exactly as long as its output node:
dropping the last reference to the output frees every node but the leaves,
and ``backward()`` frees none of them.

The tape has few kinds of node, each with a hand-written backward. The
model's layers: ``conv_dense`` is the whole backbone (conv3x3 -> tanh -> 1x1
-> tanh) and ``affine_last`` the classifier head. Every scalar is one
``scalar_node(value, (parent, grad), ...)``, which records ``value`` with the
closed-form gradient of each parent: a loss over the logits or the features,
the drift penalty over the parameters. ``scalar_sum`` adds weighted scalar
nodes into one such node over their parents (the objective, over the
logits, the features and the penalized parameters), in place in their
gradient arrays. A scalar node whose incoming gradient is 1.0 hands its
arrays on uncopied, so a ``.grad`` is read-only.
``conv3x3``, ``tanh`` and the full sum ``tsum`` are the pieces the fused
backbone is checked against; the tests check every gradient against a
finite-difference oracle.

Both layers are limited by memory traffic, not arithmetic, so each numpy
call in them handles long contiguous runs and the working set stays in
cache. The input is padded once into a channel-first copy, and a block's
im2col columns are [9*Cin, pixels], copied a row of W pixels at a time
(``_conv_columns``, shared by ``conv3x3`` and ``conv_dense``). A bias
gradient is a column sum done as one matrix-vector product
(``_column_sum``), not numpy's row loop. ``conv_dense`` walks the pixels in
blocks of about ``TILE`` (whole images while they fit, else rows of one
image), cuts each block's columns when it reaches it and adds the biases as
arrays of the block's shape. Its output is that of the composition bit for bit,
its weight gradients only when the batch is one block (otherwise the
blocks' sums are added in another order). ``affine_last`` stores its result
channel-major, one contiguous row of pixels per output channel, behind the
usual [..., C] view, which is the layout the losses read.

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

from .exceptions import ShapeError

DEFAULT_DTYPE = np.float64
# pixels per block of the backbone (conv_dense): a block's im2col columns,
# activations, their gradients and the repeated biases, about 1 MB in
# float32 (2 MB in float64) at 3 input and 16 hidden channels, stay in a
# 2 MB L2 cache; of 512 to 8192, 2048 was the fastest fwd+bwd at 8x64x64 in
# float32 on an x86 core with 2 MB of L2 (5.4 ms, against 6.1 at 1024 and
# 6.5 at 4096)
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_terms")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._terms = ()  # a scalar node's (parent, grad) pairs, see scalar_node

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
            # passed on: an interior gradient is freed once used, and a
            # second backward finds none left to add to
            node.grad = None

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
    node keeps its terms (``_terms``) and its backward scales every ``grad``
    by the incoming gradient, in the dtype of ``grad``. At an incoming
    gradient of 1.0, the one ``backward()`` starts from, it hands the
    ``grad`` arrays on uncopied (x * 1.0 is x, bit for bit), so a parent's
    ``.grad`` may be the node's own array: it is read-only, and nothing in
    the package writes a ``.grad``. This is the only way a scalar enters the
    tape: each loss and the penalty is one node, and the objective that adds
    them is one node over their parents (``scalar_sum``).
    """
    parents = tuple(p for p, _ in terms)
    grads = tuple(g for _, g in terms)

    def bw(g):
        # a Python float: a 0-d float64 array would promote float32 grads
        g = float(g)
        return grads if g == 1.0 else tuple(grad * g for grad in grads)

    out = _from_op(np.asarray(value, dtype=DEFAULT_DTYPE), parents, bw)
    if out._backward is not None:
        out._terms = terms
    return out


def scalar_sum(*terms) -> Tensor:
    """sum(weight * node) over ``terms``, ``(node, weight), ...``: scalar
    nodes summed into one scalar node over their parents.

    The value adds ``node.data * weight`` in the order given. For each
    parent, the first node's gradient array is scaled in place (a weight of
    1.0 scales nothing) and the others are scaled and added into it, so one
    array per parent is alive; where at most two nodes reach a parent, as in
    the objective, this is bit for bit the arithmetic of a node over the
    summed nodes (a + b is b + a). The sum takes over its inputs: it writes
    their gradient arrays (each of its parent's shape and dtype), and each
    summed node is left off the tape, a constant that keeps its value.
    """
    value = None
    total: dict[int, tuple[Tensor, np.ndarray]] = {}
    for node, weight in terms:
        part = node.data * weight
        value = part if value is None else value + part
        for parent, grad in node._terms:
            if weight != 1.0:
                grad *= weight
            if id(parent) in total:
                acc = total[id(parent)][1]
                acc += grad
            else:
                total[id(parent)] = (parent, grad)
        node.requires_grad, node._parents, node._backward, node._terms = False, (), None, ()
    return scalar_node(value, *total.values())


def tsum(a: Tensor) -> Tensor:
    """The sum of every entry of ``a``, as one node."""
    return scalar_node(a.data.sum(), (a, np.ones_like(a.data)))


def tanh(a) -> Tensor:
    a = as_tensor(a)
    data = np.tanh(a.data)

    def bw(g):
        # not _tanh_grad: on a channel-major ``data`` (the tanh of an affine_last)
        # and a C-order ``g``, this product is C-order and _tanh_grad's channel-major,
        # so that affine_last's _column_sum would add its bias gradient in another order
        return (g * (1.0 - data * data),)

    return _from_op(data, (a,), bw)


def _conv_windows(xd: np.ndarray, wd: np.ndarray) -> np.ndarray:
    """The 3x3 windows of ``xd`` [B,H,W,Cin] zero-padded by one pixel, as a
    strided [3,3,Cin,B,H,W] view (no copy) of a channel-first padded copy
    [Cin,B,H+2,W+2], checked against the kernel ``wd`` [3,3,Cin,Cout]."""
    if xd.ndim != 4:
        raise ShapeError("conv3x3 input must be [B,H,W,Cin]")
    if wd.shape[:2] != (3, 3) or wd.shape[2] != xd.shape[3]:
        raise ShapeError("conv3x3 kernel must be [3,3,Cin,Cout] matching input channels")
    B, H, W, cin = xd.shape
    xp = np.zeros((cin, B, H + 2, W + 2), dtype=xd.dtype)
    xp[:, :, 1:-1, 1:-1] = xd.transpose(3, 0, 1, 2)
    # window (di, dj) of pixel (i, j) is xp[..., i + di, j + dj]
    sc, sb, sh, sw = xp.strides
    return np.lib.stride_tricks.as_strided(xp, (3, 3, cin, B, H, W), (sh, sw, sc, sb, sh, sw), writeable=False)


def _conv_columns(windows: np.ndarray) -> np.ndarray:
    """The im2col columns of a block of ``_conv_windows`` [3,3,Cin,b,h,W], as
    one contiguous [9*Cin, b*h*W] copy: a row per (di, dj, cin), the row
    order of the kernel reshaped to [9*Cin, Cout], and a column per pixel.
    Each run copied is a row of W pixels."""
    return windows.reshape(9 * windows.shape[2], -1)


def _column_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)`` of a 2-D array as one matrix-vector product, which
    is several times faster than numpy's row loop for a few columns; the
    summation order, and so the last bits, differ."""
    return np.ones(len(a), a.dtype) @ a


def conv3x3(x, w: Tensor, b: Tensor) -> Tensor:
    """3x3 same-padding convolution on [B,H,W,Cin] with kernel [3,3,Cin,Cout].

    ``x`` is data: no gradient flows to it, as in ``conv_dense``.
    """
    xd, w, b = as_tensor(x).data, as_tensor(w), as_tensor(b)
    cols = _conv_columns(_conv_windows(xd, w.data))
    B, H, W, cin = xd.shape
    cout = w.data.shape[3]
    data = (cols.T @ w.data.reshape(9 * cin, cout) + b.data).reshape(B, H, W, cout)

    def bw(g):
        gf = g.reshape(B * H * W, cout)
        return (cols @ gf).reshape(3, 3, cin, cout), _column_sum(gf)

    return _from_op(data, (w, b), bw)


def _tanh_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient reaching a tanh's input, from its output ``y`` and the
    gradient ``g`` reaching that output, in ``y``'s layout; the ``tanh``
    node's values, which it keeps in its own layout (see there)."""
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
    backward walk the pixels in blocks of about ``TILE`` (``_tiles``). Each
    block's [9*Cin, pixels] im2col columns are copied from the channel-first
    padded input when the block is reached, in the forward and again in the
    backward, so the working set stays in cache and the full column matrix
    never exists. The forward adds each bias as an array of the block's
    shape, the same adds as a broadcast; the backward sums the bias
    gradients with ``_column_sum``. The node keeps
    only the two tanh outputs. The result equals that of the composition
    ``conv3x3 -> tanh -> affine_last -> tanh`` bit for bit, as the two share
    the column code; the gradients of ``w1, b1, w2, b2`` do so when the batch
    is one block, and otherwise differ only in the order the blocks' sums are
    added.
    """
    xd = as_tensor(x).data
    w1, b1, w2, b2 = (as_tensor(t) for t in (w1, b1, w2, b2))
    windows = _conv_windows(xd, w1.data)
    B, H, W, cin = xd.shape
    k1 = w1.data.reshape(9 * cin, -1)
    h = np.empty((B * H * W, k1.shape[1]), dtype=np.result_type(xd, k1))
    f = np.empty((h.shape[0], w2.data.shape[1]), dtype=h.dtype)
    tiles = list(_tiles(B, H, W))
    # the biases repeated for each pixel of the longest tile: an add of two
    # contiguous arrays of one shape runs as one flat loop, where a broadcast
    # add loops over the pixels
    n = max((ps.stop - ps.start for _, _, ps in tiles), default=0)
    bias1, bias2 = (np.empty((n,) + b.data.shape, b.data.dtype) for b in (b1, b2))
    bias1[...], bias2[...] = b1.data, b2.data
    for bs, rs, ps in tiles:
        ht, ft = h[ps], f[ps]
        np.matmul(_conv_columns(windows[:, :, :, bs, rs]).T, k1, out=ht)
        ht += bias1[: len(ht)]
        np.tanh(ht, out=ht)
        np.matmul(ht, w2.data, out=ft)
        ft += bias2[: len(ft)]
        np.tanh(ft, out=ft)

    def bw(g):
        g = g.reshape(f.shape)
        gw1, gb1, gw2, gb2 = (np.zeros_like(a) for a in (k1, b1.data, w2.data, b2.data))
        for bs, rs, ps in tiles:
            gf = _tanh_grad(f[ps], g[ps])
            gh = _tanh_grad(h[ps], gf @ w2.data.T)
            gw1 += _conv_columns(windows[:, :, :, bs, rs]) @ gh
            gb1 += _column_sum(gh)
            gw2 += h[ps].T @ gf
            gb2 += _column_sum(gf)
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
        return gx, flat.T @ gf, _column_sum(gf)

    return _from_op(out.reshape(x.data.shape[:-1] + out.shape[-1:]), (x, w, b), bw)
