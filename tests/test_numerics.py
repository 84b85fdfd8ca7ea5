import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgshift import numerics as nm
from bgshift.exceptions import ShapeError
from bgshift.losses import _softmax
from bgshift.numerics import Tensor, _column_sum
from helpers import OracleError, check_gradient, finite_difference_gradient


# the softmax shared by the losses and the teacher (numpy, outside the tape)


def test_softmax_uniform_on_equal_logits():
    out = _softmax(np.array([0.0, 0.0, 0.0]))
    assert np.allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_extreme_logits_no_overflow():
    out = _softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert abs(out[0] - 1.0) < 1e-12
    assert abs(out[1]) < 1e-12


def test_softmax_hand_value():
    out = _softmax(np.array([math.log(2.0), 0.0]))
    assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-15)


@given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
@settings(max_examples=30, deadline=None)
def test_softmax_shift_invariance(seed, shift):
    x = np.random.default_rng(seed).normal(size=(4, 5))
    assert np.abs(_softmax(x) - _softmax(x + shift)).max() < 1e-12


def weighted_sum(*pairs):
    """sum(y * c) over (tensor y, array c) pairs, as one scalar node."""
    return nm.scalar_node(sum((y.data * c).sum() for y, c in pairs), *pairs)


def test_finite_difference_quadratic():
    x = Tensor([1.0, 2.0])
    grad = finite_difference_gradient(lambda t: (t.data * t.data).sum(), x)
    assert np.allclose(grad, [2.0, 4.0], atol=1e-6)


def test_finite_difference_constant_function():
    x = Tensor(np.ones((2, 3)))
    grad = finite_difference_gradient(lambda t: 5.0, x)
    assert np.all(grad == 0.0)


def test_finite_difference_rejects_nonfinite():
    x = Tensor([0.0])
    with pytest.raises(OracleError):
        finite_difference_gradient(lambda t: float("nan"), x)


def test_finite_difference_rejects_bad_eps():
    with pytest.raises(ValueError):
        finite_difference_gradient(lambda t: t.data.sum(), Tensor([1.0]), eps=0.0)


# one scalar-reduced gradient check per differentiable node, many seeds
OPS = {
    "tanh": lambda t, c: weighted_sum((nm.tanh(t), c)),
    "tsum": lambda t, c: nm.tsum(nm.tanh(t)),
    "scalar_node": lambda t, c: weighted_sum((t, c), (nm.tanh(t), c * c)),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_gradients_match_finite_differences(name):
    op = OPS[name]
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
        weights = rng.normal(size=(3, 4))
        worst = max(worst, check_gradient(lambda t: op(t, weights), x))
    assert worst < 1e-4, f"{name}: rel err {worst}"


def test_conv3x3_weight_and_bias_gradients():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 5, 5, 2)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3, 2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    r = rng.normal(size=(2, 5, 5, 3))
    assert check_gradient(lambda t: weighted_sum((nm.conv3x3(x, t, b), r)), w) < 1e-4
    assert check_gradient(lambda t: weighted_sum((nm.conv3x3(x, w, t), r)), b) < 1e-4


def test_conv3x3_passes_no_gradient_to_its_input():
    # like conv_dense: the input is data, even when it requires a gradient
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 5, 5, 2)), requires_grad=True)
    w, b = Tensor(rng.normal(size=(3, 3, 2, 3)), requires_grad=True), Tensor(rng.normal(size=3), requires_grad=True)
    weighted_sum((nm.conv3x3(x, w, b), rng.normal(size=(2, 5, 5, 3)))).backward()
    assert x.grad is None
    assert w.grad is not None and b.grad is not None


def test_conv3x3_matches_direct_convolution():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 6, 7, 2))
    w = rng.normal(size=(3, 3, 2, 3))
    b = rng.normal(size=3)
    out = nm.conv3x3(Tensor(x), Tensor(w), Tensor(b)).data
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    ref = np.zeros((1, 6, 7, 3))
    for i in range(6):
        for j in range(7):
            patch = xp[0, i : i + 3, j : j + 3, :]
            ref[0, i, j] = np.tensordot(patch, w, axes=3) + b
    assert np.abs(out - ref).max() < 1e-12


def _composed_backbone(x, w1, b1, w2, b2):
    return nm.tanh(nm.affine_last(nm.tanh(nm.conv3x3(x, w1, b1)), w2, b2))


@pytest.mark.parametrize("feature_grad", [False, True])
def test_conv_dense_equals_the_elementary_composition_bit_for_bit(feature_grad, dtype=np.float64):
    rng = np.random.default_rng(13)
    x = rng.random((2, 6, 5, 3)).astype(dtype)
    weights = [rng.normal(size=(3, 3, 3, 4)), rng.normal(size=4) * 0.1, rng.normal(size=(4, 5)), rng.normal(size=5) * 0.1]
    weights = [w.astype(dtype) for w in weights]
    head_w, r = rng.normal(size=(5, 3)).astype(dtype), rng.normal(size=(2, 6, 5, 5)).astype(dtype)
    results = []
    for op in (nm.conv_dense, _composed_backbone):
        params = [Tensor(w.copy(), requires_grad=True) for w in weights]
        feats = op(Tensor(x), *params)
        # a head on the features, and (as ILT's feature distillation does) a
        # second gradient into them
        logits = nm.affine_last(feats, Tensor(head_w), Tensor(np.zeros(3, dtype)))
        terms = [(logits, np.full(logits.shape, 0.5, dtype))] + ([(feats, r)] if feature_grad else [])
        weighted_sum(*terms).backward()
        results.append([feats.data] + [p.grad for p in params])
    for fused, composed in zip(*results):
        assert fused.dtype == dtype and np.array_equal(fused, composed)


@pytest.mark.parametrize("feature_grad", [False, True])
def test_conv_dense_equals_the_elementary_composition_bit_for_bit_in_float32(feature_grad):
    # float32 is the training dtype
    test_conv_dense_equals_the_elementary_composition_bit_for_bit(feature_grad, np.float32)


def direct_columns(x, images, rows):
    """The im2col columns [9*Cin, pixels] of the pixels (b, i, j) for b in
    ``images``, i in ``rows`` and every j, one window at a time."""
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    windows = [xp[b, i : i + 3, j : j + 3, :].reshape(-1) for b in images for i in rows for j in range(x.shape[2])]
    return np.array(windows).T


@pytest.mark.parametrize("bs, rs", [(slice(1, 2), slice(2, 5)), (slice(1, 3), slice(0, 4))], ids=["row-block", "whole-images"])
def test_conv_columns_equal_a_direct_im2col(bs, rs):
    x = np.random.default_rng(16).random((3, 4, 5, 2)).astype(np.float32)
    cols = nm._conv_columns(nm._conv_windows(x, np.zeros((3, 3, 2, 1)))[:, :, :, bs, rs])
    assert cols.flags.c_contiguous
    assert np.array_equal(cols, direct_columns(x, range(3)[bs], range(4)[rs]))


@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-6), (np.float64, 1e-12)])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [1, 7, 2048, 6149])
def test_column_sum_matches_numpy_sum(n, order, dtype, rtol):
    a = np.asarray(np.random.default_rng(n).normal(size=(n, 16)), dtype=dtype, order=order)
    got = _column_sum(a)
    assert got.dtype == dtype
    # relative to the sum of magnitudes, the scale of any summation's rounding
    assert np.all(np.abs(got - a.sum(axis=0)) <= rtol * np.abs(a).sum(axis=0))


# small batches split over several tiles once TILE is 16 pixels: whole images
# per tile (2 of 6 pixels, last tile short), row blocks of one image (3 rows
# of a width that does not divide 16, last block short), one row per tile
# (a width wider than a tile)
MULTI_TILE_SHAPES = {"whole-images": (5, 2, 3, 3), "row-blocks": (2, 7, 5, 3), "wider-than-a-tile": (1, 3, 20, 2)}


def multi_tile_case(name, seed):
    rng = np.random.default_rng(seed)
    B, H, W, cin = MULTI_TILE_SHAPES[name]
    x = rng.random((B, H, W, cin))
    weights = [rng.normal(size=(3, 3, cin, 4)), rng.normal(size=4) * 0.1, rng.normal(size=(4, 5)), rng.normal(size=5) * 0.1]
    return x, weights, rng.normal(size=(B, H, W, 5))


@pytest.mark.parametrize("name", sorted(MULTI_TILE_SHAPES))
def test_conv_dense_over_several_tiles_matches_the_composition(name, monkeypatch):
    monkeypatch.setattr(nm, "TILE", 16)
    x, weights, r = multi_tile_case(name, 14)
    assert len(list(nm._tiles(*x.shape[:3]))) > 2
    results = []
    for op in (nm.conv_dense, _composed_backbone):
        params = [Tensor(w.copy(), requires_grad=True) for w in weights]
        feats = op(Tensor(x), *params)
        weighted_sum((feats, r)).backward()
        results.append([feats.data] + [p.grad for p in params])
    (tiled, *tiled_grads), (composed, *composed_grads) = results
    assert np.array_equal(tiled, composed)
    # the tiles' sums are added tile by tile: only the summation order differs
    for got, want in zip(tiled_grads, composed_grads):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("name", sorted(MULTI_TILE_SHAPES))
def test_conv_dense_gradients_over_several_tiles_match_finite_differences(name, monkeypatch):
    monkeypatch.setattr(nm, "TILE", 16)
    x, weights, r = multi_tile_case(name, 15)
    params = [Tensor(w, requires_grad=True) for w in weights]
    for p in params:
        assert check_gradient(lambda t: weighted_sum((nm.conv_dense(x, *params), r)), p) < 1e-4


def test_backward_requires_scalar():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        nm.tanh(t).backward()


def test_gradient_accumulates_over_shared_subexpression():
    # d/dx (x^2 + 3x) at 2, through two nodes that share x and one that sums them
    x = Tensor([2.0], requires_grad=True)
    square = nm.scalar_node(4.0, (x, 2.0 * x.data))
    linear = nm.scalar_node(6.0, (x, np.array([3.0])))
    nm.scalar_node(square.data + linear.data, (square, 1.0), (linear, 1.0)).backward()
    assert np.allclose(x.grad, [2 * 2.0 + 3.0])


def test_a_sum_of_scalar_nodes_is_one_node_over_their_parents():
    rng = np.random.default_rng(6)
    x, y = (Tensor(rng.normal(size=3), requires_grad=True) for _ in range(2))
    gx, gx2, gy = (rng.normal(size=3) for _ in range(3))
    a = nm.scalar_node(1.5, (x, gx.copy()))
    b = nm.scalar_node(-2.0, (x, gx2.copy()), (y, gy.copy()))
    out = nm.scalar_sum((a, 1.0), (b, 0.25))
    assert out.item() == 1.5 + -2.0 * 0.25
    assert len(out._parents) == 2 and out._parents[0] is x and out._parents[1] is y
    # the summed nodes are constants now: their arrays are the sum's
    assert [(n.requires_grad, n._parents, n._terms) for n in (a, b)] == [(False, (), ())] * 2
    assert (a.item(), b.item()) == (1.5, -2.0)
    out.backward()
    assert np.array_equal(x.grad, gx + gx2 * 0.25) and np.array_equal(y.grad, gy * 0.25)
    # an incoming gradient of 1.0 hands the node's arrays on uncopied
    assert x.grad is out._terms[0][1] and y.grad is out._terms[1][1]


def test_a_second_backward_adds_the_gradient_once_more():
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(2, 5, 4, 3)))
    w1, b1 = Tensor(rng.normal(size=(3, 3, 3, 4)), requires_grad=True), Tensor(rng.normal(size=4), requires_grad=True)
    w2, b2 = Tensor(rng.normal(size=(4, 2)), requires_grad=True), Tensor(rng.normal(size=2), requires_grad=True)
    out = nm.tsum(nm.affine_last(nm.tanh(nm.conv3x3(x, w1, b1)), w2, b2))
    out.backward()
    first = [p.grad.copy() for p in (w1, b1, w2, b2)]
    out.backward()  # no interior gradient is left over from the first pass
    for p, g in zip((w1, b1, w2, b2), first):
        assert np.array_equal(p.grad, 2 * g)


def test_no_grad_blocks_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with nm.no_grad():
        y = nm.tsum(nm.tanh(x))
    assert not y.requires_grad
    assert y._backward is None


def test_values_finite_after_forward_backward():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    y = nm.tanh(x)
    e = np.exp(y.data)
    # log-sum-exp of tanh(x), whose gradient is the softmax
    out = nm.scalar_node(np.log(e.sum()), (y, e / e.sum()))
    out.backward()
    assert np.isfinite(out.data).all()
    assert np.isfinite(x.grad).all()
