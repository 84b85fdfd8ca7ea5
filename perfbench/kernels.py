"""Kernel timings for the traced run, taken through bgshift's public functions
at a workload's batch shape (8 x H x W) with the default backbone."""
from __future__ import annotations

import statistics
import time

import numpy as np

from bgshift import numerics as nm
from bgshift.losses import (
    LossContext,
    composite_objective,
    cross_entropy,
    feature_distillation,
    lwf_mc_loss,
    method_preset,
    standard_distillation,
    unbiased_cross_entropy,
    unbiased_distillation,
)
from bgshift.model import SegModel, extend_classifier
from bgshift.trainer import TrainConfig

REPEATS = 7
OLD, CUR = [0, 1, 2, 3, 4], [0, 1, 2, 3, 4, 5]  # label spaces of a [4,1] step 1


def _median_ms(fn) -> float:
    fn()  # warm-up
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3


def _fwd_bwd(op, *leaves):
    """Build ``op()`` on the tape and walk it back from its sum, starting
    from cleared gradients on ``leaves``."""

    def run():
        for leaf in leaves:
            leaf.zero_grad()
        nm.tsum(op()).backward()

    return run


def kernel_metrics(hw: int, seed: int) -> dict[str, tuple[float, str]]:
    rng = np.random.default_rng(seed)
    train = TrainConfig()
    backbone = train.backbone
    b = train.batch_size
    images = rng.random((b, hw, hw, backbone.in_channels))
    mask = np.where(rng.random((b, hw, hw)) < 0.3, CUR[-1], 0)
    m: dict[str, tuple[float, str]] = {}

    # conv3x3 -> tanh -> 1x1 (affine_last), as in the backbone
    x = nm.Tensor(images, requires_grad=True)
    w1 = nm.Tensor(rng.normal(0, 0.1, (3, 3, backbone.in_channels, backbone.hidden)), requires_grad=True)
    b1 = nm.Tensor(np.zeros(backbone.hidden), requires_grad=True)
    fwd_ms = _median_ms(lambda: nm.conv3x3(x, w1, b1))
    total_ms = _median_ms(_fwd_bwd(lambda: nm.conv3x3(x, w1, b1), x, w1, b1))
    flops = 2 * b * hw * hw * 9 * backbone.in_channels * backbone.hidden
    m["numerics.conv3x3.fwd_ms"] = (fwd_ms, "ms")
    m["numerics.conv3x3.bwd_ms"] = (max(total_ms - fwd_ms, 0.0), "ms")
    m["numerics.conv3x3.gflops"] = (flops / (fwd_ms * 1e-3) / 1e9, "GFLOP/s")
    h = nm.Tensor(rng.normal(size=(b, hw, hw, backbone.hidden)), requires_grad=True)
    m["numerics.tanh.fwd_bwd_ms"] = (_median_ms(_fwd_bwd(lambda: nm.tanh(h), h)), "ms")
    w2 = nm.Tensor(rng.normal(0, 0.1, (backbone.hidden, backbone.features)), requires_grad=True)
    b2 = nm.Tensor(np.zeros(backbone.features), requires_grad=True)
    m["numerics.affine_last.fwd_bwd_ms"] = (_median_ms(_fwd_bwd(lambda: nm.affine_last(h, w2, b2), h, w2, b2)), "ms")

    # each loss on step-1 logits, forward and backward
    logits = nm.Tensor(rng.normal(size=(b, hw, hw, len(CUR))), requires_grad=True)
    old_logits = rng.normal(size=(b, hw, hw, len(OLD)))
    probs_old = np.exp(old_logits) / np.exp(old_logits).sum(axis=-1, keepdims=True)
    sigmoid_old = 1.0 / (1.0 + np.exp(-old_logits))
    feats = nm.Tensor(rng.normal(size=(b, hw, hw, backbone.features)), requires_grad=True)
    feats_old = rng.normal(size=feats.shape)
    ctx = LossContext.for_step(OLD, CUR, method_weights={"w_cls": 1.0, "w_kd": 10.0})
    losses = {
        "cross_entropy": lambda: cross_entropy(logits, mask, CUR),
        "unbiased_cross_entropy": lambda: unbiased_cross_entropy(logits, mask, ctx),
        "standard_distillation": lambda: standard_distillation(logits, probs_old, ctx),
        "unbiased_distillation": lambda: unbiased_distillation(logits, probs_old, ctx),
        "lwf_mc_loss": lambda: lwf_mc_loss(logits, mask, sigmoid_old, "full", ctx),
        "feature_distillation": lambda: feature_distillation(feats, feats_old),
    }
    for name, loss in losses.items():
        # the losses are scalar already; their sum is the identity
        m[f"losses.{name}.fwd_bwd_ms"] = (_median_ms(_fwd_bwd(loss, logits, feats)), "ms")

    # one training batch of step 1 with the teacher outputs cached
    base = SegModel.create(backbone, OLD[1:], rng)
    teacher = base.frozen_copy()
    with nm.no_grad():
        old_out = tuple(t.data for t in teacher.forward_batch(images))
    for name in ("FT", "MiB"):
        method = method_preset(name)
        model = extend_classifier(base, CUR[-1:], init=method.init_mode, rng=rng)

        def batch():
            model.zero_grad()
            composite_objective(method, (images, mask), model, teacher, None, old_out).backward()

        m[f"trainer.batch_ms.{name}"] = (_median_ms(batch), "ms")
    return m

