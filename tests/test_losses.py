import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgshift import losses as L
from bgshift import numerics as nm
from bgshift import regularizers as rg
from bgshift.exceptions import AlignmentError, ConfigError, LabelDomainError, ShapeError
from bgshift.model import BackboneConfig, SegModel, extend_classifier
from bgshift.numerics import Tensor
from helpers import check_gradient

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def ctx_for(prev=(0, 1), cur=(0, 1, 2), weights=None):
    return L.LossContext.for_step(list(prev), list(cur), method_weights=weights)


def logits_for_probs(probs):
    """softmax(log p) == p when p sums to one."""
    return Tensor(np.log(np.asarray(probs, dtype=float)), requires_grad=True)


# -- cross entropy -----------------------------------------------------------


def test_ce_uniform_logits_is_log_k():
    logits = Tensor(np.zeros((2, 2, 3)))
    for fill in (0, 1, 2):
        mask = np.full((2, 2), fill)
        assert abs(L.cross_entropy(logits, mask, [0, 1, 2]).item() - LN3) < 1e-12


def test_ce_confident_correct_goes_to_zero():
    logits = Tensor(np.zeros((3, 3, 2)))
    logits.data[..., 1] = 40.0
    mask = np.ones((3, 3), dtype=int)
    assert L.cross_entropy(logits, mask, [0, 1]).item() < 1e-12


def test_ce_hand_average_two_pixels():
    # q(y) = 1/2 on the first pixel, 1/4 on the second
    probs = np.array([[[0.5, 0.5], [0.25, 0.75]]])
    mask = np.array([[0, 0]])
    got = L.cross_entropy(logits_for_probs(probs), mask, [0, 1]).item()
    expected = (LN2 + math.log(4.0)) / 2.0
    assert abs(got - expected) < 1e-12
    assert abs(expected - 1.0397) < 1e-4


def test_ce_rejects_unknown_label():
    with pytest.raises(LabelDomainError):
        L.cross_entropy(Tensor(np.zeros((1, 1, 2))), np.array([[7]]), [0, 1])


@pytest.mark.parametrize("label", [-1, 3, 2**40])
def test_ce_rejects_labels_outside_the_class_ids(label):
    # below zero, above the largest id, and far beyond any lookup table
    with pytest.raises(LabelDomainError, match=rf"labels \[{label}\] are outside the allowed set \[0, 1, 2\]"):
        L.cross_entropy(Tensor(np.zeros((1, 3, 3))), np.array([[0, label, 2]]), [0, 1, 2])


# -- unbiased cross entropy --------------------------------------------------


def test_uce_uniform_background_pixel():
    got = L.unbiased_cross_entropy(Tensor(np.zeros((1, 1, 3))), np.array([[0]]), ctx_for())
    assert abs(got.item() - (-math.log(2 / 3))) < 1e-12


def test_uce_uniform_new_class_pixel():
    got = L.unbiased_cross_entropy(Tensor(np.zeros((1, 1, 3))), np.array([[2]]), ctx_for())
    assert abs(got.item() - LN3) < 1e-12


def test_uce_ignores_how_old_mass_splits():
    # nearly all mass on {b, old}: background target is satisfied regardless
    for split in ((8.0, 2.0), (2.0, 8.0), (5.0, 5.0)):
        logits = Tensor(np.array([[[split[0], split[1], -30.0]]]))
        got = L.unbiased_cross_entropy(logits, np.array([[0]]), ctx_for())
        assert got.item() < 1e-9


def test_uce_rejects_old_class_labels():
    with pytest.raises(LabelDomainError, match="unrelabeled"):
        L.unbiased_cross_entropy(Tensor(np.zeros((1, 1, 3))), np.array([[1]]), ctx_for())


@pytest.mark.parametrize(
    "mask, message",
    [
        ([[0, 2, 1]], r"labels \[1\] belong to earlier steps"),
        # a label of an earlier step is named before a foreign one
        ([[-1, 1, 7]], r"labels \[1\] belong to earlier steps"),
        ([[0, 2, -1]], r"labels \[-1\] are outside the allowed set \[0, 2\]"),
        ([[0, 2, 3]], r"labels \[3\] are outside the allowed set \[0, 2\]"),
    ],
)
def test_uce_names_stale_and_foreign_labels(mask, message):
    with pytest.raises(LabelDomainError, match=message):
        L.unbiased_cross_entropy(Tensor(np.zeros((1, 3, 3))), np.array(mask), ctx_for())


def test_uce_names_a_mask_of_the_wrong_shape_before_its_stale_labels():
    ctx = L.LossContext.for_step([0, 1, 2], [0, 1, 2, 3])
    with pytest.raises(ShapeError, match=r"mask \(1, 4, 5\) does not match logits \(1, 4, 4, 4\)"):
        L.unbiased_cross_entropy(Tensor(np.zeros((1, 4, 4, 4))), np.ones((1, 4, 5), dtype=int), ctx)


def test_uce_mass_redistribution_invariance():
    # same new-class probabilities, same old-mass total, different split
    rng = np.random.default_rng(0)
    for _ in range(10):
        new_p = rng.uniform(0.05, 0.3)
        old_total = 1.0 - new_p
        a = rng.uniform(0.1, 0.9)
        p1 = [old_total * a, old_total * (1 - a), new_p]
        b = rng.uniform(0.1, 0.9)
        p2 = [old_total * b, old_total * (1 - b), new_p]
        for gt in (0, 2):
            mask = np.array([[gt]])
            v1 = L.unbiased_cross_entropy(logits_for_probs([[p1]]), mask, ctx_for()).item()
            v2 = L.unbiased_cross_entropy(logits_for_probs([[p2]]), mask, ctx_for()).item()
            assert abs(v1 - v2) < 1e-9


def test_uce_reduces_to_ce_when_no_old_classes():
    # degenerate first step: previous label space is only the background
    ctx = ctx_for(prev=(0,), cur=(0, 1, 2))
    rng = np.random.default_rng(1)
    logits = Tensor(rng.normal(size=(3, 3, 3)))
    mask = rng.integers(0, 3, size=(3, 3))
    uce = L.unbiased_cross_entropy(logits, mask, ctx).item()
    ce = L.cross_entropy(logits, mask, [0, 1, 2]).item()
    assert abs(uce - ce) < 1e-12


# -- labels mapped once per step ---------------------------------------------


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("method", ["FT", "MiB", "LwF-MC"])
def test_the_step_channels_give_the_losses_of_the_masks_bit_for_bit(method, dtype):
    # a permuted class order, [0, 3, 1] then [4, 2]: no foreground channel
    # is its label
    rng = np.random.default_rng(21)
    prev = SegModel.create(BackboneConfig(hidden=4, features=4, dtype=dtype), [3, 1], rng)
    cur = extend_classifier(prev, [4, 2], init="random", rng=rng)
    preset = L.method_preset(method)
    labels = [0, 4, 2] if method == "MiB" else cur.known_classes  # UCE allows the incoming labels only
    masks = rng.choice(labels, size=(3, 5, 5)).astype(np.uint8)
    chan, ctx = L.step_labels(preset, cur, prev, masks)
    assert chan.dtype == np.uint8 and chan.shape == masks.shape
    assert np.array_equal(np.asarray(cur.known_classes)[chan], masks) and (chan != masks).any()
    assert ctx == L.LossContext.for_step(prev.known_classes, cur.known_classes, {"w_cls": L.W_CLS, "w_kd": preset.lambda_kd})
    sig_old = rng.random((3, 5, 5, 3)).astype(dtype)
    loss = {
        "FT": lambda lg, m, c: L.cross_entropy(lg, m, cur.known_classes, _chan=c),
        "MiB": lambda lg, m, c: L.unbiased_cross_entropy(lg, m, ctx, _chan=c),
        "LwF-MC": lambda lg, m, c: L.lwf_mc_loss(lg, m, sig_old, "full", ctx, _chan=c),
    }[method]
    data = (rng.normal(size=(3, 5, 5, 5)) * 3.0).astype(dtype)
    from_masks, from_chan = Tensor(data.copy(), requires_grad=True), Tensor(data.copy(), requires_grad=True)
    a, b = loss(from_masks, masks, None), loss(from_chan, None, chan)
    a.backward()
    b.backward()
    assert a.item() == b.item()
    assert from_masks.grad.dtype == np.dtype(dtype) and bits_of(from_masks.grad) == bits_of(from_chan.grad)


# -- standard distillation ---------------------------------------------------


def test_kd_equals_entropy_when_models_agree():
    # no new classes, current equals old and uniform over 2 classes
    ctx = ctx_for(prev=(0, 1), cur=(0, 1))
    logits = Tensor(np.zeros((1, 1, 2)))
    probs_old = np.full((1, 1, 2), 0.5)
    assert abs(L.standard_distillation(logits, probs_old, ctx).item() - LN2) < 1e-12


def test_kd_single_term_hand_value():
    # old model certain of class 1; current renormalized prob of it is 1/2
    ctx = ctx_for()
    logits = Tensor(np.zeros((1, 1, 3)))
    probs_old = np.array([[[0.0, 1.0]]])
    assert abs(L.standard_distillation(logits, probs_old, ctx).item() - LN2) < 1e-12


def test_kd_gibbs_inequality():
    rng = np.random.default_rng(2)
    ctx = ctx_for()
    for _ in range(20):
        logits = Tensor(rng.normal(size=(2, 2, 3)))
        p = rng.dirichlet(np.ones(2), size=(2, 2))
        loss = L.standard_distillation(logits, p, ctx).item()
        entropy = float(-(p * np.log(p + 1e-300)).sum(-1).mean())
        assert loss - entropy >= -1e-9


def test_kd_rejects_misaligned_old_probs():
    with pytest.raises(AlignmentError):
        L.standard_distillation(Tensor(np.zeros((1, 1, 3))), np.zeros((1, 1, 3)), ctx_for())


# -- unbiased distillation ---------------------------------------------------


def test_ukd_hand_value_uniform_current():
    got = L.unbiased_distillation(
        Tensor(np.zeros((1, 1, 3))), np.array([[[0.7, 0.3]]]), ctx_for()
    ).item()
    expected = -(0.7 * math.log(2 / 3) + 0.3 * math.log(1 / 3))
    assert abs(got - expected) < 1e-12
    assert abs(expected - 0.6134) < 1e-4


def test_ukd_no_penalty_for_background_to_new_reassignment():
    # old model certain of background, current moved all of it to new class 2
    logits = Tensor(np.array([[[-20.0, -20.0, 20.0]]]))
    probs_old = np.array([[[1.0, 0.0]]])
    assert L.unbiased_distillation(logits, probs_old, ctx_for()).item() < 1e-9


def test_ukd_reduces_to_kd_without_new_classes():
    ctx = ctx_for(prev=(0, 1, 2), cur=(0, 1, 2))
    rng = np.random.default_rng(3)
    for _ in range(10):
        logits = Tensor(rng.normal(size=(2, 2, 3)))
        p = rng.dirichlet(np.ones(3), size=(2, 2))
        ukd = L.unbiased_distillation(logits, p, ctx).item()
        kd = L.standard_distillation(logits, p, ctx).item()
        assert abs(ukd - kd) < 1e-12


# -- partition properties ----------------------------------------------------


def collapsed_new_probs(probs: np.ndarray, ctx: L.LossContext) -> np.ndarray:
    """The distribution over C^t used by the unbiased CE: new foreground
    probabilities kept, background channel replaced by the old-class sum."""
    out = probs[..., ctx.new_channels].copy()
    out[..., 0] = probs[..., : ctx.n_old].sum(axis=-1)
    return out


def collapsed_old_probs(probs: np.ndarray, ctx: L.LossContext) -> np.ndarray:
    """The distribution over Y^{t-1} the unbiased distillation compares with:
    old foreground kept, background = summed mass of incoming classes + bg."""
    out = probs[..., : ctx.n_old].copy()
    out[..., 0] = probs[..., ctx.new_channels].sum(axis=-1)
    return out


def test_collapsed_distributions_are_partitions_of_unity():
    rng = np.random.default_rng(4)
    ctx = L.LossContext.for_step([0, 1, 2], [0, 1, 2, 3, 4])
    logits = rng.normal(size=(1000, 5)) * 3.0
    probs = L._softmax(logits)
    q_tilde = collapsed_new_probs(probs, ctx)
    q_hat = collapsed_old_probs(probs, ctx)
    assert q_tilde.shape == (1000, 3)  # background + 2 new classes
    assert q_hat.shape == (1000, 3)  # background + 2 old classes
    assert np.abs(q_tilde.sum(-1) - 1.0).max() < 1e-9
    assert np.abs(q_hat.sum(-1) - 1.0).max() < 1e-9

    # oracle: the unbiased losses are plain CE / KD on these distributions;
    # 1e-12 relative covers float64 summation order over 1000 pixels
    labels = rng.choice([0, 3, 4], size=1000)  # background or a new class
    column = np.searchsorted([0, 3, 4], labels)
    want_ce = -np.log(q_tilde[np.arange(1000), column]).mean()
    got_ce = L.unbiased_cross_entropy(Tensor(logits), labels, ctx).item()
    assert abs(got_ce - want_ce) <= 1e-12 * abs(want_ce)
    p_old = rng.dirichlet(np.ones(3), size=1000)
    want_kd = -(p_old * np.log(q_hat)).sum(-1).mean()
    got_kd = L.unbiased_distillation(Tensor(logits), p_old, ctx).item()
    assert abs(got_kd - want_kd) <= 1e-12 * abs(want_kd)


# -- LwF-MC ------------------------------------------------------------------


def brute_force_lwf_mc(logits, mask, sig_old, w_cls=1.0, w_kd=1.0):
    """Scalar-by-scalar enumeration over pixels and classes."""
    s = 1.0 / (1.0 + np.exp(-logits))
    order = [0, 1, 2]  # b, old fg 1, new fg 2

    def bce(p, t):
        p = min(max(p, 1e-12), 1 - 1e-12)
        return -(t * math.log(p) + (1 - t) * math.log(1 - p))

    total, count = 0.0, 0
    it = np.ndindex(mask.shape)
    for pix in it:
        for i, c in enumerate(order):
            if c == 0:
                v = w_cls * bce(s[pix + (i,)], 1.0 if mask[pix] == c else 0.0)
                v += w_kd * bce(s[pix + (i,)], sig_old[pix + (0,)])
            elif c == 2:
                v = w_cls * bce(s[pix + (i,)], 1.0 if mask[pix] == c else 0.0)
            else:
                v = w_kd * bce(s[pix + (i,)], sig_old[pix + (1,)])
            total += v
            count += 1
    return total / count


@pytest.mark.parametrize("variant", ["full"])
def test_lwf_mc_matches_bruteforce(variant):
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(2, 3, 3))
    mask = rng.integers(0, 3, size=(2, 3))
    mask[mask == 1] = 0  # step masks never carry old-class labels
    sig_old = 1.0 / (1.0 + np.exp(-rng.normal(size=(2, 3, 2))))
    got = L.lwf_mc_loss(Tensor(logits), mask, sig_old, variant, ctx_for()).item()
    want = brute_force_lwf_mc(logits, mask, sig_old)
    assert abs(got - want) < 1e-10


def test_lwf_mc_perfect_agreement_is_zero():
    logits = np.zeros((2, 2, 3))
    logits[..., 0] = 40.0  # sigmoid -> 1, mask is background everywhere
    logits[..., 1] = -40.0
    logits[..., 2] = -40.0
    mask = np.zeros((2, 2), dtype=int)
    sig_old = np.zeros((2, 2, 2))
    sig_old[..., 0] = 1.0
    got = L.lwf_mc_loss(Tensor(logits), mask, sig_old, "full", ctx_for()).item()
    assert got < 1e-10


def test_lwf_mc_half_sigmoid_gives_ln2_per_term():
    logits = np.zeros((1, 1, 3))  # sigmoid 0.5 everywhere
    mask = np.zeros((1, 1), dtype=int)
    sig_old = np.zeros((1, 1, 2))
    sig_old[..., 0] = 1.0
    # 3 classes, 4 BCE terms of ln 2 each: the background's classification
    # and distillation terms, the old class's distillation term and the new
    # class's classification term
    got = L.lwf_mc_loss(Tensor(logits), mask, sig_old, "full", ctx_for()).item()
    assert abs(got - 4 * LN2 / 3) < 1e-12


def test_lwf_mc_with_a_zero_distillation_weight_keeps_positive_zero_gradients():
    # the old foreground channels take the distillation term alone; weighted
    # by 0.0 their gradient is 0.0, never the -0.0 of 0.0 times a negative
    logits, mask, _, _, sig_old, ctx = pinned_case()
    t = Tensor(logits, requires_grad=True)
    L.lwf_mc_loss(t, mask, sig_old, "full", replace(ctx, method_weights={"w_cls": 1.0, "w_kd": 0.0})).backward()
    old_fg = t.grad[..., 1 : ctx.n_old]
    assert (old_fg == 0.0).all() and not np.signbit(old_fg).any()


def test_lwf_mc_unknown_variant_rejected():
    for variant in ("X", "C"):
        with pytest.raises(ConfigError):
            L.lwf_mc_loss(Tensor(np.zeros((1, 1, 3))), np.zeros((1, 1), int), np.zeros((1, 1, 2)), variant, ctx_for())


# -- feature distillation ----------------------------------------------------


def test_feature_distillation_identical_is_zero():
    f = np.random.default_rng(6).normal(size=(3, 3, 4))
    assert L.feature_distillation(Tensor(f), f.copy()).item() == 0.0


def test_feature_distillation_all_ones_difference():
    new = np.ones((2, 2, 4))
    old = np.zeros((2, 2, 4))
    assert abs(L.feature_distillation(Tensor(new), old).item() - 4.0) < 1e-12


def test_feature_distillation_matches_scalar_sum():
    rng = np.random.default_rng(7)
    new, old = rng.normal(size=(3, 2, 5)), rng.normal(size=(3, 2, 5))
    got = L.feature_distillation(Tensor(new), old).item()
    want = sum(
        ((new[i, j] - old[i, j]) ** 2).sum() for i in range(3) for j in range(2)
    ) / 6.0
    assert abs(got - want) < 1e-12


def test_feature_distillation_shape_mismatch():
    with pytest.raises(AlignmentError):
        L.feature_distillation(Tensor(np.zeros((2, 2, 3))), np.zeros((2, 2, 4)))


# -- gradients of every loss -------------------------------------------------


def random_case(seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(4, 4, 5)), requires_grad=True)
    mask = rng.integers(0, 5, size=(4, 4))
    mask[np.isin(mask, (1, 2))] = 0  # only incoming classes + background
    probs_old = rng.dirichlet(np.ones(3), size=(4, 4))
    sig_old = 1.0 / (1.0 + np.exp(-rng.normal(size=(4, 4, 3))))
    ctx = L.LossContext.for_step([0, 1, 2], [0, 1, 2, 3, 4])
    full_mask = rng.integers(0, 5, size=(4, 4))
    return logits, mask, full_mask, probs_old, sig_old, ctx


LOSS_FNS = {
    "ce": lambda lg, m, fm, po, so, ctx: L.cross_entropy(lg, fm, list(ctx.class_order)),
    "uce": lambda lg, m, fm, po, so, ctx: L.unbiased_cross_entropy(lg, m, ctx),
    "kd": lambda lg, m, fm, po, so, ctx: L.standard_distillation(lg, po, ctx),
    "ukd": lambda lg, m, fm, po, so, ctx: L.unbiased_distillation(lg, po, ctx),
    "lwf_mc_full": lambda lg, m, fm, po, so, ctx: L.lwf_mc_loss(lg, m, so, "full", ctx),
}


@pytest.mark.parametrize("name", sorted(LOSS_FNS))
def test_loss_gradients_match_finite_differences(name):
    fn = LOSS_FNS[name]
    worst = 0.0
    for seed in range(20):
        logits, mask, full_mask, probs_old, sig_old, ctx = random_case(seed)
        worst = max(
            worst,
            check_gradient(lambda t: fn(t, mask, full_mask, probs_old, sig_old, ctx), logits),
        )
    assert worst < 1e-4, f"{name}: rel err {worst}"


def saturated_case(seed):
    """random_case with logits near +-40: many probabilities fall below LOG_FLOOR."""
    logits, mask, full_mask, probs_old, sig_old, ctx = random_case(seed)
    rng = np.random.default_rng(1000 + seed)
    logits.data[...] = rng.choice([-40.0, 40.0], size=logits.shape) + rng.normal(size=logits.shape)
    return logits, mask, full_mask, probs_old, sig_old, ctx


@pytest.mark.parametrize("name", sorted(LOSS_FNS))
def test_loss_gradients_match_finite_differences_where_clamped(name, monkeypatch):
    fn = LOSS_FNS[name]
    worst, clamped = 0.0, False
    for seed in range(20):
        logits, mask, full_mask, probs_old, sig_old, ctx = saturated_case(seed)
        loss = lambda t: fn(t, mask, full_mask, probs_old, sig_old, ctx)
        worst = max(worst, check_gradient(loss, logits))
        value = loss(logits).item()
        with monkeypatch.context() as m:
            m.setattr(L, "LOG_FLOOR", 1e-300)
            clamped |= loss(logits).item() != value
    assert clamped, f"{name}: no case reached the LOG_FLOOR clamp"
    assert worst < 1e-4, f"{name}: rel err {worst}"


def test_feature_distillation_gradient_matches_finite_differences():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        feats = Tensor(rng.choice([-40.0, 40.0], size=(3, 3, 4)) + rng.normal(size=(3, 3, 4)), requires_grad=True)
        old = rng.normal(size=(3, 3, 4)) * 40.0
        assert check_gradient(lambda t: L.feature_distillation(t, old), feats) < 1e-4


@pytest.mark.parametrize("name", sorted(LOSS_FNS))
def test_each_loss_is_one_tape_node_on_its_logits(name):
    logits, mask, full_mask, probs_old, sig_old, ctx = random_case(0)
    out = LOSS_FNS[name](logits, mask, full_mask, probs_old, sig_old, ctx)
    assert len(out._parents) == 1 and out._parents[0] is logits
    feats = Tensor(np.ones((2, 2, 3)), requires_grad=True)
    out = L.feature_distillation(feats, np.zeros((2, 2, 3)))
    assert len(out._parents) == 1 and out._parents[0] is feats


def pinned_case(n_old=5, n_new=1):
    """Fixed 2x8x8 inputs of a step from ``n_old`` channels to ``n_old +
    n_new`` (by default a [4,1] step: 6 channels, 5 old), with logits near
    +-40 on two rows so the LOG_FLOOR clamp is reached. Background pixels
    and the first and last incoming class make up the step's mask."""
    k = n_old + n_new
    rng = np.random.default_rng(2002)
    logits = rng.normal(size=(2, 8, 8, k)) * 3.0
    logits[0, :2] = rng.choice([-40.0, 40.0], size=(2, 8, k)) + rng.normal(size=(2, 8, k))
    r = rng.random((2, 8, 8))
    mask = np.where(r < 0.2, k - 1, np.where(r < 0.4, n_old, 0))
    full_mask = rng.integers(0, k, size=(2, 8, 8))
    old = rng.normal(size=(2, 8, 8, n_old)) * 3.0
    e = np.exp(old - old.max(axis=-1, keepdims=True))
    probs_old = e / e.sum(axis=-1, keepdims=True)
    sig_old = 1.0 / (1.0 + np.exp(-old))
    ctx = L.LossContext.for_step(list(range(n_old)), list(range(k)), method_weights={"w_cls": 1.0, "w_kd": 10.0})
    return logits, mask, full_mask, probs_old, sig_old, ctx


def channel_major(a):
    """``a`` [..., K] as a view of channel-major storage, the layout
    ``affine_last`` and ``_softmax`` return."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


def bits_of(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# each loss's value, then the leading hex digits of the sha256 of its logit
# gradient and of its values on each pixel alone (a mean over 128 pixels can
# round away a one-ulp change in a pixel's term), on pinned_case(); recorded
# when the losses read the logits in C order, and the channel-major
# arithmetic must reproduce them bit for bit
PINNED_BITS = {
    "ce": ("0x1.7a01a6a3fac96p+2", "bcd098e76dddf215", "62d01d0ffe1f9c83"),
    "uce": ("0x1.1c72309f64037p+1", "7c410189d144816f", "30c13336a679a576"),
    "kd": ("0x1.5ff8db9656e8ep+2", "60ee148713f425d5", "e0e06b2b6f67e8f0"),
    "ukd": ("0x1.57565df758656p+2", "e29a889355dc559c", "bea50ba5cbd0e499"),
    "lwf_mc_full": ("0x1.b5824a6d8d32ep+4", "59b39a9c128caecd", "d0aa7b4ebe5e9ca1"),
}
PINNED_SOFTMAX_BITS = "269b411f77989301"


@pytest.mark.parametrize("layout", [np.asarray, channel_major], ids=["c-order", "channel-major"])
@pytest.mark.parametrize("name", sorted(PINNED_BITS))
def test_loss_value_and_gradient_bits_match_the_pins(name, layout):
    logits, mask, full_mask, probs_old, sig_old, ctx = pinned_case()
    loss = LOSS_FNS[name]
    t = Tensor(layout(logits), requires_grad=True)
    out = loss(t, mask, full_mask, layout(probs_old), layout(sig_old), ctx)
    out.backward()
    assert t.grad.shape == logits.shape
    pixels = []
    for px in np.ndindex(mask.shape):
        one = tuple(slice(i, i + 1) for i in px)
        pixels.append(loss(Tensor(layout(logits[one])), mask[one], full_mask[one], layout(probs_old[one]), layout(sig_old[one]), ctx).item())
    assert (out.item().hex(), bits_of(t.grad), bits_of(np.array(pixels))) == PINNED_BITS[name]


@pytest.mark.parametrize("layout", [np.asarray, channel_major], ids=["c-order", "channel-major"])
def test_softmax_bits_match_the_pin(layout):
    assert bits_of(L._softmax(layout(pinned_case()[0]))) == PINNED_SOFTMAX_BITS


# as PINNED_BITS on a step from 10 channels to 12 (pinned_case(10, 2)), where
# sums over 8 or more channels show a change of their order; recorded when
# the sums ran one channel at a time. Without per-pixel values: on one pixel
# numpy sums 8 or more channels pairwise (see the losses module)
PINNED_BITS_12 = {
    "ce": ("0x1.8c809ea173950p+2", "7bd5836e8e21d315"),
    "uce": ("0x1.6ad02dc7f8156p+1", "8b635fa11052ebe7"),
    "kd": ("0x1.866c5e9f034dep+2", "337f2d65c7b14d6e"),
    "ukd": ("0x1.8605121ff72dap+2", "13ee112b4dabc8c0"),
    "lwf_mc_full": ("0x1.7ed556b8a52cap+4", "cb334eb1b4387e23"),
}
PINNED_SOFTMAX_BITS_12 = "eae8fd051454e985"


@pytest.mark.parametrize("layout", [np.asarray, channel_major], ids=["c-order", "channel-major"])
@pytest.mark.parametrize("name", sorted(PINNED_BITS_12))
def test_loss_bits_at_12_channels_match_the_pins(name, layout):
    logits, mask, full_mask, probs_old, sig_old, ctx = pinned_case(10, 2)
    t = Tensor(layout(logits), requires_grad=True)
    out = LOSS_FNS[name](t, mask, full_mask, layout(probs_old), layout(sig_old), ctx)
    out.backward()
    assert (out.item().hex(), bits_of(t.grad)) == PINNED_BITS_12[name]


@pytest.mark.parametrize("layout", [np.asarray, channel_major], ids=["c-order", "channel-major"])
def test_softmax_bits_at_12_channels_match_the_pin(layout):
    assert bits_of(L._softmax(layout(pinned_case(10, 2)[0]))) == PINNED_SOFTMAX_BITS_12


@pytest.mark.parametrize("layout", [np.asarray, channel_major], ids=["c-order", "channel-major"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_losses_write_only_their_own_arrays(dtype, layout):
    # each loss, with and without the softmax handed over, forward and
    # backward: the logits, the softmax, the teacher's probabilities and the
    # masks keep every bit
    logits, mask, full_mask, probs_old, sig_old, ctx = pinned_case()
    z, po, so = (layout(a.astype(dtype)) for a in (logits, probs_old, sig_old))
    mask, full_mask = mask.astype(np.uint8), full_mask.astype(np.uint8)
    q = L._softmax(z)
    inputs = (z, q, po, so, mask, full_mask)
    before = [bits_of(a) for a in inputs]
    t = Tensor(z, requires_grad=True)
    for fn in LOSS_FNS.values():
        fn(t, mask, full_mask, po, so, ctx).backward()
    for out in (
        L.cross_entropy(t, full_mask, list(ctx.class_order), _q=q),
        L.unbiased_cross_entropy(t, mask, ctx, _q=q),
        L.standard_distillation(t, po, ctx, _q=q),
        L.unbiased_distillation(t, po, ctx, _q=q),
    ):
        out.backward()
    assert [bits_of(a) for a in inputs] == before


def test_losses_are_nonnegative():
    for seed in range(10):
        logits, mask, full_mask, probs_old, sig_old, ctx = random_case(100 + seed)
        for fn in LOSS_FNS.values():
            assert fn(logits, mask, full_mask, probs_old, sig_old, ctx).item() >= 0.0


@given(st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_distillation_losses_dominate_teacher_entropy(seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.normal(size=(2, 2, 5)) * 2.0)
    probs_old = rng.dirichlet(np.ones(3), size=(2, 2))
    ctx = L.LossContext.for_step([0, 1, 2], [0, 1, 2, 3, 4])
    entropy = float(-(probs_old * np.log(probs_old + 1e-300)).sum(-1).mean())
    assert L.standard_distillation(logits, probs_old, ctx).item() - entropy >= -1e-9
    assert L.unbiased_distillation(logits, probs_old, ctx).item() - entropy >= -1e-9


# -- composite objective -----------------------------------------------------


def small_models():
    rng = np.random.default_rng(8)
    prev = SegModel.create(BackboneConfig(hidden=4, features=4), [1, 2], rng)
    cur = extend_classifier(prev, [3])
    return prev, cur


def test_composite_step0_is_plain_ce():
    rng = np.random.default_rng(9)
    model = SegModel.create(BackboneConfig(hidden=4, features=4), [1], rng)
    images = rng.random((2, 6, 6, 3))
    masks = rng.integers(0, 2, size=(2, 6, 6))
    for name in ("FT", "MiB", "LwF", "EWC", "LwFMC"):
        got = L.composite_objective(L.method_preset(name), (images, masks), model, None).item()
        logits, _ = model.forward_batch(images)
        want = L.cross_entropy(logits, masks, model.known_classes).item()
        assert got == want


def test_composite_mib_lambda_zero_is_uce_alone():
    prev, cur = small_models()
    rng = np.random.default_rng(10)
    images = rng.random((2, 6, 6, 3))
    masks = rng.integers(0, 2, size=(2, 6, 6)) * 3  # background or the new class
    method = L.method_preset("MiB")
    method.lambda_kd = 0.0
    got = L.composite_objective(method, (images, masks), cur, prev).item()
    logits, _ = cur.forward_batch(images)
    ctx = L.LossContext.for_step(prev.known_classes, cur.known_classes)
    want = L.unbiased_cross_entropy(logits, masks, ctx).item()
    assert abs(got - want) < 1e-15


def test_composite_mib_matches_hand_composition():
    prev, cur = small_models()
    rng = np.random.default_rng(11)
    images = rng.random((1, 2, 2, 3))
    masks = np.array([[[0, 3], [3, 0]]])
    method = L.method_preset("MiB")
    got = L.composite_objective(method, (images, masks), cur, prev).item()

    logits, _ = cur.forward_batch(images)
    with nm.no_grad():
        old_logits, _ = prev.forward_batch(images)
    e = np.exp(old_logits.data - old_logits.data.max(-1, keepdims=True))
    probs_old = e / e.sum(-1, keepdims=True)
    ctx = L.LossContext.for_step(prev.known_classes, cur.known_classes)
    want = (
        L.unbiased_cross_entropy(logits, masks, ctx).item()
        + method.lambda_kd * L.unbiased_distillation(logits, probs_old, ctx).item()
    )
    assert abs(got - want) < 1e-12


def test_composite_missing_old_model_raises():
    prev, cur = small_models()
    rng = np.random.default_rng(12)
    images = rng.random((1, 4, 4, 3))
    masks = np.zeros((1, 4, 4), dtype=int)
    with pytest.raises(ConfigError):
        L.composite_objective(L.method_preset("LwF"), (images, masks), cur, None)


@pytest.mark.parametrize(
    "prev, cur, match",
    [
        ([0, 1, 2], [0, 2, 1, 3], "do not extend"),
        ([1, 0], [1, 0, 2], "do not start with the background"),
        ([0, 1], [0, 1, 2, 2], "repeat a class"),
    ],
    ids=["not-an-extension", "background-not-first", "repeated-class"],
)
def test_for_step_rejects_a_label_space_that_does_not_extend_a_background_first_one(prev, cur, match):
    with pytest.raises(AlignmentError, match=match):
        L.LossContext.for_step(prev, cur)


def test_composite_rejects_a_model_whose_classes_do_not_extend_the_teacher():
    prev, _ = small_models()
    reordered = SegModel.create(prev.config, [2, 1, 3], np.random.default_rng(13))
    images = np.random.default_rng(14).random((1, 4, 4, 3))
    with pytest.raises(AlignmentError, match="do not extend"):
        L.composite_objective(L.method_preset("MiB"), (images, np.zeros((1, 4, 4), int)), reordered, prev)


def test_composite_ilt_adds_feature_term():
    prev, cur = small_models()
    rng = np.random.default_rng(13)
    images = rng.random((1, 4, 4, 3))
    masks = np.where(rng.random((1, 4, 4)) < 0.5, 3, 0)
    lwf = L.method_preset("LwF")
    ilt = L.method_preset("ILT")
    v_lwf = L.composite_objective(lwf, (images, masks), cur, prev).item()
    v_ilt = L.composite_objective(ilt, (images, masks), cur, prev).item()
    logits, feats = cur.forward_batch(images)
    with nm.no_grad():
        _, old_feats = prev.forward_batch(images)
    fd = L.feature_distillation(feats, old_feats.data).item()
    assert abs(v_ilt - (v_lwf + 100.0 * fd)) < 1e-10


def test_composite_lwf_mc_adds_its_regularizer():
    prev, cur = small_models()
    rng = np.random.default_rng(14)
    images = rng.random((2, 4, 4, 3))
    masks = np.where(rng.random((2, 4, 4)) < 0.5, 3, 0)
    plain = L.method_preset("LwF-MC")
    ewc = replace(plain, reg_kind="ewc", reg_weight=500.0)
    # anchored at the previous model with unit importance; the grown head's
    # shifted background bias has drifted from it
    anchor = prev.frozen_copy()
    state = rg.ImportanceState(np.ones_like(anchor.vector), anchor)
    penalty = rg.quadratic_penalty(cur, state, ewc.reg_weight)
    assert penalty.item() > 0.0
    got = L.composite_objective(ewc, (images, masks), cur, prev, penalty)
    got.backward()
    got_grads = {name: t.grad for name, t in cur.parameters().items()}
    cur.zero_grad()
    base = L.composite_objective(plain, (images, masks), cur, prev)
    assert got.item() == base.item() + penalty.item()
    base.backward()
    # the objective took the penalty's gradients over: a fresh one is added
    rg.quadratic_penalty(cur, state, ewc.reg_weight).backward()
    for name, t in cur.parameters().items():
        assert np.allclose(got_grads[name], t.grad, rtol=1e-12, atol=0.0), name


def test_composite_lwf_mc_without_regularizer_is_the_loss_bit_for_bit():
    prev, cur = small_models()
    rng = np.random.default_rng(15)
    images = rng.random((2, 4, 4, 3))
    masks = np.where(rng.random((2, 4, 4)) < 0.5, 3, 0)
    method = L.method_preset("LwF-MC")
    got = L.composite_objective(method, (images, masks), cur, prev)
    got.backward()
    got_grads = {name: t.grad for name, t in cur.parameters().items()}
    cur.zero_grad()
    logits, _ = cur.forward_batch(images)
    with nm.no_grad():
        old_logits, _ = prev.forward_batch(images)
    sig_old = 1.0 / (1.0 + np.exp(-old_logits.data))
    ctx = L.LossContext.for_step(prev.known_classes, cur.known_classes, method_weights={"w_cls": 1.0, "w_kd": 10.0})
    want = L.lwf_mc_loss(logits, masks, sig_old, "full", ctx)
    want.backward()
    assert got.item() == want.item()
    for name, t in cur.parameters().items():
        assert np.array_equal(got_grads[name], t.grad), name


def objective_over_the_losses(method, batch, model, model_prev, penalty):
    """The objective of a later step as one node over its loss nodes, each
    scaling its gradients by its weight in the backward: the reference the
    summed objective must match bit for bit."""
    images, masks = batch
    logits, feats = model.forward_batch(images)
    ctx = L.LossContext.for_step(
        model_prev.known_classes, model.known_classes, method_weights={"w_cls": L.W_CLS, "w_kd": method.lambda_kd}
    )
    rows, old_feats = L.teacher_targets(method, model_prev, images, len(images))
    probs_old = None if rows is None else np.moveaxis(rows, 0, -1)
    if method.kd_mode == "lwfmc":
        terms = [(L.lwf_mc_loss(logits, masks, probs_old, "full", ctx), 1.0)]
    else:
        q = L._softmax(logits.data)
        if method.ce_mode == "unbiased":
            terms = [(L.unbiased_cross_entropy(logits, masks, ctx, _q=q), 1.0)]
        else:
            terms = [(L.cross_entropy(logits, masks, model.known_classes, _q=q), 1.0)]
        if probs_old is not None:
            kd = L.unbiased_distillation if method.kd_mode == "unbiased" else L.standard_distillation
            terms.append((kd(logits, probs_old, ctx, _q=q), method.lambda_kd))
        if old_feats is not None:
            terms.append((L.feature_distillation(feats, old_feats), method.feature_kd_weight))
    if penalty is not None:
        terms.append((penalty, 1.0))
    value = terms[0][0].data
    for term, weight in terms[1:]:
        value = value + term.data * weight
    return nm.scalar_node(value, *terms)


def later_step_case(name, dtype):
    """(method, previous model, current model drifted from it, batch, a
    penalty maker: None without a regularizer)."""
    rng = np.random.default_rng(16)
    method = L.method_preset(name)
    prev = SegModel.create(BackboneConfig(hidden=4, features=4, dtype=dtype), [1, 2], rng)
    cur = extend_classifier(prev, [3], init=method.init_mode, rng=rng)
    for t in cur.parameters().values():
        t.data += rng.normal(0.0, 0.1, t.shape).astype(dtype)
    images = rng.random((2, 6, 6, 3)).astype(dtype)
    masks = (rng.integers(0, 2, size=(2, 6, 6)) * 3).astype(np.uint8)  # background or the new class
    anchor = prev.frozen_copy()
    state = rg.ImportanceState(rng.random(anchor.vector.size).astype(dtype), anchor)
    penalty = None if method.reg_kind == "none" else (lambda: rg.quadratic_penalty(cur, state, method.reg_weight))
    return method, prev, cur, (images, masks), penalty


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", ["FT", "LwF", "ILT", "LwF-MC", "MiB", "RW"])
def test_the_summed_objective_has_the_gradients_of_a_node_over_its_losses(name, dtype):
    method, prev, cur, batch, penalty = later_step_case(name, dtype)
    got = L.composite_objective(method, batch, cur, prev, penalty and penalty())
    got.backward()
    got_grads = {n: t.grad for n, t in cur.parameters().items()}
    cur.zero_grad()
    want = objective_over_the_losses(method, batch, cur, prev, penalty and penalty())
    want.backward()
    assert got.item() == want.item()
    for n, t in cur.parameters().items():
        assert got_grads[n].dtype == t.grad.dtype == np.dtype(dtype) and bits_of(got_grads[n]) == bits_of(t.grad), n


@pytest.mark.parametrize("name", ["MiB", "ILT", "RW"])
def test_the_objective_is_one_node_over_its_inputs(name):
    # the logits, then the features (ILT), then the penalized parameters:
    # no loss node is a parent
    method, prev, cur, batch, penalty = later_step_case(name, "float64")
    got = L.composite_objective(method, batch, cur, prev, penalty and penalty())
    n, k = batch[1].shape, len(cur.known_classes)
    shapes = [n + (k,)] + ([n + (4,)] if name == "ILT" else [])
    params = list(cur.parameters().values()) if name == "RW" else []
    assert [p.shape for p in got._parents[: len(shapes)]] == shapes
    assert len(got._parents) == len(shapes) + len(params)
    assert all(p is q for p, q in zip(got._parents[len(shapes) :], params))


def test_method_preset_unknown_name():
    for name in ("nope", "LwF-MC-C"):
        with pytest.raises(ConfigError):
            L.method_preset(name)


def test_lwf_mc_distillation_weight_is_lambda_kd():
    lwfmc = L.method_preset("LwF-MC")
    assert lwfmc.lambda_kd == 10.0
    assert lwfmc.with_weight(0.5).lambda_kd == 0.5
    with pytest.raises(ConfigError):
        replace(lwfmc, lambda_kd=-5.0)
