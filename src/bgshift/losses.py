"""Loss family for incremental pixel classification.

The background channel is treated as semantically shifting across steps, so
besides the plain cross-entropy / distillation pair there are background-aware
variants: the unbiased cross-entropy scores a background ground-truth pixel
against the *summed* probability of all previously-known classes, and the
unbiased distillation scores the old model's background probability against
the summed probability of the incoming classes plus background. LwF-MC style
per-class binary CE and ILT feature distillation round out the baselines.

Every loss computes its value and its gradient with respect to its input (the
logits, or the features for ILT) in numpy, from the closed form of that
gradient, and returns one tape node (``numerics.scalar_node``). Where a
probability is clamped at ``LOG_FLOOR`` before the log, no gradient flows
through it. A loss of the logits computes their softmax itself; the
composite objective computes it once per batch and hands it to each loss
through the private ``_q`` argument. The composite objective is one node
too, over its weighted terms.

Each loss works on contiguous channel rows [K, pixels] (``_rows``): a free
view of channel-major input such as the logits ``affine_last`` returns, one
transposed copy of C-order input. Softmax, probabilities and gradients are
stored that way and handed back as [..., K] views (``_cols``). Every
element sees the same operations in the same order as over the last axis
(sums over channels run left to right, as numpy's own reduction over fewer
than 8 channels does), so the values and gradients do not depend on the
layout, bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .exceptions import AlignmentError, ConfigError, LabelDomainError, ShapeError
from .model import SegModel
from .numerics import Tensor
from .scenario import BACKGROUND

LOG_FLOOR = 1e-12  # probabilities are clamped here before log


@dataclass(frozen=True)
class LossContext:
    """The channels of one learning step.

    ``class_order`` is the channel order of the current model's logits. It
    extends the previous step's label space, so the ``n_old`` classes known
    before the step, background first, are channels ``0..n_old-1``, and the
    incoming set, against which the background is scored, is channel 0 plus
    channels ``n_old..K-1`` (``new_channels``). ``for_step`` checks that
    layout.
    """

    class_order: tuple
    n_old: int
    method_weights: dict = field(default_factory=dict)

    @classmethod
    def for_step(
        cls, prev_order: list[int], cur_order: list[int], method_weights: dict | None = None
    ) -> "LossContext":
        """The context of a step from the previous model's classes to the
        current one's; AlignmentError unless ``cur_order`` extends
        ``prev_order``, which starts with the background, and repeats no
        class."""
        prev, cur = list(prev_order), list(cur_order)
        if prev[:1] != [BACKGROUND]:
            raise AlignmentError(f"previous classes {prev} do not start with the background {BACKGROUND}")
        if cur[: len(prev)] != prev:
            raise AlignmentError(f"classes {cur} do not extend the previous model's classes {prev}")
        if len(set(cur)) != len(cur):
            raise AlignmentError(f"classes {cur} repeat a class")
        return cls(tuple(cur), len(prev), dict(method_weights or {}))

    @property
    def new_channels(self) -> list[int]:
        return [0, *range(self.n_old, len(self.class_order))]


def _label_channels(logits: Tensor, mask: np.ndarray, class_order, allowed, what: str) -> np.ndarray:
    """Map label ids to channel indices, rejecting labels outside ``allowed``
    (a subset of ``class_order``)."""
    mask = np.asarray(mask)
    if mask.shape != logits.data.shape[:-1]:
        raise ShapeError(f"{what}: mask {mask.shape} does not match logits {logits.data.shape}")
    lut = np.full(int(max(class_order)) + 1, -1, dtype=np.intp)
    for i, c in enumerate(class_order):
        if c in allowed:
            lut[c] = i
    in_range = mask.size == 0 or (mask.min() >= 0 and mask.max() < lut.size)
    chan = lut[mask] if in_range else None
    if chan is None or (chan < 0).any():
        bad = [int(c) for c in np.unique(mask) if c not in allowed]
        raise LabelDomainError(f"{what}: labels {bad} are outside the allowed set {sorted(allowed)}")
    return chan


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` [..., K] as contiguous channel rows [K, pixels]: a free view when
    ``a`` is stored channel-major (as ``affine_last`` and ``_softmax`` return
    it), else one transposed copy."""
    return np.ascontiguousarray(np.moveaxis(a, -1, 0)).reshape(a.shape[-1], -1)


def _cols(rows: np.ndarray, shape) -> np.ndarray:
    """Channel rows [K, pixels] as a [..., K] view of ``shape[:-1]`` pixels."""
    return np.moveaxis(rows.reshape((rows.shape[0],) + tuple(shape[:-1])), 0, -1)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Stable (max-subtracted) softmax over the last axis, stored
    channel-major and returned as a [..., K] view.

    The max and the sum run one channel row at a time, adding left to right
    as numpy's own reduction over fewer than 8 channels does.
    """
    rows = _rows(z)
    m = rows[0]
    for i in range(1, rows.shape[0]):
        m = np.maximum(m, rows[i])
    e = np.exp(rows - m)
    return _cols(e / _channel_sum(e, range(e.shape[0])), z.shape)


def _channel_sum(rows: np.ndarray, idx) -> np.ndarray:
    """sum(rows[idx], axis=0), left to right."""
    idx = list(idx)
    total = rows[idx[0]].copy()
    for i in idx[1:]:
        total += rows[i]
    return total


def _clamped_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(max(p, LOG_FLOOR)), and where p > LOG_FLOOR: the gradient of the
    clamped log is zero wherever the clamp is active."""
    return np.log(np.maximum(p, LOG_FLOOR)), p > LOG_FLOOR


def _mean(a: np.ndarray) -> float:
    """The mean as the tape's ``tmean`` takes it: the sum times 1/n."""
    return a.sum() * (1.0 / a.size)


def _pick(rows: np.ndarray, chan: np.ndarray) -> np.ndarray:
    """rows[chan[j], j] for every pixel j."""
    return rows[chan, np.arange(chan.size)]


def _onehot(chan: np.ndarray, k: int) -> np.ndarray:
    """[k, pixels] booleans, true at each pixel's channel."""
    return chan == np.arange(k)[:, None]


def cross_entropy(logits: Tensor, mask: np.ndarray, class_order, *, _q=None) -> Tensor:
    """Mean over pixels of -log q(y)."""
    chan = _label_channels(logits, mask, class_order, set(class_order), "cross_entropy").ravel()
    q = _rows(_softmax(logits.data) if _q is None else _q)
    log_q, active = _clamped_log(_pick(q, chan))
    # d/dz of -log q(y) is q - onehot(y); active / n is taken in q's dtype
    # (a bool over an int would be float64)
    grad = (q - _onehot(chan, q.shape[0])) * np.divide(active, chan.size, dtype=q.dtype)
    return nm.scalar_node(-_mean(log_q), (logits, _cols(grad, logits.shape)))


def unbiased_cross_entropy(logits: Tensor, mask: np.ndarray, ctx: LossContext, *, _q=None) -> Tensor:
    """Cross-entropy where a background pixel is scored against the summed
    probability of every previously-known class (background included)."""
    mask = np.asarray(mask)
    incoming = {ctx.class_order[i] for i in ctx.new_channels}
    try:
        chan = _label_channels(logits, mask, ctx.class_order, incoming, "unbiased_cross_entropy")
    except (ShapeError, LabelDomainError):
        # a label of an earlier step is named first
        stale = [int(c) for c in np.unique(mask) if c in ctx.class_order[1 : ctx.n_old]]
        if stale:
            raise LabelDomainError(
                f"unbiased_cross_entropy: labels {stale} belong to earlier steps; "
                "the mask looks unrelabeled"
            ) from None
        raise
    chan = chan.ravel()
    q = _rows(_softmax(logits.data) if _q is None else _q)
    is_bg = mask.ravel() == BACKGROUND
    # the target channels: the label's, or every old one on a background pixel
    target = _onehot(chan, q.shape[0])
    target[: ctx.n_old] |= is_bg
    t = np.where(is_bg, _channel_sum(q, range(ctx.n_old)), _pick(q, chan))
    log_t, active = _clamped_log(t)
    # d/dz of -log t is q - q * target / t
    n = chan.size
    share = np.divide(active, n, dtype=q.dtype)  # as in cross_entropy
    grad = q * share - (q * target) * (active / (n * np.maximum(t, LOG_FLOOR)))
    return nm.scalar_node(-_mean(log_t), (logits, _cols(grad, logits.shape)))


def _check_old_probs(logits: Tensor, probs_old: np.ndarray, n_old: int):
    if probs_old.shape[:-1] != logits.data.shape[:-1] or probs_old.shape[-1] != n_old:
        raise AlignmentError(
            f"old probabilities {probs_old.shape} do not align with logits {logits.data.shape}"
        )


def _distillation_grad(q_hat: np.ndarray, p: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Gradient of -mean(sum(p * log q_hat)) per row of q_hat, where q_hat is
    built from the logits' softmax (old channels renormalized, or summed into
    one row): q_hat * sum(c) - c, with c = p where the clamp lets the gradient
    through. All three are channel rows; the caller maps each row back onto
    its channels."""
    c = p * active
    return (q_hat * _channel_sum(c, range(c.shape[0])) - c) * (1.0 / c.shape[1])


def standard_distillation(logits_new: Tensor, probs_old: np.ndarray, ctx: LossContext, *, _q=None) -> Tensor:
    """Distillation with the current probabilities renormalized over the old
    label space (incoming foreground channels dropped)."""
    n_old = ctx.n_old
    _check_old_probs(logits_new, probs_old, n_old)
    p = _rows(probs_old)
    q_old = _rows(_softmax(logits_new.data) if _q is None else _q)[:n_old]
    q_hat = q_old / _channel_sum(q_old, range(n_old))
    log_q, active = _clamped_log(q_hat)
    grad = np.zeros((len(ctx.class_order), p.shape[1]), dtype=q_hat.dtype)
    grad[:n_old] = _distillation_grad(q_hat, p, active)
    value = _mean(-_channel_sum(p * log_q, range(n_old)))
    return nm.scalar_node(value, (logits_new, _cols(grad, logits_new.shape)))


def unbiased_distillation(logits_new: Tensor, probs_old: np.ndarray, ctx: LossContext, *, _q=None) -> Tensor:
    """Distillation where the old model's background probability is matched
    against the summed current probability of incoming classes + background;
    old foreground channels are compared unrenormalized."""
    _check_old_probs(logits_new, probs_old, ctx.n_old)
    p = _rows(probs_old)
    q = _rows(_softmax(logits_new.data) if _q is None else _q)
    # background (channel 0 of both models) is matched against the summed
    # mass of the incoming classes + background; old foreground is unaltered
    new, old_fg = ctx.new_channels, slice(1, ctx.n_old)
    q_hat = np.concatenate([_channel_sum(q, new)[None], q[old_fg]])
    log_q, active = _clamped_log(q_hat)
    # the background term plus the foreground terms' sum, in numpy's order
    fg = log_q[1:] * p[1:]
    terms = log_q[0] * p[0] + _channel_sum(fg, range(fg.shape[0]))
    g_hat = _distillation_grad(q_hat, p, active)
    grad = np.empty_like(q)
    grad[old_fg] = g_hat[1:]
    # the background entry spreads over the incoming channels by their share
    # of its mass (all zero where the mass is)
    mass = q_hat[0]
    grad[new] = q[new] * (g_hat[0] / np.where(mass > 0, mass, 1.0))
    return nm.scalar_node(-_mean(terms), (logits_new, _cols(grad, logits_new.shape)))


def lwf_mc_loss(
    logits_new: Tensor,
    mask: np.ndarray,
    sigmoid_old: np.ndarray,
    variant: str,
    ctx: LossContext,
) -> Tensor:
    """Per-class binary CE blend: ground-truth targets for incoming classes,
    old-model sigmoids for old ones; the background term follows the variant
    (full = both streams, C = classification only, D = distillation only).
    """
    if variant not in ("full", "C", "D"):
        raise ConfigError(f"unknown LwF-MC variant {variant!r}")
    mask = np.asarray(mask)
    _label_channels(logits_new, mask, ctx.class_order, set(ctx.class_order), "lwf_mc_loss")
    _check_old_probs(logits_new, sigmoid_old, ctx.n_old)
    w_cls = float(ctx.method_weights.get("w_cls", 1.0))
    w_kd = float(ctx.method_weights.get("w_kd", 1.0))

    x = _rows(logits_new.data)
    sig_old = _rows(sigmoid_old)
    labels = mask.ravel()
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    k = len(ctx.class_order)
    scale = 1.0 / (mask.size * k)
    grad = np.empty_like(x)
    total = None
    for i, c in enumerate(ctx.class_order):
        if i == 0:  # the background
            targets = []
            if variant in ("full", "C"):
                targets.append((w_cls, (labels == c).astype(x.dtype)))
            if variant in ("full", "D"):
                targets.append((w_kd, sig_old[0]))
        elif i >= ctx.n_old:
            targets = [(w_cls, (labels == c).astype(x.dtype))]
        else:
            targets = [(w_kd, sig_old[i])]
        s_c = s[i]
        log_s, on_s = _clamped_log(s_c)
        log_1s, on_1s = _clamped_log(1.0 - s_c)
        term, g = None, 0.0
        for w, t in targets:
            bce = w * -(t * log_s + (1.0 - t) * log_1s)
            term = bce if term is None else term + bce
            # d/dx of the BCE is s - t, masked where either log is clamped
            g = g + w * ((1.0 - t) * on_1s * s_c - t * on_s * (1.0 - s_c))
        total = term if total is None else total + term
        grad[i] = g * scale
    return nm.scalar_node(_mean(total) * (1.0 / k), (logits_new, _cols(grad, logits_new.shape)))


def feature_distillation(features_new: Tensor, features_old: np.ndarray) -> Tensor:
    """Mean over pixels of the squared L2 distance between feature vectors."""
    if features_new.data.shape != np.asarray(features_old).shape:
        raise AlignmentError(
            f"feature shapes differ: {features_new.data.shape} vs {np.asarray(features_old).shape}"
        )
    diff = features_new.data - features_old
    per_pixel = (diff * diff).sum(axis=-1)
    return nm.scalar_node(_mean(per_pixel), (features_new, diff * (2.0 / per_pixel.size)))


# ---------------------------------------------------------------------------
# method configuration and the composite objective


W_CLS = 1.0  # LwF-MC's classification weight; its distillation weight is lambda_kd


@dataclass
class MethodConfig:
    """Which losses make up the per-step objective, and their weights."""

    name: str = "FT"
    ce_mode: str = "standard"  # standard | unbiased
    kd_mode: str = "none"  # none | standard | unbiased
    lambda_kd: float = 0.0  # the KD/UKD weight, and LwF-MC's distillation weight
    init_mode: str = "random"  # random | background
    feature_kd_weight: float = 0.0
    reg_kind: str = "none"  # none | ewc | pi | rw
    reg_weight: float = 0.0
    lwfmc_variant: str | None = None  # full | C | D; replaces ce/kd entirely

    def __post_init__(self):
        if self.ce_mode not in ("standard", "unbiased"):
            raise ConfigError(f"unknown ce_mode {self.ce_mode!r}")
        if self.kd_mode not in ("none", "standard", "unbiased"):
            raise ConfigError(f"unknown kd_mode {self.kd_mode!r}")
        if self.init_mode not in ("random", "background"):
            raise ConfigError(f"unknown init_mode {self.init_mode!r}")
        if self.reg_kind not in ("none", "ewc", "pi", "rw"):
            raise ConfigError(f"unknown reg_kind {self.reg_kind!r}")
        if self.lwfmc_variant not in (None, "full", "C", "D"):
            raise ConfigError(f"unknown LwF-MC variant {self.lwfmc_variant!r}")
        if self.lambda_kd < 0 or self.reg_weight < 0 or self.feature_kd_weight < 0:
            raise ConfigError("loss weights must be non-negative")

    def with_weight(self, w: float) -> "MethodConfig":
        """Return a copy with the method's tunable weight set to ``w``.

        A method without distillation, LwF-MC or a regularizer (FT, Joint)
        has no such weight and raises ConfigError.
        """
        if self.reg_kind != "none":
            return replace(self, reg_weight=w)
        if self.kd_mode == "none" and self.lwfmc_variant is None:
            raise ConfigError(f"{self.name}: the method has no tunable weight to select")
        if self.feature_kd_weight > 0:
            return replace(self, lambda_kd=w, feature_kd_weight=w)
        return replace(self, lambda_kd=w)


_PRESETS: dict[str, dict] = {
    "FT": {},
    "JOINT": {},
    "LWF": dict(kd_mode="standard", lambda_kd=100.0),
    "ILT": dict(kd_mode="standard", lambda_kd=100.0, feature_kd_weight=100.0),
    "EWC": dict(reg_kind="ewc", reg_weight=500.0),
    "PI": dict(reg_kind="pi", reg_weight=500.0),
    "RW": dict(reg_kind="rw", reg_weight=100.0),
    "LWFMC": dict(lwfmc_variant="full", lambda_kd=10.0),
    "LWFMC-C": dict(lwfmc_variant="C", lambda_kd=10.0),
    "LWFMC-D": dict(lwfmc_variant="D", lambda_kd=10.0),
    "MIB-CE": dict(ce_mode="unbiased", kd_mode="standard", lambda_kd=100.0),
    "MIB-KD": dict(ce_mode="unbiased", kd_mode="unbiased", lambda_kd=10.0),
    "MIB": dict(ce_mode="unbiased", kd_mode="unbiased", lambda_kd=10.0, init_mode="background"),
}


def preset_key(name: str) -> str:
    """The preset that method ``name`` names; case, ``_`` for ``-`` and the
    LwF-MC spelling do not matter."""
    return name.upper().replace("_", "-").replace("LWF-MC", "LWFMC")


def method_preset(name: str) -> MethodConfig:
    key = preset_key(name)
    if key not in _PRESETS:
        raise ConfigError(f"unknown method {name!r}; known: {sorted(_PRESETS)}")
    return MethodConfig(name=name, **_PRESETS[key])


def _teacher_targets(
    method: MethodConfig,
    model_prev: SegModel,
    images: np.ndarray,
    old_outputs: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """What the method's losses read of the frozen teacher on ``images``.

    That is its probabilities (the sigmoid of its logits for LwF-MC, their
    softmax when distillation is on), stored channel-major, and its features
    when feature distillation is on; None for what no loss reads, and the
    teacher is run only if a loss reads something. ``old_outputs`` are its
    (logits, features) on ``images`` if they are at hand.
    """
    lwfmc = method.lwfmc_variant is not None
    kd = lwfmc or (method.kd_mode != "none" and method.lambda_kd > 0)
    feature_kd = not lwfmc and method.feature_kd_weight > 0
    if not (kd or feature_kd):
        return None, None
    if old_outputs is None:
        with nm.no_grad():
            old_outputs = tuple(t.data for t in model_prev.forward_batch(images))
    logits, feats = old_outputs
    if lwfmc:
        probs = 1.0 / (1.0 + np.exp(-logits))
    elif kd:
        probs = _softmax(logits)
    else:
        probs = None
    return probs, feats if feature_kd else None


def composite_objective(
    method: MethodConfig,
    batch: tuple[np.ndarray, np.ndarray],
    model: SegModel,
    model_prev: SegModel | None,
    reg_penalty: Tensor | None = None,
    old_outputs: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    _teacher: tuple[np.ndarray | None, np.ndarray | None] | None = None,
) -> Tensor:
    """Assemble the step objective for one batch.

    The first learning step is ordinary supervised training for every method,
    so without a previous model this is plain cross-entropy. Later steps need
    the frozen previous model whenever a distillation term is active;
    ``old_outputs`` may carry its precomputed (logits, features) for the
    batch, and the private ``_teacher`` what the losses read of them (see
    ``_teacher_targets``), as ``run_step`` caches it once per step. The terms
    (LwF-MC, or CE/UCE, lambda_kd * KD/UKD and feature_kd_weight * feature
    KD; then the regularizer's penalty) are summed by one tape node.
    """
    images, masks = batch
    logits, feats = model.forward_batch(images)
    if model_prev is None:
        if model.step_index > 0 and (method.kd_mode != "none" or method.lwfmc_variant):
            raise ConfigError(f"{method.name}: incremental step {model.step_index} needs the previous model")
        return cross_entropy(logits, masks, model.known_classes)

    ctx = LossContext.for_step(
        model_prev.known_classes, model.known_classes, method_weights={"w_cls": W_CLS, "w_kd": method.lambda_kd}
    )
    if _teacher is None:
        _teacher = _teacher_targets(method, model_prev, images, old_outputs)
    probs_old, old_feats = _teacher

    if method.lwfmc_variant is not None:
        terms = [(lwf_mc_loss(logits, masks, probs_old, method.lwfmc_variant, ctx), 1.0)]
    else:
        q = _softmax(logits.data)  # one softmax of the student serves CE and KD
        if method.ce_mode == "unbiased":
            terms = [(unbiased_cross_entropy(logits, masks, ctx, _q=q), 1.0)]
        else:
            terms = [(cross_entropy(logits, masks, model.known_classes, _q=q), 1.0)]
        if probs_old is not None:
            if method.kd_mode == "unbiased":
                kd = unbiased_distillation(logits, probs_old, ctx, _q=q)
            else:
                kd = standard_distillation(logits, probs_old, ctx, _q=q)
            terms.append((kd, method.lambda_kd))
        if old_feats is not None:
            terms.append((feature_distillation(feats, old_feats), method.feature_kd_weight))

    if reg_penalty is not None:
        terms.append((reg_penalty, 1.0))
    # each term's gradient is its weight; the value adds them in this order
    value = terms[0][0].data
    for term, weight in terms[1:]:
        value = value + term.data * weight
    return nm.scalar_node(value, *terms)
