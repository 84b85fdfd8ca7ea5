"""Loss family for incremental pixel classification.

The background channel is treated as semantically shifting across steps, so
besides the plain cross-entropy / distillation pair there are background-aware
variants: the unbiased cross-entropy scores a background ground-truth pixel
against the *summed* probability of all previously-known classes, and the
unbiased distillation scores the old model's background probability against
the summed probability of the incoming classes plus background. LwF-MC style
per-class binary CE and ILT feature distillation round out the baselines.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from .exceptions import AlignmentError, ConfigError, LabelDomainError
from .model import SegModel
from .numerics import Tensor

LOG_FLOOR = 1e-12  # probabilities are clamped here before log


@dataclass(frozen=True)
class LossContext:
    """Class bookkeeping for one learning step.

    ``old_classes`` is the label space of the previous step and
    ``new_classes`` the incoming set; both include the background id, and
    they overlap only there. ``class_order`` is the channel order of the
    current model's logits.
    """

    old_classes: frozenset
    new_classes: frozenset
    background_id: int
    class_order: tuple
    method_weights: dict = field(default_factory=dict)

    def __post_init__(self):
        b = self.background_id
        if b not in self.old_classes or b not in self.new_classes:
            raise ConfigError("background must belong to both old and new class sets")
        if self.old_classes & self.new_classes != {b}:
            raise ConfigError("old and new classes may only share the background")
        if set(self.class_order) != self.old_classes | self.new_classes:
            raise AlignmentError("class_order must cover exactly the old and new classes")

    @classmethod
    def for_step(
        cls,
        prev_order: list[int],
        cur_order: list[int],
        background_id: int = 0,
        method_weights: dict | None = None,
    ) -> "LossContext":
        old = frozenset(prev_order)
        new = frozenset(cur_order) - old | {background_id}
        return cls(old, new, background_id, tuple(cur_order), dict(method_weights or {}))

    # channel helpers (indices into class_order)
    def channels(self, classes) -> np.ndarray:
        lut = {c: i for i, c in enumerate(self.class_order)}
        return np.array([lut[c] for c in self.class_order if c in classes], dtype=np.intp)

    @property
    def old_channels(self) -> np.ndarray:
        return self.channels(self.old_classes)

    @property
    def new_channels(self) -> np.ndarray:
        return self.channels(self.new_classes)

    @property
    def old_fg_channels(self) -> np.ndarray:
        return self.channels(self.old_classes - {self.background_id})

    @property
    def new_fg_channels(self) -> np.ndarray:
        return self.channels(self.new_classes - {self.background_id})


def _label_channels(mask: np.ndarray, class_order, allowed, what: str) -> np.ndarray:
    """Map label ids to channel indices, rejecting labels outside ``allowed``."""
    mask = np.asarray(mask)
    present = np.unique(mask)
    bad = [int(c) for c in present if c not in allowed]
    if bad:
        raise LabelDomainError(f"{what}: labels {bad} are outside the allowed set {sorted(allowed)}")
    lut = np.full(int(max(class_order)) + 1, -1, dtype=np.intp)
    for i, c in enumerate(class_order):
        lut[c] = i
    return lut[mask]


def _clamped_log(t: Tensor) -> Tensor:
    return nm.log(nm.clip_min(t, LOG_FLOOR))


def cross_entropy(logits: Tensor, mask: np.ndarray, class_order) -> Tensor:
    """Mean over pixels of -log q(y)."""
    chan = _label_channels(mask, class_order, set(class_order), "cross_entropy")
    q = nm.softmax(logits, axis=-1)
    picked = nm.gather_last(q, chan)
    return -_clamped_log(picked).mean()


def unbiased_cross_entropy(logits: Tensor, mask: np.ndarray, ctx: LossContext) -> Tensor:
    """Cross-entropy where a background pixel is scored against the summed
    probability of every previously-known class (background included)."""
    mask = np.asarray(mask)
    present = np.unique(mask)
    stale = [int(c) for c in present if c in ctx.old_classes and c != ctx.background_id]
    if stale:
        raise LabelDomainError(
            f"unbiased_cross_entropy: labels {stale} belong to earlier steps; "
            "the mask looks unrelabeled"
        )
    chan = _label_channels(mask, ctx.class_order, ctx.new_classes, "unbiased_cross_entropy")
    q = nm.softmax(logits, axis=-1)
    old_mass = nm.take_channels(q, ctx.old_channels).sum(axis=-1)
    is_bg = (mask == ctx.background_id).astype(q.data.dtype)
    picked = nm.gather_last(q, chan)
    target_prob = picked * (1.0 - is_bg) + old_mass * is_bg
    return -_clamped_log(target_prob).mean()


def _check_old_probs(logits: Tensor, probs_old: np.ndarray, n_old: int):
    if probs_old.shape[:-1] != logits.data.shape[:-1] or probs_old.shape[-1] != n_old:
        raise AlignmentError(
            f"old probabilities {probs_old.shape} do not align with logits {logits.data.shape}"
        )


def standard_distillation(logits_new: Tensor, probs_old: np.ndarray, ctx: LossContext) -> Tensor:
    """Distillation with the current probabilities renormalized over the old
    label space (incoming foreground channels dropped)."""
    old_idx = ctx.old_channels
    _check_old_probs(logits_new, probs_old, old_idx.size)
    q = nm.softmax(logits_new, axis=-1)
    q_old = nm.take_channels(q, old_idx)
    q_hat = q_old / q_old.sum(axis=-1, keepdims=True)
    per_pixel = -(nm.as_tensor(probs_old) * _clamped_log(q_hat)).sum(axis=-1)
    return per_pixel.mean()


def unbiased_distillation(logits_new: Tensor, probs_old: np.ndarray, ctx: LossContext) -> Tensor:
    """Distillation where the old model's background probability is matched
    against the summed current probability of incoming classes + background;
    old foreground channels are compared unrenormalized."""
    old_idx = ctx.old_channels
    _check_old_probs(logits_new, probs_old, old_idx.size)
    q = nm.softmax(logits_new, axis=-1)
    # background (channel 0 of both models) is matched against the summed
    # mass of the incoming classes + background; old foreground is unaltered
    bg_mass = nm.take_channels(q, ctx.new_channels).sum(axis=-1)
    old_fg = nm.take_channels(q, ctx.old_fg_channels)
    terms = _clamped_log(bg_mass) * probs_old[..., 0] + (
        _clamped_log(old_fg) * probs_old[..., 1:]
    ).sum(axis=-1)
    return -terms.mean()


def _bce(s: Tensor, target) -> Tensor:
    t = nm.as_tensor(target)
    return -(t * _clamped_log(s) + (1.0 - t) * _clamped_log(1.0 - s))


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
    _label_channels(mask, ctx.class_order, set(ctx.class_order), "lwf_mc_loss")
    old_idx = ctx.old_channels
    _check_old_probs(logits_new, sigmoid_old, old_idx.size)
    w_cls = float(ctx.method_weights.get("w_cls", 1.0))
    w_kd = float(ctx.method_weights.get("w_kd", 1.0))

    s = nm.sigmoid(logits_new)
    dtype = s.data.dtype
    total = None
    for i, c in enumerate(ctx.class_order):
        s_c = nm.gather_last(s, np.full(mask.shape, i, dtype=np.intp))
        if c == ctx.background_id:
            term = None
            if variant in ("full", "C"):
                term = w_cls * _bce(s_c, (mask == c).astype(dtype))
            if variant in ("full", "D"):
                kd = w_kd * _bce(s_c, sigmoid_old[..., 0])
                term = kd if term is None else term + kd
        elif c in ctx.new_classes:
            term = w_cls * _bce(s_c, (mask == c).astype(dtype))
        else:
            old_pos = int(np.where(old_idx == i)[0][0])
            term = w_kd * _bce(s_c, sigmoid_old[..., old_pos])
        total = term if total is None else total + term
    return total.mean() * (1.0 / len(ctx.class_order))


def feature_distillation(features_new: Tensor, features_old: np.ndarray) -> Tensor:
    """Mean over pixels of the squared L2 distance between feature vectors."""
    if features_new.data.shape != np.asarray(features_old).shape:
        raise AlignmentError(
            f"feature shapes differ: {features_new.data.shape} vs {np.asarray(features_old).shape}"
        )
    diff = features_new - nm.as_tensor(features_old)
    return (diff * diff).sum(axis=-1).mean()


# ---------------------------------------------------------------------------
# method configuration and the composite objective


@dataclass
class MethodConfig:
    """Which losses make up the per-step objective, and their weights."""

    name: str = "FT"
    ce_mode: str = "standard"  # standard | unbiased
    kd_mode: str = "none"  # none | standard | unbiased
    lambda_kd: float = 0.0
    init_mode: str = "random"  # random | background
    feature_kd_weight: float = 0.0
    reg_kind: str = "none"  # none | ewc | pi | rw
    reg_weight: float = 0.0
    lwfmc_variant: str | None = None  # full | C | D; replaces ce/kd entirely
    w_cls: float = 1.0
    w_kd: float = 10.0
    fisher_samples: int = 64
    pi_damping: float = 0.1

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
        if self.lwfmc_variant is not None:
            return replace(self, w_kd=w)
        if self.reg_kind != "none":
            return replace(self, reg_weight=w)
        if self.kd_mode == "none":
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
    "LWFMC": dict(lwfmc_variant="full", w_kd=10.0),
    "LWFMC-C": dict(lwfmc_variant="C", w_kd=10.0),
    "LWFMC-D": dict(lwfmc_variant="D", w_kd=10.0),
    "MIB-CE": dict(ce_mode="unbiased", kd_mode="standard", lambda_kd=100.0),
    "MIB-KD": dict(ce_mode="unbiased", kd_mode="unbiased", lambda_kd=10.0),
    "MIB": dict(ce_mode="unbiased", kd_mode="unbiased", lambda_kd=10.0, init_mode="background"),
}


def method_preset(name: str) -> MethodConfig:
    key = name.upper().replace("_", "-").replace("LWF-MC", "LWFMC")
    if key not in _PRESETS:
        raise ConfigError(f"unknown method {name!r}; known: {sorted(_PRESETS)}")
    return MethodConfig(name=name, **_PRESETS[key])


def composite_objective(
    method: MethodConfig,
    batch: tuple[np.ndarray, np.ndarray],
    model: SegModel,
    model_prev: SegModel | None,
    reg_penalty: Tensor | None = None,
    old_outputs: tuple[np.ndarray, np.ndarray] | None = None,
) -> Tensor:
    """Assemble the step objective for one batch.

    The first learning step is ordinary supervised training for every method,
    so without a previous model this is plain cross-entropy. Later steps need
    the frozen previous model whenever a distillation term is active;
    ``old_outputs`` may carry its precomputed (logits, features) for the batch.
    """
    images, masks = batch
    logits, feats = model.forward_batch(images)
    if model_prev is None:
        if model.step_index > 0 and (method.kd_mode != "none" or method.lwfmc_variant):
            raise ConfigError(f"{method.name}: incremental step {model.step_index} needs the previous model")
        return cross_entropy(logits, masks, model.known_classes)

    if model_prev.known_classes != model.known_classes[: len(model_prev.known_classes)]:
        raise AlignmentError("previous model's classes must be a prefix of the current ones")
    ctx = LossContext.for_step(
        model_prev.known_classes,
        model.known_classes,
        background_id=model.background_id,
        method_weights={"w_cls": method.w_cls, "w_kd": method.w_kd},
    )

    if old_outputs is None:
        with nm.no_grad():
            out = model_prev.forward_batch(images)
            old_logits, old_feats = out[0].data, out[1].data
    else:
        old_logits, old_feats = old_outputs

    if method.lwfmc_variant is not None:
        sig_old = 1.0 / (1.0 + np.exp(-old_logits))
        return lwf_mc_loss(logits, masks, sig_old, method.lwfmc_variant, ctx)

    if method.ce_mode == "unbiased":
        loss = unbiased_cross_entropy(logits, masks, ctx)
    else:
        loss = cross_entropy(logits, masks, model.known_classes)

    if method.kd_mode != "none" and method.lambda_kd > 0:
        probs_old = _softmax_np(old_logits)
        if method.kd_mode == "unbiased":
            kd = unbiased_distillation(logits, probs_old, ctx)
        else:
            kd = standard_distillation(logits, probs_old, ctx)
        loss = loss + method.lambda_kd * kd

    if method.feature_kd_weight > 0:
        loss = loss + method.feature_kd_weight * feature_distillation(feats, old_feats)

    if reg_penalty is not None:
        loss = loss + reg_penalty
    return loss


def _softmax_np(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
