"""Loss family for incremental pixel classification.

The background channel is treated as semantically shifting across steps, so
besides the plain cross-entropy / distillation pair there are background-aware
variants: the unbiased cross-entropy scores a background ground-truth pixel
against the *summed* probability of all previously-known classes, and the
unbiased distillation scores the old model's background probability against
the summed probability of the incoming classes plus background. LwF-MC
(``lwf_mc_loss``: a per-class binary CE whose background channel gets both
the classification and the distillation term, in that order) and ILT feature
distillation round out the baselines.

Every loss computes its value and its gradient with respect to its input (the
logits, or the features for ILT) in numpy, from the closed form of that
gradient, and returns one tape node (``numerics.scalar_node``). Where a
probability is clamped at ``LOG_FLOOR`` before the log, no gradient flows
through it. A loss of the logits computes their softmax unless the composite
objective hands it over (the private ``_q``), with what the loss reads of
the frozen teacher (``teacher_targets``) and, for the losses that read
labels, their channels (the private ``_chan``); ``trainer.run_step``
computes both once per step, the channels with the step's ``LossContext``
(``step_labels``), and hands each batch's rows to the objective. Given a
mask instead, a loss maps it with the same function (``_label_channels``)
and the same checks. The objective is one node over the losses' inputs,
not over the loss nodes: it takes over their gradients and sums them in
place (``numerics.scalar_sum``).

Each loss works on contiguous channel rows [K, pixels] (``_rows``): a free
view of channel-major input such as the logits ``affine_last`` returns, one
transposed copy of C-order input. Softmax, probabilities and gradients are
stored that way and handed back as [..., K] views (``_cols``). A sum or
max over channels is one numpy reduction over axis 0 of the rows. Over two
or more pixels numpy adds the rows in channel order, so every element sees
the same operations in the same order in either layout, bit for bit. Over
one pixel the rows are one contiguous run, which numpy sums pairwise from 8
channels on; so ``regularizers.fisher_diagonal`` reads its pixel from the
softmax of the whole image.
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


def _label_channels(mask: np.ndarray, class_order, allowed, what: str) -> np.ndarray:
    """Map label ids to channel indices, of ``mask``'s shape, in the smallest
    unsigned dtype that holds ``len(class_order) - 1`` (uint8 for up to 256
    channels); labels outside ``allowed`` (a subset of ``class_order``) raise
    LabelDomainError, the barred ids of ``class_order`` (an earlier step's,
    for the unbiased cross-entropy) named first."""
    mask = np.asarray(mask)
    barred = set(class_order) - allowed
    lut = np.full(int(max(class_order)) + 1, -1, dtype=np.intp)
    lut[list(class_order)] = np.arange(len(class_order))
    lut[list(barred)] = -1
    in_range = mask.size == 0 or (mask.min() >= 0 and mask.max() < lut.size)
    chan = lut[mask] if in_range else None
    if chan is None or (chan < 0).any():
        labels = np.unique(mask).tolist()
        stale = [c for c in labels if c in barred]
        if stale:
            raise LabelDomainError(f"{what}: labels {stale} belong to earlier steps; the mask looks unrelabeled")
        bad = [c for c in labels if c not in allowed]
        raise LabelDomainError(f"{what}: labels {bad} are outside the allowed set {sorted(allowed)}")
    return chan.astype(np.min_scalar_type(len(class_order) - 1))


def _channels(logits: Tensor, mask, chan, class_order, allowed, what: str) -> np.ndarray:
    """The flat channel of each pixel of ``logits``: ``chan`` where the
    caller mapped the labels already (``step_labels``), else ``mask`` mapped
    by ``_label_channels``. ShapeError unless either has the logits' pixel
    shape."""
    labels = np.asarray(mask if chan is None else chan)
    if labels.shape != logits.data.shape[:-1]:
        raise ShapeError(f"{what}: mask {labels.shape} does not match logits {logits.data.shape}")
    return (_label_channels(labels, class_order, allowed, what) if chan is None else labels).ravel()


def _incoming(ctx: "LossContext") -> set:
    """The labels the unbiased cross-entropy allows: the background and the
    step's incoming classes."""
    return {ctx.class_order[i] for i in ctx.new_channels}


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` [..., K] as contiguous channel rows [K, pixels]: a free view when
    ``a`` is stored channel-major (as ``affine_last`` and ``_softmax`` return
    it), else one transposed copy."""
    return np.ascontiguousarray(a.reshape(-1, a.shape[-1]).T)


def _cols(rows: np.ndarray, shape) -> np.ndarray:
    """Channel rows [K, pixels] as a [..., K] view of ``shape[:-1]`` pixels."""
    return rows.T.reshape(shape)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Stable (max-subtracted) softmax over the last axis, stored
    channel-major and returned as a [..., K] view."""
    rows = _rows(z)
    e = rows - rows.max(axis=0)
    np.exp(e, out=e)
    e /= e.sum(axis=0)
    return _cols(e, z.shape)


def _clamped_log(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(max(p, LOG_FLOOR)), in one new array (of ``p``'s dtype), and where
    p > LOG_FLOOR: the gradient of the clamped log is zero wherever the clamp
    is active."""
    log_p = np.maximum(p, LOG_FLOOR, out=np.empty_like(p))
    return np.log(log_p, out=log_p), p > LOG_FLOOR


def _mean(a: np.ndarray) -> float:
    """The sum times 1/n, as every pinned value was taken (numpy's mean
    divides by n)."""
    return a.sum() * (1.0 / a.size)


def _pick(rows: np.ndarray, chan: np.ndarray) -> np.ndarray:
    """rows[chan[j], j] for every pixel j of contiguous channel rows
    [K, pixels], through one flat take at chan[j] * pixels + j."""
    idx = chan.astype(np.intp)
    idx *= chan.size
    idx += np.arange(chan.size)
    return rows.take(idx)


def _onehot(chan: np.ndarray, k: int) -> np.ndarray:
    """[k, pixels] booleans, true at each pixel's channel."""
    return chan == np.arange(k)[:, None]


def cross_entropy(logits: Tensor, mask: np.ndarray, class_order, *, _q=None, _chan=None) -> Tensor:
    """Mean over pixels of -log q(y)."""
    chan = _channels(logits, mask, _chan, class_order, set(class_order), "cross_entropy")
    q = _rows(_softmax(logits.data) if _q is None else _q)
    log_q, active = _clamped_log(_pick(q, chan))
    # d/dz of -log q(y) is q - onehot(y); active / n is taken in q's dtype
    # (a bool over an int would be float64)
    grad = q - _onehot(chan, q.shape[0])
    grad *= np.divide(active, chan.size, dtype=q.dtype)
    return nm.scalar_node(-_mean(log_q), (logits, _cols(grad, logits.shape)))


def unbiased_cross_entropy(logits: Tensor, mask: np.ndarray, ctx: LossContext, *, _q=None, _chan=None) -> Tensor:
    """Cross-entropy where a background pixel is scored against the summed
    probability of every previously-known class (background included)."""
    chan = _channels(logits, mask, _chan, ctx.class_order, _incoming(ctx), "unbiased_cross_entropy")
    q = _rows(_softmax(logits.data) if _q is None else _q)
    n_old, n = ctx.n_old, chan.size
    is_bg = chan == 0  # the background is label 0 and channel 0
    # the target probability: the old channels' sum on a background pixel,
    # else that of the pixel's (incoming) channel
    own = [(c, chan == c) for c in range(n_old, q.shape[0])]
    t = q[:n_old].sum(axis=0)
    for c, is_c in own:
        t = np.where(is_c, q[c], t)
    log_t, active = _clamped_log(t)
    # d/dz of -log t is q - q * target / t: q * share, less q * factor in
    # each target row (every old row on a background pixel, a new row on
    # its own pixels), the factor zeroed elsewhere by a product with an
    # exact 0 or 1
    share = np.divide(active, n, dtype=q.dtype)  # as in cross_entropy
    factor = active / (n * np.maximum(t, LOG_FLOOR))
    grad = q * share
    grad[:n_old] -= q[:n_old] * (factor * is_bg)
    for c, is_c in own:
        grad[c] -= q[c] * (factor * is_c)
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
    its channels. The gradient is written into ``q_hat``, which is returned."""
    c = p * active
    q_hat *= c.sum(axis=0)
    q_hat -= c
    q_hat *= 1.0 / c.shape[1]
    return q_hat


def standard_distillation(logits_new: Tensor, probs_old: np.ndarray, ctx: LossContext, *, _q=None) -> Tensor:
    """Distillation with the current probabilities renormalized over the old
    label space (incoming foreground channels dropped)."""
    n_old = ctx.n_old
    _check_old_probs(logits_new, probs_old, n_old)
    p = _rows(probs_old)
    q_old = _rows(_softmax(logits_new.data) if _q is None else _q)[:n_old]
    # q_hat is built in the gradient's old rows, where its gradient goes
    grad = np.zeros((len(ctx.class_order), p.shape[1]), dtype=q_old.dtype)
    q_hat = np.divide(q_old, q_old.sum(axis=0), out=grad[:n_old])
    log_q, active = _clamped_log(q_hat)
    _distillation_grad(q_hat, p, active)
    terms = (p * log_q).sum(axis=0)
    value = _mean(np.negative(terms, out=terms))
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
    # q_hat is built in the gradient's first n_old rows: its gradient is
    # written over it, and rows 1..n_old-1 are the old foreground's
    grad = np.empty_like(q)
    q_hat = grad[: ctx.n_old]
    q[new].sum(axis=0, out=q_hat[0])
    q_hat[1:] = q[old_fg]
    log_q, active = _clamped_log(q_hat)
    # the background term plus the foreground terms' sum, in numpy's order;
    # the products are written into log_q
    terms = log_q[0] * p[0]
    log_q[1:] *= p[1:]
    terms += log_q[1:].sum(axis=0)
    del log_q  # freed before the gradient is computed
    # the background entry spreads over the incoming channels by their share
    # of its mass (all zero where the mass is)
    mass = np.where(q_hat[0] > 0, q_hat[0], 1.0)
    _distillation_grad(q_hat, p, active)
    spread = q[new]
    spread *= q_hat[0] / mass
    grad[new] = spread
    return nm.scalar_node(-_mean(terms), (logits_new, _cols(grad, logits_new.shape)))


def lwf_mc_loss(
    logits_new: Tensor,
    mask: np.ndarray,
    sigmoid_old: np.ndarray,
    variant: str,
    ctx: LossContext,
    *,
    _chan=None,
) -> Tensor:
    """Per-class binary CE blend: ground-truth targets for incoming classes,
    old-model sigmoids for old ones, and both for the background, in the
    logits' dtype. ``variant`` must be ``"full"``, the one form of LwF-MC.
    """
    if variant != "full":
        raise ConfigError(f"unknown LwF-MC variant {variant!r}")
    chan = _channels(logits_new, mask, _chan, ctx.class_order, set(ctx.class_order), "lwf_mc_loss")
    _check_old_probs(logits_new, sigmoid_old, ctx.n_old)
    w_cls = float(ctx.method_weights.get("w_cls", 1.0))
    w_kd = float(ctx.method_weights.get("w_kd", 1.0))

    x = _rows(logits_new.data)
    e = np.exp(-np.abs(x))
    s = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    log_s, on_s = _clamped_log(s)
    log_1s, on_1s = _clamped_log(1.0 - s)
    new = ctx.new_channels
    is_class = (np.asarray(new)[:, None] == chan).astype(x.dtype)
    sig_old = _rows(sigmoid_old)
    term, g = np.zeros_like(x), np.zeros_like(x)
    # the classification rows, then the distillation rows: the background
    # (row 0, in both) takes the classification term first
    for rows, w, t in ((new, w_cls, is_class), (slice(0, ctx.n_old), w_kd, sig_old)):
        term[rows] += w * -(t * log_s[rows] + (1.0 - t) * log_1s[rows])
        # d/dx of the BCE is s - t, masked where either log is clamped
        g[rows] += w * ((1.0 - t) * on_1s[rows] * s[rows] - t * on_s[rows] * (1.0 - s[rows]))
    k = len(ctx.class_order)
    grad = g * (1.0 / (chan.size * k))
    return nm.scalar_node(_mean(term.sum(axis=0)) * (1.0 / k), (logits_new, _cols(grad, logits_new.shape)))


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
    kd_mode: str = "none"  # none | standard | unbiased | lwfmc (LwF-MC replaces ce/kd entirely)
    lambda_kd: float = 0.0  # the KD/UKD weight, and LwF-MC's distillation weight
    init_mode: str = "random"  # random | background
    feature_kd_weight: float = 0.0
    reg_kind: str = "none"  # none | ewc | pi | rw
    reg_weight: float = 0.0

    def __post_init__(self):
        if self.ce_mode not in ("standard", "unbiased"):
            raise ConfigError(f"unknown ce_mode {self.ce_mode!r}")
        if self.kd_mode not in ("none", "standard", "unbiased", "lwfmc"):
            raise ConfigError(f"unknown kd_mode {self.kd_mode!r}")
        if self.init_mode not in ("random", "background"):
            raise ConfigError(f"unknown init_mode {self.init_mode!r}")
        if self.reg_kind not in ("none", "ewc", "pi", "rw"):
            raise ConfigError(f"unknown reg_kind {self.reg_kind!r}")
        for key in ("lambda_kd", "feature_kd_weight", "reg_weight"):
            w = getattr(self, key)
            if not (np.isfinite(w) and w >= 0):
                raise ConfigError(f"train.method.{key} must be a finite non-negative number, got {w}")

    def with_weight(self, w: float) -> "MethodConfig":
        """Return a copy with the method's tunable weight set to ``w``.

        A method without distillation, LwF-MC or a regularizer (FT, Joint)
        has no such weight and raises ConfigError.
        """
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
    "LWFMC": dict(kd_mode="lwfmc", lambda_kd=10.0),
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


def teacher_targets(
    method: MethodConfig,
    teacher: SegModel,
    images,
    batch_size: int,
    old_outputs: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """What the method's losses read of the frozen ``teacher`` on ``images``,
    a sequence of n [H, W, ch] images (or an [n, H, W, ch] array).

    That is its probabilities (the sigmoid of its logits for LwF-MC, their
    softmax when distillation is on) as channel rows [K, n, H, W], and its
    features [n, H, W, D] when feature distillation is on; None for what no
    loss reads. The teacher runs under no_grad, ``batch_size`` images at a
    time, each chunk stacked into its dtype when it is reached (so that one
    chunk of the images and of its outputs is held at once), and only if a
    loss reads something. ``old_outputs`` are its (logits, features) on all
    of ``images`` if they are at hand; it does not run then.
    """
    lwfmc = method.kd_mode == "lwfmc"
    kd = lwfmc or (method.kd_mode != "none" and method.lambda_kd > 0)
    feature_kd = not lwfmc and method.feature_kd_weight > 0
    if not (kd or feature_kd):
        return None, None

    def targets(logits, features):
        p = None
        if kd:
            p = 1.0 / (1.0 + np.exp(-logits)) if lwfmc else _softmax(logits)
            p = _rows(p).reshape(p.shape[-1:] + p.shape[:-1])
        return p, features if feature_kd else None

    if old_outputs is not None:
        return targets(*old_outputs)
    shape = (len(images),) + images[0].shape[:2]
    probs = np.empty((len(teacher.known_classes),) + shape, teacher.dtype) if kd else None
    feats = np.empty(shape + (teacher.config.features,), teacher.dtype) if feature_kd else None
    for start in range(0, len(images), batch_size):
        chunk = slice(start, start + batch_size)
        with nm.no_grad():
            p, f = targets(*(t.data for t in teacher.forward_batch(np.stack(images[chunk], dtype=teacher.dtype))))
        if kd:
            probs[:, chunk] = p
        if feature_kd:
            feats[chunk] = f
    return probs, feats


def step_labels(
    method: MethodConfig, model: SegModel, model_prev: SegModel | None, masks: np.ndarray
) -> tuple[np.ndarray, LossContext | None]:
    """What the losses of ``composite_objective`` read of a step's label
    ``masks`` [n, H, W], and the step's LossContext (None at a first step).

    The labels are mapped to the model's channels once, as the one loss that
    reads them would map each batch's (``_label_channels``, uint8 for up to
    256 channels): LwF-MC's and the cross-entropy's allow every class of the
    model, the unbiased cross-entropy's only the background and the incoming
    classes. A label a loss rejects raises its LabelDomainError, with its
    message.
    """
    ctx = None
    if model_prev is not None:
        ctx = LossContext.for_step(
            model_prev.known_classes, model.known_classes, method_weights={"w_cls": W_CLS, "w_kd": method.lambda_kd}
        )
    allowed, what = set(model.known_classes), "cross_entropy"
    if ctx is not None and method.kd_mode == "lwfmc":
        what = "lwf_mc_loss"
    elif ctx is not None and method.ce_mode == "unbiased":
        allowed, what = _incoming(ctx), "unbiased_cross_entropy"
    return _label_channels(masks, model.known_classes, allowed, what), ctx


def composite_objective(
    method: MethodConfig,
    batch: tuple[np.ndarray, np.ndarray | None],
    model: SegModel,
    model_prev: SegModel | None,
    reg_penalty: Tensor | None = None,
    old_outputs: tuple[np.ndarray, np.ndarray] | None = None,
    *,
    _teacher: tuple[np.ndarray | None, np.ndarray | None] | None = None,
    _labels: tuple[np.ndarray, LossContext | None] | None = None,
) -> Tensor:
    """Assemble the step objective for one batch.

    The first learning step is ordinary supervised training for every method,
    so without a previous model this is plain cross-entropy. Later steps need
    the frozen previous model whenever a distillation term is active.
    ``run_step`` hands over what it computes once per step: the private
    ``_teacher``, the batch's rows of the ``teacher_targets``, and
    ``_labels``, the batch's rows of the ``step_labels`` channels with the
    step's LossContext (the batch's masks are not read then, and may be
    None). Without them, both are computed for the batch: the teacher's
    targets from ``old_outputs`` (its precomputed logits and features) if
    given, else by running it. The terms (LwF-MC, or CE/UCE, lambda_kd *
    KD/UKD and feature_kd_weight * feature KD; then the regularizer's
    penalty) are summed, in that order, into one tape node over their
    inputs: the logits, the features (ILT) and the penalized parameters
    (``numerics.scalar_sum``, which takes over the terms' gradient arrays and
    adds them in place).
    """
    images, masks = batch
    logits, feats = model.forward_batch(images)
    if model_prev is None and model.step_index > 0 and method.kd_mode != "none":
        raise ConfigError(f"{method.name}: incremental step {model.step_index} needs the previous model")
    chan, ctx = step_labels(method, model, model_prev, masks) if _labels is None else _labels
    if model_prev is None:
        return cross_entropy(logits, None, model.known_classes, _chan=chan)

    if _teacher is None:
        _teacher = teacher_targets(method, model_prev, images, len(images), old_outputs)
    rows, old_feats = _teacher
    probs_old = None if rows is None else np.moveaxis(rows, 0, -1)  # a [b, H, W, K] view

    if method.kd_mode == "lwfmc":
        terms = [(lwf_mc_loss(logits, None, probs_old, "full", ctx, _chan=chan), 1.0)]
    else:
        q = _softmax(logits.data)  # one softmax of the student serves CE and KD
        if method.ce_mode == "unbiased":
            terms = [(unbiased_cross_entropy(logits, None, ctx, _q=q, _chan=chan), 1.0)]
        else:
            terms = [(cross_entropy(logits, None, model.known_classes, _q=q, _chan=chan), 1.0)]
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
    return nm.scalar_sum(*terms)
