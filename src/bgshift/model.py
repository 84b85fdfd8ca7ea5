"""Segmentation predictor: small pixel-feature backbone plus per-class linear heads.

The model's state is one dict of named parameters (``PARAM_NAMES``): the
backbone's ``backbone.w1``/``b1`` (conv3x3) and ``backbone.w2``/``b2``
(dense 1x1), and the packed heads ``head.w`` [D, K] and ``head.b`` [K]. The
head columns follow ``known_classes`` (background first, then classes in the
order they were added). The checkpoint's npz members key on these names.
Each parameter's data is a view of one flat vector (``SegModel.vector``,
the parameters back to back in ``PARAM_NAMES`` order, of the shapes
``param_shapes`` gives the backbone and the class count), which the
constructor, the one path that ``create``, ``clone``, ``extend_classifier``
and ``load_checkpoint`` take, checks them against and copies them into.
Every other per-parameter array is a vector of that layout: the gradients
(``SegModel.grad_vector``), the SGD velocity (``trainer.sgd_step``), the
path-integral start and omega, and the Fisher, path and merged importances
(``regularizers``, whose anchor is a frozen copy of a model);
``SegModel.views`` cuts such a vector into named views, and
``SegModel.name_at`` names the parameter at a place in it. A parameter's
data is changed in place only, never rebound. ``extend_classifier`` grows
the head for a new step, either copying the background classifier with a
shifted bias (so the old background probability is spread uniformly over
the incoming classes) or with plain random initialization.

A forward pass records two tape nodes, the backbone (``numerics.conv_dense``,
tanh activations) and the head (``numerics.affine_last``); the tape keeps only
what their hand-written backward passes read. A checkpoint is one npz file:
the parameter arrays plus a JSON meta entry (format ``CHECKPOINT_FORMAT``).

Every parameter has the dtype that ``BackboneConfig.dtype`` names
(``SegModel.dtype``): float32 by default, float64 for the oracle checks and
the pinned traces. ``forward_batch`` casts its images to it, so everything
computed from a forward pass (activations, logits, the losses' gradients and
whatever training accumulates from them) has it too. The initial draws are
float64, in a fixed order, and cast afterwards, so a seed gives the same
weights up to rounding in either dtype.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nm
from .exceptions import BgshiftError, ConfigError, ScheduleError, ShapeError
from .numerics import Tensor
from .scenario import BACKGROUND

CHECKPOINT_FORMAT = 3  # 3: the backbone meta has the dtype
HEAD_STD = 0.01  # of the step-0 head's initial weights
NEW_HEAD_STD = 0.1  # of an incoming class head under random init
PARAM_NAMES = ("backbone.w1", "backbone.b1", "backbone.w2", "backbone.b2", "head.w", "head.b")


@dataclass
class BackboneConfig:
    in_channels: int = 3
    hidden: int = 16
    features: int = 16
    dtype: str = "float32"  # of the parameters, and so of training: float32 | float64

    def __post_init__(self):
        # every image is RGB (scenario), and a layer of no channels trains nothing
        if self.in_channels != 3:
            raise ConfigError(f"train.backbone.in_channels must be 3 (RGB images), got {self.in_channels}")
        for key in ("hidden", "features"):
            if getattr(self, key) < 1:
                raise ConfigError(f"train.backbone.{key} must be at least 1, got {getattr(self, key)}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"train.backbone.dtype must be 'float32' or 'float64', got {self.dtype!r}")


class SegModel:
    """conv3x3 -> tanh -> dense(1x1) -> tanh per-pixel features, then per-class
    heads; versioned by learning step."""

    def __init__(
        self,
        config: BackboneConfig,
        params: dict[str, Tensor],
        known_classes: list[int],
        step_index: int = 0,
    ):
        if known_classes[0] != BACKGROUND:
            raise ScheduleError("background class must come first in known_classes")
        if len(set(known_classes)) != len(known_classes):
            raise ScheduleError("duplicate class id in known_classes")
        self.config = config
        self.shapes = param_shapes(config, len(known_classes))
        for name, shape in self.shapes.items():
            if params[name].data.shape != shape:
                raise ShapeError(f"{name} has shape {params[name].data.shape}, not the backbone and classes' {shape}")
        mixed = sorted(name for name, t in params.items() if t.data.dtype != config.dtype)
        if mixed:
            raise ShapeError(f"parameters {mixed} are not of the model's dtype {config.dtype}")
        # copied into one vector, of which each parameter is a view
        self.vector = np.concatenate([params[name].data.ravel() for name in PARAM_NAMES])
        self.params = {
            name: Tensor(view, requires_grad=params[name].requires_grad)
            for name, view in self.views(self.vector).items()
        }
        self.known_classes = list(known_classes)
        self.step_index = step_index

    @classmethod
    def create(cls, config: BackboneConfig, fg_classes: list[int], rng: np.random.Generator) -> "SegModel":
        known = [BACKGROUND] + list(fg_classes)
        # the weights' standard deviations; drawn in PARAM_NAMES order, which
        # fixes a seed's initial weights, while the biases start at zero
        cin, ch = config.in_channels, config.hidden
        std = {"backbone.w1": math.sqrt(1 / (9 * cin)), "backbone.w2": math.sqrt(1 / ch), "head.w": HEAD_STD}
        shapes = param_shapes(config, len(known))
        arrays = {n: rng.normal(0.0, std[n], s) if n in std else np.zeros(s) for n, s in shapes.items()}
        params = {name: Tensor(a.astype(config.dtype), requires_grad=True) for name, a in arrays.items()}
        return cls(config, params, known, step_index=0)

    @property
    def dtype(self) -> np.dtype:
        """The dtype of every parameter, and of what a forward pass computes."""
        return np.dtype(self.config.dtype)

    def forward_batch(self, images: np.ndarray) -> tuple[Tensor, Tensor]:
        """[B,H,W,ch] -> (logits [B,H,W,K], features [B,H,W,D]), in the
        model's dtype; ``images`` are cast to it (not copied if they have it)."""
        if images.ndim != 4 or images.shape[-1] != self.config.in_channels:
            raise ShapeError(f"expected [B,H,W,{self.config.in_channels}] input, got {images.shape}")
        images = images.astype(self.dtype, copy=False)
        p = self.params
        feats = nm.conv_dense(images, p["backbone.w1"], p["backbone.b1"], p["backbone.w2"], p["backbone.b2"])
        return nm.affine_last(feats, p["head.w"], p["head.b"]), feats

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def views(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """``vector``, laid out as ``self.vector``, cut into consecutive
        views of each parameter's shape, by name."""
        views, start = {}, 0
        for name, shape in self.shapes.items():
            end = start + math.prod(shape)
            views[name] = vector[start:end].reshape(shape)
            start = end
        return views

    def name_at(self, where: np.ndarray) -> str:
        """The parameter that holds the first true entry of ``where``, a
        boolean vector laid out as ``self.vector``."""
        return next(name for name, v in self.views(where).items() if v.any())

    def grad_vector(self) -> np.ndarray:
        """The parameters' gradients (each ``p.grad``), laid out as
        ``self.vector``. A parameter without a gradient, or with one of
        another shape, raises ConfigError naming it."""
        for name, p in self.params.items():
            if p.grad is None:
                raise ConfigError(f"no gradient for {name}")
            if p.grad.shape != p.data.shape:
                raise ConfigError(f"gradient shape mismatch for {name}")
        return np.concatenate([p.grad.ravel() for p in self.params.values()])

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def clone(self) -> "SegModel":
        return SegModel(self.config, self.params, self.known_classes, self.step_index)

    def frozen_copy(self) -> "SegModel":
        frozen = self.clone()
        for t in frozen.params.values():
            t.requires_grad = False
        return frozen


def param_shapes(config: BackboneConfig, num_classes: int) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter, in ``PARAM_NAMES`` order, of a model
    with ``config``'s backbone and ``num_classes`` head columns: the layout
    of ``SegModel.vector``."""
    cin, ch, d = config.in_channels, config.hidden, config.features
    shapes = ((3, 3, cin, ch), (ch,), (ch, d), (d,), (d, num_classes), (num_classes,))
    return dict(zip(PARAM_NAMES, shapes))


def argmax_mask(logits: np.ndarray, class_order: list[int]) -> np.ndarray:
    """Argmax over the class axis, breaking exact ties toward the lowest id."""
    order = np.argsort(np.asarray(class_order), kind="stable")
    picked = np.argmax(logits[..., order], axis=-1)
    return np.asarray(class_order)[order][picked]


def extend_classifier(
    model: SegModel,
    new_classes: list[int],
    init: str = "background",
    rng: np.random.Generator | None = None,
) -> SegModel:
    """Grow the head for step t.

    With ``init="background"`` every incoming class head copies the background
    weights and all members of the incoming set (background included) get the
    background bias minus log of the set size, so pre-training probabilities
    split the old background mass evenly across the newcomers and leave old
    classes untouched. ``init="random"`` draws fresh small heads instead and
    leaves the background head alone. The grown head keeps the model's dtype.
    """
    new_classes = list(new_classes)
    if len(set(new_classes)) != len(new_classes):
        raise ScheduleError("duplicate class id in new_classes")
    overlap = set(new_classes) & set(model.known_classes)
    if overlap:
        raise ScheduleError(f"classes {sorted(overlap)} already present at step {model.step_index}")

    old_w, old_b = model.params["head.w"].data, model.params["head.b"].data
    n = len(new_classes)
    if init == "background":
        b = float(old_b[0]) - math.log(n + 1)  # the incoming set includes the background
        new_w = np.tile(old_w[:, :1], (1, n))
        head_b = np.concatenate([[b], old_b[1:], np.full(n, b)])
    elif init == "random":
        if rng is None:
            raise ScheduleError("random head init needs an rng")
        new_w = rng.normal(0.0, NEW_HEAD_STD, size=(old_w.shape[0], n))
        head_b = np.concatenate([old_b, np.zeros(n)])
    else:
        raise ScheduleError(f"unknown head init {init!r}")
    params = dict(model.params)
    for name, head in (("head.w", np.concatenate([old_w, new_w], axis=1)), ("head.b", head_b)):
        params[name] = Tensor(head.astype(model.dtype, copy=False), requires_grad=True)
    return SegModel(model.config, params, list(model.known_classes) + new_classes, model.step_index + 1)


def save_checkpoint(model: SegModel, path) -> None:
    meta = {
        "format": CHECKPOINT_FORMAT,
        "step_index": model.step_index,
        "known_classes": model.known_classes,
        "background_id": BACKGROUND,
        "backbone": asdict(model.config),
    }
    arrays = {name.replace(".", "__"): t.data for name, t in model.params.items()}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> SegModel:
    """Read a ``save_checkpoint`` file. A file that is not one, is of
    another format, has another background label or does not describe a
    valid model raises ShapeError naming ``path``."""
    try:
        with np.load(path) as z:
            meta = json.loads(bytes(z["meta"]).decode())
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ShapeError(f"unsupported checkpoint format {meta.get('format')!r}")
            if meta["background_id"] != BACKGROUND:
                raise ShapeError(f"background_id {meta['background_id']!r} is not {BACKGROUND}")
            cfg = BackboneConfig(**meta["backbone"])
            params = {name: Tensor(z[name.replace(".", "__")], requires_grad=True) for name in PARAM_NAMES}
            return SegModel(cfg, params, [int(c) for c in meta["known_classes"]], int(meta["step_index"]))
    except (BgshiftError, EOFError, KeyError, TypeError, ValueError) as e:
        raise ShapeError(f"{path}: not a valid checkpoint ({type(e).__name__}: {e})") from e
