"""Segmentation predictor: small pixel-feature backbone plus per-class linear heads.

The model's state is one dict of named parameters (``PARAM_NAMES``): the
backbone's ``backbone.w1``/``b1`` (conv3x3) and ``backbone.w2``/``b2``
(dense 1x1), and the packed heads ``head.w`` [D, K] and ``head.b`` [K]. The
head columns follow ``known_classes`` (background first, then classes in the
order they were added). Every consumer (SGD velocity, importance, the
checkpoint's npz members) keys on these names. ``extend_classifier`` grows
the head for a new step, either copying the background classifier with a
shifted bias (so the old background probability is spread uniformly over the
incoming classes) or with plain random initialization.

A forward pass records two tape nodes, the backbone (``numerics.conv_dense``,
tanh activations) and the head (``numerics.affine_last``); the tape keeps only
what their hand-written backward passes read. A checkpoint is one npz file:
the parameter arrays plus a JSON meta entry (format ``CHECKPOINT_FORMAT``).
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import numerics as nm
from .exceptions import BgshiftError, ScheduleError, ShapeError
from .numerics import Tensor

CHECKPOINT_FORMAT = 2  # 2: the backbone meta has no activation
PARAM_NAMES = ("backbone.w1", "backbone.b1", "backbone.w2", "backbone.b2", "head.w", "head.b")


@dataclass
class BackboneConfig:
    in_channels: int = 3
    hidden: int = 16
    features: int = 16


class SegModel:
    """conv3x3 -> tanh -> dense(1x1) -> tanh per-pixel features, then per-class
    heads; versioned by learning step."""

    def __init__(
        self,
        config: BackboneConfig,
        params: dict[str, Tensor],
        known_classes: list[int],
        step_index: int = 0,
        background_id: int = 0,
    ):
        if known_classes[0] != background_id:
            raise ScheduleError("background class must come first in known_classes")
        if len(set(known_classes)) != len(known_classes):
            raise ScheduleError("duplicate class id in known_classes")
        k = len(known_classes)
        if params["head.w"].data.shape[1] != k or params["head.b"].data.shape[0] != k:
            raise ShapeError("head shape does not match class count")
        self.config = config
        self.params = params
        self.known_classes = list(known_classes)
        self.step_index = step_index
        self.background_id = background_id

    @classmethod
    def create(
        cls,
        config: BackboneConfig,
        fg_classes: list[int],
        rng: np.random.Generator,
        background_id: int = 0,
        head_std: float = 0.01,
    ) -> "SegModel":
        cin, ch, d = config.in_channels, config.hidden, config.features
        known = [background_id] + list(fg_classes)
        # the draw order w1, w2, head.w fixes a seed's initial weights
        w1 = rng.normal(0.0, math.sqrt(1.0 / (9 * cin)), size=(3, 3, cin, ch))
        w2 = rng.normal(0.0, math.sqrt(1.0 / ch), size=(ch, d))
        head_w = rng.normal(0.0, head_std, size=(d, len(known)))
        arrays = (w1, np.zeros(ch), w2, np.zeros(d), head_w, np.zeros(len(known)))
        params = {name: Tensor(a, requires_grad=True) for name, a in zip(PARAM_NAMES, arrays)}
        return cls(config, params, known, step_index=0, background_id=background_id)

    def forward_batch(self, images: np.ndarray) -> tuple[Tensor, Tensor]:
        """[B,H,W,ch] -> (logits [B,H,W,K], features [B,H,W,D])."""
        if images.ndim != 4 or images.shape[-1] != self.config.in_channels:
            raise ShapeError(f"expected [B,H,W,{self.config.in_channels}] input, got {images.shape}")
        p = self.params
        feats = nm.conv_dense(images, p["backbone.w1"], p["backbone.b1"], p["backbone.w2"], p["backbone.b2"])
        return nm.affine_last(feats, p["head.w"], p["head.b"]), feats

    def parameters(self) -> dict[str, Tensor]:
        return self.params

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def clone(self) -> "SegModel":
        params = {name: Tensor(t.data.copy(), requires_grad=t.requires_grad) for name, t in self.params.items()}
        return SegModel(self.config, params, self.known_classes, self.step_index, self.background_id)

    def frozen_copy(self) -> "SegModel":
        frozen = self.clone()
        for t in frozen.params.values():
            t.requires_grad = False
        return frozen


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
    head_std: float = 0.1,
) -> SegModel:
    """Grow the head for step t.

    With ``init="background"`` every incoming class head copies the background
    weights and all members of the incoming set (background included) get the
    background bias minus log of the set size, so pre-training probabilities
    split the old background mass evenly across the newcomers and leave old
    classes untouched. ``init="random"`` draws fresh small heads instead and
    leaves the background head alone.
    """
    new_classes = list(new_classes)
    if len(set(new_classes)) != len(new_classes):
        raise ScheduleError("duplicate class id in new_classes")
    overlap = set(new_classes) & set(model.known_classes)
    if overlap:
        raise ScheduleError(f"classes {sorted(overlap)} already present at step {model.step_index}")

    grown = model.clone()
    grown.step_index = model.step_index + 1
    if not new_classes:
        return grown

    old_w, old_b = model.params["head.w"].data, model.params["head.b"].data
    d = old_w.shape[0]
    bg_w = old_w[:, 0]
    bg_b = float(old_b[0])
    if init == "background":
        m = len(new_classes) + 1  # incoming set includes the background
        shift = math.log(m)
        new_w = np.tile(bg_w[:, None], (1, len(new_classes)))
        new_b = np.full(len(new_classes), bg_b - shift)
        head_w = np.concatenate([old_w, new_w], axis=1)
        head_b = np.concatenate([old_b, new_b])
        head_b[0] = bg_b - shift
    elif init == "random":
        if rng is None:
            raise ScheduleError("random head init needs an rng")
        new_w = rng.normal(0.0, head_std, size=(d, len(new_classes)))
        head_w = np.concatenate([old_w, new_w], axis=1)
        head_b = np.concatenate([old_b, np.zeros(len(new_classes))])
    else:
        raise ScheduleError(f"unknown head init {init!r}")

    grown.params["head.w"] = Tensor(head_w, requires_grad=True)
    grown.params["head.b"] = Tensor(head_b, requires_grad=True)
    grown.known_classes = list(model.known_classes) + new_classes
    return grown


def save_checkpoint(model: SegModel, path) -> None:
    meta = {
        "format": CHECKPOINT_FORMAT,
        "step_index": model.step_index,
        "known_classes": model.known_classes,
        "background_id": model.background_id,
        "backbone": asdict(model.config),
    }
    arrays = {name.replace(".", "__"): t.data for name, t in model.params.items()}
    np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path) -> SegModel:
    """Read a ``save_checkpoint`` file. A file that is not one, or is of
    another format, raises ShapeError naming ``path``."""
    try:
        with np.load(path) as z:
            meta = json.loads(bytes(z["meta"]).decode())
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ShapeError(f"{path}: unsupported checkpoint format {meta.get('format')!r}")
            cfg = BackboneConfig(**meta["backbone"])
            params = {
                name: Tensor(z[name.replace(".", "__")].copy(), requires_grad=True) for name in PARAM_NAMES
            }
            return SegModel(
                cfg,
                params,
                [int(c) for c in meta["known_classes"]],
                int(meta["step_index"]),
                int(meta["background_id"]),
            )
    except BgshiftError:
        raise
    except (EOFError, KeyError, TypeError, ValueError) as e:
        raise ShapeError(f"{path}: not a valid checkpoint ({type(e).__name__}: {e})") from e
