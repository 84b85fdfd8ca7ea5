"""Segmentation predictor: small pixel-feature backbone plus per-class linear heads.

Heads are stored packed as a [D, K] weight matrix and a [K] bias vector whose
column order follows ``known_classes`` (background first, then classes in the
order they were added). ``extend_classifier`` grows the head for a new step,
either copying the background classifier with a shifted bias (so the old
background probability is spread uniformly over the incoming classes) or with
plain random initialization.

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


@dataclass
class BackboneConfig:
    in_channels: int = 3
    hidden: int = 16
    features: int = 16


class Backbone:
    """conv3x3 -> tanh -> dense(1x1) -> tanh, producing per-pixel features."""

    def __init__(self, config: BackboneConfig, w1, b1, w2, b2):
        self.config = config
        self.w1 = w1
        self.b1 = b1
        self.w2 = w2
        self.b2 = b2

    @classmethod
    def create(cls, config: BackboneConfig, rng: np.random.Generator) -> "Backbone":
        cin, ch, d = config.in_channels, config.hidden, config.features
        s1 = math.sqrt(1.0 / (9 * cin))
        s2 = math.sqrt(1.0 / ch)
        return cls(
            config,
            Tensor(rng.normal(0.0, s1, size=(3, 3, cin, ch)), requires_grad=True),
            Tensor(np.zeros(ch), requires_grad=True),
            Tensor(rng.normal(0.0, s2, size=(ch, d)), requires_grad=True),
            Tensor(np.zeros(d), requires_grad=True),
        )

    def forward(self, images: np.ndarray) -> Tensor:
        """[B,H,W,ch] images -> [B,H,W,D] features, one tape node."""
        return nm.conv_dense(images, self.w1, self.b1, self.w2, self.b2)

    def parameters(self) -> dict[str, Tensor]:
        return {"backbone.w1": self.w1, "backbone.b1": self.b1, "backbone.w2": self.w2, "backbone.b2": self.b2}

    def clone(self) -> "Backbone":
        return Backbone(
            self.config,
            *(Tensor(t.data.copy(), requires_grad=t.requires_grad) for t in (self.w1, self.b1, self.w2, self.b2)),
        )


class SegModel:
    """Backbone plus per-class heads, versioned by learning step."""

    def __init__(
        self,
        backbone: Backbone,
        head_w: Tensor,
        head_b: Tensor,
        known_classes: list[int],
        step_index: int = 0,
        background_id: int = 0,
    ):
        if known_classes[0] != background_id:
            raise ScheduleError("background class must come first in known_classes")
        if len(set(known_classes)) != len(known_classes):
            raise ScheduleError("duplicate class id in known_classes")
        if head_w.data.shape[1] != len(known_classes) or head_b.data.shape[0] != len(known_classes):
            raise ShapeError("head shape does not match class count")
        self.backbone = backbone
        self.head_w = head_w
        self.head_b = head_b
        self.known_classes = list(known_classes)
        self.step_index = step_index
        self.background_id = background_id

    @classmethod
    def create(
        cls,
        backbone_config: BackboneConfig,
        fg_classes: list[int],
        rng: np.random.Generator,
        background_id: int = 0,
        head_std: float = 0.01,
    ) -> "SegModel":
        backbone = Backbone.create(backbone_config, rng)
        known = [background_id] + list(fg_classes)
        k = len(known)
        d = backbone_config.features
        head_w = Tensor(rng.normal(0.0, head_std, size=(d, k)), requires_grad=True)
        head_b = Tensor(np.zeros(k), requires_grad=True)
        return cls(backbone, head_w, head_b, known, step_index=0, background_id=background_id)

    # -- forward paths ---------------------------------------------------

    def forward_batch(self, images: np.ndarray) -> tuple[Tensor, Tensor]:
        """[B,H,W,ch] -> (logits [B,H,W,K], features [B,H,W,D])."""
        if images.ndim != 4 or images.shape[-1] != self.backbone.config.in_channels:
            raise ShapeError(
                f"expected [B,H,W,{self.backbone.config.in_channels}] input, got {images.shape}"
            )
        feats = self.backbone.forward(images)
        logits = nm.affine_last(feats, self.head_w, self.head_b)
        return logits, feats

    # -- growth and plumbing ----------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        params = self.backbone.parameters()
        params["head.w"] = self.head_w
        params["head.b"] = self.head_b
        return params

    def zero_grad(self):
        for t in self.parameters().values():
            t.zero_grad()

    def clone(self) -> "SegModel":
        return SegModel(
            self.backbone.clone(),
            Tensor(self.head_w.data.copy(), requires_grad=self.head_w.requires_grad),
            Tensor(self.head_b.data.copy(), requires_grad=self.head_b.requires_grad),
            list(self.known_classes),
            self.step_index,
            self.background_id,
        )

    def frozen_copy(self) -> "SegModel":
        frozen = self.clone()
        for t in frozen.parameters().values():
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

    d = model.head_w.data.shape[0]
    bg_w = model.head_w.data[:, 0]
    bg_b = float(model.head_b.data[0])
    if init == "background":
        m = len(new_classes) + 1  # incoming set includes the background
        shift = math.log(m)
        new_w = np.tile(bg_w[:, None], (1, len(new_classes)))
        new_b = np.full(len(new_classes), bg_b - shift)
        head_w = np.concatenate([model.head_w.data, new_w], axis=1)
        head_b = np.concatenate([model.head_b.data, new_b])
        head_b[0] = bg_b - shift
    elif init == "random":
        if rng is None:
            raise ScheduleError("random head init needs an rng")
        new_w = rng.normal(0.0, head_std, size=(d, len(new_classes)))
        head_w = np.concatenate([model.head_w.data, new_w], axis=1)
        head_b = np.concatenate([model.head_b.data, np.zeros(len(new_classes))])
    else:
        raise ScheduleError(f"unknown head init {init!r}")

    grown.head_w = Tensor(head_w, requires_grad=True)
    grown.head_b = Tensor(head_b, requires_grad=True)
    grown.known_classes = list(model.known_classes) + new_classes
    return grown


def save_checkpoint(model: SegModel, path) -> None:
    meta = {
        "format": CHECKPOINT_FORMAT,
        "step_index": model.step_index,
        "known_classes": model.known_classes,
        "background_id": model.background_id,
        "backbone": asdict(model.backbone.config),
    }
    arrays = {name.replace(".", "__"): t.data for name, t in model.parameters().items()}
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
            backbone = Backbone(
                cfg,
                Tensor(z["backbone__w1"].copy(), requires_grad=True),
                Tensor(z["backbone__b1"].copy(), requires_grad=True),
                Tensor(z["backbone__w2"].copy(), requires_grad=True),
                Tensor(z["backbone__b2"].copy(), requires_grad=True),
            )
            return SegModel(
                backbone,
                Tensor(z["head__w"].copy(), requires_grad=True),
                Tensor(z["head__b"].copy(), requires_grad=True),
                [int(c) for c in meta["known_classes"]],
                int(meta["step_index"]),
                int(meta["background_id"]),
            )
    except BgshiftError:
        raise
    except (EOFError, KeyError, TypeError, ValueError) as e:
        raise ShapeError(f"{path}: not a valid checkpoint ({type(e).__name__}: {e})") from e
