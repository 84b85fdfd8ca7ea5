"""Confusion-matrix accumulation and mIoU grouped by learning step.

One path scores a model: ``ConfusionMatrix.accumulate`` counts its
(ground truth, prediction) pixel pairs, and ``miou_groups`` computes each
class's IoU from those counts and averages them by step group.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AlignmentError, LabelDomainError
from .scenario import BACKGROUND, LabelSchedule


class ConfusionMatrix:
    """Integer [K, K] counts; rows are ground truth, columns predictions."""

    def __init__(self, num_classes: int):
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    @property
    def num_classes(self) -> int:
        return self.counts.shape[0]

    def accumulate(self, pred_mask: np.ndarray, gt_mask: np.ndarray) -> "ConfusionMatrix":
        pred = np.asarray(pred_mask).reshape(-1)
        gt = np.asarray(gt_mask).reshape(-1)
        if pred.shape != gt.shape:
            raise AlignmentError("prediction and ground truth differ in size")
        k = self.num_classes
        for name, arr in (("prediction", pred), ("ground truth", gt)):
            if arr.size and (arr.min() < 0 or arr.max() >= k):
                raise LabelDomainError(f"{name} labels fall outside [0, {k})")
        # in intp: gt * k of a uint8 mask would wrap around in uint8
        self.counts += np.bincount(gt.astype(np.intp) * k + pred, minlength=k * k).reshape(k, k)
        return self


@dataclass
class MiouReport:
    """Group means follow the schedule; background counts in group 0."""

    group_miou: list[float | None]  # None when no class of the group is present
    all_miou: float
    fg_miou: float
    per_class: dict[int, float | None]

    def as_dict(self) -> dict:
        return {
            "group_miou": self.group_miou,
            "all_miou": self.all_miou,
            "fg_miou": self.fg_miou,
            "per_class": {str(k): v for k, v in self.per_class.items()},
        }


def miou_groups(matrix: ConfusionMatrix, schedule: LabelSchedule, step_t: int) -> MiouReport:
    """Per-class IoU of ``matrix``'s counts, and its unweighted class means
    per step group and over all classes.

    Channel order is the model's label space at step_t: background first,
    then classes in schedule order. A class absent from both ground truth
    and prediction has no IoU and is excluded from means.
    """
    order = schedule.label_space(step_t)
    if len(order) != matrix.num_classes:
        raise AlignmentError(
            f"confusion matrix has {matrix.num_classes} classes but step {step_t} has {len(order)}"
        )
    counts = matrix.counts
    tp = np.diag(counts)
    denom = counts.sum(axis=0) + counts.sum(axis=1) - tp
    per_class = {c: (float(tp[i] / denom[i]) if denom[i] else None) for i, c in enumerate(order)}

    def mean(classes) -> float | None:
        vals = [per_class[c] for c in classes if per_class[c] is not None]
        return float(np.mean(vals)) if vals else None

    groups = [mean(([BACKGROUND] if g == 0 else []) + list(schedule.new_fg(g))) for g in range(step_t + 1)]
    return MiouReport(
        groups,
        mean(order) or 0.0,  # 0.0 when no class is present
        mean([c for c in order if c != BACKGROUND]) or 0.0,
        per_class,
    )
