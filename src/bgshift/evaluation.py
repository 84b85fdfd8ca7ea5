"""Confusion-matrix accumulation and mIoU grouped by learning step."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import AlignmentError, LabelDomainError
from .scenario import LabelSchedule


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
        self.counts += np.bincount(gt * k + pred, minlength=k * k).reshape(k, k)
        return self


@dataclass
class IoUResult:
    values: np.ndarray  # per-channel IoU, zero where absent
    present: np.ndarray  # bool per channel: class seen in gt or prediction


def iou_per_class(matrix: ConfusionMatrix) -> IoUResult:
    counts = matrix.counts
    tp = np.diag(counts).astype(np.float64)
    denom = counts.sum(axis=0) + counts.sum(axis=1) - np.diag(counts)
    present = denom > 0
    values = np.zeros(matrix.num_classes)
    values[present] = tp[present] / denom[present]
    return IoUResult(values, present)


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


def miou_groups(iou: IoUResult, schedule: LabelSchedule, step_t: int) -> MiouReport:
    """Unweighted class means per step group and over all classes.

    Channel order is the model's label space at step_t: background first,
    then classes in schedule order. Absent classes are excluded from means.
    """
    order = schedule.label_space(step_t)
    if len(order) != iou.values.shape[0]:
        raise AlignmentError(
            f"IoU vector has {iou.values.shape[0]} entries but step {step_t} has {len(order)} classes"
        )
    chan_of = {c: i for i, c in enumerate(order)}
    groups = []
    for g in range(step_t + 1):
        members = list(schedule.new_fg(g))
        if g == 0:
            members = [schedule.background_id] + members
        vals = [iou.values[chan_of[c]] for c in members if iou.present[chan_of[c]]]
        groups.append(float(np.mean(vals)) if vals else None)
    all_vals = iou.values[iou.present]
    fg_sel = iou.present.copy()
    fg_sel[chan_of[schedule.background_id]] = False
    fg_vals = iou.values[fg_sel]
    per_class = {
        c: (float(iou.values[i]) if iou.present[i] else None) for c, i in chan_of.items()
    }
    return MiouReport(
        groups,
        float(np.mean(all_vals)) if all_vals.size else 0.0,
        float(np.mean(fg_vals)) if fg_vals.size else 0.0,
        per_class,
    )

