import numpy as np
import pytest

from bgshift import evaluation as ev
from bgshift.exceptions import AlignmentError, LabelDomainError
from bgshift.scenario import build_schedule


def test_accumulate_counts_matching_pixels():
    cm = ev.ConfusionMatrix(4)
    pred = np.full((2, 5), 3)
    cm.accumulate(pred, pred.copy())
    assert cm.counts[3, 3] == 10
    assert cm.counts.sum() == 10


def test_accumulate_empty_masks_noop():
    cm = ev.ConfusionMatrix(3)
    cm.accumulate(np.zeros((0,), dtype=int), np.zeros((0,), dtype=int))
    assert cm.counts.sum() == 0


def test_accumulate_matches_bruteforce_pair_count():
    rng = np.random.default_rng(0)
    cm = ev.ConfusionMatrix(5)
    total = np.zeros((5, 5), dtype=np.int64)
    for _ in range(10):
        pred = rng.integers(0, 5, size=(6, 7))
        gt = rng.integers(0, 5, size=(6, 7))
        cm.accumulate(pred, gt)
        for idx in np.ndindex(pred.shape):
            total[gt[idx], pred[idx]] += 1
    assert np.array_equal(cm.counts, total)


def test_accumulate_rejects_out_of_range_labels():
    cm = ev.ConfusionMatrix(3)
    with pytest.raises(LabelDomainError):
        cm.accumulate(np.array([3]), np.array([0]))
    with pytest.raises(LabelDomainError):
        cm.accumulate(np.array([0]), np.array([-1]))


def test_accumulate_rejects_size_mismatch():
    with pytest.raises(AlignmentError):
        ev.ConfusionMatrix(3).accumulate(np.zeros(3, int), np.zeros(4, int))


def test_iou_perfect_diagonal():
    cm = ev.ConfusionMatrix(3)
    cm.counts[:] = np.diag([4, 5, 6])
    res = ev.iou_per_class(cm)
    assert np.allclose(res.values, 1.0)
    assert res.present.all()


def test_iou_hand_formula():
    cm = ev.ConfusionMatrix(3)
    cm.counts[1, 1] = 5
    cm.counts[1, 2] = 5
    res = ev.iou_per_class(cm)
    assert res.values[1] == 0.5  # 5 / (10 + 5 - 5)
    assert res.present[1] and res.present[2] and not res.present[0]


def test_iou_absent_class_excluded():
    cm = ev.ConfusionMatrix(3)
    cm.counts[0, 0] = 7
    res = ev.iou_per_class(cm)
    assert not res.present[1] and not res.present[2]
    schedule = build_schedule(2, [1, 1])
    report = ev.miou_groups(res, schedule, 1)
    assert report.group_miou == [1.0, None]
    assert report.all_miou == 1.0


def test_miou_single_group_equals_all():
    cm = ev.ConfusionMatrix(3)
    cm.counts[:] = np.diag([1, 1, 1])
    cm.counts[1, 2] = 1
    res = ev.iou_per_class(cm)
    report = ev.miou_groups(res, build_schedule(2, [2]), 0)
    assert abs(report.group_miou[0] - report.all_miou) < 1e-15


def test_miou_equal_groups():
    schedule = build_schedule(20, [19, 1])
    values = np.full(21, 0.5)
    res = ev.IoUResult(values, np.ones(21, dtype=bool))
    report = ev.miou_groups(res, schedule, 1)
    assert report.group_miou == [0.5, 0.5]
    assert report.all_miou == 0.5


def test_miou_cross_checked_hand_average():
    schedule = build_schedule(20, [19, 1])
    rng = np.random.default_rng(1)
    values = rng.random(21)
    res = ev.IoUResult(values, np.ones(21, dtype=bool))
    report = ev.miou_groups(res, schedule, 1)
    assert abs(report.group_miou[0] - values[:20].mean()) < 1e-12  # bg + classes 1..19
    assert abs(report.group_miou[1] - values[20]) < 1e-12
    assert abs(report.all_miou - values.mean()) < 1e-12
    assert abs(report.fg_miou - values[1:].mean()) < 1e-12
    assert min(report.group_miou) - 1e-12 <= report.all_miou <= max(report.group_miou) + 1e-12


def test_miou_bounds_and_group_sandwich():
    rng = np.random.default_rng(2)
    schedule = build_schedule(5, [3, 2])
    for _ in range(20):
        values = rng.random(6)
        res = ev.IoUResult(values, np.ones(6, dtype=bool))
        report = ev.miou_groups(res, schedule, 1)
        groups = [g for g in report.group_miou if g is not None]
        assert min(groups) - 1e-12 <= report.all_miou <= max(groups) + 1e-12
        assert all(0.0 <= v <= 1.0 for v in values)
