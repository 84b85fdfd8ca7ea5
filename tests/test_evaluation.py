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


def test_accumulate_counts_byte_masks_as_wide_ones():
    # a uint8 gt * k would wrap around at 256
    rng = np.random.default_rng(1)
    pred, gt = rng.integers(0, 200, size=(2, 50, 50))
    wide = ev.ConfusionMatrix(200).accumulate(pred, gt)
    byte = ev.ConfusionMatrix(200).accumulate(pred.astype(np.uint8), gt.astype(np.uint8))
    assert np.array_equal(byte.counts, wide.counts)


def test_accumulate_rejects_out_of_range_labels():
    cm = ev.ConfusionMatrix(3)
    with pytest.raises(LabelDomainError):
        cm.accumulate(np.array([3]), np.array([0]))
    with pytest.raises(LabelDomainError):
        cm.accumulate(np.array([0]), np.array([-1]))


def test_accumulate_rejects_size_mismatch():
    with pytest.raises(AlignmentError):
        ev.ConfusionMatrix(3).accumulate(np.zeros(3, int), np.zeros(4, int))


def counts_of(matrix) -> ev.ConfusionMatrix:
    cm = ev.ConfusionMatrix(len(matrix))
    cm.counts[:] = matrix
    return cm


def iou_oracle(counts, schedule, step_t):
    """(per-class IoU by class id, None if absent; group means; all mean; fg
    mean), recomputed from ``counts`` with Python loops."""
    order = schedule.label_space(step_t)
    k = len(order)
    iou = {}
    for i, c in enumerate(order):
        tp = int(counts[i][i])
        fp = sum(int(counts[j][i]) for j in range(k)) - tp
        fn = sum(int(counts[i][j]) for j in range(k)) - tp
        iou[c] = tp / (tp + fp + fn) if tp + fp + fn else None

    def mean(classes):
        vals = [iou[c] for c in classes if iou[c] is not None]
        return sum(vals) / len(vals) if vals else None

    groups = [mean(([0] if g == 0 else []) + list(schedule.new_fg(g))) for g in range(step_t + 1)]
    return iou, groups, mean(order) or 0.0, mean(order[1:]) or 0.0


def test_iou_perfect_diagonal():
    report = ev.miou_groups(counts_of(np.diag([4, 5, 6])), build_schedule(2, [1, 1]), 1)
    assert report.per_class == {0: 1.0, 1: 1.0, 2: 1.0}
    assert report.group_miou == [1.0, 1.0]


def test_iou_hand_formula():
    cm = ev.ConfusionMatrix(3)
    cm.counts[1, 1] = 5
    cm.counts[1, 2] = 5
    report = ev.miou_groups(cm, build_schedule(2, [1, 1]), 1)
    # class 1: 5 / (10 + 5 - 5); class 2 is only predicted; background is absent
    assert report.per_class == {0: None, 1: 0.5, 2: 0.0}


def test_iou_absent_class_excluded():
    cm = ev.ConfusionMatrix(3)
    cm.counts[0, 0] = 7
    report = ev.miou_groups(cm, build_schedule(2, [1, 1]), 1)
    assert report.per_class == {0: 1.0, 1: None, 2: None}
    assert report.group_miou == [1.0, None]
    assert report.all_miou == 1.0
    assert report.fg_miou == 0.0


def test_miou_single_group_equals_all():
    counts = np.diag([1, 1, 1])
    counts[1, 2] = 1
    report = ev.miou_groups(counts_of(counts), build_schedule(2, [2]), 0)
    assert abs(report.group_miou[0] - report.all_miou) < 1e-15


def test_miou_equal_groups():
    # each class: 2 right, 1 predicted as the next class, 1 taken from the previous
    counts = 2 * np.eye(21, dtype=np.int64) + np.roll(np.eye(21, dtype=np.int64), 1, axis=1)
    report = ev.miou_groups(counts_of(counts), build_schedule(20, [19, 1]), 1)
    assert set(report.per_class.values()) == {0.5}
    assert report.group_miou == [0.5, 0.5]
    assert report.all_miou == 0.5


def test_miou_cross_checked_hand_average():
    rng = np.random.default_rng(1)
    for sizes in ([19, 1], [3, 2], [2, 1, 1], [1]) * 20:
        schedule = build_schedule(sum(sizes), sizes)
        step_t = len(sizes) - 1
        k = sum(sizes) + 1
        counts = rng.integers(0, 50, size=(k, k)) * (rng.random((k, k)) < 0.4)
        absent = rng.random(k) < 0.3  # neither labelled nor predicted
        counts[absent, :] = 0
        counts[:, absent] = 0
        report = ev.miou_groups(counts_of(counts), schedule, step_t)
        iou, groups, all_miou, fg_miou = iou_oracle(counts, schedule, step_t)
        assert report.per_class == iou  # one division per class: exact
        for got, want in zip(report.group_miou, groups, strict=True):
            assert (got is None) == (want is None) and (want is None or abs(got - want) < 1e-12)
        assert abs(report.all_miou - all_miou) < 1e-12
        assert abs(report.fg_miou - fg_miou) < 1e-12


def test_miou_bounds_and_group_sandwich():
    rng = np.random.default_rng(2)
    schedule = build_schedule(5, [3, 2])
    for _ in range(20):
        report = ev.miou_groups(counts_of(rng.integers(0, 20, size=(6, 6))), schedule, 1)
        groups = [g for g in report.group_miou if g is not None]
        assert min(groups) - 1e-12 <= report.all_miou <= max(groups) + 1e-12
        assert all(0.0 <= v <= 1.0 for v in report.per_class.values() if v is not None)
