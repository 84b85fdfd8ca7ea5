from dataclasses import replace

import numpy as np
import pytest

from bgshift import protocol as pr
from bgshift import trainer as tr
from bgshift.exceptions import ConfigError, DivergenceError
from bgshift.losses import method_preset
from bgshift.model import BackboneConfig
from bgshift.scenario import Sample, StepDataset, SyntheticConfig, build_schedule, generate_synthetic, split_corpus
from bgshift.trainer import TrainConfig, run_step


def test_grid_is_the_fixed_14_value_ladder():
    grid = pr.hparam_grid()
    assert len(grid) == 14
    assert grid[0] == 0.001
    assert grid[-1] == 5000.0
    assert grid == sorted(grid)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    for w in grid:
        mantissa = w / 10 ** np.floor(np.log10(w))
        assert round(mantissa) in (1, 5)


def make_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    items = []
    for i in range(n):
        mask = np.zeros((6, 6), dtype=int)
        mask[0, 0] = 1
        items.append(Sample(f"s{i:03d}", rng.random((6, 6, 3)), mask))
    return StepDataset(items, 0, [1])


def test_split_10_gives_8_2():
    train, val = pr.split_train_val(make_dataset(10))
    assert (len(train), len(val)) == (8, 2)


def test_split_5_gives_4_1_floor_on_val():
    train, val = pr.split_train_val(make_dataset(5))
    assert (len(train), len(val)) == (4, 1)


def test_split_deterministic_by_seed():
    a_train, a_val = pr.split_train_val(make_dataset(12), seed=3)
    b_train, b_val = pr.split_train_val(make_dataset(12), seed=3)
    assert [i.id for i in a_val.items] == [i.id for i in b_val.items]
    assert [i.id for i in a_train.items] == [i.id for i in b_train.items]
    assert set(i.id for i in a_train.items) | set(i.id for i in a_val.items) == {
        f"s{i:03d}" for i in range(12)
    }


def test_split_single_sample_rejected():
    with pytest.raises(ConfigError):
        pr.split_train_val(make_dataset(1))


# -- weight scan on a stub objective ------------------------------------------


def stub_metric(w):
    return max(0.0, 1.0 - w / 100.0)


def test_scan_stub_selects_exactly_10():
    result = pr.scan_weight_grid(stub_metric, reference=1.0)
    assert result.weight == 10.0
    assert result.satisfied


def test_scan_full_decay_selects_largest(monkeypatch):
    monkeypatch.setattr(pr, "TOLERATED_DECAY", 1.0)
    result = pr.scan_weight_grid(stub_metric, reference=1.0)
    assert result.weight == 5000.0


def test_scan_noop_weight_selects_largest():
    # fine-tuning ignores its weight: the constraint always holds
    result = pr.scan_weight_grid(lambda w: 1.0, reference=1.0)
    assert result.weight == 5000.0
    assert result.satisfied


def test_scan_unsatisfiable_falls_back_with_flag():
    result = pr.scan_weight_grid(lambda w: 0.0, reference=1.0)
    assert result.weight == 0.001
    assert not result.satisfied


def test_scan_zero_reference_is_unsatisfied():
    # fine-tuning learned nothing: a zero threshold must not pass every weight
    result = pr.scan_weight_grid(lambda w: 0.0, reference=0.0)
    assert result.weight == 0.001
    assert not result.satisfied
    assert [w for w, _ in result.trace] == pr.hparam_grid()


def test_scan_never_selects_a_diverged_candidate(monkeypatch):
    # None marks a diverged training; with full decay every number qualifies
    monkeypatch.setattr(pr, "TOLERATED_DECAY", 1.0)
    result = pr.scan_weight_grid(lambda w: None if w > 10.0 else 0.5, reference=1.0)
    assert result.weight == 10.0
    assert result.trace[-1] == (5000.0, None)


def test_scan_returns_grid_member_and_trace():
    rng = np.random.default_rng(0)
    for _ in range(10):
        noise = rng.random()
        res = pr.scan_weight_grid(lambda w: noise * stub_metric(w), reference=noise)
        assert res.weight in pr.hparam_grid()
        assert [w for w, _ in res.trace] == pr.hparam_grid()


# -- end-to-end selection on a tiny task ---------------------------------------


def test_select_method_weight_runs_real_trainings(monkeypatch):
    monkeypatch.setattr(pr, "hparam_grid", lambda: [0.1, 10.0])
    cfg = SyntheticConfig(num_fg_classes=2, num_images=14, height=16, width=16, blobs_per_image=2)
    corpus = generate_synthetic(0, cfg)
    schedule = build_schedule(2, [1, 1])
    steps, _ = split_corpus(corpus, schedule, "overlapped")
    tconf = TrainConfig(
        epochs_per_step=2, batch_size=4, seed=0, backbone=BackboneConfig(hidden=4, features=4)
    )
    base = run_step(None, steps[0], tconf)
    train, val = pr.split_train_val(steps[1], seed=0)
    result = pr.select_method_weight(
        train,
        val,
        train_config=replace(tconf, method=method_preset("MiB")),
        model_prev=base.model,
        reg_state=None,
        schedule=schedule,
    )
    assert result.weight in (0.1, 10.0)
    assert len(result.trace) == 2
    # selection never touches data of earlier steps: only step-1 items are used
    used = {i.id for i in train.items} | {i.id for i in val.items}
    assert used <= {i.id for i in steps[1].items}


def test_a_diverging_candidate_scores_none_and_the_scan_goes_on(monkeypatch):
    cfg = SyntheticConfig(num_fg_classes=2, num_images=14, height=16, width=16, blobs_per_image=2)
    schedule = build_schedule(2, [1, 1])
    steps, _ = split_corpus(generate_synthetic(0, cfg), schedule, "overlapped")
    tconf = TrainConfig(epochs_per_step=1, batch_size=4, seed=0, backbone=BackboneConfig(hidden=4, features=4))
    base = run_step(None, steps[0], tconf)
    real_run_step = tr.run_step

    def diverges_at_10(model_prev, dataset, config, reg_state=None):
        if config.method.reg_weight == 10.0:
            raise DivergenceError("loss is inf")
        return real_run_step(model_prev, dataset, config, reg_state)

    monkeypatch.setattr(tr, "run_step", diverges_at_10)
    monkeypatch.setattr(pr, "hparam_grid", lambda: [0.1, 10.0])
    train, val = pr.split_train_val(steps[1], seed=0)
    result = pr.select_method_weight(
        train,
        val,
        train_config=replace(tconf, method=method_preset("EWC")),
        model_prev=base.model,
        reg_state=None,
        schedule=schedule,
    )
    assert [w for w, _ in result.trace] == [0.1, 10.0]
    assert result.trace[0][1] is not None and result.trace[1][1] is None
