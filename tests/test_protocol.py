from dataclasses import replace

import numpy as np
import pytest

from bgshift import protocol as pr
from bgshift import trainer as tr
from bgshift.exceptions import ConfigError, DivergenceError
from bgshift.losses import method_preset
from bgshift.scenario import Sample, StepDataset
from helpers import tiny_first_step


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
    first, schedule, tconf = tiny_first_step()
    used = set()  # sample ids that the selection trains or evaluates on
    real_run_step, real_evaluate = tr.run_step, tr.evaluate_model

    def recording_run_step(model_prev, dataset, config, reg_state=None):
        used.update(i.id for i in dataset.items)
        return real_run_step(model_prev, dataset, config, reg_state)

    def recording_evaluate(model, eval_corpus, schedule):
        used.update(s.id for s in eval_corpus)
        return real_evaluate(model, eval_corpus, schedule)

    monkeypatch.setattr(tr, "run_step", recording_run_step)
    monkeypatch.setattr(tr, "evaluate_model", recording_evaluate)
    result = pr.select_method_weight(first, replace(tconf, method=method_preset("MiB")), schedule)
    assert result.weight in (0.1, 10.0)
    assert len(result.trace) == 2
    # selection never touches data of earlier steps: only step-1 items are used
    assert used == {i.id for i in first.steps[1].items}


@pytest.mark.parametrize("method", ["EWC", "MiB"])
def test_a_selection_can_continue_the_step0_a_run_shares(monkeypatch, method):
    # a run trains its shared step 0 under its first method (FT here); the
    # selection from it equals the one from a step 0 trained under the method.
    # At these settings the reference and every candidate learn the new class.
    monkeypatch.setattr(pr, "hparam_grid", lambda: [0.1, 10.0])
    settings = {"num_images": 24, "hidden": 8, "epochs_per_step": 8, "lr_step0": 0.2, "lr_later": 0.1}
    shared, schedule, tconf = tiny_first_step("FT", **settings)
    own, _, _ = tiny_first_step(method, **settings)
    train_config = replace(tconf, method=method_preset(method))
    result = pr.select_method_weight(shared, train_config, schedule)
    assert result == pr.select_method_weight(own, train_config, schedule)
    assert [w for w, _ in result.trace] == [0.1, 10.0]
    assert result.reference > 0 and all(m > 0 for _, m in result.trace)


def test_a_diverging_candidate_scores_none_and_the_scan_goes_on(monkeypatch):
    first, schedule, tconf = tiny_first_step(epochs_per_step=1)
    real_run_step = tr.run_step

    def diverges_at_10(model_prev, dataset, config, reg_state=None):
        if config.method.reg_weight == 10.0:
            raise DivergenceError("loss is inf")
        return real_run_step(model_prev, dataset, config, reg_state)

    monkeypatch.setattr(tr, "run_step", diverges_at_10)
    monkeypatch.setattr(pr, "hparam_grid", lambda: [0.1, 10.0])
    result = pr.select_method_weight(first, replace(tconf, method=method_preset("EWC")), schedule)
    assert [w for w, _ in result.trace] == [0.1, 10.0]
    assert result.trace[0][1] is not None and result.trace[1][1] is None
