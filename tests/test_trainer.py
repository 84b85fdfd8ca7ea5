import numpy as np
import pytest

from bgshift import trainer as tr
from bgshift.exceptions import ConfigError, DivergenceError
from bgshift.losses import method_preset
from bgshift.model import BackboneConfig
from bgshift.numerics import Tensor
from bgshift.scenario import SyntheticConfig, build_schedule, generate_synthetic, split_overlapped


# -- poly lr -------------------------------------------------------------------


def test_poly_lr_endpoints():
    assert tr.poly_lr(0, 100, 0.01, 0.9) == 0.01
    assert tr.poly_lr(100, 100, 0.01, 0.9) == 0.0


def test_poly_lr_hand_value():
    got = tr.poly_lr(50, 100, 0.01, 0.9)
    assert abs(got - 0.005358867312681466) < 1e-15
    assert abs(got - 0.005359) < 1e-6


def test_poly_lr_rejects_zero_total():
    with pytest.raises(ConfigError):
        tr.poly_lr(0, 0, 0.01, 0.9)


# -- sgd -----------------------------------------------------------------------


def one_param(value):
    return {"p": Tensor(np.array([value]), requires_grad=True)}


def test_sgd_zero_grad_zero_velocity_is_noop():
    params = one_param(1.5)
    tr.sgd_step(params, {"p": np.zeros(1)}, 0.1, 0.0, 0.0, {})
    assert params["p"].data[0] == 1.5


def test_sgd_single_step_hand_value():
    params = one_param(1.0)
    tr.sgd_step(params, {"p": np.ones(1)}, 0.1, 0.0, 0.0, {})
    assert abs(params["p"].data[0] - 0.9) < 1e-15


def test_sgd_two_momentum_steps_hand_recursion():
    params = one_param(0.0)
    velocity = {}
    for _ in range(2):
        tr.sgd_step(params, {"p": np.ones(1)}, 0.1, 0.9, 0.0, velocity)
    assert abs(params["p"].data[0] - (-0.29)) < 1e-15


def test_sgd_rejects_nonfinite_gradient():
    with pytest.raises(DivergenceError):
        tr.sgd_step(one_param(0.0), {"p": np.array([np.nan])}, 0.1, 0.9, 0.0, {})


# -- run_step / run_incremental --------------------------------------------------


def small_config(method="FT", epochs=2, seed=0):
    return tr.TrainConfig(
        epochs_per_step=epochs,
        batch_size=4,
        seed=seed,
        method=method_preset(method),
        backbone=BackboneConfig(hidden=6, features=6),
    )


def small_world(seed=0, n=16, classes=3):
    cfg = SyntheticConfig(num_fg_classes=classes, num_images=n, height=16, width=16, blobs_per_image=2)
    corpus = generate_synthetic(seed, cfg)
    schedule = build_schedule(classes, [classes - 1, 1])
    steps, _ = split_overlapped(corpus, schedule)
    return corpus, schedule, steps


def params_equal(a, b):
    pa, pb = a.parameters(), b.parameters()
    return set(pa) == set(pb) and all(np.array_equal(pa[k].data, pb[k].data) for k in pa)


def test_step0_identical_across_methods():
    _, _, steps = small_world()
    results = {
        name: tr.run_step(None, steps[0], small_config(name))
        for name in ("FT", "MiB", "LwF", "EWC", "LwFMC")
    }
    base = results["FT"].model
    for name, res in results.items():
        assert params_equal(base, res.model), name
        assert res.loss_trace == results["FT"].loss_trace, name


def test_run_step_bit_reproducible():
    _, _, steps = small_world()
    a = tr.run_step(None, steps[0], small_config("FT"))
    b = tr.run_step(None, steps[0], small_config("FT"))
    assert params_equal(a.model, b.model)
    assert a.loss_trace == b.loss_trace


def test_frozen_teacher_unchanged_by_incremental_step():
    _, _, steps = small_world()
    base = tr.run_step(None, steps[0], small_config("MiB"))
    before = {k: t.data.copy() for k, t in base.model.parameters().items()}
    tr.run_step(base.model, steps[1], small_config("MiB"))
    after = base.model.parameters()
    for k in before:
        assert np.array_equal(before[k], after[k].data)


def test_mib_with_lambda_zero_and_random_init_tracks_uce_ft():
    # same trajectory as fine-tuning with the unbiased CE swapped in
    _, _, steps = small_world()
    base = tr.run_step(None, steps[0], small_config("FT"))

    mib = method_preset("MiB")
    mib.lambda_kd = 0.0
    mib.init_mode = "random"
    cfg_a = small_config()
    cfg_a.method = mib
    a = tr.run_step(base.model, steps[1], cfg_a)

    ft_uce = method_preset("FT")
    ft_uce.ce_mode = "unbiased"
    cfg_b = small_config()
    cfg_b.method = ft_uce
    b = tr.run_step(base.model, steps[1], cfg_b)

    assert params_equal(a.model, b.model)
    assert a.loss_trace == b.loss_trace


def test_loss_trace_finite_and_decreasing_at_step0():
    _, _, steps = small_world()
    res = tr.run_step(None, steps[0], small_config("FT", epochs=4))
    assert all(np.isfinite(v) for v in res.loss_trace)
    assert res.loss_trace[-1] < res.loss_trace[0]


def test_run_step_rejects_empty_dataset():
    _, _, steps = small_world()
    empty = type(steps[0])([], 0, steps[0].new_fg)
    with pytest.raises(ConfigError):
        tr.run_step(None, empty, small_config())


def test_regularizer_state_threading_pi():
    _, _, steps = small_world()
    cfg = small_config("PI")
    base = tr.run_step(None, steps[0], cfg)
    assert base.reg_state is not None
    assert all((v >= 0).all() for v in base.reg_state.importance.values())
    inc = tr.run_step(base.model, steps[1], cfg, base.reg_state)
    # importance grew to cover the extended head
    assert inc.reg_state.importance["head.w"].shape == inc.model.head_w.data.shape


def test_run_incremental_pipeline_deterministic():
    corpus, schedule, _ = small_world()
    eval_corpus = corpus[-4:]
    cfg = small_config("MiB")
    a = tr.run_incremental(corpus[:-4], eval_corpus, schedule, "overlapped", cfg)
    b = tr.run_incremental(corpus[:-4], eval_corpus, schedule, "overlapped", cfg)
    assert len(a.results) == schedule.num_steps
    for ra, rb in zip(a.results, b.results):
        assert params_equal(ra.model, rb.model)
    for ma, mb in zip(a.metrics, b.metrics):
        assert ma.as_dict() == mb.as_dict()


def test_single_step_schedule_is_joint_training():
    corpus, _, _ = small_world()
    schedule = build_schedule(3, [3])
    run = tr.run_incremental(corpus[:-4], corpus[-4:], schedule, "overlapped", small_config())
    assert len(run.results) == 1
    assert run.results[0].model.known_classes == [0, 1, 2, 3]
    assert len(run.metrics[0].group_miou) == 1


def test_hflip_changes_training_but_stays_deterministic():
    _, _, steps = small_world()
    cfg = small_config("FT")
    cfg.hflip = True
    a = tr.run_step(None, steps[0], cfg)
    b = tr.run_step(None, steps[0], cfg)
    assert params_equal(a.model, b.model)
    plain = tr.run_step(None, steps[0], small_config("FT"))
    assert not params_equal(a.model, plain.model)


@pytest.mark.parametrize("method", ["EWC", "PI", "RW", "MiB"])
def test_shared_first_step_matches_chained_run_step(method):
    # importance computed after a step 0 trained under another method equals
    # the importance run_step computes inline
    corpus, schedule, _ = small_world()
    train, eval_corpus = corpus[:-4], corpus[-4:]
    split = split_overlapped(train, schedule)
    shared = tr.first_step(split, eval_corpus, schedule, small_config("FT"))
    cfg = small_config(method)
    run = tr.run_incremental(train, eval_corpus, schedule, "overlapped", cfg, first=shared)

    steps = split[0]
    chained = [tr.run_step(None, steps[0], cfg)]
    chained.append(tr.run_step(chained[0].model, steps[1], cfg, chained[0].reg_state))
    for got, want in zip(run.results, chained):
        assert params_equal(got.model, want.model)
        assert got.loss_trace == want.loss_trace
        if want.reg_state is None:
            assert got.reg_state is None
            continue
        assert got.reg_state.importance.keys() == want.reg_state.importance.keys()
        for name, imp in want.reg_state.importance.items():
            assert np.array_equal(got.reg_state.importance[name], imp), name
