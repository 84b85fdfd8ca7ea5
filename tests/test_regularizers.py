from types import SimpleNamespace

import numpy as np
import pytest

from bgshift import harness as hz
from bgshift import numerics as nm
from bgshift import regularizers as rg
from bgshift.exceptions import AlignmentError, EstimationError
from bgshift.model import BackboneConfig, SegModel, extend_classifier
from bgshift.scenario import Sample, StepDataset
from bgshift.trainer import TrainConfig
from helpers import check_gradient, finite_difference_gradient


def tiny_model(fg=(1,), seed=0, dtype="float32"):
    config = BackboneConfig(hidden=4, features=4, dtype=dtype)
    return SegModel.create(config, list(fg), np.random.default_rng(seed))


def tiny_dataset(model, n=3, size=5, seed=1, all_background=False):
    rng = np.random.default_rng(seed)
    items = []
    fg = [c for c in model.known_classes if c != 0]
    for i in range(n):
        image = rng.random((size, size, 3))
        if all_background:
            mask = np.zeros((size, size), dtype=int)
            mask[0, 0] = fg[0]  # one foreground pixel keeps the step dataset valid
        else:
            mask = rng.choice([0] + fg, size=(size, size))
            mask[0, 0] = fg[0]
        items.append(Sample(f"img{i}", image, mask))
    return StepDataset(items, 0, fg)


# -- fisher -------------------------------------------------------------------


def test_fisher_saturated_model_has_tiny_importance(monkeypatch):
    monkeypatch.setattr(rg, "FISHER_SAMPLES", 8)
    model = tiny_model()
    model.params["head.w"].data[:] = 0.0
    model.params["head.b"].data[:] = [60.0, -60.0]  # certain of background everywhere
    rng = np.random.default_rng(2)
    items = [Sample("a", rng.random((4, 4, 3)), np.zeros((4, 4), dtype=int))]
    # an all-background item is no valid StepDataset; fisher only reads .items
    imp = rg.fisher_diagonal(model, SimpleNamespace(items=items), rng)
    assert imp.shape == model.vector.shape
    assert np.isfinite(imp).all()
    assert imp.max() < 1e-10


def test_fisher_bias_mean_of_squares_hand_value(monkeypatch):
    monkeypatch.setattr(rg, "FISHER_SAMPLES", 12)
    # zero head weights: logits = bias only, so grad(bias_c) = q_c - [y=c]
    # with zero bias q = 1/2; on all-background pixels both bias grads are +-1/2
    model = tiny_model()
    model.params["head.w"].data[:] = 0.0
    model.params["head.b"].data[:] = 0.0
    items = [Sample("a", np.random.default_rng(2).random((4, 4, 3)), np.zeros((4, 4), dtype=int))]
    items[0].mask[0, 0] = 1  # keep the dataset valid; chance of sampling it is accounted below
    ds = StepDataset(items, 0, [1])
    rng = np.random.default_rng(3)
    state = model.views(rg.fisher_diagonal(model, ds, rng=rng))
    # grad magnitude is exactly 1/2 per sampled pixel regardless of its label
    assert np.allclose(state["head.b"], 0.25, atol=1e-12)
    # zero head weights block gradient flow into the backbone
    assert np.allclose(state["backbone.w1"], 0.0)


def test_fisher_matches_finite_difference_oracle(monkeypatch):
    model = tiny_model(fg=(1, 2), seed=4, dtype="float64")
    ds = tiny_dataset(model, n=2, size=4, seed=5)
    n_samples = 5
    monkeypatch.setattr(rg, "FISHER_SAMPLES", n_samples)
    state = model.views(rg.fisher_diagonal(model, ds, rng=np.random.default_rng(6)))

    # replay the same pixel draws and square finite-difference gradients
    rng = np.random.default_rng(6)
    acc = {name: np.zeros_like(t.data) for name, t in model.parameters().items()}
    for _ in range(n_samples):
        item = ds.items[int(rng.integers(len(ds.items)))]
        r = int(rng.integers(item.mask.shape[0]))
        c = int(rng.integers(item.mask.shape[1]))
        y = model.known_classes.index(int(item.mask[r, c]))
        for name, p in model.parameters().items():

            def pixel_ce(t):
                z = model.forward_batch(item.image[None])[0].data[0, r, c]
                z = z - z.max()
                return np.log(np.exp(z).sum()) - z[y]

            acc[name] += finite_difference_gradient(pixel_ce, p) ** 2
    for name in acc:
        want = acc[name] / n_samples
        got = state[name]
        assert np.abs(got - want).max() < 1e-6, name


def test_fisher_empty_dataset_rejected():
    model = tiny_model()
    with pytest.raises(EstimationError):
        rg.fisher_diagonal(model, StepDataset([], 0, [1]), np.random.default_rng(0))


# -- path integral ------------------------------------------------------------


def test_path_zero_deltas_give_zero_importance():
    model = tiny_model()
    state = rg.new_path_state(model)
    zeros = np.zeros_like(model.vector)
    rg.path_integral_update(state, zeros, zeros)
    final = rg.finalize_path_importance(state, model)
    assert final.shape == model.vector.shape and np.all(final == 0.0)


def head_b_step(model, grad):
    """(gradient, step) vectors in ``model``'s layout: ``grad`` and 0.1 on
    every entry of head.b, zero elsewhere."""
    grads, deltas = np.zeros_like(model.vector), np.zeros_like(model.vector)
    model.views(grads)["head.b"][:] = grad
    model.views(deltas)["head.b"][:] = 0.1
    return grads, deltas


def test_path_hand_arithmetic_single_step():
    model = tiny_model()
    state = rg.new_path_state(model)
    rg.path_integral_update(state, *head_b_step(model, -1.0))
    model.params["head.b"].data += 0.1  # total displacement 0.1
    final = model.views(rg.finalize_path_importance(state, model))
    expected = 0.1 / (0.1**2 + 0.1)  # PI_DAMPING is 0.1
    assert np.allclose(final["head.b"], expected)
    assert abs(expected - 0.9091) < 1e-4
    assert all(np.all(v == 0.0) for name, v in final.items() if name != "head.b")


def test_path_negative_accumulation_clamped():
    model = tiny_model()
    state = rg.new_path_state(model)
    rg.path_integral_update(state, *head_b_step(model, 1.0))  # -g*d < 0
    model.params["head.b"].data += 0.1
    final = model.views(rg.finalize_path_importance(state, model))
    assert np.all(final["head.b"] == 0.0)


def test_path_update_rejects_shape_mismatch():
    model = tiny_model()
    state = rg.new_path_state(model)
    right, wrong = np.zeros_like(model.vector), np.zeros(5)
    for grads, deltas in ((wrong, wrong), (right, wrong), (wrong, right)):
        with pytest.raises(AlignmentError, match="path update"):
            rg.path_integral_update(state, grads, deltas)
    assert not state.omega.any()


# -- rw combination -----------------------------------------------------------


def head_b_scores(model, values):
    """A score vector in ``model``'s layout: ``values`` on head.b, zero elsewhere."""
    scores = np.zeros(model.vector.shape)
    model.views(scores)["head.b"][:] = values
    return scores


def test_rw_zero_path_equals_normalized_fisher():
    model = tiny_model()
    fisher = head_b_scores(model, [2.0, 4.0])
    combined = model.views(rg.rw_importance(fisher, np.zeros_like(fisher), model))
    assert np.allclose(combined["head.b"], [0.5, 1.0])
    assert all(np.all(v == 0.0) for name, v in combined.items() if name != "head.b")


def test_rw_equal_states_double_the_normalized_score():
    model = tiny_model()
    a = head_b_scores(model, [1.0, 3.0])
    b = head_b_scores(model, [1.0, 3.0])
    combined = model.views(rg.rw_importance(a, b, model))
    assert np.allclose(combined["head.b"], 2.0 * np.array([1.0, 3.0]) / 3.0)


def test_rw_matches_elementwise_oracle():
    # each parameter's scores are normalized by their own max
    model = tiny_model(fg=(1, 2, 3, 4, 5))
    rng = np.random.default_rng(7)
    f = np.abs(rng.normal(size=model.vector.shape))
    p = np.abs(rng.normal(size=model.vector.shape))
    combined = model.views(rg.rw_importance(f, p, model))
    for name, fv, pv in zip(combined, model.views(f).values(), model.views(p).values()):
        assert np.allclose(combined[name], fv / fv.max() + pv / pv.max()), name


def test_rw_rejects_scores_of_another_layout():
    model = tiny_model()
    grown = extend_classifier(model, [2])
    right, wrong = np.ones(model.vector.shape), np.ones(grown.vector.shape)
    for fisher, path in ((right, wrong), (wrong, right), (wrong, wrong)):
        with pytest.raises(AlignmentError, match="fisher .* and path .* scores"):
            rg.rw_importance(fisher, path, model)


# -- quadratic penalty --------------------------------------------------------


def anchored_state(model, importance_value=1.0):
    return rg.ImportanceState(np.full_like(model.vector, importance_value), model.frozen_copy())


def test_penalty_zero_at_anchor():
    model = tiny_model()
    state = anchored_state(model)
    assert rg.quadratic_penalty(model, state, weight=500.0).item() == 0.0


def test_penalty_hand_product():
    model = tiny_model()
    state = anchored_state(model, importance_value=0.0)
    state.anchor.views(state.importance)["head.b"][0] = 2.0
    model.params["head.b"].data[0] += 0.5
    assert abs(rg.quadratic_penalty(model, state, 1.0).item() - 0.5) < 1e-12


def test_penalty_doubling_weight_doubles_value_and_gradient():
    model = tiny_model(seed=8)
    state = anchored_state(model, importance_value=0.7)
    for t in model.parameters().values():
        t.data += 0.1
    v1 = rg.quadratic_penalty(model, state, 1.0)
    v1.backward()
    g1 = model.params["head.w"].grad.copy()
    model.zero_grad()
    v2 = rg.quadratic_penalty(model, state, 2.0)
    v2.backward()
    assert abs(v2.item() - 2.0 * v1.item()) < 1e-12
    assert np.allclose(model.params["head.w"].grad, 2.0 * g1)


def test_penalty_gradient_matches_finite_differences():
    model = tiny_model(seed=9, dtype="float64")
    state = anchored_state(model, importance_value=0.3)
    rng = np.random.default_rng(10)
    for t in model.parameters().values():
        t.data += rng.normal(scale=0.05, size=t.data.shape)
    err = check_gradient(
        lambda t: rg.quadratic_penalty(model, state, 5.0), model.params["head.w"]
    )
    assert err < 1e-4


def test_penalty_skips_unanchored_head_columns():
    model = tiny_model(fg=(1,), seed=11)
    state = anchored_state(model)
    grown = extend_classifier(model, [2], init="random", rng=np.random.default_rng(12))
    grown.params["head.w"].data[:, 2] += 100.0  # drift in the new class head is free
    grown.params["head.b"].data[2] += 100.0
    assert rg.quadratic_penalty(grown, state, 1.0).item() < 1e-12
    grown.zero_grad()
    pen = rg.quadratic_penalty(grown, state, 1.0)
    # a zero second term gives head.w a gradient whatever the penalty does
    nm.scalar_node(pen.data, (pen, 1.0), (grown.params["head.w"], np.zeros_like(grown.params["head.w"].data))).backward()
    assert np.all(grown.params["head.w"].grad[:, 2] == 0.0)


def test_penalty_nonnegative_everywhere():
    rng = np.random.default_rng(13)
    model = tiny_model(seed=14)
    state = anchored_state(model, importance_value=0.5)
    for _ in range(10):
        for t in model.parameters().values():
            t.data += rng.normal(scale=0.2, size=t.data.shape)
        assert rg.quadratic_penalty(model, state, 3.0).item() >= 0.0


def test_importance_state_rejects_negative_importance():
    model = tiny_model()
    importance = np.zeros_like(model.vector)
    model.views(importance)["backbone.w2"][1, 2] = -1.0
    with pytest.raises(EstimationError, match="negative importance for backbone.w2$"):
        rg.ImportanceState(importance, model.frozen_copy())


@pytest.mark.parametrize("side", ["importance", "anchor"])
def test_an_importance_record_names_every_parameter(side):
    # the importance must cover every entry of the anchor's vector, no fewer
    # (it misses head.b) and no more (the anchor misses the grown head column)
    model = tiny_model()
    grown = extend_classifier(model, [2])
    importance = {
        "importance": np.ones(model.vector.size - model.params["head.b"].data.size),
        "anchor": np.ones_like(grown.vector),
    }[side]
    with pytest.raises(AlignmentError, match="importance .* for an anchor of"):
        rg.ImportanceState(importance, model.frozen_copy())


# -- merging importance across steps -------------------------------------------


def test_merge_into_a_grown_head_pads_the_old_importance():
    rng = np.random.default_rng(15)
    model = tiny_model(fg=(1,), seed=16)
    old = rng.random(model.vector.shape).astype(model.dtype)
    prev = rg.merge_importance(None, old, model)
    grown = extend_classifier(model, [2], init="random", rng=np.random.default_rng(17))
    new = rng.random(grown.vector.shape).astype(grown.dtype)
    merged = rg.merge_importance(prev, new, grown)
    assert merged.importance.shape == grown.vector.shape
    old, new, got = model.views(old), grown.views(new), grown.views(merged.importance)
    k = len(model.known_classes)
    for name in ("head.w", "head.b"):
        # the leading columns hold the sum, the new class's column its new importance
        assert np.array_equal(got[name][..., :k], old[name] + new[name][..., :k])
        assert np.array_equal(got[name][..., k:], new[name][..., k:])
    for name in ("backbone.w1", "backbone.b1", "backbone.w2", "backbone.b2"):
        assert np.array_equal(got[name], old[name] + new[name])
    # each anchor is a frozen copy of the model it was taken at
    for state, at in ((prev, model), (merged, grown)):
        assert state.anchor.known_classes == at.known_classes
        assert np.array_equal(state.anchor.vector, at.vector) and not np.shares_memory(state.anchor.vector, at.vector)
        assert not any(t.requires_grad for t in state.anchor.parameters().values())


def test_an_overflowing_rw_cell_fails_with_its_divergence_error():
    # RW on the small config (5 classes, [3,1,1] disjoint, 32x32, 60/20
    # images, 40 epochs of batch 4, seed 0) in float32: its penalty and path
    # products overflow at step 2, and the cell must fail with the loss's
    # DivergenceError, not with a numpy overflow warning
    cfg = hz.ExperimentConfig(
        dataset=hz.DatasetSpec(num_train=60, num_eval=20, height=32, width=32),
        schedule_sizes=[3, 1, 1],
        protocol="disjoint",
        methods=["RW"],
        train=TrainConfig(lr_step0=0.05, lr_later=0.01, epochs_per_step=40, batch_size=4),
    )
    (cell,) = hz.run_experiment(cfg)["cells"]
    assert cell["status"] == "failed"
    assert cell["error"].startswith("DivergenceError: step 2 iter 30: loss is inf"), cell["error"]
