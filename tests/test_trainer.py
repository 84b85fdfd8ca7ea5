import hashlib
import platform
import resource
import tracemalloc
import weakref

import numpy as np
import pytest

from bgshift import losses
from bgshift import trainer as tr
from bgshift.exceptions import AlignmentError, ConfigError, DivergenceError, LabelDomainError
from bgshift.losses import composite_objective, method_preset, teacher_targets
from bgshift.model import BackboneConfig, SegModel, extend_classifier
from bgshift.scenario import SyntheticConfig, build_schedule, generate_synthetic, split_corpus
from helpers import run_from_scratch


# -- poly lr -------------------------------------------------------------------


def test_poly_lr_endpoints():
    assert tr.poly_lr(0, 100, 0.01) == 0.01
    assert tr.poly_lr(100, 100, 0.01) == 0.0


def test_poly_lr_hand_value():
    got = tr.poly_lr(50, 100, 0.01)
    assert tr.POLY_POWER == 0.9
    assert abs(got - 0.005358867312681466) < 1e-15  # 0.01 * 0.5**0.9
    assert abs(got - 0.005359) < 1e-6


def test_poly_lr_rejects_zero_total():
    with pytest.raises(ConfigError):
        tr.poly_lr(0, 0, 0.01)


# -- sgd -----------------------------------------------------------------------


def tiny_model(value, grad):
    """A float64 model of one hidden unit, one feature and one foreground
    class whose parameters are all ``value`` and whose gradients all
    ``grad``."""
    model = SegModel.create(BackboneConfig(hidden=1, features=1, dtype="float64"), [1], np.random.default_rng(0))
    model.vector[:] = value
    for t in model.parameters().values():
        t.grad = np.full(t.shape, grad)
    return model


def test_sgd_zero_grad_zero_velocity_is_noop():
    model = tiny_model(0.0, 0.0)
    velocity = np.zeros_like(model.vector)
    grads = tr.sgd_step(model, 0.1, velocity)
    # the gradients in the vector's layout
    assert grads.shape == model.vector.shape and not grads.any()
    assert not model.vector.any() and not velocity.any()


def test_sgd_single_step_hand_value():
    model = tiny_model(1.0, 1.0)
    velocity = np.zeros_like(model.vector)
    tr.sgd_step(model, 0.1, velocity)
    # v = 1 + WEIGHT_DECAY * 1; theta = 1 - 0.1 * v, in every parameter
    assert (velocity == 1.0 + tr.WEIGHT_DECAY).all()
    assert np.abs(model.vector - (0.9 - 0.1 * tr.WEIGHT_DECAY)).max() < 1e-15


def test_sgd_two_momentum_steps_hand_recursion():
    model = tiny_model(0.0, 1.0)
    velocity = np.zeros_like(model.vector)
    for _ in range(2):
        grads = tr.sgd_step(model, 0.1, velocity)
        # the velocity is updated in place: it is never the gradient array
        assert grads is not velocity and (grads == 1.0).all()
    # v1 = 1, theta1 = -0.1; v2 = MOMENTUM * v1 + 1 + WEIGHT_DECAY * theta1, theta2 = theta1 - 0.1 * v2
    v2 = tr.MOMENTUM + 1.0 - 0.1 * tr.WEIGHT_DECAY
    assert np.abs(velocity - v2).max() < 1e-15
    assert np.abs(model.vector - (-0.1 - 0.1 * v2)).max() < 1e-15
    assert np.abs(model.params["backbone.w1"].data - (-0.29 + 1e-6)).max() < 1e-15


def test_sgd_rejects_nonfinite_gradient():
    # checked before anything moves, and named by its offset in the vector
    for name in ("backbone.w1", "backbone.b2", "head.b"):
        model = tiny_model(0.0, 1.0)
        model.params[name].grad = np.full(model.params[name].shape, np.nan)
        velocity = np.zeros_like(model.vector)
        with pytest.raises(DivergenceError, match=f"non-finite gradient for {name}$"):
            tr.sgd_step(model, 0.1, velocity)
        assert not model.vector.any() and not velocity.any()


def test_sgd_rejects_an_update_that_leaves_a_parameter_non_finite():
    # only ``name`` has a gradient large enough for lr * v to overflow
    for name in ("backbone.w1", "backbone.w2", "head.b"):
        model = tiny_model(0.0, 0.0)
        model.params[name].grad = np.full(model.params[name].shape, 1e300)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=f"left {name} non-finite"):
            tr.sgd_step(model, 1e10, np.zeros_like(model.vector))


def test_sgd_rejects_a_gradient_of_the_wrong_shape():
    model = tiny_model(0.0, 1.0)
    model.params["head.w"].grad = np.ones(2)
    with pytest.raises(ConfigError, match="shape mismatch for head.w"):
        tr.sgd_step(model, 0.1, np.zeros_like(model.vector))


def test_sgd_rejects_a_parameter_without_gradient():
    # training gives every parameter a gradient; one without is an error,
    # raised before anything moves
    model = tiny_model(1.0, 1.0)
    model.params["backbone.b2"].zero_grad()
    velocity = np.zeros_like(model.vector)
    with pytest.raises(ConfigError, match="no gradient for backbone.b2"):
        tr.sgd_step(model, 0.1, velocity)
    assert (model.vector == 1.0).all() and not velocity.any()


# -- run_step / run_incremental --------------------------------------------------


def small_config(method="FT", epochs=2, seed=0, dtype="float32"):
    return tr.TrainConfig(
        epochs_per_step=epochs,
        batch_size=4,
        seed=seed,
        method=method_preset(method),
        backbone=BackboneConfig(hidden=6, features=6, dtype=dtype),
    )


def small_world(seed=0, n=16, classes=3):
    cfg = SyntheticConfig(num_fg_classes=classes, num_images=n, height=16, width=16, blobs_per_image=2)
    corpus = generate_synthetic(seed, cfg)
    schedule = build_schedule(classes, [classes - 1, 1])
    steps, _ = split_corpus(corpus, schedule, "overlapped")
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
    vector = base.model.vector.copy()
    result = tr.run_step(base.model, steps[1], small_config("MiB"))
    after = base.model.parameters()
    for k in before:
        assert np.array_equal(before[k], after[k].data)
    # the student trained a vector of its own
    assert np.array_equal(base.model.vector, vector)
    assert not np.shares_memory(result.model.vector, base.model.vector)


@pytest.mark.parametrize("method", ["FT", "MiB", "LwF-MC"])
def test_a_step_maps_its_labels_to_channels_once(method, monkeypatch):
    # one mapping per run_step, not one per batch and loss
    _, _, steps = small_world()
    cfg = small_config(method)
    calls = []

    def counted(*args):
        calls.append(args[-1])
        return label_channels(*args)

    label_channels = losses._label_channels
    monkeypatch.setattr(losses, "_label_channels", counted)
    base = tr.run_step(None, steps[0], cfg)
    assert calls == ["cross_entropy"] and base.iterations > 1
    tr.run_step(base.model, steps[1], cfg, tr.update_importance(base, steps[0], cfg, None))
    what = {"FT": "cross_entropy", "MiB": "unbiased_cross_entropy", "LwF-MC": "lwf_mc_loss"}[method]
    assert calls == ["cross_entropy", what]


@pytest.mark.parametrize(
    "method, label, message",
    [
        ("MiB", "old", r"unbiased_cross_entropy: labels \[{}\] belong to earlier steps; the mask looks unrelabeled"),
        ("MiB", 9, r"unbiased_cross_entropy: labels \[{}\] are outside the allowed set"),
        ("FT", 9, r"cross_entropy: labels \[{}\] are outside the allowed set"),
        ("LwF-MC", 9, r"lwf_mc_loss: labels \[{}\] are outside the allowed set"),
    ],
)
def test_a_bad_label_in_the_last_batch_fails_the_step_before_any_update(method, label, message, monkeypatch):
    _, _, steps = small_world()
    cfg = small_config(method)
    base = tr.run_step(None, steps[0], cfg)
    label = steps[0].new_fg[0] if label == "old" else label
    # the sample of the first epoch's last batch; its mask bypasses the
    # dataset's checks
    last = tr._rng_children(cfg.seed, 1)["shuffle"].permutation(len(steps[1]))[-1]
    steps[1].items[last].mask[0, 0] = label
    updates = []
    monkeypatch.setattr(tr, "sgd_step", lambda *args: updates.append(args))
    with pytest.raises(LabelDomainError, match=message.format(label)):
        tr.run_step(base.model, steps[1], cfg)
    assert updates == []


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
    base_state = tr.update_importance(base, steps[0], cfg, None)
    assert base_state is not None
    assert (base_state.importance >= 0).all()
    inc = tr.run_step(base.model, steps[1], cfg, base_state)
    inc_state = tr.update_importance(inc, steps[1], cfg, base_state)
    # importance grew to cover the extended head
    assert inc_state.importance.shape == inc.model.vector.shape
    assert inc_state.anchor.views(inc_state.importance)["head.w"].shape == inc.model.params["head.w"].data.shape


def test_run_incremental_pipeline_deterministic():
    corpus, schedule, _ = small_world()
    eval_corpus = corpus[-4:]
    cfg = small_config("MiB")
    _, a = run_from_scratch(corpus[:-4], eval_corpus, schedule, "overlapped", cfg)
    _, b = run_from_scratch(corpus[:-4], eval_corpus, schedule, "overlapped", cfg)
    assert len(a) == schedule.num_steps
    for ra, rb in zip(a, b):
        assert params_equal(ra.model, rb.model)
        assert ra.metrics.as_dict() == rb.metrics.as_dict()


@pytest.mark.parametrize("method", ["MiB", "RW"])
def test_no_tape_outlives_its_iteration(method, monkeypatch):
    # the objective's node (and so the tape behind it) of every earlier
    # iteration is gone when the next iteration's objective is built
    _, _, steps = small_world()
    cfg = small_config(method)
    base = tr.run_step(None, steps[0], cfg)
    state = tr.update_importance(base, steps[0], cfg, None)
    assert (state is not None) == (method == "RW")  # RW's later step adds its penalty
    refs = []  # a Tensor has no __weakref__ slot; its numpy data has

    def wrapped(*args, **kwargs):
        assert [r for r in refs if r() is not None] == [], f"an earlier tape is alive at iteration {len(refs)}"
        loss = objective(*args, **kwargs)
        refs.append(weakref.ref(loss.data))
        return loss

    objective = tr.composite_objective
    monkeypatch.setattr(tr, "composite_objective", wrapped)
    result = tr.run_step(base.model, steps[1], cfg, state)
    assert len(refs) == result.iterations > 1


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's mallopt")
def test_a_repeated_later_step_does_not_page_fault():
    # what one call frees stays mapped for the next: the second call of the
    # same step reuses the first's pages instead of faulting them back in
    cfg = SyntheticConfig(num_fg_classes=2, num_images=16, height=64, width=64, blobs_per_image=2)
    steps, _ = split_corpus(generate_synthetic(0, cfg), build_schedule(2, [1, 1]), "overlapped")
    config = tr.TrainConfig(epochs_per_step=2, method=method_preset("MiB"))
    base = tr.run_step(None, steps[0], tr.TrainConfig(epochs_per_step=1))
    tr.run_step(base.model, steps[1], config)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tr.run_step(base.model, steps[1], config)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 100, faults


# the traced peak of one iteration below, in bytes: 9.67 MB measured, plus 2 %
# (one node over the losses' gradients, summed in place; 11.44 MB when the
# objective was a node over the loss nodes)
ITERATION_PEAK = int(9.67e6 * 1.02)


def test_a_later_mib_iteration_stays_within_its_traced_peak():
    # objective, backward and update of one 8x64x64 batch at a 7-channel
    # MiB step, the teacher's rows at hand as run_step gathers them
    rng = np.random.default_rng(0)
    prev = SegModel.create(BackboneConfig(), [1, 2, 3, 4, 5], rng)
    method = method_preset("MiB")
    model = extend_classifier(prev, [6], init=method.init_mode, rng=rng)
    images = rng.random((8, 64, 64, 3)).astype(model.dtype)
    masks = np.where(rng.random((8, 64, 64)) < 0.3, 6, 0).astype(np.uint8)
    teacher = teacher_targets(method, prev, list(images), len(images))
    velocity = np.zeros_like(model.vector)

    def iteration():
        model.zero_grad()
        composite_objective(method, (images, masks), model, prev, _teacher=teacher).backward()
        tr.sgd_step(model, 1e-3, velocity)

    iteration()  # a warm-up; the peak is taken over the next iteration
    tracemalloc.start()
    try:
        iteration()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ITERATION_PEAK, f"{peak / 1e6:.2f} MB"


def test_single_step_schedule_is_joint_training():
    corpus, _, _ = small_world()
    schedule = build_schedule(3, [3])
    _, run = run_from_scratch(corpus[:-4], corpus[-4:], schedule, "overlapped", small_config())
    assert len(run) == 1
    assert run[0].model.known_classes == [0, 1, 2, 3]
    assert len(run[0].metrics.group_miou) == 1


def test_evaluate_model_rejects_a_model_outside_the_schedule():
    corpus, _, steps = small_world()
    model = tr.run_step(None, steps[0], small_config(epochs=1)).model  # knows [0, 1, 2]
    other = build_schedule(3, [1, 2])  # label spaces [0, 1] and [0, 1, 2, 3]
    with pytest.raises(AlignmentError, match=r"\[0, 1, 2\].*\(\(1,\), \(2, 3\)\)"):
        tr.evaluate_model(model, corpus[-4:], other)


@pytest.mark.parametrize("method", ["EWC", "PI", "RW", "MiB"])
def test_shared_first_step_matches_chained_run_step(method):
    # a step 0 trained under another method gives the same models, traces
    # and importances as one trained under the method itself, and each
    # record's scores are those of its model
    corpus, schedule, _ = small_world()
    train, eval_corpus = corpus[:-4], corpus[-4:]
    split = split_corpus(train, schedule, "overlapped")
    shared = tr.first_step(split, eval_corpus, schedule, small_config("FT"))
    cfg = small_config(method)
    run = tr.run_incremental(shared, eval_corpus, schedule, cfg)

    steps = split[0]
    chained = [tr.run_step(None, steps[0], cfg)]
    state0 = tr.update_importance(chained[0], steps[0], cfg, None)
    chained.append(tr.run_step(chained[0].model, steps[1], cfg, state0))
    got_state = want_state = None
    for dataset, got, want in zip(steps, run, chained, strict=True):
        assert params_equal(got.model, want.model)
        assert got.loss_trace == want.loss_trace
        assert got.metrics.as_dict() == tr.evaluate_model(want.model, eval_corpus, schedule).as_dict()
        got_state = tr.update_importance(got, dataset, cfg, got_state)
        want_state = tr.update_importance(want, dataset, cfg, want_state)
        if want_state is None:
            assert got_state is None
            continue
        assert np.array_equal(got_state.importance, want_state.importance)
        assert np.array_equal(got_state.anchor.vector, want_state.anchor.vector)


@pytest.mark.parametrize(
    "method, probs, feats",
    [("FT", None, False), ("EWC", None, False), ("MiB", "softmax", False), ("ILT", "softmax", True), ("LwF-MC", "sigmoid", False)],
)
def test_teacher_cache_holds_only_what_the_losses_read(method, probs, feats):
    _, _, steps = small_world()
    cfg = small_config(method, epochs=1, dtype="float64")
    teacher = tr.run_step(None, steps[0], cfg).model.frozen_copy()
    images = np.stack([item.image for item in steps[1].items])
    cached_probs, cached_feats = teacher_targets(cfg.method, teacher, images, cfg.batch_size)
    assert (cached_feats is not None) == feats
    if probs is None:
        assert cached_probs is None
        return
    logits, features = teacher.forward_batch(images)
    z = logits.data
    want = 1.0 / (1.0 + np.exp(-z)) if probs == "sigmoid" else np.exp(z) / np.exp(z).sum(-1, keepdims=True)
    # stored channel-major: one contiguous row per channel
    assert cached_probs.shape == (z.shape[-1],) + z.shape[:-1] and cached_probs.flags.c_contiguous
    assert np.allclose(np.moveaxis(cached_probs, 0, -1), want, rtol=1e-12, atol=0.0)
    if feats:
        assert np.array_equal(cached_feats, features.data)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("size", [24, 64])  # whole images per backbone tile, and rows of one image
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("method", ["LwF", "ILT", "LwF-MC", "MiB"])
def test_step_teacher_targets_sliced_to_a_batch_are_the_batch_targets(method, dtype, size):
    # what run_step caches for the step and gathers per batch, against the
    # per-batch path of composite_objective, with and without old_outputs
    rng = np.random.default_rng(11)
    teacher = SegModel.create(BackboneConfig(hidden=6, features=6, dtype=dtype), [1, 2], rng).frozen_copy()
    images = rng.random((10, size, size, 3)).astype(dtype)
    before = images.copy()
    m = method_preset(method)
    probs, feats = teacher_targets(m, teacher, images, 4)
    assert (feats is not None) == (method == "ILT")
    # run_step hands over its samples' images as a list, in the corpus dtype
    for got_probs, got_feats in (
        teacher_targets(m, teacher, list(images), 4),
        teacher_targets(m, teacher, [image.astype(np.float64) for image in images], 4),
    ):
        assert same_bits(got_probs, probs) and (feats is None or same_bits(got_feats, feats))
    idx = rng.choice(len(images), size=5, replace=False)
    outputs = tuple(t.data for t in teacher.forward_batch(images[idx]))
    # given its outputs, the teacher (None here) does not run
    for got_probs, got_feats in (
        teacher_targets(m, teacher, images[idx], len(idx)),
        teacher_targets(m, None, images[idx], 1, outputs),
    ):
        assert same_bits(got_probs, probs[:, idx])
        assert got_feats is None if feats is None else same_bits(got_feats, feats[idx])
    assert same_bits(images, before)


# -- pinned loss traces ------------------------------------------------------------


def pinned_world(method, dtype):
    """The samples and the config of the pinned runs, training in ``dtype``."""
    samples = generate_synthetic(
        0, SyntheticConfig(num_fg_classes=3, num_images=24, height=16, width=16, blobs_per_image=2)
    )
    config = tr.TrainConfig(
        epochs_per_step=2,
        batch_size=4,
        lr_step0=0.05,
        lr_later=0.01,
        method=method_preset(method),
        backbone=BackboneConfig(hidden=4, features=4, dtype=dtype),
    )
    return samples, config


def pinned_run(method, dtype):
    """One short [1,1,1] overlapped run of ``method`` in the pinned world."""
    samples, config = pinned_world(method, dtype)
    return run_from_scratch(samples[:20], samples[20:], build_schedule(3, [1, 1, 1]), "overlapped", config)[1]


# loss_trace per step of one short [1,1,1] overlapped run per method, recorded
# in float64 with each loss (and, for EWC and PI, the drift penalty and the
# Fisher gradient) built from elementary tape ops; the closed-form nodes must
# reproduce them up to float64 summation order
PINNED_TRACES = {
    'EWC': [
        [0.6755332129045039, 0.6108107098111322],
        [0.9521788766733846, 0.9480465644091242],
        [1.2354002612984596, 1.2438729307572167],
    ],
    'FT': [
        [0.6755332129045039, 0.6108107098111322],
        [0.9488771810552737, 0.9291424847545713],
        [1.1958157282181554, 1.1563050571078337],
    ],
    'LwF': [
        [0.6755332129045039, 0.6108107098111322],
        [68.565323690906, 68.56306887464564],
        [109.83373936630339, 109.8068113824727],
    ],
    'ILT': [
        [0.6755332129045039, 0.6108107098111322],
        [68.57240772169827, 72.90889811791824],
        [109.71620788246481, 112.14528189568922],
    ],
    'LwF-MC': [
        [0.6755332129045039, 0.6108107098111322],
        [5.03265804642564, 5.031275700256997],
        [5.5055279796323715, 5.501930405087855],
    ],
    'PI': [
        [0.6755332129045039, 0.6108107098111322],
        [0.9537390569279526, 0.9491572572330179],
        [1.2337189848787713, 1.220736133830612],
    ],
    'MiB': [
        [0.6755332129045039, 0.6108107098111322],
        [7.245723336175175, 7.244219521354652],
        [11.382790339540174, 11.30123704063365],
    ],
    'RW': [
        [0.6755332129045039, 0.6108107098111322],
        [0.9557951291039574, 0.9522795530047395],
        [1.3216188936931472, 14.883040611073985],
    ],
}


@pytest.mark.parametrize("method", sorted(PINNED_TRACES))
def test_loss_traces_match_the_pinned_ones(method):
    got = [r.loss_trace for r in pinned_run(method, "float64")]
    want = PINNED_TRACES[method]
    assert [len(t) for t in got] == [len(t) for t in want]
    for g_step, w_step in zip(got, want):
        for g, w in zip(g_step, w_step):
            assert abs(g - w) <= 1e-9 * abs(w), (method, got)


# -- pinned importance -----------------------------------------------------------

# sha256 (first 16 hex digits) of every (importance, anchor) array that
# update_importance returns after steps 0 and 1 in the world of the pinned
# loss traces; the estimators and the merge must reproduce them bit for bit
PINNED_IMPORTANCE = {
    ('EWC', 0): {
        'backbone.b1': ('975eff4cb4fa6474', 'af45568d4f070293'),
        'backbone.b2': ('6eaf2f3cf6efff33', 'a1912c81d3fb1385'),
        'backbone.w1': ('f1b4293bf837b8a9', '40207719699fa2a2'),
        'backbone.w2': ('f4c2ef368b08b459', '04c47556ee9eb9e0'),
        'head.b': ('4759a5f07ec87f9e', '46445aa5a901e494'),
        'head.w': ('50c37cc190eb2f87', '448a927d38f1fd12'),
    },
    ('EWC', 1): {
        'backbone.b1': ('6d679d5edbf4ca5a', 'ff11a8f89aee66e2'),
        'backbone.b2': ('1c8f9ed39707cb19', '315ec717a9131351'),
        'backbone.w1': ('ac8b3e68619a7938', 'cf7c8646838950b1'),
        'backbone.w2': ('3320fce1d4d057a8', '6e0af1e8b06ceea9'),
        'head.b': ('f8c3181684d16c84', '35e905b78a6d5c98'),
        'head.w': ('11614e3b083d5479', '607249d71b1f5799'),
    },
    ('PI', 0): {
        'backbone.b1': ('b4202f4e5d7e3a71', 'af45568d4f070293'),
        'backbone.b2': ('7c0d5b6aac485492', 'a1912c81d3fb1385'),
        'backbone.w1': ('b68f72876e23bdc7', '40207719699fa2a2'),
        'backbone.w2': ('eba83307066d27ea', '04c47556ee9eb9e0'),
        'head.b': ('e07ad65aca91e713', '46445aa5a901e494'),
        'head.w': ('2ec767a3502c54aa', '448a927d38f1fd12'),
    },
    ('PI', 1): {
        'backbone.b1': ('877abea5898bbfd8', '7b1501c2b0629ab3'),
        'backbone.b2': ('af791d709403ba94', 'ff8b9758de5d2050'),
        'backbone.w1': ('2a4e4c5f4583ccca', '495236b56dbf7d29'),
        'backbone.w2': ('a8a6fe0ae20ea4e3', 'de1faf769aa5e56f'),
        'head.b': ('0beda125390c8f15', '4699a5e8a06059ad'),
        'head.w': ('205d9364b661a64f', '365bf9dddb3506d5'),
    },
    ('RW', 0): {
        'backbone.b1': ('9c13cd995e57d605', 'af45568d4f070293'),
        'backbone.b2': ('6c48a2980740d4cd', 'a1912c81d3fb1385'),
        'backbone.w1': ('49b44a7786294b49', '40207719699fa2a2'),
        'backbone.w2': ('7f713354325a2f53', '04c47556ee9eb9e0'),
        'head.b': ('f266388db081c554', '46445aa5a901e494'),
        'head.w': ('0de4b793c99b4cd8', '448a927d38f1fd12'),
    },
    ('RW', 1): {
        'backbone.b1': ('75c47ca8d9feb889', 'd3f39f0ed99b2877'),
        'backbone.b2': ('26c25718b4e2dd6a', 'fe6c871f85953f36'),
        'backbone.w1': ('c285ac91f9e7afb1', 'e70942bf19bc141b'),
        'backbone.w2': ('6c128fdc3d318714', '68f17b3d7ea6fd37'),
        'head.b': ('6869a9c543708bae', 'b20ed63c6af1e4b4'),
        'head.w': ('91deceb5221beed8', '8be7177a86e44ef6'),
    },
}


def _digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("method", ["EWC", "PI", "RW"])
def test_importance_arrays_match_the_pinned_ones(method):
    samples, config = pinned_world(method, "float64")
    steps, _ = split_corpus(samples[:20], build_schedule(3, [1, 1, 1]), "overlapped")
    model, state = None, None
    for t, dataset in enumerate(steps[:2]):
        result = tr.run_step(model, dataset, config, state)
        model = result.model
        state = tr.update_importance(result, dataset, config, state)
        importance = state.anchor.views(state.importance)
        got = {name: (_digest(imp), _digest(state.anchor.params[name].data)) for name, imp in importance.items()}
        assert got == PINNED_IMPORTANCE[(method, t)], (method, t)


# -- float32 training ------------------------------------------------------------

# float32 against float64 in the pinned world: each loss_trace entry within
# this relative distance of PINNED_TRACES (the worst measured is 2.3e-6, ILT),
# each step's all-class mIoU within this absolute distance of the float64 run
F32_TRACE_RTOL = 1e-4
F32_MIOU_ATOL = 1e-3


@pytest.mark.parametrize("method", sorted(PINNED_TRACES))
def test_float32_training_leaves_every_array_float32(method, monkeypatch):
    # (what, array, the model whose vector layout it has, or None) for
    # every array training made
    seen = []

    def spy(fn, arrays):
        """Record ``arrays(args, result)`` of each call to the trainer's ``fn``."""

        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            seen.extend(arrays(args, out))
            return out

        monkeypatch.setattr(tr, fn.__name__, wrapped)

    def sgd_arrays(args, grads):
        return [("grad", grads, args[0]), ("velocity", args[2], args[0])]

    def importance_arrays(args, state):
        if state is None:
            return []
        return [("importance", state.importance, args[0].model), ("anchor", state.anchor.vector, args[0].model)]

    spy(tr.sgd_step, sgd_arrays)
    spy(tr.teacher_targets, lambda args, cache: [(f"teacher {i}", x, None) for i, x in enumerate(cache) if x is not None])
    spy(tr.update_importance, importance_arrays)
    # run_step stacks each step's images in the model's dtype
    spy(tr.composite_objective, lambda args, loss: [("images", args[1][0], None)])
    for t, result in enumerate(pinned_run(method, "float32")):
        seen += [(f"param {n} step {t}", p.data, None) for n, p in result.model.parameters().items()]
        if result.path_state is not None:
            seen += [(f"path {part} step {t}", getattr(result.path_state, part), result.model) for part in ("start", "omega")]

    kinds = {what.split()[0] for what, _, _ in seen}
    assert {"grad", "velocity", "param", "path", "images"} <= kinds
    assert ("teacher" in kinds) == (method in ("LwF", "ILT", "LwF-MC", "MiB"))
    assert ("importance" in kinds) == (method in ("EWC", "PI", "RW"))
    assert [what for what, a, _ in seen if a.dtype != np.float32] == []
    # every per-parameter array is one vector in its model's layout
    assert [what for what, a, model in seen if model is not None and a.shape != model.vector.shape] == []


@pytest.mark.parametrize("method", sorted(PINNED_TRACES))
def test_float32_traces_and_miou_agree_with_float64(method):
    f32, f64 = pinned_run(method, "float32"), pinned_run(method, "float64")
    for result, want_trace in zip(f32, PINNED_TRACES[method], strict=True):
        for g, w in zip(result.loss_trace, want_trace, strict=True):
            assert abs(g - w) <= F32_TRACE_RTOL * abs(w), (method, result.loss_trace)
    for a, b in zip(f32, f64, strict=True):
        assert abs(a.metrics.all_miou - b.metrics.all_miou) <= F32_MIOU_ATOL, (method, a.metrics, b.metrics)
