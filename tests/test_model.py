import json
import math

import numpy as np
import pytest

from bgshift import numerics as nm
from bgshift.exceptions import ScheduleError, ShapeError
from bgshift.losses import _softmax, cross_entropy, feature_distillation
from bgshift.model import (
    BackboneConfig,
    SegModel,
    argmax_mask,
    extend_classifier,
    load_checkpoint,
    save_checkpoint,
)
from bgshift.numerics import Tensor


def make_model(fg=(1, 2), seed=0, hidden=8, features=8, dtype="float32"):
    return SegModel.create(
        BackboneConfig(hidden=hidden, features=features, dtype=dtype), list(fg), np.random.default_rng(seed)
    )


def forward_one(model, image):
    """(probabilities, logits) of one [H,W,ch] image."""
    with nm.no_grad():
        logits, _ = model.forward_batch(image[None])
    return _softmax(logits.data)[0], logits.data[0]


def predict(model, image):
    return argmax_mask(forward_one(model, image)[1], model.known_classes)


def heads_of(model):
    """Class id -> (weight column, bias)."""
    return {
        c: (model.params["head.w"].data[:, i].copy(), float(model.params["head.b"].data[i]))
        for i, c in enumerate(model.known_classes)
    }


def param_count(model):
    return sum(t.data.size for t in model.parameters().values())


def test_zero_heads_give_uniform_probabilities():
    model = make_model()
    model.params["head.w"].data[:] = 0.0
    model.params["head.b"].data[:] = 0.0
    probs, _ = forward_one(model, np.random.default_rng(1).random((9, 9, 3)))
    assert np.abs(probs - 1.0 / 3.0).max() < 1e-12


def test_equal_heads_give_half_half():
    model = make_model(fg=(1,))
    model.params["head.w"].data[:, 1] = model.params["head.w"].data[:, 0]
    model.params["head.b"].data[1] = model.params["head.b"].data[0]
    probs, _ = forward_one(model, np.random.default_rng(2).random((7, 7, 3)))
    assert np.abs(probs - 0.5).max() < 1e-12


def test_forward_deterministic_bitwise():
    img = np.random.default_rng(0).random((8, 8, 3))
    a = forward_one(make_model(seed=0), img)[1]
    b = forward_one(make_model(seed=0), img)[1]
    assert np.array_equal(a, b)


def test_forward_rejects_channel_mismatch():
    model = make_model()
    with pytest.raises(ShapeError):
        forward_one(model, np.zeros((8, 8, 4)))


def test_predict_prefers_large_bias_head():
    model = make_model(fg=(1, 2))
    model.params["head.w"].data[:] = 0.0
    model.params["head.b"].data[:] = 0.0
    model.params["head.b"].data[2] = 50.0
    pred = predict(model, np.random.default_rng(3).random((6, 6, 3)))
    assert (pred == 2).all()


def test_predict_breaks_exact_ties_toward_lowest_id():
    logits = np.zeros((4, 4, 3))
    assert (argmax_mask(logits, [0, 1, 2]) == 0).all()
    # permute head storage: same tie still resolves to the background id
    assert (argmax_mask(logits, [0, 2, 1]) == 0).all()
    two_way = np.zeros((2, 2, 3))
    two_way[..., 1] = 5.0
    two_way[..., 2] = 5.0
    assert (argmax_mask(two_way, [0, 2, 1]) == 1).all()


def test_predict_matches_bruteforce_scan():
    model = make_model(fg=(1, 2, 3), seed=4)
    img = np.random.default_rng(5).random((10, 10, 3))
    pred = predict(model, img)
    _, logits = forward_one(model, img)
    for r in range(10):
        for c in range(10):
            best, best_v = None, -np.inf
            for i, cid in enumerate(model.known_classes):
                v = logits[r, c, i]
                if v > best_v or (v == best_v and cid < best):
                    best, best_v = cid, v
            assert pred[r, c] == best


def test_predicted_mask_invariant_to_head_permutation():
    model = make_model(fg=(1, 2, 3), seed=6)
    img = np.random.default_rng(7).random((8, 8, 3))
    base = predict(model, img)
    perm = [0, 3, 1, 2]  # background stays first, foreground storage shuffled
    channels = [model.known_classes.index(c) for c in perm]
    shuffled = SegModel(
        model.config,
        {
            **model.params,
            "head.w": Tensor(model.params["head.w"].data[:, channels].copy(), requires_grad=True),
            "head.b": Tensor(model.params["head.b"].data[channels].copy(), requires_grad=True),
        },
        perm,
        model.step_index,
    )
    assert np.array_equal(predict(shuffled, img), base)


def test_extend_classifier_hand_arithmetic():
    model = make_model(fg=(1,), features=2, hidden=4, dtype="float64")
    model.params["head.w"].data[:, 0] = [1.0, -1.0]
    model.params["head.b"].data[0] = 0.5
    grown = extend_classifier(model, [2])
    heads = heads_of(grown)
    w2, b2 = heads[2]
    assert np.allclose(w2, [1.0, -1.0])
    assert abs(b2 - (0.5 - math.log(2.0))) < 1e-15
    assert abs(b2 - (-0.19315) ) < 1e-4
    assert abs(heads[0][1] - (0.5 - math.log(2.0))) < 1e-15
    # old foreground head untouched
    assert np.array_equal(heads[1][0], heads_of(model)[1][0])
    assert grown.step_index == model.step_index + 1


def test_extend_with_no_new_classes_is_identity():
    model = make_model()
    grown = extend_classifier(model, [])
    assert grown.known_classes == model.known_classes
    assert np.array_equal(grown.params["head.w"].data, model.params["head.w"].data)
    assert np.array_equal(grown.params["head.b"].data, model.params["head.b"].data)


def test_extend_rejects_duplicates():
    model = make_model(fg=(1, 2))
    with pytest.raises(ScheduleError):
        extend_classifier(model, [2])
    with pytest.raises(ScheduleError):
        extend_classifier(model, [3, 3])


@pytest.mark.parametrize("new_count", [1, 2, 5])
def test_init_invariant_spreads_background_probability(new_count):
    model = make_model(fg=(1, 2), seed=8, dtype="float64")
    new_ids = list(range(3, 3 + new_count))
    grown = extend_classifier(model, new_ids)
    m = new_count + 1
    rng = np.random.default_rng(9)
    worst_new, worst_old = 0.0, 0.0
    for _ in range(100):
        img = rng.random((6, 6, 3))
        before, _ = forward_one(model, img)
        after, _ = forward_one(grown, img)
        bg_split = before[..., 0] / m
        worst_new = max(worst_new, np.abs(after[..., 0] - bg_split).max())
        for i, c in enumerate(new_ids):
            worst_new = max(worst_new, np.abs(after[..., 3 + i] - bg_split).max())
        worst_old = max(worst_old, np.abs(after[..., 1:3] - before[..., 1:3]).max())
    assert worst_new < 1e-9
    assert worst_old < 1e-9


def test_random_init_leaves_background_untouched():
    model = make_model(fg=(1,))
    grown = extend_classifier(model, [2], init="random", rng=np.random.default_rng(0))
    assert grown.params["head.b"].data[0] == model.params["head.b"].data[0]
    assert np.array_equal(grown.params["head.w"].data[:, :2], model.params["head.w"].data)
    assert grown.params["head.b"].data[2] == 0.0


def test_parameter_count_formula():
    model = make_model(fg=(1, 2, 3), hidden=8, features=8)
    backbone = sum(t.data.size for name, t in model.params.items() if name.startswith("backbone."))
    assert param_count(model) == backbone + 4 * (8 + 1)
    grown = extend_classifier(model, [4, 5])
    assert param_count(grown) == backbone + 6 * (8 + 1)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = make_model(fg=(1, 2), seed=10)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.known_classes == model.known_classes
    assert loaded.step_index == model.step_index
    img = np.random.default_rng(11).random((8, 8, 3))
    assert np.array_equal(forward_one(loaded, img)[1], forward_one(model, img)[1])
    for name, t in model.parameters().items():
        assert np.array_equal(loaded.parameters()[name].data, t.data)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_checkpoint_round_trip_keeps_the_dtype(tmp_path, dtype):
    model = extend_classifier(make_model(seed=10, dtype=dtype), [3])
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config and loaded.dtype == np.dtype(dtype)
    for name, t in model.parameters().items():
        got = loaded.parameters()[name].data
        assert got.dtype == dtype and got.tobytes() == t.data.tobytes(), name


def test_checkpoint_layout_is_pinned(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(make_model(), path)
    with np.load(path) as z:
        members = set(z.files)
        meta = json.loads(bytes(z["meta"]).decode())
    assert members == {
        "meta",
        "backbone__w1",
        "backbone__b1",
        "backbone__w2",
        "backbone__b2",
        "head__w",
        "head__b",
    }
    assert set(meta) == {"format", "step_index", "known_classes", "background_id", "backbone"}


def _rewrite_checkpoint(src, dst, meta_edit=None, drop=()):
    """Copy the npz ``src`` to ``dst`` with ``meta_edit`` applied to its meta
    and the arrays in ``drop`` left out."""
    with np.load(src) as z:
        arrays = {k: z[k] for k in z.files if k not in drop}
    meta = json.loads(bytes(arrays["meta"]).decode())
    if meta_edit:
        meta_edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(dst, **arrays)


def _format_1(meta):
    meta["format"] = 1
    meta["backbone"]["activation"] = "tanh"


def _format_2(meta):
    meta["format"] = 2
    del meta["backbone"]["dtype"]


@pytest.mark.parametrize(
    "corrupt, match",
    [
        (lambda good, bad: _rewrite_checkpoint(good, bad, lambda m: m["backbone"].update(activation="relu")), "TypeError"),
        (lambda good, bad: _rewrite_checkpoint(good, bad, drop=("head__b",)), "KeyError"),
        (lambda good, bad: bad.write_text("not a checkpoint"), "ValueError"),
        (lambda good, bad: _rewrite_checkpoint(good, bad, _format_1), "format 1"),
        (lambda good, bad: _rewrite_checkpoint(good, bad, _format_2), "format 2"),
        (lambda good, bad: _rewrite_checkpoint(good, bad, lambda m: m["backbone"].update(dtype="float16")), "dtype"),
        (lambda good, bad: _rewrite_checkpoint(good, bad, lambda m: m["backbone"].update(dtype="float64")), "dtype"),
        (lambda good, bad: _rewrite_checkpoint(good, bad, lambda m: m.update(background_id=3)), "background_id 3"),
    ],
    ids=[
        "unknown-backbone-key",
        "missing-array",
        "not-npz",
        "format-1",
        "format-2",
        "bad-dtype",
        "dtype-mismatch",
        "background-not-0",
    ],
)
def test_a_bad_checkpoint_is_rejected_naming_its_path(tmp_path, corrupt, match):
    good, bad = tmp_path / "good.npz", tmp_path / "bad.npz"
    save_checkpoint(make_model(), good)
    corrupt(good, bad)
    with pytest.raises(ShapeError, match=f"bad.npz.*{match}"):
        load_checkpoint(bad)


def test_every_parameter_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    model = SegModel.create(BackboneConfig(hidden=4, features=3, dtype="float64"), [1, 2], rng)
    model.params["head.w"].data[:] = rng.normal(size=model.params["head.w"].shape)
    images = rng.random((2, 5, 4, 3))
    mask = rng.integers(0, 3, size=(2, 5, 4))
    old_feats = rng.normal(size=(2, 5, 4, 3))

    def loss(_):
        logits, feats = model.forward_batch(images)
        ce = cross_entropy(logits, mask, model.known_classes)
        fd = feature_distillation(feats, old_feats)
        return nm.scalar_node(ce.data + fd.data, (ce, 1.0), (fd, 1.0))

    for name, p in model.parameters().items():
        assert nm.check_gradient(loss, p) < 1e-4, name


def test_float32_draws_are_the_float64_draws_cast():
    f32, f64 = make_model(seed=3), make_model(seed=3, dtype="float64")
    for name, t in f32.parameters().items():
        assert t.data.dtype == np.float32
        assert np.array_equal(t.data, f64.params[name].data.astype(np.float32)), name


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("init", ["background", "random"])
def test_extend_classifier_keeps_the_head_dtype(dtype, init):
    grown = extend_classifier(make_model(dtype=dtype), [3, 4], init=init, rng=np.random.default_rng(0))
    assert {t.data.dtype for t in grown.parameters().values()} == {np.dtype(dtype)}


def test_forward_runs_in_the_parameter_dtype():
    model = make_model()
    images = np.random.default_rng(1).random((2, 5, 5, 3))  # float64, as a corpus stores them
    logits, feats = model.forward_batch(images)
    assert logits.data.dtype == feats.data.dtype == np.float32


def test_a_model_rejects_parameters_of_another_dtype():
    model = make_model()
    params = dict(model.params, **{"head.b": Tensor(model.params["head.b"].data.astype(np.float64))})
    with pytest.raises(ShapeError, match="head.b"):
        SegModel(model.config, params, model.known_classes)


def test_frozen_copy_builds_no_graph():
    model = make_model()
    frozen = model.frozen_copy()
    logits, _ = frozen.forward_batch(np.zeros((1, 6, 6, 3)))
    assert not logits.requires_grad
