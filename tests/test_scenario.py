import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bgshift import scenario as sc
from bgshift.exceptions import GenerationError, IngestionError, ScheduleError


# -- schedules ----------------------------------------------------------------


def test_schedule_19_1():
    s = sc.build_schedule(20, [19, 1])
    assert s.new_fg(0) == list(range(1, 20))
    assert s.new_fg(1) == [20]
    assert s.label_space(1) == list(range(21))


def test_schedule_15_1_five_steps():
    s = sc.build_schedule(20, [15, 1, 1, 1, 1, 1])
    assert s.num_steps == 6
    assert s.new_fg(0) == list(range(1, 16))
    assert [s.new_fg(t) for t in range(1, 6)] == [[16], [17], [18], [19], [20]]


def test_schedule_single_offline_step():
    s = sc.build_schedule(5, [5])
    assert s.num_steps == 1
    assert s.new_fg(0) == [1, 2, 3, 4, 5]


def test_schedule_size_mismatch():
    with pytest.raises(ScheduleError):
        sc.build_schedule(5, [3, 3])


def test_schedule_permuted_is_seed_deterministic():
    a = sc.build_schedule(6, [3, 3], order="permuted", seed=5)
    b = sc.build_schedule(6, [3, 3], order="permuted", seed=5)
    assert a.steps == b.steps
    assert sorted(a.all_fg()) == [1, 2, 3, 4, 5, 6]


# -- relabel ------------------------------------------------------------------


def test_relabel_background_only_unchanged():
    m = np.zeros((4, 4), dtype=np.int64)
    assert np.array_equal(sc.relabel(m, {1}), m)


def test_relabel_keeps_current_class_drops_old():
    m = np.array([[1, 1, 0], [2, 2, 0]])
    out = sc.relabel(m, {2})
    assert np.array_equal(out, [[0, 0, 0], [2, 2, 0]])


def test_relabel_matches_pixelwise_oracle():
    rng = np.random.default_rng(0)
    m = rng.integers(0, 6, size=(8, 8))
    visible = {2, 4}
    out = sc.relabel(m, visible)
    for idx in np.ndindex(m.shape):
        assert out[idx] == (m[idx] if m[idx] in visible else 0)


@given(st.integers(0, 2**16), st.sets(st.integers(1, 5), max_size=4))
@settings(max_examples=30, deadline=None)
def test_relabel_idempotent(seed, visible):
    m = np.random.default_rng(seed).integers(0, 6, size=(5, 5))
    once = sc.relabel(m, visible)
    assert np.array_equal(sc.relabel(once, visible), once)


# -- splits -------------------------------------------------------------------


def block_sample(sid, regions):
    """8x8 sample whose mask has one 2x2 block per (class, corner); uint8,
    as a corpus's masks are."""
    mask = np.zeros((8, 8), dtype=np.uint8)
    corners = [(0, 0), (0, 6), (6, 0), (6, 6)]
    for (r, c), cls in zip(corners, regions):
        mask[r : r + 2, c : c + 2] = cls
    rng = np.random.default_rng(hash(sid) % 2**32)
    return sc.Sample(sid, rng.random((8, 8, 3)), mask)


def two_class_corpus():
    return [
        block_sample("only1", [1]),
        block_sample("both", [1, 2]),
    ]


def test_disjoint_two_image_rule():
    steps, report = sc.split_corpus(two_class_corpus(), sc.build_schedule(2, [1, 1]), "disjoint")
    assert [it.id for it in steps[0].items] == ["only1"]
    assert [it.id for it in steps[1].items] == ["both"]
    # in step 1 the class-1 block is background now
    both = steps[1].items[0]
    assert set(np.unique(both.mask)) == {0, 2}
    assert report.excluded_ids == []


def test_disjoint_excludes_background_only_images():
    corpus = two_class_corpus() + [block_sample("empty", [])]
    steps, report = sc.split_corpus(corpus, sc.build_schedule(2, [1, 1]), "disjoint")
    assert report.excluded_ids == ["empty"]


def test_disjoint_step_ids_are_pairwise_disjoint():
    rng = np.random.default_rng(1)
    corpus = [
        block_sample(f"s{i}", rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False))
        for i in range(20)
    ]
    steps, _ = sc.split_corpus(corpus, sc.build_schedule(3, [2, 1]), "disjoint")
    ids = [set(it.id for it in s.items) for s in steps]
    assert ids[0] & ids[1] == set()


def test_overlapped_image_joins_every_step_of_its_classes():
    steps, _ = sc.split_corpus(two_class_corpus(), sc.build_schedule(2, [1, 1]), "overlapped")
    assert [it.id for it in steps[0].items] == ["only1", "both"]
    assert [it.id for it in steps[1].items] == ["both"]
    both_step0 = steps[0].items[1]
    both_step1 = steps[1].items[0]
    assert set(np.unique(both_step0.mask)) == {0, 1}  # class 2 lurks as background
    assert set(np.unique(both_step1.mask)) == {0, 2}


def test_overlapped_membership_matches_bruteforce_scan():
    rng = np.random.default_rng(2)
    corpus = [
        block_sample(f"s{i}", rng.choice([1, 2, 3, 4], size=rng.integers(0, 4), replace=False))
        for i in range(25)
    ]
    schedule = sc.build_schedule(4, [2, 1, 1])
    steps, report = sc.split_corpus(corpus, schedule, "overlapped")
    for t, ds in enumerate(steps):
        members = {it.id for it in ds.items}
        for s in corpus:
            has_new = bool(set(np.unique(s.mask)) & set(schedule.new_fg(t)))
            assert (s.id in members) == has_new
    # union of memberships covers every image with foreground
    covered = set().union(*(set(it.id for it in s.items) for s in steps))
    with_fg = {s.id for s in corpus if s.mask.max() > 0}
    assert covered == with_fg
    assert set(report.excluded_ids) == {s.id for s in corpus} - with_fg


def test_disjoint_membership_matches_bruteforce_scan():
    rng = np.random.default_rng(6)
    corpus = [
        block_sample(f"s{i}", rng.choice([1, 2, 3, 4], size=rng.integers(0, 4), replace=False))
        for i in range(25)
    ]
    assert any(s.mask.max() == 0 for s in corpus)  # background-only images included
    schedule = sc.build_schedule(4, [2, 1, 1])
    steps, report = sc.split_corpus(corpus, schedule, "disjoint")
    members = [{it.id for it in ds.items} for ds in steps]
    for s in corpus:
        labels = set(np.unique(s.mask)) - {0}
        want = [
            t
            for t in range(schedule.num_steps)
            if labels & set(schedule.new_fg(t)) and labels <= set(schedule.fg_up_to(t))
        ][:1]  # the earliest covering step that introduces one of its classes
        assert [t for t, ids in enumerate(members) if s.id in ids] == want, s.id
        assert (s.id in report.excluded_ids) == (not want)


def test_split_invariants_for_both_protocols():
    rng = np.random.default_rng(3)
    corpus = [
        block_sample(f"s{i}", rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False))
        for i in range(30)
    ]
    schedule = sc.build_schedule(3, [1, 1, 1])
    for protocol in ("disjoint", "overlapped"):
        steps, _ = sc.split_corpus(corpus, schedule, protocol)
        for ds in steps:
            for it in ds.items:
                assert it.mask.dtype == np.uint8  # split_corpus keeps the dtype
                labels = set(np.unique(it.mask))
                assert labels <= set(ds.visible_classes)
                assert labels & set(ds.new_fg)


def test_background_shift_accounting_matches_recount():
    rng = np.random.default_rng(4)
    corpus = [
        block_sample(f"s{i}", rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False))
        for i in range(20)
    ]
    schedule = sc.build_schedule(3, [1, 1, 1])
    full_by_id = {s.id: s.mask for s in corpus}
    for protocol in sc.PROTOCOLS:
        steps, report = sc.split_corpus(corpus, schedule, protocol)
        for t, ds in enumerate(steps):
            seen = set(schedule.fg_up_to(t)) - set(schedule.new_fg(t))
            old = future = true_bg = 0
            for it in ds.items:
                full = full_by_id[it.id]
                bg_now = it.mask == 0
                old += int((bg_now & np.isin(full, sorted(seen))).sum())
                future += int((bg_now & (full != 0) & ~np.isin(full, sorted(seen))).sum())
                true_bg += int((bg_now & (full == 0)).sum())
            assert report.per_step[t] == {"old_as_bg": old, "future_as_bg": future, "true_bg": true_bg}


def test_disjoint_has_no_future_classes_hidden_in_background():
    rng = np.random.default_rng(5)
    corpus = [
        block_sample(f"s{i}", rng.choice([1, 2, 3], size=rng.integers(1, 4), replace=False))
        for i in range(30)
    ]
    _, report = sc.split_corpus(corpus, sc.build_schedule(3, [1, 1, 1]), "disjoint")
    for counts in report.per_step:
        assert counts["future_as_bg"] == 0


# -- the handcrafted six-image corpus ----------------------------------------


def six_image_corpus():
    return [
        block_sample("A", [1]),
        block_sample("B", [1, 2]),
        block_sample("C", [2]),
        block_sample("D", []),
        block_sample("E", [1]),
        block_sample("F", [2, 1]),
    ]


def test_six_image_hand_tables():
    schedule = sc.build_schedule(2, [1, 1])
    corpus = six_image_corpus()

    dj, dj_report = sc.split_corpus(corpus, schedule, "disjoint")
    assert [it.id for it in dj[0].items] == ["A", "E"]
    assert [it.id for it in dj[1].items] == ["B", "C", "F"]
    assert dj_report.excluded_ids == ["D"]

    ov, ov_report = sc.split_corpus(corpus, schedule, "overlapped")
    assert [it.id for it in ov[0].items] == ["A", "B", "E", "F"]
    assert [it.id for it in ov[1].items] == ["B", "C", "F"]
    assert ov_report.excluded_ids == ["D"]

    # the protocols must differ on an image whose background hides a future
    # class: B sits in overlapped step 0 with class 2 relabeled to background
    b_ov = next(it for it in ov[0].items if it.id == "B")
    b_full = next(s for s in corpus if s.id == "B").mask
    hidden = (b_ov.mask == 0) & (b_full == 2)
    assert hidden.sum() > 0
    assert all(it.id != "B" for it in dj[0].items)
    assert ov_report.per_step[0]["future_as_bg"] > 0
    assert dj_report.per_step[0]["future_as_bg"] == 0


# -- synthetic generator ------------------------------------------------------


def test_generator_deterministic_bitwise():
    cfg = sc.SyntheticConfig(num_fg_classes=3, num_images=6, height=24, width=24)
    a = sc.generate_synthetic(0, cfg)
    b = sc.generate_synthetic(0, cfg)
    assert len(a) == len(b) == 6
    for x, y in zip(a, b):
        assert x.id == y.id
        assert np.array_equal(x.image, y.image)
        assert np.array_equal(x.mask, y.mask)
        assert x.mask.dtype == np.uint8


def test_generator_single_class_labels():
    cfg = sc.SyntheticConfig(num_fg_classes=1, num_images=4, height=20, width=20)
    for s in sc.generate_synthetic(1, cfg):
        assert set(np.unique(s.mask)) <= {0, 1}


def test_generator_class_coverage_100_images():
    cfg = sc.SyntheticConfig(num_fg_classes=5, num_images=100, height=32, width=32)
    samples = sc.generate_synthetic(0, cfg)
    counts = np.zeros(6, dtype=int)
    for s in samples:
        counts += np.bincount(np.unique(s.mask), minlength=6)
    assert (counts[1:] >= 10).all()


def test_generator_pixel_balance_within_30_percent():
    cfg = sc.SyntheticConfig(num_fg_classes=5, num_images=60, height=32, width=32)
    samples = sc.generate_synthetic(3, cfg)
    pix = np.zeros(6, dtype=np.int64)
    for s in samples:
        pix += np.bincount(s.mask.reshape(-1), minlength=6)
    share = pix[1:] / pix[1:].sum()
    assert (np.abs(share - 0.2) <= 0.06 + 1e-12).all()


def test_generator_rejects_tiny_images():
    with pytest.raises(GenerationError):
        sc.generate_synthetic(0, sc.SyntheticConfig(num_images=2, height=8, width=8))


def test_generator_rejects_a_class_id_above_a_byte():
    with pytest.raises(GenerationError, match="dataset.num_fg_classes must be at most 255"):
        sc.generate_synthetic(0, sc.SyntheticConfig(num_fg_classes=256, num_images=100))


def test_generator_values_in_unit_range():
    cfg = sc.SyntheticConfig(num_fg_classes=2, num_images=3, height=20, width=20)
    for s in sc.generate_synthetic(2, cfg):
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


# -- on-disk ingestion --------------------------------------------------------


@pytest.mark.parametrize(
    "ids, bad", [(["a b"], "a b"), (["a", "b\tc"], "b\tc"), (["a", ""], ""), (["a/b"], "a/b"), (["a", "b", "a"], "a")]
)
def test_save_dataset_rejects_an_id_the_reader_could_not_read_back(tmp_path, ids, bad):
    # whitespace splits a manifest line, a separator names another directory,
    # and a repeated id would overwrite the first one's files
    sample = sc.generate_synthetic(0, sc.SyntheticConfig(num_fg_classes=2, num_images=4, height=16, width=16))[0]
    samples = [sc.Sample(sid, sample.image, sample.mask) for sid in ids]
    message = f"sample id {re.escape(repr(bad))} is empty, repeated, or holds whitespace or a path separator"
    with pytest.raises(IngestionError, match=message):
        sc.save_dataset(samples, tmp_path / "out", 2)
    assert not (tmp_path / "out").exists()  # nothing is written


def test_dataset_roundtrip(tmp_path):
    cfg = sc.SyntheticConfig(num_fg_classes=3, num_images=4, height=20, width=20)
    samples = sc.generate_synthetic(5, cfg)
    sc.save_dataset(samples, tmp_path, 3)
    loaded = sc.load_dataset(tmp_path)
    assert loaded.num_classes == 3
    assert [s.id for s in loaded.samples] == [s.id for s in samples]
    for orig, back in zip(samples, loaded.samples):
        assert np.array_equal(back.mask, orig.mask)
        assert back.mask.dtype == np.uint8 and back.mask.flags.writeable
        assert np.abs(back.image - orig.image).max() <= 0.5 / 255.0 + 1e-12
    # any whitespace separates the header fields, and a comment runs to the
    # end of its line; one whitespace byte ends the header
    first = samples[0]
    files = [(tmp_path / f"{first.id}.{ext}", magic) for ext, magic in (("ppm", b"P6"), ("pgm", b"P5"))]
    rasters = [path.read_bytes()[len(magic + b"\n20 20\n255\n") :] for path, magic in files]
    for fields in (b" # comment\n20\t20\r\n255\n", b"#\n20\n# between\n20 255\t", b"\t20  20\r255\r"):
        for (path, magic), raster in zip(files, rasters):
            path.write_bytes(magic + fields + raster)
        again = sc.load_dataset(tmp_path).samples[0]
        assert np.array_equal(again.image, loaded.samples[0].image) and np.array_equal(again.mask, first.mask)


def test_a_float32_read_is_the_float64_read_cast(tmp_path):
    # every byte value once per channel, in a 16x16 image
    values = np.arange(256, dtype=np.uint8).reshape(16, 16)
    image = np.stack([values, values[::-1], values.T], axis=-1) / 255.0
    sc.save_dataset([sc.Sample("all", image, np.zeros((16, 16), np.uint8))], tmp_path, 1)
    wide, narrow = (sc.load_dataset(tmp_path, dtype).samples[0].image for dtype in (np.float64, np.float32))
    assert np.array_equal(np.sort(np.round(wide * 255.0).ravel()), np.repeat(np.arange(256), 3))
    assert wide.dtype == np.float64 and narrow.dtype == np.float32
    assert narrow.tobytes() == wide.astype(np.float32).tobytes()


def test_empty_manifest_gives_empty_corpus(tmp_path):
    (tmp_path / "manifest.txt").write_text("classes=4\n")
    loaded = sc.load_dataset(tmp_path)
    assert loaded.samples == []
    assert loaded.num_classes == 4


def test_ingestion_rejects_label_above_class_count(tmp_path):
    cfg = sc.SyntheticConfig(num_fg_classes=3, num_images=1, height=20, width=20)
    samples = sc.generate_synthetic(6, cfg)
    samples[0].mask[0, 0] = 7
    sc.save_dataset(samples, tmp_path, 5)
    with pytest.raises(IngestionError, match="label 7"):
        sc.load_dataset(tmp_path)


def test_ingestion_rejects_a_class_count_above_a_byte(tmp_path):
    (tmp_path / "manifest.txt").write_text("classes=256\n")
    with pytest.raises(IngestionError, match=re.escape(f"{tmp_path / 'manifest.txt'}: classes=256")):
        sc.load_dataset(tmp_path)


def test_ingestion_rejects_duplicate_sample_id(tmp_path):
    cfg = sc.SyntheticConfig(num_fg_classes=3, num_images=4, height=20, width=20)
    sc.save_dataset(sc.generate_synthetic(5, cfg), tmp_path, 3)
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text().splitlines()
    first_id = lines[1].split()[0]
    # the second sample's files listed under the first sample's id
    lines[2] = " ".join([first_id] + lines[2].split()[1:])
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError, match=rf"manifest\.txt.*'{first_id}'"):
        sc.load_dataset(tmp_path)


def test_ingestion_rejects_malformed_header(tmp_path):
    (tmp_path / "manifest.txt").write_text("classes=1\nx x.ppm x.pgm\n")
    (tmp_path / "x.ppm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    (tmp_path / "x.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(IngestionError, match="P6"):
        sc.load_dataset(tmp_path)
    # a truncated header, an unterminated comment, a field that is not a
    # number and a 16-bit maxval each name the file
    for bad in (b"P6\n2 2", b"P6\n2 2\n# no end", b"P6\n2 x 255\n" + bytes(12), b"P6\n2 2\n65535\n" + bytes(24)):
        (tmp_path / "x.ppm").write_bytes(bad)
        with pytest.raises(IngestionError, match=re.escape(f"{tmp_path / 'x.ppm'}: ")):
            sc.load_dataset(tmp_path)


def test_ingestion_rejects_missing_pair(tmp_path):
    (tmp_path / "manifest.txt").write_text("classes=1\nx x.ppm x.pgm\n")
    (tmp_path / "x.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(IngestionError, match="x.pgm"):
        sc.load_dataset(tmp_path)


def test_ingestion_rejects_truncated_raster(tmp_path):
    (tmp_path / "manifest.txt").write_text("classes=1\nx x.ppm x.pgm\n")
    (tmp_path / "x.ppm").write_bytes(b"P6\n2 2\n255\n" + bytes(5))
    (tmp_path / "x.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes(4))
    with pytest.raises(IngestionError, match="raster"):
        sc.load_dataset(tmp_path)
