"""Label schedules, the incremental split of a corpus and the synthetic corpus.

The label layout is fixed: label 0 (``BACKGROUND``) is the background, the
foreground classes are 1..K, and the label space of a step is the
background followed by every class scheduled up to that step, so it extends
the previous step's. Masks, schedules, models and losses all use it.

``split_corpus`` turns a fully-annotated corpus into per-step training sets
by one rule. The candidate steps of an image are those that introduce one of
its classes. The overlapped protocol puts the image in every candidate step;
the disjoint protocol puts it only in the earliest candidate whose cumulative
label space covers all its classes. An image left with no step is excluded.
Either way the step masks only annotate that step's classes, everything else
collapses to background, which is exactly the label shift the
background-aware losses are built for. A ``Sample`` is an image and its
mask: the full one in a corpus, the step's in a ``StepDataset``. How many
background pixels of a step are really old or future foreground is counted
in ``SplitReport.per_step``.
"""
from __future__ import annotations

import colorsys
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import GenerationError, IngestionError, LabelDomainError, ScheduleError

BACKGROUND = 0  # the background's label, and channel 0 of every model
# a mask is uint8, one byte per pixel as in the P5 files it is read from, so
# a class id is at most this
MAX_CLASSES = 255
PROTOCOLS = ("disjoint", "overlapped")


@dataclass(frozen=True)
class LabelSchedule:
    """Foreground class ids per learning step; background is implicit."""

    steps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.steps or not self.steps[0]:
            raise ScheduleError("the first step must introduce at least one class")
        flat = [c for step in self.steps for c in step]
        if BACKGROUND in flat:
            raise ScheduleError("background id cannot be scheduled as a foreground class")
        if len(set(flat)) != len(flat):
            raise ScheduleError("class ids must be disjoint across steps")

    @property
    def num_steps(self) -> int:
        return len(self.steps)

    def new_fg(self, t: int) -> list[int]:
        return list(self.steps[t])

    def fg_up_to(self, t: int) -> list[int]:
        return [c for step in self.steps[: t + 1] for c in step]

    def label_space(self, t: int) -> list[int]:
        return [BACKGROUND] + self.fg_up_to(t)

    def all_fg(self) -> list[int]:
        return self.fg_up_to(self.num_steps - 1)

    def joint(self) -> "LabelSchedule":
        return LabelSchedule((tuple(self.all_fg()),))


def build_schedule(
    num_fg_classes: int,
    sizes: list[int],
    order: str = "index",
    seed: int | None = None,
) -> LabelSchedule:
    """Slice the (optionally permuted) class order into consecutive steps."""
    if sum(sizes) != num_fg_classes:
        raise ScheduleError(f"schedule_sizes {sizes} do not sum to {num_fg_classes} classes")
    if any(s <= 0 for s in sizes):
        raise ScheduleError(f"schedule_sizes {sizes} are not all positive")
    ids = np.arange(1, num_fg_classes + 1)
    if order == "permuted":
        if seed is not None and seed < 0:
            raise ScheduleError(f"order_seed {seed} is negative")
        ids = np.random.default_rng(0 if seed is None else seed).permutation(ids)
    elif order != "index":
        raise ScheduleError(f"class_order {order!r} is neither index nor permuted")
    steps = []
    pos = 0
    for s in sizes:
        steps.append(tuple(int(c) for c in ids[pos : pos + s]))
        pos += s
    return LabelSchedule(tuple(steps))


@dataclass
class Sample:
    """An image and its mask: the full annotation in a corpus, the step's
    relabeled one in a ``StepDataset``. Images are float64 from
    ``generate_synthetic``, of the dtype ``load_dataset`` is given, and of
    the run's training dtype inside a run (``harness.RunInputs``). Masks are
    uint8 wherever this module makes them, and ``relabel`` and ``split_corpus``
    keep their dtype; the losses, the evaluation and the Fisher estimate
    read a mask of any integer dtype."""

    id: str
    image: np.ndarray  # [H, W, ch] floats in [0, 1]
    mask: np.ndarray  # [H, W] uint8 class ids (see MAX_CLASSES)

    def __post_init__(self):
        if self.image.shape[:2] != self.mask.shape:
            raise LabelDomainError(f"sample {self.id}: image/mask dims differ")


@dataclass
class StepDataset:
    """The training set of one learning step (only its classes annotated)."""

    items: list[Sample]
    step: int
    new_fg: list[int]  # incoming classes, schedule order

    def __post_init__(self):
        visible = set(self.visible_classes)
        incoming = set(self.new_fg)
        for item in self.items:
            labels = set(np.unique(item.mask).tolist())
            if not labels <= visible:
                raise LabelDomainError(
                    f"step {self.step} item {item.id}: labels {sorted(labels - visible)} not visible"
                )
            if not labels & incoming:
                raise LabelDomainError(
                    f"step {self.step} item {item.id}: no pixel of an incoming class"
                )

    @property
    def visible_classes(self) -> list[int]:
        return [BACKGROUND] + list(self.new_fg)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class SplitReport:
    excluded_ids: list[str]
    per_step: list[dict]  # old_as_bg / future_as_bg / true_bg pixel counts


def relabel(full_mask: np.ndarray, visible_fg) -> np.ndarray:
    """Keep labels in ``visible_fg``; everything else becomes background."""
    visible = np.asarray(sorted(set(int(c) for c in visible_fg) - {BACKGROUND}), dtype=full_mask.dtype)
    keep = np.isin(full_mask, visible)
    return np.where(keep, full_mask, BACKGROUND)


def split_corpus(corpus: list[Sample], schedule: LabelSchedule, protocol: str):
    """(per-step datasets, report) under ``protocol`` (disjoint or
    overlapped); the placement rule is in the module docstring."""
    if protocol not in PROTOCOLS:
        raise ScheduleError(f"unknown protocol {protocol!r}")
    buckets: list[list[Sample]] = [[] for _ in range(schedule.num_steps)]
    stats = [dict(old_as_bg=0, future_as_bg=0, true_bg=0) for _ in range(schedule.num_steps)]
    excluded = []
    for sample in corpus:
        ids, counts = np.unique(sample.mask, return_counts=True)
        pixels = dict(zip(ids.tolist(), counts.tolist()))  # by label
        labels = set(pixels) - {BACKGROUND}
        placed = [t for t in range(schedule.num_steps) if labels & set(schedule.new_fg(t))]
        if protocol == "disjoint":
            placed = [t for t in placed if labels <= set(schedule.fg_up_to(t))][:1]
        if not placed:
            excluded.append(sample.id)
        for t in placed:
            step_fg = set(schedule.new_fg(t))
            buckets[t].append(Sample(sample.id, sample.image, relabel(sample.mask, step_fg)))
            # a pixel the step relabels to background is an old class's, the
            # background's or else a future (or foreign) label's
            old = sum(pixels.get(c, 0) for c in set(schedule.fg_up_to(t)) - step_fg)
            true_bg = pixels.get(BACKGROUND, 0)
            stats[t]["old_as_bg"] += old
            stats[t]["true_bg"] += true_bg
            stats[t]["future_as_bg"] += sample.mask.size - sum(pixels.get(c, 0) for c in step_fg) - old - true_bg
    steps = [StepDataset(buckets[t], t, schedule.new_fg(t)) for t in range(schedule.num_steps)]
    return steps, SplitReport(excluded, stats)


# ---------------------------------------------------------------------------
# synthetic corpus


@dataclass
class SyntheticConfig:
    num_fg_classes: int = 5
    num_images: int = 100
    height: int = 64
    width: int = 64
    blobs_per_image: int = 3


NOISE = 0.05  # std of the gray background's pixel noise
SATURATION = 0.85  # of the class colors; lower = closer to the gray background
BRIGHTNESS = 0.85
MIN_RADIUS_FRAC = 0.10  # blob radii, as fractions of the shorter image side
MAX_RADIUS_FRAC = 0.26
MAX_ATTEMPTS = 20  # corpus regenerations before giving up on class balance
# the least value of each setting with which a synthetic corpus can be
# generated and scored, by its dataset.* key (num_images: the generator's
# count); from a side of 16 up, the blob radius range is never empty
SYNTHETIC_MINIMA = {
    "seed": 0, "num_fg_classes": 1, "height": 16, "width": 16, "num_train": 1, "num_eval": 1, "num_images": 1,
    "blobs_per_image": 1,
}


def check_synthetic(values: dict) -> None:
    """GenerationError naming ``dataset.<key>`` for the first key of
    ``SYNTHETIC_MINIMA`` whose value in ``values`` is below its least value,
    or if the ``num_images`` images draw fewer class blobs than there are
    classes: then some class is never drawn, and no corpus is balanced."""
    for key, least in SYNTHETIC_MINIMA.items():
        if key in values and values[key] < least:
            raise GenerationError(f"dataset.{key} must be at least {least}, got {values[key]}")
    if values["num_fg_classes"] > MAX_CLASSES:
        raise GenerationError(f"dataset.num_fg_classes must be at most {MAX_CLASSES}, got {values['num_fg_classes']}")
    images, blobs, k = values["num_images"], values["blobs_per_image"], values["num_fg_classes"]
    if images * blobs < k:
        raise GenerationError(
            f"dataset.blobs_per_image {blobs} on {images} images draws {images * blobs} class blobs, "
            f"fewer than the {k} classes of dataset.num_fg_classes: some class is never drawn"
        )


def class_signature(c: int, num_classes: int) -> tuple[np.ndarray, float, float]:
    """Deterministic (color, stripe frequency, stripe angle) for a class id."""
    hue = (c - 1) / max(num_classes, 1)
    color = np.array(colorsys.hsv_to_rgb(hue, SATURATION, BRIGHTNESS))
    freq = 0.55 + 0.22 * c
    angle = c * 2.39996323  # golden angle keeps orientations spread out
    return color, freq, angle


def generate_synthetic(seed: int, config: SyntheticConfig) -> list[Sample]:
    """Deterministic noisy images with textured elliptic class blobs.

    Regenerates (bounded retries) until every class appears in enough images
    and per-class pixel mass stays within +/-30% of uniform.
    """
    check_synthetic({"seed": seed, **vars(config)})
    rmax = int(MAX_RADIUS_FRAC * min(config.height, config.width))
    rmin = max(3, int(MIN_RADIUS_FRAC * min(config.height, config.width)))

    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence([seed, attempt]))
        samples = _generate_once(rng, config, rmin, rmax, seed)
        if _balanced(samples, config):
            return samples
    raise GenerationError(
        f"could not satisfy class-balance constraints in {MAX_ATTEMPTS} attempts with {config.num_images} "
        f"images, dataset.blobs_per_image {config.blobs_per_image} and dataset.num_fg_classes {config.num_fg_classes}"
    )


def _generate_once(rng, config: SyntheticConfig, rmin: int, rmax: int, seed: int) -> list[Sample]:
    k = config.num_fg_classes
    n_blobs = config.num_images * config.blobs_per_image
    class_pool = np.tile(np.arange(1, k + 1), n_blobs // k + 1)[:n_blobs]
    rng.shuffle(class_pool)
    ys, xs = np.mgrid[0 : config.height, 0 : config.width].astype(float)

    samples = []
    for i in range(config.num_images):
        img = 0.5 + NOISE * rng.standard_normal((config.height, config.width, 3))
        mask = np.zeros((config.height, config.width), dtype=np.uint8)
        blob_classes = class_pool[i * config.blobs_per_image : (i + 1) * config.blobs_per_image]
        for c in blob_classes:
            color, freq, angle = class_signature(int(c), k)
            rx = rng.integers(rmin, rmax + 1)
            ry = rng.integers(rmin, rmax + 1)
            cx = rng.integers(rx, config.width - rx + 1)
            cy = rng.integers(ry, config.height - ry + 1)
            rot = rng.uniform(0, math.pi)
            dx, dy = xs - cx, ys - cy
            u = dx * math.cos(rot) + dy * math.sin(rot)
            v = -dx * math.sin(rot) + dy * math.cos(rot)
            inside = (u / rx) ** 2 + (v / ry) ** 2 <= 1.0
            stripes = 0.12 * np.sin(freq * (xs * math.cos(angle) + ys * math.sin(angle)))
            tex = color[None, None, :] + stripes[:, :, None]
            tex = tex + 0.03 * rng.standard_normal(tex.shape)
            img = np.where(inside[:, :, None], tex, img)
            mask[inside] = c
        samples.append(Sample(f"syn{seed}-{i:05d}", np.clip(img, 0.0, 1.0), mask))
    return samples


def _balanced(samples: list[Sample], config: SyntheticConfig) -> bool:
    k = config.num_fg_classes
    pixel_counts = np.zeros(k + 1, dtype=np.int64)
    image_counts = np.zeros(k + 1, dtype=np.int64)
    for s in samples:
        binc = np.bincount(s.mask.reshape(-1), minlength=k + 1)
        pixel_counts += binc
        image_counts += (binc > 0).astype(np.int64)
    fg = pixel_counts[1:]
    if fg.sum() == 0:
        return False
    share = fg / fg.sum()
    min_images = max(1, config.num_images // 10)
    return bool((np.abs(share - 1.0 / k) <= 0.3 / k).all() and (image_counts[1:] >= min_images).all())


# ---------------------------------------------------------------------------
# on-disk corpus: manifest + binary PPM/PGM pairs


@dataclass
class LoadedCorpus:
    samples: list[Sample]
    num_classes: int  # foreground classes declared by the manifest


def _write_pnm(path: Path, magic: bytes, arr: np.ndarray) -> None:
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(arr.astype(np.uint8).tobytes())


def save_dataset(samples: list[Sample], directory, num_classes: int) -> None:
    """A manifest, and a PPM image and PGM mask named by each sample's id; an
    id they cannot hold is an IngestionError before any file is written."""
    seen = set()
    for s in samples:  # the manifest splits on whitespace
        if not s.id or s.id in seen or any(c.isspace() or c in (os.sep, os.altsep) for c in s.id):
            raise IngestionError(f"sample id {s.id!r} is empty, repeated, or holds whitespace or a path separator")
        seen.add(s.id)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = [f"classes={num_classes}"]
    for s in samples:
        img_name, mask_name = f"{s.id}.ppm", f"{s.id}.pgm"
        _write_pnm(directory / img_name, b"P6", np.round(s.image * 255.0))
        _write_pnm(directory / mask_name, b"P5", s.mask)
        lines.append(f"{s.id} {img_name} {mask_name}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


# magic, then width, height and maxval, each after whitespace or comment
# lines, then the one whitespace byte that ends the header
_PNM_HEADER = re.compile(rb"P[56]" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def _read_pnm(path: Path, magic: bytes) -> np.ndarray:
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise IngestionError(f"{path}: {e}") from e
    if not raw.startswith(magic):
        raise IngestionError(f"{path}: expected {magic.decode()} header")
    header = _PNM_HEADER.match(raw)
    if header is None:
        raise IngestionError(f"{path}: malformed header, expected width, height and maxval")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise IngestionError(f"{path}: only 8-bit maxval 255 is supported")
    if w == 0 or h == 0:
        raise IngestionError(f"{path}: width and height must be positive, got {w}x{h}")
    channels = 3 if magic == b"P6" else 1
    need = w * h * channels
    body = raw[header.end() : header.end() + need]
    if len(body) != need:
        raise IngestionError(f"{path}: raster has {len(body)} bytes, expected {need}")
    arr = np.frombuffer(body, dtype=np.uint8).reshape(h, w, channels)
    return arr[:, :, 0] if channels == 1 else arr


def load_dataset(directory, dtype=np.float64) -> LoadedCorpus:
    """The samples a directory's manifest lists, each image read as its
    bytes / 255 in float64 and then cast to ``dtype`` (so a float32 read
    equals a float64 one cast, and no float64 copy of the corpus is held)."""
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    if not manifest.exists():
        raise IngestionError(f"{manifest}: missing manifest")
    lines = [ln.strip() for ln in manifest.read_text().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("classes="):
        raise IngestionError(f"{manifest}: first line must declare classes=<N>")
    try:
        num_classes = int(lines[0].split("=", 1)[1])
    except ValueError as e:
        raise IngestionError(f"{manifest}: bad class count") from e
    if num_classes > MAX_CLASSES:
        raise IngestionError(f"{manifest}: classes={num_classes} is above {MAX_CLASSES}, the most a mask byte holds")
    samples, seen = [], set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise IngestionError(f"{manifest}: bad manifest line {ln!r}")
        sid, img_name, mask_name = parts
        if sid in seen:
            raise IngestionError(f"{manifest}: sample id {sid!r} is listed twice")
        seen.add(sid)
        img_path, mask_path = directory / img_name, directory / mask_name
        if not img_path.exists() or not mask_path.exists():
            missing = img_path if not img_path.exists() else mask_path
            raise IngestionError(f"{missing}: listed in manifest but missing")
        img = (_read_pnm(img_path, b"P6").astype(np.float64) / 255.0).astype(dtype, copy=False)
        mask = _read_pnm(mask_path, b"P5").copy()  # writable, off the file's bytes
        if img.shape[:2] != mask.shape:
            raise IngestionError(f"{mask_path}: dims {mask.shape} do not match image {img.shape[:2]}")
        if mask.max(initial=0) > num_classes:
            raise IngestionError(
                f"{mask_path}: label {int(mask.max())} exceeds declared class count {num_classes}"
            )
        samples.append(Sample(sid, img, mask))
    return LoadedCorpus(samples, num_classes)
