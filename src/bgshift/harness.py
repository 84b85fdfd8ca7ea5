"""Experiment orchestration: methods x seeds x steps, reports and comparison.

A run is a grid of cells (method, seed), run one after another in one
process. The corpus is read once per run and split once per schedule a cell
trains on: the run's, and Joint's one step of every class
(``LabelSchedule.joint``). A step 0 depends on its split and seed alone
(``trainer.first_step``), so ``_run_cells`` trains and evaluates it once per
(schedule, seed), and every cell of that schedule and seed continues it
through ``run_incremental``. Every cell is grouped by the run's schedule. The
report aggregates seed means/stddevs per method. A failure fails the cells it
touches and no others: a failed step 0 the cells that continue it, a failed
cell only itself.
"""
from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .exceptions import ComparisonError, ConfigError, GenerationError, ScheduleError
from .losses import MethodConfig, method_preset, preset_key
from .model import BackboneConfig, save_checkpoint
from .scenario import (
    MAX_CLASSES,
    PROTOCOLS,
    LabelSchedule,
    Sample,
    SplitReport,
    StepDataset,
    SyntheticConfig,
    build_schedule,
    check_synthetic,
    generate_synthetic,
    load_dataset,
    split_corpus,
)
from .trainer import FirstStep, TrainConfig, first_step, run_incremental

TIE_BAND = 0.5  # mIoU points


@dataclass
class DatasetSpec:
    kind: str = "synthetic"  # synthetic | dir
    path: str | None = None
    eval_path: str | None = None
    seed: int = 0
    num_fg_classes: int = 5
    num_train: int = 200
    num_eval: int = 50
    height: int = 64
    width: int = 64
    blobs_per_image: int = 3

    def __post_init__(self):
        if self.kind not in ("synthetic", "dir"):
            raise ConfigError(f"dataset.kind {self.kind!r} is neither synthetic nor dir")
        if self.num_fg_classes > MAX_CLASSES:  # a class id is a mask byte
            raise ConfigError(f"dataset.num_fg_classes must be at most {MAX_CLASSES}, got {self.num_fg_classes}")
        if self.kind == "dir" and not self.path:
            raise ConfigError("dataset.path is not set; a dir dataset reads it")

    def check_eval_path(self) -> None:  # a run scores on it; select reads only path
        if self.kind == "dir" and not self.eval_path:
            raise ConfigError("dataset.eval_path is not set; a run of a dir dataset scores on it")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    schedule_sizes: list[int] = field(default_factory=lambda: [4, 1])
    class_order: str = "index"
    order_seed: int = 0
    protocol: str = "overlapped"
    methods: list[str] = field(default_factory=lambda: ["FT"])
    seeds: list[int] = field(default_factory=lambda: [0])
    train: TrainConfig = field(default_factory=TrainConfig)
    out_dir: str | None = None
    # the train.method.* keys the config sets, on top of each method's
    # preset in every cell's training config (``cell_config``)
    method_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.methods or not self.seeds:
            raise ConfigError("need at least one method and one seed")
        try:  # their errors name the bad dataset.* key, schedule_sizes, class_order or order_seed
            if self.dataset.kind == "synthetic":
                check_synthetic({**vars(self.dataset), "num_images": self.dataset.num_train + self.dataset.num_eval})
            self.schedule()
        except (GenerationError, ScheduleError) as e:
            raise ConfigError(str(e)) from None
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol {self.protocol!r} is none of {PROTOCOLS}")
        bad = [s for s in self.seeds if not isinstance(s, int) or isinstance(s, bool) or s < 0]
        if bad:
            raise ConfigError(f"seeds must be non-negative integers, got {bad}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds {self.seeds} repeat a seed")
        for m in self.methods:
            self.cell_config(m, self.seeds[0])  # validate names and overrides early
        keys = [preset_key(m) for m in self.methods]
        if len(set(keys)) < len(keys):
            raise ConfigError(f"methods {self.methods} name the same preset twice")

    def schedule(self) -> LabelSchedule:
        """The run's class schedule."""
        return build_schedule(self.dataset.num_fg_classes, self.schedule_sizes, self.class_order, self.order_seed)

    def cell_config(self, method: str, seed: int) -> TrainConfig:
        """The training config of cell (``method``, ``seed``): the method's
        preset with ``method_overrides`` on top, seeded with ``seed`` (one of
        ``seeds``); ``train.seed`` is ignored."""
        return replace(self.train, seed=seed, method=replace(method_preset(method), **self.method_overrides))


def _synthetic_corpora(spec: DatasetSpec, dtype) -> tuple[list[Sample], list[Sample]]:
    cfg = SyntheticConfig(
        num_fg_classes=spec.num_fg_classes,
        num_images=spec.num_train + spec.num_eval,
        height=spec.height,
        width=spec.width,
        blobs_per_image=spec.blobs_per_image,
    )
    samples = [Sample(s.id, s.image.astype(dtype, copy=False), s.mask) for s in generate_synthetic(spec.seed, cfg)]
    return samples[: spec.num_train], samples[spec.num_train :]


def _read_dir(spec: DatasetSpec, key: str, dtype) -> list[Sample]:
    """The samples of directory ``dataset.<key>`` in ``dtype``; ConfigError naming the key
    unless its manifest lists a sample and declares ``dataset.num_fg_classes`` classes."""
    path = getattr(spec, key)
    corpus = load_dataset(path, dtype)
    if not corpus.samples:  # nothing to train on, or every mIoU would read 0
        raise ConfigError(f"the manifest of dataset.{key} {path!r} lists no sample")
    if corpus.num_classes != spec.num_fg_classes:
        raise ConfigError(
            f"dataset.num_fg_classes is {spec.num_fg_classes} but the manifest of dataset.{key} {path!r} "
            f"declares classes={corpus.num_classes}"
        )
    return corpus.samples


def training_corpus(spec: DatasetSpec, dtype=np.float64) -> list[Sample]:
    """The train corpus of ``build_corpora``, without reading the eval one
    when it can: a synthetic config still generates its eval images, as its
    training images depend on ``num_eval``; a dir one reads ``path`` only."""
    if spec.kind == "synthetic":
        return _synthetic_corpora(spec, dtype)[0]
    train = _read_dir(spec, "path", dtype)
    # training stacks a step's images; eval scores them one at a time
    odd = next((s for s in train if s.image.shape != train[0].image.shape), None)
    if odd is not None:
        raise ConfigError(
            f"dataset.path {spec.path!r}: sample {odd.id!r} is {odd.image.shape[:2]} pixels but {train[0].id!r} "
            f"is {train[0].image.shape[:2]}; training images must share one size"
        )
    return train


def build_corpora(spec: DatasetSpec, dtype=np.float64) -> tuple[list[Sample], list[Sample]]:
    """(train corpus, eval corpus) from a synthetic config or the two
    directories of a dir one, the images in ``dtype`` (float64 keeps the
    generator's arrays; a directory's images are read into ``dtype`` one at
    a time, see ``scenario.load_dataset``)."""
    if spec.kind == "synthetic":
        return _synthetic_corpora(spec, dtype)
    spec.check_eval_path()
    # mIoU must not be measured on training images
    if Path(spec.path).resolve() == Path(spec.eval_path).resolve():
        raise ConfigError(
            f"dataset.eval_path {spec.eval_path!r} is the training directory {spec.path!r}"
        )
    train = training_corpus(spec, dtype)
    heldout = _read_dir(spec, "eval_path", dtype)
    shared = sorted({s.id for s in train} & {s.id for s in heldout})
    if shared:
        raise ConfigError(
            f"{spec.path} and {spec.eval_path} share {len(shared)} sample ids, first {shared[:3]}"
        )
    return train, heldout


def _cell_schedule(schedule: LabelSchedule, method: str) -> LabelSchedule:
    """The schedule a ``method`` cell trains on: Joint's one step, or the run's ``schedule``."""
    return schedule.joint() if preset_key(method) == "JOINT" else schedule


@dataclass
class RunInputs:
    """What every cell of a run reads, built once per run: the eval corpus and
    the split of each schedule a cell trains on (``_cell_schedule``). The images
    have the run's training dtype (``train.backbone.dtype``), as ``build_corpora``
    makes them: every forward pass casts its images to it, so a float32 run
    holds them in half the memory and computes the same."""

    schedule: LabelSchedule
    eval_corpus: list[Sample]
    splits: dict[LabelSchedule, tuple[list[StepDataset], SplitReport]]

    @classmethod
    def build(cls, config: ExperimentConfig) -> "RunInputs":
        schedule = config.schedule()
        corpus, eval_corpus = build_corpora(config.dataset, config.train.backbone.dtype)
        cell_schedules = dict.fromkeys(_cell_schedule(schedule, m) for m in config.methods)
        return cls(schedule, eval_corpus, {s: split_corpus(corpus, s, config.protocol) for s in cell_schedules})


def run_cell(config: ExperimentConfig, inputs: RunInputs, method: str, seed: int, first: FirstStep) -> dict:
    """Execute one (method, seed) cell; returns a plain serializable record.

    The cell continues ``first``, the step 0 of its seed and schedule, which
    ``_run_cells`` trains once for every cell that continues it; ``seconds``
    counts the cell's own steps, and ``_run_cells`` adds the step 0's time.
    """
    cfg = config.cell_config(method, seed)
    started = time.perf_counter()
    results = run_incremental(first, inputs.eval_corpus, inputs.schedule, cfg)
    record = {
        "method": method,
        "seed": seed,
        "status": "ok",
        "seconds": time.perf_counter() - started,
        "steps": [
            {"step": i, "metrics": r.metrics.as_dict(), "loss_trace": r.loss_trace, "iterations": r.iterations}
            for i, r in enumerate(results)
        ],
        "excluded_images": list(first.split_report.excluded_ids),
        "background_shift": first.split_report.per_step,
    }
    if config.out_dir:
        ckpt_dir = Path(config.out_dir) / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for i, result in enumerate(results):
            save_checkpoint(result.model, ckpt_dir / f"{method}-seed{seed}-step{i}.npz")
    return record


def _error_text(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"


def _failed_record(method: str, seed: int, error: str) -> dict:
    return {"method": method, "seed": seed, "status": "failed", "error": error, "steps": []}


def _run_cells(config: ExperimentConfig) -> list[dict]:
    """One record per cell, methods x seeds; per seed, the first cell of a
    schedule trains its step 0 (under its own config) for all that continue it."""
    try:
        inputs = RunInputs.build(config)
    except Exception as e:  # nothing can run without the corpus
        return [_failed_record(m, s, _error_text(e)) for m in config.methods for s in config.seeds]
    records = {}
    for seed in config.seeds:
        firsts = {}  # schedule -> (its step 0, or the error that failed it; seconds)
        for method in config.methods:
            schedule = _cell_schedule(inputs.schedule, method)
            if schedule not in firsts:
                started = time.perf_counter()
                try:
                    cfg = config.cell_config(method, seed)
                    first = first_step(inputs.splits[schedule], inputs.eval_corpus, inputs.schedule, cfg)
                except Exception as e:  # fails the cells that continue it only
                    first = f"step 0 failed: {_error_text(e)}"
                firsts[schedule] = first, time.perf_counter() - started
            first, step0_seconds = firsts[schedule]
            if isinstance(first, str):
                records[(method, seed)] = _failed_record(method, seed, first)
                continue
            try:
                record = run_cell(config, inputs, method, seed, first)
                record["seconds"] += step0_seconds
            except Exception as e:  # keep other cells running
                record = _failed_record(method, seed, _error_text(e))
            records[(method, seed)] = record
    return [records[(m, s)] for m in config.methods for s in config.seeds]


def run_experiment(config: ExperimentConfig) -> dict:
    """Run all cells, aggregate, and (optionally) write report files."""
    config.dataset.check_eval_path()
    out = make_out_dir(config.out_dir) if config.out_dir else None  # before any training
    cells = _run_cells(config)
    report = {
        "config": config_to_dict(config),
        "cells": cells,
        "aggregate": {
            m: _seed_stats([c for c in cells if c["method"] == m and c["status"] == "ok"]) for m in config.methods
        },
        "ok": all(r["status"] == "ok" for r in cells),
    }
    if out is not None:
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
        (out / "miou.csv").write_text(report_csv(report))
    return report


def make_out_dir(path) -> Path:
    """Create the output directory ``path`` (ConfigError naming it if that fails)."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create the output directory {path}: {e}") from None
    return Path(path)


def _seed_stats(cells: list[dict]) -> dict:
    """Mean and std over ``cells`` (one method's ok cells) of the final-step
    group and all-class mIoU; a group that is None in every cell gets None.
    Every ok cell ends with the groups of the schedule's last step
    (``evaluate_model``)."""
    if not cells:
        return {"status": "failed"}
    final = [c["steps"][-1]["metrics"] for c in cells]
    group_mean, group_std = [], []
    for g in range(len(final[0]["group_miou"])):
        vals = [f["group_miou"][g] for f in final if f["group_miou"][g] is not None]
        group_mean.append(float(np.mean(vals)) if vals else None)
        group_std.append(float(np.std(vals)) if vals else None)
    alls = [f["all_miou"] for f in final]
    return {
        "status": "ok",
        "group_mean": group_mean,
        "group_std": group_std,
        "all_mean": float(np.mean(alls)),
        "all_std": float(np.std(alls)),
    }


def _fmt(v) -> str:
    return "" if v is None else f"{v:.6g}"


def report_csv(report: dict) -> str:
    """Flat per-(method, seed, step) mIoU table."""
    n_groups = len(report["config"]["schedule_sizes"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["method", "seed", "step"]
        + [f"group{g}_miou" for g in range(n_groups)]
        + ["all_miou", "fg_miou"]
    )
    for cell in report["cells"]:
        if cell["status"] != "ok":
            continue
        for step in cell["steps"]:
            m = step["metrics"]
            groups = [_fmt(v) for v in m["group_miou"][:n_groups]]
            groups += [""] * (n_groups - len(groups))
            row = [cell["method"], cell["seed"], step["step"], *groups, _fmt(m["all_miou"]), _fmt(m["fg_miou"])]
            writer.writerow(row)
    return buf.getvalue()


def final_seed_mean(report: dict, method: str) -> dict:
    """Seed-mean final-step metrics {group{g}: x, all: y} for one method,
    read from the report's ``aggregate`` (ComparisonError if it has none or
    the method's entry is malformed)."""
    aggregate = report.get("aggregate") if isinstance(report, dict) else None
    if not isinstance(aggregate, dict):
        raise ComparisonError(f"no 'aggregate' mapping of methods to read {method!r} from")
    stats = aggregate.get(method, {"status": "failed"})
    status = stats.get("status") if isinstance(stats, dict) else None
    if status == "failed":
        raise ComparisonError(f"method {method!r} has no successful cells")
    if status != "ok" or not isinstance(stats.get("group_mean"), list) or "all_mean" not in stats:
        raise ComparisonError(f"method {method!r} has a malformed aggregate entry: {stats!r}")
    out = {f"group{g}": v for g, v in enumerate(stats["group_mean"])}
    out["all"] = stats["all_mean"]
    if not all(v is None or isinstance(v, (int, float)) for v in out.values()):
        raise ComparisonError(f"method {method!r} has a mean that is not a number: {stats!r}")
    return out


def compare_report(report: dict, baseline_method: str, target_method: str) -> dict:
    """Per-cell verdicts on seed-mean final metrics (tie band 0.5 points)."""
    base = final_seed_mean(report, baseline_method)
    target = final_seed_mean(report, target_method)
    if len(base) != len(target):  # each holds its groups and "all"
        raise ComparisonError(
            f"methods {baseline_method!r} and {target_method!r} have {len(base) - 1} and {len(target) - 1} groups"
        )
    verdicts = {}
    for key in base:
        b, t = base.get(key), target.get(key)
        if b is None or t is None:
            verdicts[key] = "missing"
            continue
        diff = (t - b) * 100.0  # mIoU points
        if abs(diff) < TIE_BAND:
            verdicts[key] = "tie"
        elif diff > 0:
            verdicts[key] = "target_higher"
        else:
            verdicts[key] = "baseline_higher"
    return verdicts


# ---------------------------------------------------------------------------
# config (de)serialization: nested dicts <-> dataclasses, dotted-key files


def config_to_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    # the method section holds the keys set on top of the presets
    d["train"]["method"] = d.pop("method_overrides")
    return d


def _check_type(key: str, value, default) -> None:
    """ConfigError naming ``key`` unless ``value`` has the type of the field's
    ``default``: an int passes for a float, a bool only for a bool, a str or
    None for a None default, and a list's elements are checked in turn."""
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        for v in value:
            _check_type(key, v, default[0])
        return
    if default is None:
        expected = (str, type(None))
    elif isinstance(default, float):
        expected = (int, float)
    else:
        expected = type(default)
    if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, expected):
        names = "a str or None" if default is None else f"of type {type(default).__name__}"
        raise ConfigError(f"{key} must be {names}, got {value!r}")


def _section(cls, d, prefix: str, hidden: str = "") -> dict:
    """``d`` as keyword arguments for dataclass ``cls``; an unknown key (the
    field ``hidden`` is one), or a value not of the type of its field's
    default (``_check_type``), raises ConfigError naming its dotted path."""
    if not isinstance(d, dict):
        raise ConfigError(f"config key {prefix.rstrip('.')!r} is a section, not a value")
    by_name = {f.name: f for f in fields(cls) if f.name != hidden}
    for key, value in d.items():
        if key not in by_name:
            raise ConfigError(f"unknown config key {prefix + key!r}")
        f = by_name[key]
        default = f.default if f.default is not MISSING else f.default_factory()
        if not (is_dataclass(default) or isinstance(default, dict)):  # sections check their own keys
            _check_type(prefix + key, value, default)
    return dict(d)


def config_from_dict(d: dict) -> ExperimentConfig:
    # method_overrides is spelled train.method.*, and a method's name is its preset's
    d = _section(ExperimentConfig, d, "", hidden="method_overrides")
    dataset = DatasetSpec(**_section(DatasetSpec, d.pop("dataset", {}), "dataset."))
    train_d = _section(TrainConfig, d.pop("train", {}), "train.")
    method_d = _section(MethodConfig, train_d.pop("method", {}), "train.method.", hidden="name")
    backbone = BackboneConfig(**_section(BackboneConfig, train_d.pop("backbone", {}), "train.backbone."))
    train = TrainConfig(backbone=backbone, **train_d)
    return ExperimentConfig(dataset=dataset, train=train, method_overrides=method_d, **d)


def _parse_scalar(text: str):
    """A config value: a bool, None, an int, a float, a comma-separated list
    of these, or else a str. A value in matching double or single quotes is
    the str between them (``"2024"``, ``'none'``, ``"1,2"``); a list's items
    are quoted one by one (``"a","b"``)."""
    s = text.strip()
    if len(s) >= 2 and s[0] in "\"'" and s[-1] == s[0] and s[0] not in s[1:-1]:
        return s[1:-1]
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("none", "null", ""):
        return None
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    if "," in s:
        return [_parse_scalar(p) for p in s.split(",")]
    return s


_LIST_KEYS = {"methods", "seeds", "schedule_sizes"}


def _assign(tree: dict, dotted: str, text: str) -> None:
    """Set ``a.b.c`` in the nested ``tree`` to the parsed ``text``."""
    keys = dotted.strip().split(".")
    value = _parse_scalar(text)
    if keys[-1] in _LIST_KEYS and not isinstance(value, list):
        value = [value]
    node = tree
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot nest under scalar key {k!r}")
    node[keys[-1]] = value


def parse_config_text(text: str) -> dict:
    """``a.b.c = value`` lines with # comments into a nested dict."""
    tree: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        _assign(tree, *line.split("=", 1))
    return tree


def load_experiment_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    """The config file at ``path`` with ``--key=value`` overrides on top."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    tree = parse_config_text(text)
    for item in overrides or []:
        body = item[2:] if item.startswith("--") else item
        if "=" not in body:
            raise ConfigError(f"override {item!r} must look like --key=value")
        _assign(tree, *body.split("=", 1))
    return config_from_dict(tree)
