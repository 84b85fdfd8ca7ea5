"""Experiment orchestration: methods x seeds x steps, reports and comparison.

A run is a grid of cells (method, seed). The corpus and its split are built
once per run. Step 0 does not depend on the method, so it is trained and
evaluated once per seed; every incremental cell then continues from its
seed's step 0 and yields per-step metrics. A Joint cell trains its own single
step. The report aggregates seed means/stddevs per method. Step 0 and the
cells may run in worker processes (BGSHIFT_WORKERS, default 1), in two
phases; results are keyed, so the report is identical either way. A failure,
including a worker that dies, fails the cells it touches and no others.
"""
from __future__ import annotations

import csv
import io
import json
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .exceptions import ComparisonError, ConfigError
from .losses import MethodConfig, method_preset
from .model import BackboneConfig, save_checkpoint
from .scenario import (
    LabelSchedule,
    Sample,
    SplitReport,
    StepDataset,
    SyntheticConfig,
    build_schedule,
    generate_synthetic,
    load_dataset,
    split_corpus,
)
from .trainer import TrainConfig, first_step, joint_config, run_incremental

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
    save_checkpoints: bool = True

    def __post_init__(self):
        if not self.methods or not self.seeds:
            raise ConfigError("need at least one method and one seed")
        if sum(self.schedule_sizes) != self.dataset.num_fg_classes:
            raise ConfigError(
                f"schedule {self.schedule_sizes} does not cover {self.dataset.num_fg_classes} classes"
            )
        for m in self.methods:
            method_preset(m)  # validate names early


def build_corpora(spec: DatasetSpec) -> tuple[list[Sample], list[Sample]]:
    """(train corpus, eval corpus) from a synthetic config or a directory."""
    if spec.kind == "synthetic":
        cfg = SyntheticConfig(
            num_fg_classes=spec.num_fg_classes,
            num_images=spec.num_train + spec.num_eval,
            height=spec.height,
            width=spec.width,
            blobs_per_image=spec.blobs_per_image,
        )
        samples = generate_synthetic(spec.seed, cfg)
        return samples[: spec.num_train], samples[spec.num_train :]
    if spec.kind == "dir":
        if not spec.path or not spec.eval_path:
            raise ConfigError("dir datasets need both path and eval_path")
        train = load_dataset(spec.path)
        heldout = load_dataset(spec.eval_path)
        if train.num_classes != heldout.num_classes:
            raise ConfigError("train and eval directories declare different class counts")
        return train.samples, heldout.samples
    raise ConfigError(f"unknown dataset kind {spec.kind!r}")


@dataclass
class RunInputs:
    """What every cell of a run reads; built once per run."""

    schedule: LabelSchedule
    corpus: list[Sample]
    eval_corpus: list[Sample]
    split: tuple[list[StepDataset], SplitReport]

    @classmethod
    def build(cls, config: ExperimentConfig) -> "RunInputs":
        schedule = build_schedule(
            config.dataset.num_fg_classes, config.schedule_sizes, config.class_order, config.order_seed
        )
        corpus, eval_corpus = build_corpora(config.dataset)
        return cls(schedule, corpus, eval_corpus, split_corpus(corpus, schedule, config.protocol))


def _is_joint(method: str) -> bool:
    return method.upper() == "JOINT"


def _step0_spec(config: ExperimentConfig, inputs: RunInputs, seed: int) -> dict:
    # step 0 runs under the first incremental method's name; its training
    # does not depend on the method (see trainer.first_step)
    method = next(m for m in config.methods if not _is_joint(m))
    cfg = replace(config.train, seed=seed, method=method_preset(method))
    return {"train": cfg, "inputs": inputs}


def _run_step0(spec: dict) -> dict:
    """Train and evaluate one seed's shared step 0; records the time it took."""
    inputs = spec["inputs"]
    started = time.perf_counter()
    try:
        first = first_step(inputs.split, inputs.eval_corpus, inputs.schedule, spec["train"])
    except Exception as e:  # fails this seed's cells only
        return {"error": _error_text(e)}
    return {"first": first, "seconds": time.perf_counter() - started}


def _cell_spec(
    config: ExperimentConfig,
    method: str,
    seed: int,
    inputs: RunInputs | None = None,
    step0: dict | None = None,
) -> dict:
    """One cell's work. ``inputs`` and ``step0`` (a ``_run_step0`` record) are
    what the run shares; a cell without them builds and trains its own."""
    return {
        "config": config_to_dict(config),
        "method": method,
        "seed": seed,
        "inputs": inputs,
        "step0": step0,
    }


def run_cell(spec: dict) -> dict:
    """Execute one (method, seed) cell; returns a plain serializable record.

    ``seconds`` counts the cell's own steps plus the time of the shared step 0
    it reused, so it stays comparable with a cell that trains step 0 itself.
    """
    config = config_from_dict(spec["config"])
    method_name, seed = spec["method"], spec["seed"]
    inputs = spec["inputs"] or RunInputs.build(config)
    step0 = spec["step0"] or {"first": None, "seconds": 0.0}
    cfg = replace(config.train, seed=seed, method=method_preset(method_name))
    started = time.perf_counter()
    if _is_joint(method_name):
        run = run_incremental(
            inputs.corpus,
            inputs.eval_corpus,
            inputs.schedule.joint(),
            config.protocol,
            joint_config(cfg),
            inputs.schedule,
        )
    else:
        run = run_incremental(
            inputs.corpus,
            inputs.eval_corpus,
            inputs.schedule,
            config.protocol,
            cfg,
            first=step0["first"],
        )
    elapsed = time.perf_counter() - started + step0["seconds"]
    record = {
        "method": method_name,
        "seed": seed,
        "status": "ok",
        "seconds": elapsed,
        "steps": [
            {
                "step": i,
                "metrics": run.metrics[i].as_dict(),
                "loss_trace": run.results[i].loss_trace,
                "iterations": run.results[i].iterations,
            }
            for i in range(len(run.results))
        ],
        "excluded_images": list(run.split_report.excluded_ids),
        "background_shift": run.split_report.per_step,
    }
    if config.out_dir and config.save_checkpoints:
        ckpt_dir = Path(config.out_dir) / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        for i, result in enumerate(run.results):
            save_checkpoint(result.model, ckpt_dir / f"{method_name}-seed{seed}-step{i}.npz")
    return record


def _error_text(e: BaseException) -> str:
    return f"{type(e).__name__}: {e}"


def _failed_record(method: str, seed: int, error: str) -> dict:
    return {"method": method, "seed": seed, "status": "failed", "error": error, "steps": []}


def _safe_run_cell(spec: dict) -> dict:
    try:
        return run_cell(spec)
    except Exception as e:  # keep other cells running
        return _failed_record(spec["method"], spec["seed"], _error_text(e))


def _worker_count() -> int:
    text = os.environ.get("BGSHIFT_WORKERS", "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"BGSHIFT_WORKERS must be an integer >= 1, got {text!r}")
    return workers


def _submit(pool: ProcessPoolExecutor, fn, spec: dict) -> Future:
    try:
        return pool.submit(fn, spec)
    except BrokenProcessPool as e:  # a worker died on an earlier item
        failed = Future()
        failed.set_exception(e)
        return failed


def _map(pool: ProcessPoolExecutor | None, fn, specs: list[dict]) -> list:
    """``fn`` over ``specs``, in ``pool`` if there is one. An item whose
    worker did not return a result (a worker died and broke the pool) yields
    the exception instead."""
    if pool is None:
        return [fn(spec) for spec in specs]
    futures = [_submit(pool, fn, spec) for spec in specs]
    return [f.exception() or f.result() for f in futures]


def _run_grid(config: ExperimentConfig, pool: ProcessPoolExecutor | None) -> dict:
    """Records keyed by (method, seed): step 0 per seed, then every cell."""
    keys = [(m, s) for m in config.methods for s in config.seeds]
    try:
        inputs = RunInputs.build(config)
    except Exception as e:  # nothing can run without the corpus
        return {(m, s): _failed_record(m, s, _error_text(e)) for m, s in keys}

    step0 = {}
    if not all(_is_joint(m) for m in config.methods):
        specs = [_step0_spec(config, inputs, s) for s in config.seeds]
        for seed, rec in zip(config.seeds, _map(pool, _run_step0, specs)):
            step0[seed] = {"error": _error_text(rec)} if isinstance(rec, Exception) else rec

    records, todo = {}, []
    for m, s in keys:
        shared = None if _is_joint(m) else step0[s]
        if shared is not None and "error" in shared:
            records[(m, s)] = _failed_record(m, s, f"step 0 failed: {shared['error']}")
        else:
            todo.append(_cell_spec(config, m, s, inputs, shared))
    for spec, rec in zip(todo, _map(pool, _safe_run_cell, todo)):
        if isinstance(rec, Exception):
            rec = _failed_record(spec["method"], spec["seed"], _error_text(rec))
        records[(spec["method"], spec["seed"])] = rec
    return records


def run_experiment(config: ExperimentConfig) -> dict:
    """Run all cells, aggregate, and (optionally) write report files."""
    workers = _worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = _run_grid(config, pool)
    else:
        records = _run_grid(config, None)

    report = {
        "config": config_to_dict(config),
        "cells": [records[(m, s)] for m in config.methods for s in config.seeds],
        "aggregate": _aggregate(config, records),
        "ok": all(r["status"] == "ok" for r in records.values()),
    }
    if config.out_dir:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
        (out / "miou.csv").write_text(report_csv(report))
    return report


def _aggregate(config: ExperimentConfig, records: dict) -> dict:
    agg = {}
    for method in config.methods:
        rows = [records[(method, s)] for s in config.seeds if records[(method, s)]["status"] == "ok"]
        if not rows:
            agg[method] = {"status": "failed"}
            continue
        final = [r["steps"][-1]["metrics"] for r in rows]
        n_groups = max(len(f["group_miou"]) for f in final)
        group_mean, group_std = [], []
        for g in range(n_groups):
            vals = [f["group_miou"][g] for f in final if g < len(f["group_miou"])]
            vals = [v for v in vals if v is not None]
            group_mean.append(float(np.mean(vals)) if vals else None)
            group_std.append(float(np.std(vals)) if vals else None)
        alls = [f["all_miou"] for f in final]
        agg[method] = {
            "status": "ok",
            "group_mean": group_mean,
            "group_std": group_std,
            "all_mean": float(np.mean(alls)),
            "all_std": float(np.std(alls)),
        }
    return agg


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
            groups = [
                _fmt(m["group_miou"][g]) if g < len(m["group_miou"]) else ""
                for g in range(n_groups)
            ]
            writer.writerow(
                [cell["method"], cell["seed"], step["step"]]
                + groups
                + [_fmt(m["all_miou"]), _fmt(m["fg_miou"])]
            )
    return buf.getvalue()


def final_seed_mean(report: dict, method: str) -> dict:
    """Seed-mean final-step metrics {group{g}: x, all: y} for one method."""
    cells = [
        c for c in report["cells"] if c["method"] == method and c["status"] == "ok"
    ]
    if not cells:
        raise ComparisonError(f"method {method!r} has no successful cells")
    out = {}
    n_groups = max(len(c["steps"][-1]["metrics"]["group_miou"]) for c in cells)
    for g in range(n_groups):
        vals = [
            c["steps"][-1]["metrics"]["group_miou"][g]
            for c in cells
            if g < len(c["steps"][-1]["metrics"]["group_miou"])
        ]
        vals = [v for v in vals if v is not None]
        out[f"group{g}"] = float(np.mean(vals)) if vals else None
    out["all"] = float(np.mean([c["steps"][-1]["metrics"]["all_miou"] for c in cells]))
    return out


def compare_report(report: dict, baseline_method: str, target_method: str) -> dict:
    """Per-cell verdicts on seed-mean final metrics (tie band 0.5 points)."""
    base = final_seed_mean(report, baseline_method)
    target = final_seed_mean(report, target_method)
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
    return d


def _section(cls, d, prefix: str) -> dict:
    """``d`` as keyword arguments for dataclass ``cls``; an unknown key
    raises ConfigError naming its dotted path."""
    if not isinstance(d, dict):
        raise ConfigError(f"config key {prefix.rstrip('.')!r} is a section, not a value")
    names = {f.name for f in fields(cls)}
    for key in d:
        if key not in names:
            raise ConfigError(f"unknown config key {prefix + key!r}")
    return dict(d)


def config_from_dict(d: dict) -> ExperimentConfig:
    d = _section(ExperimentConfig, d, "")
    dataset = DatasetSpec(**_section(DatasetSpec, d.pop("dataset", {}), "dataset."))
    train_d = _section(TrainConfig, d.pop("train", {}), "train.")
    method_d = train_d.pop("method", None)
    backbone_d = train_d.pop("backbone", None)
    train = TrainConfig(**train_d)
    if method_d:
        method_d = _section(MethodConfig, method_d, "train.method.")
        train = replace(train, method=replace(train.method, **method_d))
    if backbone_d:
        train = replace(train, backbone=BackboneConfig(**_section(BackboneConfig, backbone_d, "train.backbone.")))
    return ExperimentConfig(dataset=dataset, train=train, **d)


def _parse_scalar(text: str):
    s = text.strip()
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


def _assign(tree: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = tree
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot nest under scalar key {k!r}")
    node[keys[-1]] = value


_LIST_KEYS = {"methods", "seeds", "schedule_sizes"}


def parse_config_text(text: str) -> dict:
    """``a.b.c = value`` lines with # comments into a nested dict."""
    tree: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        parsed = _parse_scalar(value)
        if key.split(".")[-1] in _LIST_KEYS and not isinstance(parsed, list):
            parsed = [parsed]
        _assign(tree, key, parsed)
    return tree


def apply_overrides(tree: dict, overrides: list[str]) -> dict:
    """--key=value strings merged onto the config tree."""
    for item in overrides:
        body = item[2:] if item.startswith("--") else item
        if "=" not in body:
            raise ConfigError(f"override {item!r} must look like --key=value")
        key, value = body.split("=", 1)
        parsed = _parse_scalar(value)
        if key.split(".")[-1] in _LIST_KEYS and not isinstance(parsed, list):
            parsed = [parsed]
        _assign(tree, key.strip(), parsed)
    return tree


def load_experiment_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    tree = parse_config_text(Path(path).read_text())
    if overrides:
        apply_overrides(tree, overrides)
    return config_from_dict(tree)
