"""Hyperparameter validation without old-task data.

The method-specific weight is chosen on the first incremental step: train the
candidate weights (a fixed log-spaced grid) on 80% of that step's data and
keep the largest weight whose new-class mIoU on the held-out 20% stays within
a tolerated decay of the fine-tuning reference. Larger weights forget less,
so the scan returns the most conservative weight that still learns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import trainer
from .exceptions import ConfigError, DivergenceError
from .losses import method_preset
from .scenario import LabelSchedule, StepDataset

GRID_MANTISSAS = (1, 5)
GRID_EXPONENTS = range(-3, 4)
TRAIN_RATIO = 0.8  # of the first incremental step's samples; the rest validate


def hparam_grid() -> list[float]:
    """The candidate weights: A * 10^B for A in {1,5}, B in -3..3."""
    return sorted(a * 10.0**b for b in GRID_EXPONENTS for a in GRID_MANTISSAS)


def split_train_val(dataset: StepDataset, seed: int = 0) -> tuple[StepDataset, StepDataset]:
    """Seeded deterministic partition by sample id; val gets
    floor(n*(1-TRAIN_RATIO)), at least one sample each side."""
    n = len(dataset)
    if n < 2:
        raise ConfigError("cannot split a dataset with fewer than two samples")
    # the epsilon keeps 10 * (1 - 0.8) from flooring to 1
    n_val = max(1, math.floor(n * (1.0 - TRAIN_RATIO) + 1e-9))
    if n_val >= n:
        raise ConfigError("validation split would consume the whole dataset")
    order = sorted(range(n), key=lambda i: dataset.items[i].id)
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = [order[i] for i in perm]
    val_idx = set(shuffled[:n_val])
    train_items = [dataset.items[i] for i in range(n) if i not in val_idx]
    val_items = [dataset.items[i] for i in range(n) if i in val_idx]
    mk = lambda items: StepDataset(items, dataset.step, list(dataset.new_fg))
    return mk(train_items), mk(val_items)


@dataclass
class SelectionResult:
    weight: float
    satisfied: bool  # False when no grid value met the constraint
    trace: list[tuple[float, float | None]]  # (candidate, new-class metric; None: diverged)
    reference: float
    threshold: float


def scan_weight_grid(
    metric_fn,
    reference: float,
    grid: list[float] | None = None,
    tolerated_decay: float = 0.2,
) -> SelectionResult:
    """Largest grid weight whose metric stays >= (1 - decay) * reference.

    Falls back to the smallest grid value (flagged) when nothing qualifies,
    so sweeps keep running. A reference <= 0 means fine-tuning learned
    nothing to measure decay against, so nothing qualifies; the trace is
    still taken. A metric of None marks a candidate whose training diverged;
    it never qualifies.
    """
    grid = sorted(grid if grid is not None else hparam_grid())
    if not grid:
        raise ConfigError("empty hyperparameter grid")
    if not 0.0 <= tolerated_decay <= 1.0:
        raise ConfigError("tolerated_decay must lie in [0, 1]")
    threshold = (1.0 - tolerated_decay) * reference
    trace = []
    for w in grid:
        metric = metric_fn(w)
        trace.append((w, None if metric is None else float(metric)))
    qualifying = [w for w, m in trace if m is not None and m >= threshold] if reference > 0 else []
    if not qualifying:
        return SelectionResult(grid[0], False, trace, reference, threshold)
    return SelectionResult(qualifying[-1], True, trace, reference, threshold)


def select_method_weight(
    train: StepDataset,
    val: StepDataset,
    method,
    grid: list[float] | None = None,
    tolerated_decay: float = 0.2,
    *,
    train_config,
    model_prev,
    reg_state,
    schedule: LabelSchedule,
) -> SelectionResult:
    """Run the weight scan with real trainings on ``train``/``val``.

    ``model_prev`` is the frozen model of the previous step and ``reg_state``
    its importance (``trainer.update_importance``; None for a method without
    a regularizer), which every candidate is penalized with. ``schedule`` is
    the run's, which groups the evaluation. The reference is the fine-tuned
    model's new-class mIoU on ``val``.
    """
    def new_class_miou(model) -> float:
        # the last group is the classes of the step just trained
        value = trainer.evaluate_model(model, val.items, schedule).group_miou[-1]
        return float(value) if value is not None else 0.0

    ft_cfg = replace(train_config, method=method_preset("FT"))
    reference = new_class_miou(trainer.run_step(model_prev, train, ft_cfg).model)

    def metric_at(w: float) -> float | None:
        cfg = replace(train_config, method=method.with_weight(w))
        try:
            model = trainer.run_step(model_prev, train, cfg, reg_state).model
        except DivergenceError:  # a penalty this strong makes SGD unstable
            return None
        return new_class_miou(model)

    return scan_weight_grid(metric_at, reference, grid, tolerated_decay)
