"""Per-step SGD training and the incremental loop that threads model state.

Each learning step starts from the previous model (classifier extended for
the incoming classes), trains the method's composite objective with
momentum-SGD under a polynomial learning-rate decay, keeps the previous model
frozen as the distillation teacher, and maintains importance accumulators for
the prior-focused baselines. All randomness is derived from (seed, step) so
the first step is bit-identical across methods: ``first_step`` trains it once
and ``run_incremental`` can continue any method from it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from . import regularizers as rg
from .evaluation import ConfusionMatrix, MiouReport, iou_per_class, miou_groups
from .exceptions import ConfigError, DivergenceError
from .losses import MethodConfig, composite_objective
from .model import BackboneConfig, SegModel, argmax_mask, extend_classifier
from .scenario import LabelSchedule, Sample, SplitReport, StepDataset, relabel, split_corpus


@dataclass
class TrainConfig:
    lr_step0: float = 1e-2
    lr_later: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    epochs_per_step: int = 20
    batch_size: int = 8
    poly_power: float = 0.9
    seed: int = 0
    method: MethodConfig = field(default_factory=MethodConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    hflip: bool = False

    def __post_init__(self):
        if self.lr_step0 <= 0 or self.lr_later <= 0:
            raise ConfigError("learning rates must be positive")
        if self.epochs_per_step < 1:
            raise ConfigError("need at least one epoch per step")
        if self.batch_size < 1:
            raise ConfigError("batch size must be positive")


@dataclass
class StepResult:
    model: SegModel
    loss_trace: list[float]
    iterations: int
    reg_state: rg.ImportanceState | None = None
    # path-integral accumulator of the training: always kept at step 0, so a
    # shared step 0 can give PI/RW their importance afterwards
    path_state: rg.ImportanceState | None = None


def poly_lr(iteration: int, total_iters: int, base_lr: float, power: float) -> float:
    """base_lr * (1 - iter/total)^power."""
    if total_iters <= 0:
        raise ConfigError("total_iters must be positive")
    if not 0 <= iteration <= total_iters:
        raise ConfigError("iteration outside [0, total_iters]")
    return base_lr * (1.0 - iteration / total_iters) ** power


def sgd_step(
    params: dict[str, nm.Tensor],
    grads: dict[str, np.ndarray],
    lr: float,
    momentum: float,
    weight_decay: float,
    velocity: dict[str, np.ndarray],
) -> tuple[dict[str, nm.Tensor], dict[str, np.ndarray]]:
    """v <- m*v + g + wd*theta; theta <- theta - lr*v (in place)."""
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient for {name}")
        if g.shape != p.data.shape:
            raise ConfigError(f"gradient shape mismatch for {name}")
        v = velocity.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        v = momentum * v + g + weight_decay * p.data
        velocity[name] = v
        p.data -= lr * v
    return params, velocity


def _rng_children(seed: int, step: int) -> dict[str, np.random.Generator]:
    ss = np.random.SeedSequence([int(seed), int(step)])
    init, shuffle, fisher, aug = ss.spawn(4)
    return {
        "init": np.random.default_rng(init),
        "shuffle": np.random.default_rng(shuffle),
        "fisher": np.random.default_rng(fisher),
        "aug": np.random.default_rng(aug),
    }


def run_step(
    model_prev: SegModel | None,
    dataset: StepDataset,
    config: TrainConfig,
    reg_state: rg.ImportanceState | None = None,
) -> StepResult:
    """Train one learning step and return the snapshot + bookkeeping."""
    if len(dataset) == 0:
        raise ConfigError(f"step {dataset.step} has no training samples")
    t = dataset.step
    rngs = _rng_children(config.seed, t)
    method = config.method

    if model_prev is None:
        if t != 0:
            raise ConfigError(f"step {t} needs the model of step {t - 1}")
        model = SegModel.create(
            config.backbone, dataset.new_fg, rngs["init"], dataset.background_id
        )
        teacher = None
    else:
        model = extend_classifier(
            model_prev, dataset.new_fg, init=method.init_mode, rng=rngs["init"]
        )
        teacher = model_prev.frozen_copy()
    base_lr = config.lr_step0 if t == 0 else config.lr_later

    n = len(dataset)
    batches_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_iters = config.epochs_per_step * batches_per_epoch

    # frozen teacher outputs can be cached when inputs are not augmented
    cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    use_cache = teacher is not None and not config.hflip
    if use_cache:
        with nm.no_grad():
            for start in range(0, n, config.batch_size):
                idx = np.arange(start, min(start + config.batch_size, n))
                images = np.stack([dataset.items[i].image for i in idx])
                logits, feats = teacher.forward_batch(images)
                for j, i in enumerate(idx):
                    cache[int(i)] = (logits.data[j], feats.data[j])

    params = model.parameters()
    velocity: dict[str, np.ndarray] = {}
    track_path = t == 0 or method.reg_kind in ("pi", "rw")
    path_state = rg.new_path_state(model) if track_path else None

    trace: list[float] = []
    iteration = 0
    for _ in range(config.epochs_per_step):
        perm = rngs["shuffle"].permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            images = np.stack([dataset.items[i].image for i in idx])
            masks = np.stack([dataset.items[i].mask for i in idx])
            if config.hflip:
                flips = rngs["aug"].random(len(idx)) < 0.5
                images = images.copy()
                masks = masks.copy()
                for j, f in enumerate(flips):
                    if f:
                        images[j] = images[j, :, ::-1]
                        masks[j] = masks[j, :, ::-1]
            old_outputs = None
            if use_cache:
                old_outputs = (
                    np.stack([cache[int(i)][0] for i in idx]),
                    np.stack([cache[int(i)][1] for i in idx]),
                )

            penalty = None
            if method.reg_kind != "none" and reg_state is not None and t > 0:
                penalty = rg.quadratic_penalty(model, reg_state, method.reg_weight)
            model.zero_grad()
            loss = composite_objective(
                method, (images, masks), model, teacher, penalty, old_outputs
            )
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(f"step {t} iter {iteration}: loss is {value}")
            loss.backward()
            grads = {
                name: p.grad for name, p in params.items() if p.grad is not None
            }
            lr = poly_lr(iteration, total_iters, base_lr, config.poly_power)
            sgd_step(params, grads, lr, config.momentum, config.weight_decay, velocity)
            if track_path:
                deltas = {name: -lr * velocity[name] for name in grads}
                rg.path_integral_update(path_state, grads, deltas)
            epoch_losses.append(value)
            iteration += 1
        trace.append(float(np.mean(epoch_losses)))

    reg_out = update_importance(model, dataset, config, path_state, reg_state)
    return StepResult(model, trace, iteration, reg_out, path_state)


def update_importance(
    model: SegModel,
    dataset: StepDataset,
    config: TrainConfig,
    path_state: rg.ImportanceState | None,
    reg_state: rg.ImportanceState | None,
) -> rg.ImportanceState | None:
    """Merge the importance of the step just trained into ``reg_state``.

    EWC takes the Fisher diagonal of ``model`` on ``dataset``, PI the path
    integral of the training (``path_state``), RW both; methods without a
    regularizer return ``reg_state`` unchanged.
    """
    method = config.method
    if method.reg_kind == "none":
        return reg_state
    fisher_rng = _rng_children(config.seed, dataset.step)["fisher"]
    if method.reg_kind == "ewc":
        step_importance = rg.fisher_diagonal(model, dataset, method.fisher_samples, fisher_rng)
    elif method.reg_kind == "pi":
        step_importance = rg.finalize_path_importance(path_state, model, method.pi_damping)
    else:  # rw
        fisher = rg.fisher_diagonal(model, dataset, method.fisher_samples, fisher_rng)
        path = rg.finalize_path_importance(path_state, model, method.pi_damping)
        step_importance = rg.rw_importance(fisher, path)
    return rg.merge_importance(reg_state, step_importance, model)


def evaluate_model(
    model: SegModel,
    eval_corpus: list[Sample],
    schedule: LabelSchedule,
    step_t: int,
    group_schedule: LabelSchedule | None = None,
) -> MiouReport:
    """mIoU of the model on fully-annotated samples.

    Classes from steps after ``step_t`` are not in the model's label space
    yet; their pixels count as background in the ground truth.
    """
    grouping = group_schedule or schedule
    order = schedule.label_space(step_t)
    lut = np.zeros(max(order) + 1, dtype=np.int64)
    for i, c in enumerate(order):
        lut[c] = i
    cm = ConfusionMatrix(len(order))
    with nm.no_grad():
        for sample in eval_corpus:
            logits, _ = model.forward_batch(sample.image[None])
            pred = argmax_mask(logits.data[0], model.known_classes)
            gt = relabel(sample.full_mask, schedule.fg_up_to(step_t), schedule.background_id)
            cm.accumulate(lut[pred], lut[gt])
    return miou_groups(iou_per_class(cm), grouping, _group_step(grouping, schedule, step_t))


def _group_step(grouping: LabelSchedule, schedule: LabelSchedule, step_t: int) -> int:
    """Largest group index whose classes are all known at step_t."""
    known = set(schedule.fg_up_to(step_t))
    last = 0
    for g in range(grouping.num_steps):
        if set(grouping.new_fg(g)) <= known:
            last = g
        else:
            break
    return last


@dataclass
class IncrementalRun:
    results: list[StepResult]
    metrics: list[MiouReport]
    split_report: object


@dataclass
class FirstStep:
    """Step 0 trained and evaluated, with the split it was trained on."""

    steps: list[StepDataset]
    split_report: SplitReport
    result: StepResult
    metrics: MiouReport


def first_step(
    split: tuple[list[StepDataset], SplitReport],
    eval_corpus: list[Sample],
    schedule: LabelSchedule,
    config: TrainConfig,
    group_schedule: LabelSchedule | None = None,
) -> FirstStep:
    """Train and evaluate step 0 of ``split`` (the output of ``split_corpus``).

    Step 0 is plain cross-entropy for every method (see
    ``composite_objective``), so the result serves any method that uses this
    seed and these settings. It is trained without the method's regularizer:
    ``run_incremental`` computes the importance for the method it runs.
    """
    steps, split_report = split
    plain = replace(config, method=replace(config.method, reg_kind="none"))
    result = run_step(None, steps[0], plain)
    metrics = evaluate_model(result.model, eval_corpus, schedule, 0, group_schedule)
    return FirstStep(steps, split_report, result, metrics)


def run_incremental(
    corpus: list[Sample],
    eval_corpus: list[Sample],
    schedule: LabelSchedule,
    protocol: str,
    config: TrainConfig,
    group_schedule: LabelSchedule | None = None,
    first: FirstStep | None = None,
) -> IncrementalRun:
    """Split the corpus, train steps sequentially, evaluate after each.

    ``first`` is a step 0 from ``first_step`` with the same seed and settings;
    the run then continues from it instead of splitting ``corpus`` and
    training step 0 again.
    """
    if first is None:
        first = first_step(
            split_corpus(corpus, schedule, protocol), eval_corpus, schedule, config, group_schedule
        )
    reg_state = update_importance(
        first.result.model, first.steps[0], config, first.result.path_state, None
    )
    results = [replace(first.result, reg_state=reg_state)]
    metrics = [first.metrics]
    for dataset in first.steps[1:]:
        result = run_step(results[-1].model, dataset, config, results[-1].reg_state)
        results.append(result)
        metrics.append(
            evaluate_model(result.model, eval_corpus, schedule, dataset.step, group_schedule)
        )
    return IncrementalRun(results, metrics, first.split_report)


def joint_config(config: TrainConfig) -> TrainConfig:
    """The offline upper bound trains one step with plain cross-entropy."""
    return replace(config, method=replace(config.method, name="Joint", ce_mode="standard",
                                          kd_mode="none", lambda_kd=0.0, feature_kd_weight=0.0,
                                          reg_kind="none", lwfmc_variant=None))
