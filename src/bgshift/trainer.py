"""Per-step SGD training and the incremental loop that threads model state.

Each learning step starts from the previous model (classifier extended for
the incoming classes), trains the method's composite objective with
momentum-SGD (``sgd_step``, which reads ``MOMENTUM`` and ``WEIGHT_DECAY``)
under a polynomial learning-rate decay (``poly_lr``, which reads
``POLY_POWER``), and reads the previous model, untouched, as the
distillation teacher. What does not change within a step is computed once
per step, and each batch gathers its rows: what the losses read of the
teacher (``losses.teacher_targets``), and the channels of the step's labels
with the step's ``LossContext`` (``losses.step_labels``, which rejects a
label the step's loss does not allow before any parameter moves).
``sgd_step`` updates the model's one parameter vector (``SegModel.vector``)
and a velocity vector of its layout, in four in-place operations over the
whole vector, with one finiteness check of the gradients and one of the
result. ``run_step`` keeps the path-integral record of its training
(``StepResult.path_state``, a ``regularizers.PathState`` of the same
layout), into which it hands the gradient vector ``sgd_step`` returns and
the step ``-lr * velocity`` as they are; the importance the prior-focused
baselines penalize, a vector of that layout too, is computed in one place,
``update_importance``, which ``run_incremental`` calls on each step just
before it trains the next one.
All randomness is derived from (seed, step) so the first step is
bit-identical across methods: every run is a ``first_step``, trained once,
that ``run_incremental`` continues under any method, one ``StepResult``
(with its model's scores) per step. ``evaluate_model`` reads the model's
label space from the model itself.

Training runs in the dtype of the model's parameters
(``TrainConfig.backbone.dtype``, float32 unless set to float64): each batch,
and each chunk of the teacher's pass, is stacked from its samples straight
into it (a run's corpus already has it, see ``harness.RunInputs``), so the
batches, the teacher cache, the gradients, the SGD velocity (updated in
place), the ``PathState`` and the ``ImportanceState`` all have it. Loss
values are Python floats either way.

An iteration's arrays live for that iteration only: ``run_step`` drops the
batch, its label and teacher rows and the penalty once the objective is
built, and the tape once ``sgd_step`` and the path update have read the
gradients. The tape keeps what the backward reads: the backbone node's
padded input and its two tanh outputs, the head node's input and output
(the logits), and the objective's one gradient per input, summed in place
from the losses' and the penalty's (one [K, pixels] array for the logits
however many losses read them, one for the features with ILT, one per
penalized parameter); the loss nodes and the softmax are gone once the
objective is built. Across
iterations only the parameters, the velocity, the path state and the
step's own records (teacher targets and label channels) stay alive.
What an iteration frees is about the size of what the next one allocates
(about 10 MB at 8x64x64), so ``run_step`` first sets glibc's malloc to keep
freed memory mapped (``_keep_heap_pages``: process-wide, glibc-only, no
result changed) rather than hand it back to the kernel and page-fault it in
again on the next iteration.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field, replace

import numpy as np

from . import numerics as nm
from . import regularizers as rg
from .evaluation import ConfusionMatrix, MiouReport, miou_groups
from .exceptions import AlignmentError, ConfigError, DivergenceError
from .losses import MethodConfig, composite_objective, step_labels, teacher_targets
from .model import BackboneConfig, SegModel, argmax_mask, extend_classifier
from .scenario import MAX_CLASSES, LabelSchedule, Sample, SplitReport, StepDataset

MOMENTUM = 0.9
WEIGHT_DECAY = 1e-4
POLY_POWER = 0.9  # of the learning-rate decay
# glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD (malloc.h), and the value
# _keep_heap_pages gives both: glibc's largest mmap threshold on 64-bit, and
# above the ~10 MB an 8x64x64 iteration frees (at 16 MiB some calls still
# faulted thousands of pages)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_THRESHOLD = 32 << 20


@dataclass
class TrainConfig:
    lr_step0: float = 1e-2
    lr_later: float = 1e-3
    epochs_per_step: int = 20
    batch_size: int = 8
    seed: int = 0
    method: MethodConfig = field(default_factory=MethodConfig)
    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    # not a field: read by perfbench/tracing.py until ROADMAP's "Benchmark
    # v2" item unbinds it
    hflip = False

    def __post_init__(self):
        for key in ("lr_step0", "lr_later"):
            lr = getattr(self, key)
            if not (np.isfinite(lr) and lr > 0):
                raise ConfigError(f"train.{key} must be a finite positive number, got {lr}")
        for key in ("epochs_per_step", "batch_size"):
            if getattr(self, key) < 1:
                raise ConfigError(f"train.{key} must be at least 1, got {getattr(self, key)}")


@dataclass
class StepResult:
    model: SegModel
    loss_trace: list[float]
    iterations: int
    # path-integral record of the training: always kept at step 0, so a
    # shared step 0 can give PI/RW their importance afterwards
    path_state: rg.PathState | None = None
    # the model's scores on the run's eval corpus: set by first_step and
    # run_incremental, None on a bare run_step
    metrics: MiouReport | None = None


def poly_lr(iteration: int, total_iters: int, base_lr: float) -> float:
    """base_lr * (1 - iter/total)^POLY_POWER."""
    if total_iters <= 0:
        raise ConfigError("total_iters must be positive")
    if not 0 <= iteration <= total_iters:
        raise ConfigError("iteration outside [0, total_iters]")
    return base_lr * (1.0 - iteration / total_iters) ** POLY_POWER


def sgd_step(model: SegModel, lr: float, velocity: np.ndarray) -> np.ndarray:
    """v <- MOMENTUM*v + g + WEIGHT_DECAY*theta; theta <- theta - lr*v, in
    place on the model's one parameter vector (``SegModel.vector``) and its
    ``velocity``, a vector of the same layout; g is the parameters' gradients
    in that layout (``SegModel.grad_vector``, which raises ConfigError for a
    missing or misshapen one), and is returned. A non-finite gradient, or an
    update that leaves a parameter non-finite, raises DivergenceError naming
    the parameter."""
    g = model.grad_vector()
    if not np.isfinite(g).all():
        raise DivergenceError(f"non-finite gradient for {model.name_at(~np.isfinite(g))}")
    # in place, the operations of MOMENTUM * v + g + WEIGHT_DECAY * theta in
    # their order, from v = 0
    theta = model.vector
    velocity *= MOMENTUM
    velocity += g
    velocity += WEIGHT_DECAY * theta
    theta -= lr * velocity
    if not np.isfinite(theta).all():
        raise DivergenceError(f"the update at lr {lr} left {model.name_at(~np.isfinite(theta))} non-finite")
    return g


def _rng_children(seed: int, step: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence([int(seed), int(step)]).spawn(3)
    return {name: np.random.default_rng(c) for name, c in zip(("init", "shuffle", "fisher"), children)}


def _keep_heap_pages() -> None:
    """Let glibc's malloc keep the pages a training iteration frees.

    glibc serves a block of at least M_MMAP_THRESHOLD bytes from its own
    mmap, unmapped again on free, and gives the heap top back to the kernel
    once more than M_TRIM_THRESHOLD bytes are free there; either way the next
    iteration page-faults the same memory back in. Both thresholds are set
    to ``_HEAP_THRESHOLD``: setting either one alone freezes the other at its
    current value, and a trim threshold alone faulted more. The mmap one goes
    first, and the trim one only if glibc took it. This is process-wide and
    affects no result. Without glibc's ``mallopt`` it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _HEAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _HEAP_THRESHOLD)


def run_step(
    model_prev: SegModel | None,
    dataset: StepDataset,
    config: TrainConfig,
    reg_state: rg.ImportanceState | None = None,
) -> StepResult:
    """Train one learning step and return the snapshot + bookkeeping."""
    _keep_heap_pages()
    if len(dataset) == 0:
        raise ConfigError(f"step {dataset.step} has no training samples")
    t = dataset.step
    rngs = _rng_children(config.seed, t)
    method = config.method

    if model_prev is None:
        if t != 0:
            raise ConfigError(f"step {t} needs the model of step {t - 1}")
        model = SegModel.create(config.backbone, dataset.new_fg, rngs["init"])
    else:
        model = extend_classifier(
            model_prev, dataset.new_fg, init=method.init_mode, rng=rngs["init"]
        )
    base_lr = config.lr_step0 if t == 0 else config.lr_later

    n = len(dataset)
    batches_per_epoch = (n + config.batch_size - 1) // config.batch_size
    total_iters = config.epochs_per_step * batches_per_epoch

    # what the losses read of the labels and of the teacher (model_prev) is
    # computed once per step; a batch gathers its images' share
    items = dataset.items
    chan, ctx = step_labels(method, model, model_prev, np.stack([item.mask for item in items]))
    probs = feats = None
    if model_prev is not None:
        probs, feats = teacher_targets(method, model_prev, [item.image for item in items], config.batch_size)

    velocity = np.zeros_like(model.vector)
    track_path = t == 0 or method.reg_kind in ("pi", "rw")
    path_state = rg.new_path_state(model) if track_path else None

    trace: list[float] = []
    iteration = 0
    for _ in range(config.epochs_per_step):
        perm = rngs["shuffle"].permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start : start + config.batch_size]
            # each batch's images stacked from its samples straight into the
            # model's dtype (forward_batch casts nothing); the step holds no
            # stack of all its images. Its labels are the channels' rows
            images = np.stack([items[i].image for i in idx], dtype=model.dtype)
            labels = (chan.take(idx, axis=0), ctx)
            # take, not probs[:, idx]: its rows stay contiguous, so the losses
            # read them without a copy
            teacher = (None if probs is None else probs.take(idx, axis=1), None if feats is None else feats[idx])

            penalty = None
            if method.reg_kind != "none" and reg_state is not None and t > 0:
                penalty = rg.quadratic_penalty(model, reg_state, method.reg_weight)
            model.zero_grad()
            loss = composite_objective(
                method, (images, None), model, model_prev, penalty, _teacher=teacher, _labels=labels
            )
            # the tape keeps what its backward reads; the loop keeps no more
            del images, labels, teacher, penalty
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(f"step {t} iter {iteration}: loss is {value}")
            loss.backward()
            lr = poly_lr(iteration, total_iters, base_lr)
            grads = sgd_step(model, lr, velocity)
            if track_path:
                rg.path_integral_update(path_state, grads, -lr * velocity)
            # the gradients are read: the tape goes before the next batch is
            # stacked, so one iteration's arrays are alive at a time
            del loss
            epoch_losses.append(value)
            iteration += 1
        trace.append(float(np.mean(epoch_losses)))

    return StepResult(model, trace, iteration, path_state)


def update_importance(
    result: StepResult,
    dataset: StepDataset,
    config: TrainConfig,
    reg_state: rg.ImportanceState | None,
) -> rg.ImportanceState | None:
    """Merge the importance of the step just trained into ``reg_state``.

    EWC takes the Fisher diagonal of ``result.model`` on ``dataset``, PI the
    path integral of the training (``result.path_state``), RW both; methods
    without a regularizer return ``reg_state`` unchanged.
    """
    method = config.method
    if method.reg_kind == "none":
        return reg_state
    fisher_rng = _rng_children(config.seed, dataset.step)["fisher"]
    if method.reg_kind == "ewc":
        step_importance = rg.fisher_diagonal(result.model, dataset, rng=fisher_rng)
    elif method.reg_kind == "pi":
        step_importance = rg.finalize_path_importance(result.path_state, result.model)
    else:  # rw
        fisher = rg.fisher_diagonal(result.model, dataset, rng=fisher_rng)
        path = rg.finalize_path_importance(result.path_state, result.model)
        step_importance = rg.rw_importance(fisher, path, result.model)
    return rg.merge_importance(reg_state, step_importance, result.model)


def evaluate_model(
    model: SegModel,
    eval_corpus: list[Sample],
    schedule: LabelSchedule,
) -> MiouReport:
    """mIoU of the model on fully-annotated samples, grouped by ``schedule``.

    The model's channel order, ``known_classes``, must be the label space of
    some step ``t`` of the schedule (AlignmentError otherwise). Classes of
    later steps are not in it; their pixels count as background in the
    ground truth. Joint's model knows every class, so it is grouped as the
    last step of the incremental schedule.
    """
    order = model.known_classes
    t = next((t for t in range(schedule.num_steps) if schedule.label_space(t) == order), None)
    if t is None:
        raise AlignmentError(
            f"model classes {order} are the label space of no step of the schedule {schedule.steps}"
        )
    # class id -> channel, one entry per mask byte; a class the model does
    # not know yet is background, channel 0
    channel = np.zeros(MAX_CLASSES + 1, dtype=np.int64)
    channel[order] = np.arange(len(order))
    cm = ConfusionMatrix(len(order))
    with nm.no_grad():
        for sample in eval_corpus:
            logits, _ = model.forward_batch(sample.image[None])
            cm.accumulate(channel[argmax_mask(logits.data[0], order)], channel[sample.mask])
    return miou_groups(cm, schedule, t)


def _evaluated(result: StepResult, eval_corpus: list[Sample], schedule: LabelSchedule) -> StepResult:
    return replace(result, metrics=evaluate_model(result.model, eval_corpus, schedule))


@dataclass
class FirstStep:
    """Step 0 trained (and evaluated, by ``first_step``), with the split it
    was trained on."""

    steps: list[StepDataset]
    split_report: SplitReport
    result: StepResult


def first_step(
    split: tuple[list[StepDataset], SplitReport],
    eval_corpus: list[Sample],
    schedule: LabelSchedule,
    config: TrainConfig,
) -> FirstStep:
    """Train and evaluate step 0 of ``split`` (the output of ``split_corpus``).

    Step 0 is plain cross-entropy for every method (see
    ``composite_objective``), so the result serves any method that uses this
    seed and these settings; ``run_incremental`` computes the importance for
    the method it runs. ``split`` may come from ``schedule.joint()``: its one
    step is then Joint's whole training, evaluated by the groups of
    ``schedule``.
    """
    steps, split_report = split
    return FirstStep(steps, split_report, _evaluated(run_step(None, steps[0], config), eval_corpus, schedule))


def run_incremental(
    first: FirstStep,
    eval_corpus: list[Sample],
    schedule: LabelSchedule,
    config: TrainConfig,
) -> list[StepResult]:
    """Continue ``first`` through the later steps of its split, evaluating
    after each; returns every step's result, ``first.result`` first.

    ``first`` is a step 0 from ``first_step`` with the same seed and
    settings. Each step's importance is merged into the state that penalizes
    the next step just before that step trains.
    """
    results = [first.result]
    reg_state = None
    for prev_dataset, dataset in zip(first.steps, first.steps[1:]):
        reg_state = update_importance(results[-1], prev_dataset, config, reg_state)
        results.append(_evaluated(run_step(results[-1].model, dataset, config, reg_state), eval_corpus, schedule))
    return results
