"""Per-step SGD training and the incremental loop that threads model state.

Each learning step starts from the previous model (classifier extended for
the incoming classes), trains the method's composite objective with
momentum-SGD (``sgd_step``, which reads ``MOMENTUM`` and ``WEIGHT_DECAY``)
under a polynomial learning-rate decay (``poly_lr``, which reads
``POLY_POWER``), and reads the previous model, untouched, as the
distillation teacher: what the losses read of it is computed once per step
(``losses.teacher_targets``), and each batch gathers its rows. ``run_step``
keeps the path-integral record of its training (``StepResult.path_state``,
a ``regularizers.PathState``); the importance the prior-focused baselines
penalize is computed in one place, ``update_importance``, which
``run_incremental`` calls on each step just before it trains the next one.
All randomness is derived from (seed, step) so the first step is
bit-identical across methods: every run is a ``first_step``, trained once,
that ``run_incremental`` continues under any method. ``evaluate_model``
reads the model's label space from the model itself.

Training runs in the dtype of the model's parameters
(``TrainConfig.backbone.dtype``, float32 unless set to float64): each batch,
and each chunk of the teacher's pass, is stacked from its samples straight
into it (a run's corpus already has it, see ``harness.RunInputs``), so the
batches, the teacher cache, the gradients, the SGD velocity (updated in
place), the ``PathState`` and the ``ImportanceState`` all have it. Loss
values are Python floats either way.

An iteration's arrays live for that iteration only: ``run_step`` drops the
batch, its teacher rows and the penalty once the objective is built (its
tape keeps what the backward reads), and the tape once ``sgd_step`` and the
path update have read the gradients. Across iterations only the parameters,
the velocity and the path state stay alive. What an iteration frees is about
the size of what the next one allocates (about 10 MB at 8x64x64), so
``run_step`` first sets glibc's malloc to keep freed memory mapped
(``_keep_heap_pages``: process-wide, glibc-only, no result changed) rather
than hand it back to the kernel and page-fault it in again on the next
iteration.
"""
from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from . import regularizers as rg
from .evaluation import ConfusionMatrix, MiouReport, miou_groups
from .exceptions import AlignmentError, ConfigError, DivergenceError
from .losses import MethodConfig, composite_objective, teacher_targets
from .model import BackboneConfig, SegModel, argmax_mask, extend_classifier
from .scenario import LabelSchedule, Sample, SplitReport, StepDataset, relabel

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


def poly_lr(iteration: int, total_iters: int, base_lr: float) -> float:
    """base_lr * (1 - iter/total)^POLY_POWER."""
    if total_iters <= 0:
        raise ConfigError("total_iters must be positive")
    if not 0 <= iteration <= total_iters:
        raise ConfigError("iteration outside [0, total_iters]")
    return base_lr * (1.0 - iteration / total_iters) ** POLY_POWER


def sgd_step(
    params: dict[str, nm.Tensor],
    lr: float,
    velocity: dict[str, np.ndarray],
) -> dict[str, np.ndarray]:
    """v <- MOMENTUM*v + g + WEIGHT_DECAY*theta; theta <- theta - lr*v (in
    place) for each parameter with a gradient g (``p.grad``); returns the
    gradients it applied, by name. A non-finite gradient, or an update that
    leaves a parameter non-finite, raises DivergenceError naming it."""
    grads = {}
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if not np.isfinite(g).all():
            raise DivergenceError(f"non-finite gradient for {name}")
        if g.shape != p.data.shape:
            raise ConfigError(f"gradient shape mismatch for {name}")
        # in place, the operations of MOMENTUM * v + g + WEIGHT_DECAY * p in
        # their order; the first update makes v, a new array
        v = velocity.get(name)
        if v is None:
            v = velocity[name] = MOMENTUM * 0.0 + g
        else:
            v *= MOMENTUM
            v += g
        v += WEIGHT_DECAY * p.data
        p.data -= lr * v
        if not np.isfinite(p.data).all():
            raise DivergenceError(f"the update at lr {lr} left {name} non-finite")
        grads[name] = g
    return grads


def _rng_children(seed: int, step: int) -> dict[str, np.random.Generator]:
    ss = np.random.SeedSequence([int(seed), int(step)])
    init, shuffle, fisher = ss.spawn(3)
    return {
        "init": np.random.default_rng(init),
        "shuffle": np.random.default_rng(shuffle),
        "fisher": np.random.default_rng(fisher),
    }


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

    # what the losses read of the teacher (model_prev) is computed once per
    # step; a batch gathers its images' share
    items = dataset.items
    probs = feats = None
    if model_prev is not None:
        probs, feats = teacher_targets(method, model_prev, [item.image for item in items], config.batch_size)

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
            # each batch stacked from its samples, the images straight into
            # the model's dtype (forward_batch casts nothing); the step holds
            # no stack of all its images
            samples = [items[i] for i in idx]
            batch = (
                np.stack([s.image for s in samples], dtype=model.dtype),
                np.stack([s.mask for s in samples]),
            )
            # take, not probs[:, idx]: its rows stay contiguous, so the losses
            # read them without a copy
            teacher = (None if probs is None else probs.take(idx, axis=1), None if feats is None else feats[idx])

            penalty = None
            if method.reg_kind != "none" and reg_state is not None and t > 0:
                penalty = rg.quadratic_penalty(model, reg_state, method.reg_weight)
            model.zero_grad()
            loss = composite_objective(method, batch, model, model_prev, penalty, _teacher=teacher)
            # the tape keeps what its backward reads; the loop keeps no more
            del batch, teacher, penalty
            value = loss.item()
            if not np.isfinite(value):
                raise DivergenceError(f"step {t} iter {iteration}: loss is {value}")
            loss.backward()
            lr = poly_lr(iteration, total_iters, base_lr)
            grads = sgd_step(params, lr, velocity)
            if track_path:
                deltas = {name: -lr * velocity[name] for name in grads}
                rg.path_integral_update(path_state, grads, deltas)
            # the gradients are read: the tape goes before the next batch is
            # stacked, so one iteration's arrays are alive at a time
            del loss
            epoch_losses.append(value)
            iteration += 1
        trace.append(float(np.mean(epoch_losses)))

    return StepResult(model, trace, iteration, path_state)


def update_importance(
    model: SegModel,
    dataset: StepDataset,
    config: TrainConfig,
    path_state: rg.PathState | None,
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
        step_importance = rg.fisher_diagonal(model, dataset, rng=fisher_rng)
    elif method.reg_kind == "pi":
        step_importance = rg.finalize_path_importance(path_state, model)
    else:  # rw
        fisher = rg.fisher_diagonal(model, dataset, rng=fisher_rng)
        step_importance = rg.rw_importance(fisher, rg.finalize_path_importance(path_state, model))
    return rg.merge_importance(reg_state, step_importance, model)


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
    lut = np.zeros(max(order) + 1, dtype=np.int64)
    for i, c in enumerate(order):
        lut[c] = i
    cm = ConfusionMatrix(len(order))
    with nm.no_grad():
        for sample in eval_corpus:
            logits, _ = model.forward_batch(sample.image[None])
            pred = argmax_mask(logits.data[0], order)
            gt = relabel(sample.mask, order)
            cm.accumulate(lut[pred], lut[gt])
    return miou_groups(cm, schedule, t)


@dataclass
class IncrementalRun:
    results: list[StepResult]
    metrics: list[MiouReport]


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
    result = run_step(None, steps[0], config)
    return FirstStep(steps, split_report, result, evaluate_model(result.model, eval_corpus, schedule))


def run_incremental(
    first: FirstStep,
    eval_corpus: list[Sample],
    schedule: LabelSchedule,
    config: TrainConfig,
) -> IncrementalRun:
    """Continue ``first`` through the later steps of its split, evaluating
    after each.

    ``first`` is a step 0 from ``first_step`` with the same seed and
    settings. Each step's importance is merged into the state that penalizes
    the next step just before that step trains.
    """
    results = [first.result]
    metrics = [first.metrics]
    reg_state = None
    for prev_dataset, dataset in zip(first.steps, first.steps[1:]):
        prev = results[-1]
        reg_state = update_importance(prev.model, prev_dataset, config, prev.path_state, reg_state)
        result = run_step(prev.model, dataset, config, reg_state)
        results.append(result)
        metrics.append(evaluate_model(result.model, eval_corpus, schedule))
    return IncrementalRun(results, metrics)
