"""Prior-focused baselines: parameter-importance estimates and their penalty.

Fisher importance is the mean squared gradient of the per-pixel cross-entropy
at ``FISHER_SAMPLES`` sampled pixels; the path-integral importance divides
the -grad * step a training accumulates by its squared displacement plus
``PI_DAMPING``; their combination normalizes each score by its max and sums.
Each estimator returns a dict of arrays keyed by ``model.PARAM_NAMES``.
A training's path integral is a ``PathState`` (start, omega). A step is
penalized with an ``ImportanceState`` (importance, anchor), which
``merge_importance`` builds once per step, in ``trainer.update_importance``,
anchored at the model just trained. ``quadratic_penalty`` is one tape node
with the closed-form gradient 2 * w * importance * (theta - anchor); head
columns added after the anchor was taken are not penalized.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .exceptions import AlignmentError, EstimationError, LabelDomainError
from .losses import _clamped_log, _softmax
from .model import SegModel
from .numerics import Tensor
from .scenario import StepDataset

FISHER_SAMPLES = 64  # pixels drawn per Fisher estimate
PI_DAMPING = 0.1  # added to the squared displacement in the path integral


@dataclass
class ImportanceState:
    """Per-parameter importance plus the anchor it penalizes drift from."""

    importance: dict[str, np.ndarray]
    anchor: dict[str, np.ndarray]

    def __post_init__(self):
        if set(self.importance) != set(self.anchor):
            raise AlignmentError("importance and anchor name different parameters")
        for name, imp in self.importance.items():
            if (imp < 0).any():
                raise EstimationError(f"negative importance for {name}")
            if self.anchor[name].shape != imp.shape:
                raise AlignmentError(f"importance/anchor shape mismatch for {name}")


@dataclass
class PathState:
    """Path-integral accumulator of one training."""

    start: dict[str, np.ndarray]  # the parameters the training started from
    omega: dict[str, np.ndarray]  # sum over its optimizer steps of -grad * delta


def _param_arrays(model: SegModel) -> dict[str, np.ndarray]:
    return {name: t.data.copy() for name, t in model.parameters().items()}


def fisher_diagonal(model: SegModel, dataset: StepDataset, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Mean squared gradient of the single-pixel cross-entropy at
    ``FISHER_SAMPLES`` sampled pixels."""
    items = dataset.items
    if not items:
        raise EstimationError("cannot estimate Fisher importance from an empty dataset")
    acc = {name: np.zeros_like(t.data) for name, t in model.parameters().items()}
    for _ in range(FISHER_SAMPLES):
        item = items[int(rng.integers(len(items)))]
        image, mask = item.image, item.mask
        r = int(rng.integers(mask.shape[0]))
        c = int(rng.integers(mask.shape[1]))
        label = int(mask[r, c])
        if label not in model.known_classes:
            raise LabelDomainError(f"fisher_diagonal: label {label} is not a class of the model")
        y = model.known_classes.index(label)
        model.zero_grad()
        logits, _ = model.forward_batch(image[None])
        # read from the image's softmax, which sums the channels in order
        # (see losses); one pixel's alone would be summed pairwise from 8 on
        q = _softmax(logits.data[0])[r, c]
        log_q, active = _clamped_log(q[y])
        # the pixel's CE gradient: q - onehot(y) at that pixel, zero elsewhere
        grad = np.zeros_like(logits.data)
        grad[0, r, c] = (q - (np.arange(q.size) == y)) * active
        nm.scalar_node(-log_q, (logits, grad)).backward()
        for name, t in model.parameters().items():
            if t.grad is not None:
                acc[name] += t.grad**2
    model.zero_grad()
    return {name: a / FISHER_SAMPLES for name, a in acc.items()}


def new_path_state(model: SegModel) -> PathState:
    """Start path-integral bookkeeping at the current parameters."""
    return PathState(_param_arrays(model), {n: np.zeros_like(t.data) for n, t in model.parameters().items()})


@np.errstate(over="ignore")
def path_integral_update(
    state: PathState, grads: dict[str, np.ndarray], deltas: dict[str, np.ndarray]
) -> PathState:
    """Accumulate omega += -grad * delta for one optimizer step. A product
    too large for the dtype is inf, without a warning (as in
    ``quadratic_penalty``)."""
    for name, g in grads.items():
        if name not in state.omega:
            raise AlignmentError(f"unknown parameter {name} in path update")
        d = deltas[name]
        if g.shape != state.omega[name].shape or d.shape != g.shape:
            raise AlignmentError(f"shape mismatch for {name} in path update")
        state.omega[name] += -g * d
    return state


def finalize_path_importance(state: PathState, model: SegModel) -> dict[str, np.ndarray]:
    """Convert accumulated omega into importance, clamped non-negative."""
    importance = {}
    for name, t in model.parameters().items():
        disp = t.data - state.start[name]
        importance[name] = np.maximum(state.omega[name], 0.0) / (disp**2 + PI_DAMPING)
    return importance


def rw_importance(fisher: dict[str, np.ndarray], path: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Sum of the two scores, each normalized by its own max (if non-zero)."""
    if set(fisher) != set(path):
        raise AlignmentError("fisher and path scores cover different parameters")
    combined = {}
    for name, f in fisher.items():
        p = path[name]
        if f.shape != p.shape:
            raise AlignmentError(f"shape mismatch for {name} between fisher and path scores")
        combined[name] = _normalized(f) + _normalized(p)
    return combined


def _normalized(a: np.ndarray) -> np.ndarray:
    m = a.max() if a.size else 0.0
    return a / m if m > 0 else a.copy()


@np.errstate(over="ignore")
def quadratic_penalty(model: SegModel, state: ImportanceState, weight: float) -> Tensor:
    """weight * sum_i importance_i * (theta_i - anchor_i)^2 over the params.

    Head columns beyond the anchor's width (classes added after the anchor
    was taken) are skipped. A drift too large for the dtype makes the value
    inf, without a warning: ``trainer.run_step`` reports it as the step's
    DivergenceError.
    """
    weight = float(weight)
    total, terms = 0.0, []
    for name, t in model.parameters().items():
        anchor, imp = state.anchor[name], state.importance[name]
        k = anchor.shape[-1]
        if t.data.shape[:-1] != anchor.shape[:-1] or t.data.shape[-1] < k:
            raise AlignmentError(f"anchor for {name} does not embed in the current shape")
        diff = t.data[..., :k] - anchor
        term = (diff * diff * imp).sum()
        total = total + term
        grad = np.zeros_like(t.data)
        grad[..., :k] = 2.0 * ((weight * imp) * diff)
        terms.append((t, grad))
    return nm.scalar_node(total * weight, *terms)


def merge_importance(
    prev: ImportanceState | None, new: dict[str, np.ndarray], model: SegModel
) -> ImportanceState:
    """Add the step importance ``new`` to ``prev``, anchored at ``model``'s
    parameters; arrays grown since ``prev`` pad with zeros."""
    if prev is None:
        return ImportanceState(new, _param_arrays(model))
    importance = {}
    for name, cur in new.items():
        old = prev.importance[name]
        padded = np.zeros_like(cur)
        padded[..., : old.shape[-1]] = old
        importance[name] = padded + cur
    return ImportanceState(importance, _param_arrays(model))
