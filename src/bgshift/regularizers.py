"""Prior-focused baselines: parameter-importance estimates and their penalty.

Fisher importance is the mean squared gradient of the per-pixel cross-entropy
at ``FISHER_SAMPLES`` sampled pixels; the path-integral importance divides
the -grad * step a training accumulates by its squared displacement plus
``PI_DAMPING``; their combination normalizes each parameter's scores by
their max and sums. Every per-parameter array here is one vector in the
layout of a model's ``SegModel.vector``: what each estimator returns, a
training's path integral (``PathState``: start and omega) and the importance
of an ``ImportanceState``, whose anchor is a frozen copy of the model just
trained and defines the importance's layout. ``merge_importance`` builds
that state once per step, in ``trainer.update_importance``.
``quadratic_penalty`` is one tape node with the closed-form gradient
2 * w * importance * (theta - anchor); head columns added after the anchor
was taken are not penalized.
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
    """Per-parameter importance, laid out as ``anchor.vector``, plus the
    anchor it penalizes drift from."""

    importance: np.ndarray
    anchor: SegModel

    def __post_init__(self):
        if self.importance.shape != self.anchor.vector.shape:
            raise AlignmentError(f"importance {self.importance.shape} for an anchor of {self.anchor.vector.shape}")
        if (self.importance < 0).any():
            raise EstimationError(f"negative importance for {self.anchor.name_at(self.importance < 0)}")


@dataclass
class PathState:
    """Path-integral accumulator of one training, laid out as the model's vector."""

    start: np.ndarray  # the parameters the training started from
    omega: np.ndarray  # sum over its optimizer steps of -grad * delta


def fisher_diagonal(model: SegModel, dataset: StepDataset, rng: np.random.Generator) -> np.ndarray:
    """Mean squared gradient of the single-pixel cross-entropy at
    ``FISHER_SAMPLES`` sampled pixels."""
    items = dataset.items
    if not items:
        raise EstimationError("cannot estimate Fisher importance from an empty dataset")
    acc = np.zeros_like(model.vector)
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
        acc += model.grad_vector() ** 2
    model.zero_grad()
    return acc / FISHER_SAMPLES


def new_path_state(model: SegModel) -> PathState:
    """Start path-integral bookkeeping at the current parameters."""
    return PathState(model.vector.copy(), np.zeros_like(model.vector))


@np.errstate(over="ignore")
def path_integral_update(state: PathState, grads: np.ndarray, deltas: np.ndarray) -> PathState:
    """Accumulate omega += -grad * delta for one optimizer step, each a
    vector of the path's layout. A product too large for the dtype is inf,
    without a warning (as in ``quadratic_penalty``)."""
    if grads.shape != state.omega.shape or deltas.shape != state.omega.shape:
        raise AlignmentError(f"path update of shapes {grads.shape}, {deltas.shape} for a path of {state.omega.shape}")
    state.omega += -grads * deltas
    return state


def finalize_path_importance(state: PathState, model: SegModel) -> np.ndarray:
    """Convert accumulated omega into importance, clamped non-negative."""
    return np.maximum(state.omega, 0.0) / ((model.vector - state.start) ** 2 + PI_DAMPING)


def rw_importance(fisher: np.ndarray, path: np.ndarray, model: SegModel) -> np.ndarray:
    """Sum of the two scores, each normalized per parameter of ``model`` by
    its own max (if non-zero)."""
    if fisher.shape != model.vector.shape or path.shape != model.vector.shape:
        raise AlignmentError(f"fisher {fisher.shape} and path {path.shape} scores for a model of {model.vector.shape}")
    combined = np.empty_like(fisher)
    for out, f, p in zip(*(model.views(v).values() for v in (combined, fisher, path))):
        out[...] = _normalized(f) + _normalized(p)
    return combined


def _normalized(a: np.ndarray) -> np.ndarray:
    m = a.max() if a.size else 0.0
    return a / m if m > 0 else a


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
    importance = state.anchor.views(state.importance)
    for name, t in model.parameters().items():
        anchor, imp = state.anchor.params[name].data, importance[name]
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


def merge_importance(prev: ImportanceState | None, new: np.ndarray, model: SegModel) -> ImportanceState:
    """Add the step importance ``new`` (laid out as ``model.vector``) to
    ``prev``, anchored at a frozen copy of ``model``; head columns grown
    since ``prev`` pad with zeros."""
    anchor = model.frozen_copy()
    if prev is None:
        return ImportanceState(new, anchor)
    padded = np.zeros_like(new)
    for pad, old in zip(model.views(padded).values(), prev.anchor.views(prev.importance).values()):
        pad[..., : old.shape[-1]] = old
    return ImportanceState(padded + new, anchor)
