"""Class-incremental training engine for pixel-level classification.

Implements background-aware cross-entropy and distillation losses, classifier
initialization that spreads the old background probability over incoming
classes, the disjoint/overlapped incremental dataset protocols, prior-focused
baselines (EWC/PI/RW), and a config-driven experiment harness that reproduces
catastrophic-forgetting orderings on a synthetic desk-scale corpus.
"""
from .exceptions import BgshiftError
from .losses import (
    LossContext,
    MethodConfig,
    composite_objective,
    cross_entropy,
    feature_distillation,
    lwf_mc_loss,
    method_preset,
    standard_distillation,
    unbiased_cross_entropy,
    unbiased_distillation,
)
from .model import BackboneConfig, SegModel, extend_classifier
from .numerics import Tensor
from .scenario import (
    LabelSchedule,
    Sample,
    StepDataset,
    SyntheticConfig,
    build_schedule,
    generate_synthetic,
    load_dataset,
    relabel,
    save_dataset,
    split_corpus,
)
from .trainer import TrainConfig, first_step, run_incremental, run_step

__version__ = "0.1.0"

__all__ = [
    "BackboneConfig",
    "BgshiftError",
    "LabelSchedule",
    "LossContext",
    "MethodConfig",
    "Sample",
    "SegModel",
    "StepDataset",
    "SyntheticConfig",
    "Tensor",
    "TrainConfig",
    "build_schedule",
    "composite_objective",
    "cross_entropy",
    "extend_classifier",
    "feature_distillation",
    "first_step",
    "generate_synthetic",
    "load_dataset",
    "lwf_mc_loss",
    "method_preset",
    "relabel",
    "run_incremental",
    "run_step",
    "save_dataset",
    "split_corpus",
    "standard_distillation",
    "unbiased_cross_entropy",
    "unbiased_distillation",
]
