"""Class-incremental training engine for pixel-level classification.

Implements background-aware cross-entropy and distillation losses, classifier
initialization that spreads the old background probability over incoming
classes, the disjoint/overlapped incremental dataset protocols, prior-focused
baselines (EWC/PI/RW), and a config-driven experiment harness that reproduces
catastrophic-forgetting orderings on a synthetic desk-scale corpus.

Every name lives in its module and is imported from there, for example
``from bgshift.harness import run_experiment``. ``import bgshift`` loads the
training engine (``trainer`` and the modules it uses), not the harness or
the command line.
"""
from . import trainer  # noqa: F401

__version__ = "0.1.0"
