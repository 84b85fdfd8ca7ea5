"""Helpers shared by the test modules."""
import numpy as np

from bgshift import trainer as tr
from bgshift.losses import method_preset
from bgshift.model import BackboneConfig
from bgshift.numerics import Tensor
from bgshift.scenario import SyntheticConfig, build_schedule, generate_synthetic, split_corpus


def run_from_scratch(corpus, eval_corpus, schedule, protocol, config):
    """One run as the harness makes it: split ``corpus``, train step 0,
    continue; (step 0, every step's result)."""
    first = tr.first_step(split_corpus(corpus, schedule, protocol), eval_corpus, schedule, config)
    return first, tr.run_incremental(first, eval_corpus, schedule, config)


def tiny_first_step(method="FT", num_images=14, hidden=4, dtype="float32", **train):
    """(step 0 trained under ``method``, schedule, training config) of a
    2-class [1,1] overlapped run that evaluates on 2 of ``num_images``
    images, with parameters of ``dtype``; ``train`` sets TrainConfig fields."""
    cfg = SyntheticConfig(num_fg_classes=2, num_images=num_images, height=16, width=16, blobs_per_image=2)
    corpus = generate_synthetic(0, cfg)
    schedule = build_schedule(2, [1, 1])
    tconf = tr.TrainConfig(
        **{"epochs_per_step": 2, "batch_size": 4, "seed": 0, **train},
        method=method_preset(method),
        backbone=BackboneConfig(hidden=hidden, features=hidden, dtype=dtype),
    )
    first = tr.first_step(split_corpus(corpus[:-2], schedule, "overlapped"), corpus[-2:], schedule, tconf)
    return first, schedule, tconf


# -- the finite-difference oracle every gradient is checked against -----------


class OracleError(RuntimeError):
    """The finite-difference oracle hit a non-finite evaluation."""


def finite_difference_gradient(f, x: Tensor, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar f at x; the oracle for all ops."""
    if eps <= 0:
        raise ValueError("eps must be positive")

    def evaluate() -> float:
        out = f(x)
        v = float(out.data) if isinstance(out, Tensor) else float(out)
        if not np.isfinite(v):
            raise OracleError("objective returned a non-finite value during probing")
        return v

    grad = np.zeros_like(x.data)
    it = np.nditer(x.data, flags=["multi_index"])
    while not it.finished:
        ix = it.multi_index
        orig = x.data[ix]
        x.data[ix] = orig + eps
        fp = evaluate()
        x.data[ix] = orig - eps
        fm = evaluate()
        x.data[ix] = orig
        grad[ix] = (fp - fm) / (2.0 * eps)
        it.iternext()
    return grad


def check_gradient(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max |reverse-mode - central difference| normalized by the oracle scale."""
    x.zero_grad()
    out = f(x)
    out.backward()
    analytic = x.grad if x.grad is not None else np.zeros_like(x.data)
    numeric = finite_difference_gradient(f, x, eps)
    scale = max(np.abs(numeric).max(), 1e-8)
    return float(np.abs(analytic - numeric).max() / scale)
