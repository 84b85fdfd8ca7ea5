"""Per-layer tracing for the traced run.

``Tracer.installed()`` replaces the public functions listed in ``TARGETS``
with wrappers that record a span (name, start, end, parent) around each
call, in every bgshift module that holds a reference to the function, and
puts the originals back on exit. Spans stay in memory until ``write``. The
wrappers only read arguments and results, so a traced call computes exactly
what an untraced one does.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, public function or Class.method); the span is named
# "<module>.<function>", e.g. "numerics.backward" for Tensor.backward
TARGETS = [
    ("harness", "run_cell"),
    ("scenario", "generate_synthetic"),
    ("scenario", "load_dataset"),
    ("scenario", "split_corpus"),
    ("trainer", "run_step"),
    ("trainer", "evaluate_model"),
    ("trainer", "sgd_step"),
    ("losses", "composite_objective"),
    ("losses", "cross_entropy"),
    ("losses", "unbiased_cross_entropy"),
    ("losses", "standard_distillation"),
    ("losses", "unbiased_distillation"),
    ("losses", "lwf_mc_loss"),
    ("losses", "feature_distillation"),
    ("numerics", "Tensor.backward"),
    ("model", "SegModel.forward_batch"),
    ("model", "extend_classifier"),
    ("regularizers", "fisher_diagonal"),
    ("regularizers", "quadratic_penalty"),
    ("regularizers", "path_integral_update"),
    ("evaluation", "ConfusionMatrix.accumulate"),
    ("protocol", "select_method_weight"),
]
LOSS_FNS = [fn for mod, fn in TARGETS if mod == "losses" and fn != "composite_objective"]
METHODS = ["FT", "LwF", "ILT", "LwF-MC", "MiB", "RW"]

# forward_batch is split by the span that called it
FORWARD_ROLES = {
    "losses.composite_objective": "train",
    "trainer.run_step.step0": "teacher",
    "trainer.run_step.later": "teacher",
    "trainer.evaluate_model": "eval",
    "regularizers.fisher_diagonal": "fisher",
}

# Which end-to-end metric, on which workload, a change to each layer should
# move. The first matching prefix wins.
PREDICTIONS = [
    ("harness.", "wall_s on every workload (cell overhead)"),
    ("scenario.", "wall_s on sweep-4-1 (the corpus is regenerated once per cell)"),
    ("trainer.step0_unique_ratio", "wall_s on sweep-4-1 (1/6 today); no change elsewhere (1)"),
    ("trainer.run_step.step0", "wall_s on sweep-4-1 (step 0 is trained once per method)"),
    ("trainer.teacher_cache", "wall_s on select-mib (one teacher cache per candidate, 1/15 distinct); sweep-4-1 1/6"),
    ("trainer.evaluate_model", "wall_s on mib-3-1-1-disjoint (one forward per image)"),
    ("trainer.eval_ms_per_image", "wall_s on mib-3-1-1-disjoint (one forward per image)"),
    ("trainer.final_loss.", "none; any change means the arithmetic changed"),
    ("trainer.batch_ms.", "wall_s on mib-3-1-1-disjoint; MiB within 10% of FT is the target"),
    ("trainer.", "wall_s and train_iters_per_s on every workload"),
    ("losses.unbiased_", "wall_s on mib-3-1-1-disjoint and sweep-4-1"),
    ("losses.", "wall_s on sweep-4-1 (every loss runs there)"),
    ("numerics.", "wall_s on mib-3-1-1-disjoint (64x64, FLOP-bound)"),
    ("model.extend_classifier", "none expected (once per later step)"),
    ("model.", "wall_s on mib-3-1-1-disjoint and sweep-4-1"),
    ("regularizers.", "wall_s on sweep-4-1 (RW cell); a smaller tape must not raise these"),
    ("evaluation.", "wall_s on mib-3-1-1-disjoint (batched eval)"),
    ("protocol.", "wall_s on select-mib"),
    ("trace_overhead", "none; cost of tracing itself"),
]


def prediction(metric: str) -> str:
    return next(text for prefix, text in PREDICTIONS if metric.startswith(prefix))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _dataset_key(dataset) -> str:
    ids = "\n".join(item.id for item in dataset.items).encode()
    return _digest(np.frombuffer(ids, dtype=np.uint8), *(a for it in dataset.items for a in (it.image, it.mask)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q / 100) - 1)]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.step0_keys: list = []  # one per step-0 training
        self.teacher_keys: list = []  # one per teacher-output cache built
        self.eval_images = 0
        self.final_loss: dict[str, float] = {}  # method -> last run_step's last-epoch loss

    # -- recording ----------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        if name == "trainer.run_step":
            return self._wrap_run_step(fn)
        if name == "trainer.evaluate_model":
            return self._wrap_evaluate_model(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        return traced

    def _wrap_run_step(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            a = signature.bind(*args, **kwargs).arguments
            prev, dataset, config = a["model_prev"], a["dataset"], a["config"]
            if prev is None:
                kind = "step0"
                # a step-0 training is determined by the seed, the data and
                # every setting except the method
                settings = {k: v for k, v in vars(config).items() if k != "method"}
                self.step0_keys.append((_dataset_key(dataset), repr(settings)))
            else:
                kind = "later"
                if not config.hflip:
                    params = [t.data for t in prev.parameters().values()]
                    self.teacher_keys.append((_digest(*params), _dataset_key(dataset), config.batch_size))
            result = self._span(f"trainer.run_step.{kind}", fn, args, kwargs)
            if result.loss_trace:
                self.final_loss[config.method.name] = result.loss_trace[-1]
            return result

        return traced

    def _wrap_evaluate_model(self, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.eval_images += len(signature.bind(*args, **kwargs).arguments["eval_corpus"])
            return self._span("trainer.evaluate_model", fn, args, kwargs)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items()) if n == "bgshift" or n.startswith("bgshift.")]
        undo = []
        try:
            for mod_name, attr in TARGETS:
                module = sys.modules[f"bgshift.{mod_name}"]
                name = f"{mod_name}.{attr.split('.')[-1]}"
                if "." in attr:
                    owner_name, method = attr.split(".")
                    owner = getattr(module, owner_name)
                    original = vars(owner)[method]
                    undo.append((owner, method, original))
                    setattr(owner, method, self._wrap(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                # modules that imported the function by name hold their own reference
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}))

    # -- aggregation --------------------------------------------------------

    def per_layer(self) -> dict[str, tuple[float, str]]:
        total, calls, self_s = defaultdict(float), Counter(), defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        forward = defaultdict(float)
        backward_ms: list[float] = []
        iter_ms: list[float] = []
        iteration_start: dict[int, float] = {}
        candidates = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            d = end - start
            total[name] += d
            calls[name] += 1
            self_s[name] += d - child[i]
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            if name == "model.forward_batch":
                forward[FORWARD_ROLES.get(parent_name, "other")] += d
            elif name == "numerics.backward":
                backward_ms.append(d * 1e3)
            elif name == "losses.composite_objective" and parent_name.startswith("trainer.run_step"):
                iteration_start[parent] = start
            elif name == "trainer.sgd_step" and parent in iteration_start:
                iter_ms.append((end - iteration_start.pop(parent)) * 1e3)
            elif name.startswith("trainer.run_step") and self._has_ancestor(i, "protocol.select_method_weight"):
                candidates += 1

        m: dict[str, tuple[float, str]] = {}

        def timed(span):
            m[f"{span}.s"] = (total[span], "s")
            m[f"{span}.calls"] = (calls[span], "count")

        timed("harness.run_cell")
        for fn in ("generate_synthetic", "load_dataset", "split_corpus"):
            timed(f"scenario.{fn}")
        for kind in ("step0", "later"):
            timed(f"trainer.run_step.{kind}")
        m["trainer.step0_unique_ratio"] = (_unique_ratio(self.step0_keys), "ratio")
        m["trainer.teacher_cache.self_s"] = (forward["teacher"], "s")
        m["trainer.teacher_cache_unique_ratio"] = (_unique_ratio(self.teacher_keys), "ratio")
        m["trainer.iterations"] = (calls["trainer.sgd_step"], "count")
        m["trainer.sgd_step.s"] = (total["trainer.sgd_step"], "s")
        m["trainer.iter_ms.p50"] = (percentile(iter_ms, 50), "ms")
        m["trainer.iter_ms.p99"] = (percentile(iter_ms, 99), "ms")
        m["trainer.iter_ms.n"] = (len(iter_ms), "count")
        timed("trainer.evaluate_model")
        eval_ms = total["trainer.evaluate_model"] * 1e3
        m["trainer.eval_ms_per_image"] = (eval_ms / self.eval_images if self.eval_images else 0.0, "ms")
        for method in METHODS:
            m[f"trainer.final_loss.{method}"] = (self.final_loss.get(method, 0.0), "loss")
        m["losses.composite_objective.self_s"] = (self_s["losses.composite_objective"], "s")
        m["losses.composite_objective.calls"] = (calls["losses.composite_objective"], "count")
        for fn in LOSS_FNS:
            timed(f"losses.{fn}")
        timed("numerics.backward")
        m["numerics.backward.ms_p50"] = (percentile(backward_ms, 50), "ms")
        m["numerics.backward.ms_p99"] = (percentile(backward_ms, 99), "ms")
        for role in ("train", "teacher", "eval", "fisher"):
            m[f"model.forward_batch.{role}.s"] = (forward[role], "s")
        timed("model.extend_classifier")
        for fn in ("fisher_diagonal", "quadratic_penalty", "path_integral_update"):
            m[f"regularizers.{fn}.s"] = (total[f"regularizers.{fn}"], "s")
        timed("evaluation.accumulate")
        m["protocol.select_method_weight.s"] = (total["protocol.select_method_weight"], "s")
        m["protocol.candidates"] = (candidates, "count")
        return m

    def _has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False


def _unique_ratio(keys: list) -> float:
    """Distinct keys over keys; 1 when nothing was recorded (no waste)."""
    return len(set(keys)) / len(keys) if keys else 1.0
