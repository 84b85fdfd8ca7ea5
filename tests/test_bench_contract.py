"""The benchmark's tracer (perfbench/tracing.py) wraps bgshift functions by
name and binds some of their arguments by name. A rename or deletion here
would break ``perfbench/run.py --trace 1`` without failing any other test."""
import importlib
import json
import math
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bgshift.cli  # noqa: F401  the tracer wraps bgshift.protocol, which cli imports
from bgshift import harness as hz
from bgshift.scenario import Sample, build_schedule, split_corpus
from bgshift.trainer import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import kernels, tracing, workloads  # noqa: E402


@pytest.mark.parametrize("module, attr", tracing.TARGETS, ids=[f"{m}.{a}" for m, a in tracing.TARGETS])
def test_every_trace_target_resolves(module, attr):
    owner = importlib.import_module(f"bgshift.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    # the tracer swaps Class.method through the class's own namespace
    target = vars(owner)[name] if path else getattr(owner, name)
    assert callable(target)


def test_import_bgshift_loads_the_training_engine_and_no_more():
    # ``setup_s`` times a fresh ``import bgshift``; the harness, protocol and
    # cli load only when imported
    code = "import sys, bgshift; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'bgshift'))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    engine = ["evaluation", "exceptions", "losses", "model", "numerics", "regularizers", "scenario", "trainer"]
    assert out.split() == ["bgshift", *(f"bgshift.{m}" for m in engine)]


@pytest.mark.parametrize(
    "module, fn, params",
    [
        ("trainer", "run_step", {"model_prev", "dataset", "config"}),
        ("trainer", "evaluate_model", {"eval_corpus"}),
    ],
)
def test_traced_parameters_keep_their_names(module, fn, params):
    signature = inspect.signature(getattr(importlib.import_module(f"bgshift.{module}"), fn))
    assert params <= set(signature.parameters)


def test_the_kernel_probes_run_on_the_tape():
    # the traced run times the tape through perfbench/kernels.py; a change to
    # the tape's public surface must fail here, not only in the benchmark
    metrics = kernels.kernel_metrics(8, 0)
    assert len(metrics) == 13
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_the_dataset_key_reads_a_step_dataset():
    # the tracer keys step-0 and teacher-cache reuse by the .id, .image and
    # .mask of run_step's dataset items
    mask = np.zeros((4, 4), dtype=np.int64)
    mask[:2] = 1
    mask[2:, :2] = 2
    steps, _ = split_corpus([Sample("a", np.zeros((4, 4, 3)), mask)], build_schedule(2, [1, 1]), "overlapped")
    key = tracing._dataset_key(steps[0])
    assert len(key) == 64 and set(key) <= set("0123456789abcdef")
    assert key != tracing._dataset_key(steps[1])


def test_a_traced_run_computes_the_same_cells_and_every_declared_metric():
    # what ``perfbench/run.py --trace 1`` does, on a run small enough for tier 1
    cfg = hz.ExperimentConfig(
        dataset=hz.DatasetSpec(num_train=12, num_eval=4, height=16, width=16),
        methods=["FT", "MiB", "RW"],
        train=TrainConfig(epochs_per_step=1),
    )
    untraced = hz.run_experiment(cfg)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = hz.run_experiment(cfg)
    assert untraced["ok"]
    cells = lambda report: [{k: v for k, v in c.items() if k != "seconds"} for c in report["cells"]]
    assert cells(traced) == cells(untraced)

    metrics = {**tracer.per_layer(), **kernels.kernel_metrics(8, 0), "trace_overhead": (1.0, "ratio")}
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())["per_layer"]
    assert {name: unit for name, (_, unit) in metrics.items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(value) for value, _ in metrics.values())
    # one sgd_step and one objective per iteration the report accounts for
    # (the step 0 the methods of a seed share counted once)
    first = {c["seed"]: c["steps"][0]["iterations"] for c in traced["cells"]}
    iterations = sum(first.values()) + sum(s["iterations"] for c in traced["cells"] for s in c["steps"][1:])
    assert metrics["trainer.iterations"][0] == metrics["losses.composite_objective.calls"][0] == iterations
    # one path-integral update per path-tracked iteration: each seed's shared
    # step 0, and the later steps of RW (the one path-based method here)
    later_rw = sum(s["iterations"] for c in traced["cells"] if c["method"] == "RW" for s in c["steps"][1:])
    path_updates = sum(span[0] == "regularizers.path_integral_update" for span in tracer.spans)
    assert later_rw > 0 and path_updates == sum(first.values()) + later_rw


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_own_output_checks_at_the_tiny_scale(name, tmp_path):
    # setup -> call -> evaluate, as ``perfbench/run.py --scale tiny`` does in
    # its own process; a second call must compute the same results, or the
    # benchmark's repeat check fails the run
    workload = workloads.WORKLOADS[name](0, "tiny", tmp_path)
    workload.setup()
    outcomes = [workload.evaluate(workload.call()) for _ in range(2)]
    for outcome in outcomes:
        assert (outcome.failed, outcome.errors) == (0, [])
        assert outcome.attempted == workload.expected_units()
    assert len({outcome.signature for outcome in outcomes}) == 1
