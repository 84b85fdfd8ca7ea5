"""Smoke test of the benchmark at its tiny scale (about a minute on one core).

    python -m pytest perfbench/test_smoke.py
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_declared_metric(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_all_runs_every_workload_in_its_own_process():
    done = run_bench(ROOT, "--workload", "all", "--seed", "0", "--seconds", "1", "--trace", "0", "--scale", "tiny")
    assert done.returncode == 0, done.stdout + done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines() if line.startswith('{"correct"')]
    assert len(results) == len(WORKLOADS) and all(r["correct"] for r in results)


def test_corrupt_corpus_file_fails_its_cell_only(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import run
    import workloads

    setup = workloads.MibDisjointWorkload.setup

    def corrupting_setup(self):
        setup(self)
        sorted(self.train_dir.glob("*.ppm"))[0].write_bytes(b"P6\n")  # header cut short

    monkeypatch.setattr(workloads.MibDisjointWorkload, "setup", corrupting_setup)
    result = run.measure(workloads.MibDisjointWorkload(0, "tiny", tmp_path), seconds=0, trace=False, seed=0)
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)
    assert result["detail"]["cells_failed"]["value"] == 1
    assert any("IngestionError" in e for e in result["errors"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
