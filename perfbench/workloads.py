"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed (``setup``), makes one
call into a public entry point of bgshift (``call``, the part that is timed)
and checks what that call returned (``evaluate``). The program only ever sees
the generated inputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bgshift import cli
from bgshift.harness import (
    DatasetSpec,
    ExperimentConfig,
    build_corpora,
    load_experiment_config,
    run_experiment,
)
from bgshift.protocol import hparam_grid, split_train_val
from bgshift.scenario import (
    SyntheticConfig,
    build_schedule,
    generate_synthetic,
    save_dataset,
    split_corpus,
)

SWEEP_METHODS = ["FT", "LwF", "ILT", "LwF-MC", "MiB", "RW"]

# Image side and (train, eval) image counts per scale. "full" is what the
# benchmark measures. One call takes 5-10 s on one core, so a run can time
# several calls and report their median, which keeps bursts of load from
# other tenants of a shared machine out of the figures. At these counts the
# number of SGD iterations does not depend on the seed (batches are rounded
# up), apart from a few seeds on the 64x64 workload. Epochs, learning rates
# and batch size stay at the program's defaults; with this little data step 0
# collapses to predicting background, as it does below 20 epochs. "tiny" is
# for the smoke test only.
SCALES = {
    "full": {"small_hw": 24, "sweep": (40, 10), "select": (32, 8), "mib_hw": 64, "mib": (32, 8)},
    "tiny": {"small_hw": 16, "sweep": (16, 4), "select": (24, 6), "mib_hw": 16, "mib": (32, 8)},
}


@dataclass
class Outcome:
    attempted: int  # cells, or candidate trainings for select
    failed: int  # attempted units that failed or broke an output check
    errors: list[str]
    quality: dict[str, float]  # end-to-end mIoU metrics, by name
    iterations: int  # SGD iterations the output accounts for
    final_loss: dict[str, float]  # last-epoch loss of the last step, by method
    signature: str  # digest of every result; tracing must not change it


def derive_seeds(seed: int) -> tuple[int, int]:
    """(dataset seed, training seed) derived from the workload seed."""
    data, train = np.random.SeedSequence(seed).generate_state(2)
    return int(data) % 2**31, int(train) % 2**31


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _is_miou(v) -> bool:
    return isinstance(v, float) and math.isfinite(v) and 0.0 <= v <= 1.0


def _miou_problems(where: str, values) -> list[str]:
    return [f"{where}: mIoU {v!r} is not a finite number in [0, 1]" for v in values if not _is_miou(v)]


def _cell_problems(cell: dict) -> list[str]:
    where = f"cell {cell['method']}/seed {cell['seed']}"
    if cell["status"] != "ok":
        return [f"{where}: {cell.get('error', cell['status'])}"]
    problems = []
    for step in cell["steps"]:
        m = step["metrics"]
        problems += _miou_problems(
            f"{where} step {step['step']}", [m["all_miou"], m["fg_miou"], *m["group_miou"]]
        )
        if not all(math.isfinite(x) for x in step["loss_trace"]):
            problems.append(f"{where} step {step['step']}: non-finite loss")
    return problems


class Workload:
    name: str
    hw_key: str  # the SCALES entry that gives this workload's image side

    def __init__(self, seed: int, scale: str, work_dir: Path):
        self.data_seed, self.train_seed = derive_seeds(seed)
        self.sizes = SCALES[scale]
        self.work_dir = Path(work_dir)

    def setup(self) -> None:
        raise NotImplementedError

    def call(self):
        raise NotImplementedError

    def evaluate(self, raw) -> Outcome:
        raise NotImplementedError

    def failed_call(self, error: str) -> Outcome:
        """Outcome of a call that raised or returned no result: every unit
        it attempted failed."""
        n = self.expected_units()
        return Outcome(n, n, [error], {}, 0, {}, _digest(error))

    def expected_units(self) -> int:
        raise NotImplementedError

    @property
    def hw(self) -> int:
        return self.sizes[self.hw_key]


class ExperimentWorkload(Workload):
    """One ``harness.run_experiment`` call; a cell is one (method, seed)."""

    config: ExperimentConfig

    def call(self) -> dict:
        return run_experiment(self.config)

    def expected_units(self) -> int:
        return len(self.config.methods) * len(self.config.seeds)

    def evaluate(self, report: dict) -> Outcome:
        cells = report["cells"]
        problems = {i: _cell_problems(c) for i, c in enumerate(cells)}
        ok = [i for i, c in enumerate(cells) if c["status"] == "ok"]
        if ok:
            # step 0 trains without a previous model, so every method must
            # reach the same step-0 model; reusing step 0 has to keep this
            first = cells[ok[0]]["steps"][0]["metrics"]
            for i in ok[1:]:
                if cells[i]["steps"][0]["metrics"] != first:
                    problems[i].append(f"cell {cells[i]['method']}: step-0 metrics differ from {cells[ok[0]]['method']}")
        errors = [p for i in problems for p in problems[i]]
        failed = sum(1 for i in problems if problems[i])
        if not report["ok"] and not failed:
            errors.append("report is not ok although every cell is")
            failed = 1

        quality = {}
        for method, agg in report["aggregate"].items():
            if agg.get("status") != "ok":
                continue
            quality[f"miou_all.{method}"] = agg["all_mean"]
            if method == "MiB":
                quality["miou_old.MiB"] = agg["group_mean"][0]
                quality["miou_new.MiB"] = agg["group_mean"][-1]
        quality = {k: v for k, v in quality.items() if v is not None}  # None already failed a check
        return Outcome(
            attempted=len(cells),
            failed=failed,
            errors=errors,
            quality=quality,
            iterations=sum(s["iterations"] for i in ok for s in cells[i]["steps"]),
            final_loss={cells[i]["method"]: cells[i]["steps"][-1]["loss_trace"][-1] for i in ok},
            signature=_digest(
                [[c["method"], c["seed"], c["status"], c["steps"], c.get("excluded_images")] for c in cells]
            ),
        )


class SweepWorkload(ExperimentWorkload):
    """Six methods on one seed, [4,1] overlapped; the program generates the corpus."""

    name = "sweep-4-1"
    hw_key = "small_hw"

    def setup(self) -> None:
        hw = self.hw
        n_train, n_eval = self.sizes["sweep"]
        self.config = ExperimentConfig(
            dataset=DatasetSpec(
                seed=self.data_seed, num_train=n_train, num_eval=n_eval, height=hw, width=hw
            ),
            schedule_sizes=[4, 1],
            protocol="overlapped",
            methods=list(SWEEP_METHODS),
            seeds=[self.train_seed],
        )


class MibDisjointWorkload(ExperimentWorkload):
    """MiB alone, [3,1,1] disjoint, on a corpus written to disk and read back."""

    name = "mib-3-1-1-disjoint"
    hw_key = "mib_hw"

    def setup(self) -> None:
        hw = self.hw
        n_train, n_eval = self.sizes["mib"]
        samples = generate_synthetic(
            self.data_seed, SyntheticConfig(num_images=n_train + n_eval, height=hw, width=hw)
        )
        self.train_dir = self.work_dir / "corpus" / "train"
        eval_dir = self.work_dir / "corpus" / "eval"
        save_dataset(samples[:n_train], self.train_dir, 5)
        save_dataset(samples[n_train:], eval_dir, 5)
        self.config = ExperimentConfig(
            dataset=DatasetSpec(kind="dir", path=str(self.train_dir), eval_path=str(eval_dir)),
            schedule_sizes=[3, 1, 1],
            protocol="disjoint",
            methods=["MiB"],
            seeds=[self.train_seed],
        )


class SelectWorkload(Workload):
    """``bgshift select --method MiB`` on [4,1] overlapped: step 0 once, then
    the fine-tuning reference and one training per grid weight."""

    name = "select-mib"
    hw_key = "small_hw"

    def setup(self) -> None:
        hw = self.hw
        n_train, n_eval = self.sizes["select"]
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work_dir / "select.cfg"
        self.out_dir = self.work_dir / "selection"
        self.config_path.write_text(
            "\n".join(
                [
                    f"dataset.seed = {self.data_seed}",
                    f"dataset.num_train = {n_train}",
                    f"dataset.num_eval = {n_eval}",
                    f"dataset.height = {hw}",
                    f"dataset.width = {hw}",
                    "schedule_sizes = 4,1",
                    "protocol = overlapped",
                    "methods = MiB",
                    f"seeds = {self.train_seed}",
                    f"train.seed = {self.train_seed}",
                ]
            )
            + "\n"
        )
        self.config = load_experiment_config(self.config_path)
        self._iterations = None

    def expected_units(self) -> int:
        return 1 + len(hparam_grid())

    def call(self) -> tuple[int, dict | None, str]:
        result_file = self.out_dir / "selection.json"
        result_file.unlink(missing_ok=True)
        argv = ["select", "--config", str(self.config_path), "--method", "MiB", "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        payload = json.loads(result_file.read_text()) if result_file.exists() else None
        return code, payload, err.getvalue().strip()

    def evaluate(self, raw) -> Outcome:
        code, payload, stderr = raw
        attempted = self.expected_units()
        if code != 0 or payload is None:
            return self.failed_call(f"select exited with {code}: {stderr}")
        grid = hparam_grid()
        errors = _miou_problems("select reference", [payload["reference"]])
        errors += _miou_problems("select candidate", [m for _, m in payload["trace"]])
        scanned = [w for w, _ in payload["trace"]]
        if scanned != grid:
            errors.append(f"select scanned {scanned}, not the grid {grid}")
        if payload["weight"] not in grid:
            errors.append(f"select chose {payload['weight']}, which is not in the grid")
        # a candidate fails when its training left no valid held-out metric
        valid = {w for w, m in payload["trace"] if _is_miou(m)}
        failed = (not _is_miou(payload["reference"])) + len(set(grid) - valid)
        if errors and not failed:
            failed = 1
        chosen = dict((w, m) for w, m in payload["trace"]).get(payload["weight"])
        quality = {"miou_new.MiB": chosen} if chosen is not None else {}
        return Outcome(
            attempted=attempted,
            failed=failed,
            errors=errors,
            quality=quality,
            iterations=self.iterations(),
            final_loss={},
            signature=_digest(payload),
        )

    def iterations(self) -> int:
        """SGD iterations of the selection: step 0 once, then every candidate."""
        if self._iterations is None:
            c = self.config
            corpus, _ = build_corpora(c.dataset)
            schedule = build_schedule(c.dataset.num_fg_classes, c.schedule_sizes, c.class_order, c.order_seed)
            steps, _ = split_corpus(corpus, schedule, c.protocol)
            train, _ = split_train_val(steps[1], seed=c.train.seed)
            per_step = lambda n: c.train.epochs_per_step * math.ceil(n / c.train.batch_size)
            self._iterations = per_step(len(steps[0])) + self.expected_units() * per_step(len(train))
        return self._iterations


WORKLOADS = {w.name: w for w in (SweepWorkload, MibDisjointWorkload, SelectWorkload)}
