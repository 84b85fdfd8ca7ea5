import copy
import json
import os
from dataclasses import replace

import pytest

from bgshift import harness as hz
from bgshift import trainer as tr
from bgshift.cli import main as cli_main
from bgshift.exceptions import ComparisonError, ConfigError
from bgshift.losses import method_preset

TINY_CFG = """
# tiny experiment used by the harness tests
dataset.kind = synthetic
dataset.seed = 0
dataset.num_fg_classes = 2
dataset.num_train = 12
dataset.num_eval = 4
dataset.height = 16
dataset.width = 16
dataset.blobs_per_image = 2
schedule_sizes = 1,1
protocol = overlapped
methods = FT,MiB
seeds = 0
train.epochs_per_step = 2
train.batch_size = 4
train.backbone.hidden = 4
train.backbone.features = 4
"""


def tiny_config(**overrides):
    tree = hz.parse_config_text(TINY_CFG)
    tree.update(overrides)
    return hz.config_from_dict(tree)


# -- config plumbing -----------------------------------------------------------


def test_parse_config_round_trips_types():
    tree = hz.parse_config_text(TINY_CFG)
    assert tree["dataset"]["num_train"] == 12
    assert tree["schedule_sizes"] == [1, 1]
    assert tree["methods"] == ["FT", "MiB"]
    assert tree["seeds"] == [0]
    assert tree["train"]["backbone"]["hidden"] == 4


def test_parse_config_rejects_garbage_line():
    with pytest.raises(ConfigError):
        hz.parse_config_text("methods FT\n")


def test_overrides_win():
    tree = hz.parse_config_text(TINY_CFG)
    hz.apply_overrides(tree, ["--train.epochs_per_step=3", "--seeds=1,2"])
    cfg = hz.config_from_dict(tree)
    assert cfg.train.epochs_per_step == 3
    assert cfg.seeds == [1, 2]


def test_config_validates_schedule_against_classes():
    with pytest.raises(ConfigError):
        tiny_config(schedule_sizes=[2, 1])


def test_config_rejects_unknown_method():
    with pytest.raises(ConfigError):
        tiny_config(methods=["FT", "bogus"])


@pytest.mark.parametrize(
    "line, key",
    [
        ("dataset.bogus = 1", "dataset.bogus"),
        ("train.nope = 2", "train.nope"),
        ("train.method.nope = 3", "train.method.nope"),
        ("train.backbone.nope = 4", "train.backbone.nope"),
        ("methds = FT", "methds"),
        ("dataset = 3", "dataset"),
    ],
)
def test_unknown_config_key_is_named(tmp_path, capsys, line, key):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG + line + "\n")
    with pytest.raises(ConfigError, match=repr(key)):
        hz.load_experiment_config(cfg_file)
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_config_dict_round_trip():
    cfg = tiny_config()
    back = hz.config_from_dict(hz.config_to_dict(cfg))
    assert hz.config_to_dict(back) == hz.config_to_dict(cfg)


# -- experiment runs ------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = tiny_config()
    cfg.out_dir = str(out)
    report = hz.run_experiment(cfg)
    return report, out


def test_every_cell_present_once(tiny_report):
    report, _ = tiny_report
    keys = [(c["method"], c["seed"]) for c in report["cells"]]
    assert keys == [("FT", 0), ("MiB", 0)]
    assert report["ok"]
    for cell in report["cells"]:
        assert cell["status"] == "ok"
        assert [s["step"] for s in cell["steps"]] == [0, 1]


def test_report_files_written(tiny_report):
    report, out = tiny_report
    assert (out / "report.json").exists()
    assert (out / "miou.csv").exists()
    ckpts = sorted(p.name for p in (out / "checkpoints").iterdir())
    assert ckpts == [
        "FT-seed0-step0.npz",
        "FT-seed0-step1.npz",
        "MiB-seed0-step0.npz",
        "MiB-seed0-step1.npz",
    ]
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["aggregate"].keys() == report["aggregate"].keys()


def test_csv_round_trips_to_6_significant_digits(tiny_report):
    report, out = tiny_report
    text = (out / "miou.csv").read_text()
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["method", "seed", "step"]
    by_key = {}
    for line in lines[1:]:
        parts = line.split(",")
        by_key[(parts[0], int(parts[1]), int(parts[2]))] = parts[3:]
    for cell in report["cells"]:
        for step in cell["steps"]:
            row = by_key[(cell["method"], cell["seed"], step["step"])]
            all_got = float(row[header.index("all_miou") - 3])
            want = step["metrics"]["all_miou"]
            assert abs(all_got - want) <= abs(want) * 5e-6 + 1e-12


def test_rerun_is_byte_identical(tiny_report, tmp_path):
    _, out = tiny_report
    cfg = tiny_config()
    cfg.out_dir = str(tmp_path)
    hz.run_experiment(cfg)
    assert (tmp_path / "miou.csv").read_bytes() == (out / "miou.csv").read_bytes()


def test_aggregate_has_seed_mean_and_std(tiny_report):
    report, _ = tiny_report
    for method in ("FT", "MiB"):
        agg = report["aggregate"][method]
        assert agg["status"] == "ok"
        assert len(agg["group_mean"]) == 2
        assert 0.0 <= agg["all_mean"] <= 1.0


def test_failed_cell_is_recorded_not_fatal():
    cfg = tiny_config()
    cfg.methods = ["FT"]
    cfg.train.epochs_per_step = 1
    cfg.dataset.num_train = 12
    # sabotage: schedule covering a class the corpus may lack is hard to force;
    # instead make the batch size invalid through a direct cell record run
    spec = hz._cell_spec(cfg, "FT", 0)
    spec["config"]["train"]["batch_size"] = -1
    rec = hz._safe_run_cell(spec)
    assert rec["status"] == "failed"
    assert "ConfigError" in rec["error"]


@pytest.mark.parametrize("value", ["x", "0", "-1", "1.5", ""])
def test_bad_worker_count_is_a_config_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("BGSHIFT_WORKERS", value)
    with pytest.raises(ConfigError, match="BGSHIFT_WORKERS"):
        hz.run_experiment(tiny_config())
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert "error: BGSHIFT_WORKERS" in capsys.readouterr().err


def test_dead_worker_fails_cells_not_the_run(tmp_path, monkeypatch):
    # the pool forks, so the patched run_cell is what its two workers run
    real_run_cell = hz.run_cell

    def dies_on_mib(spec):
        if spec["method"] == "MiB":
            os._exit(3)
        return real_run_cell(spec)

    monkeypatch.setattr(hz, "run_cell", dies_on_mib)
    monkeypatch.setenv("BGSHIFT_WORKERS", "2")
    cfg = tiny_config(out_dir=str(tmp_path))
    report = hz.run_experiment(cfg)
    assert not report["ok"]
    assert [(c["method"], c["seed"]) for c in report["cells"]] == [("FT", 0), ("MiB", 0)]
    mib = report["cells"][1]
    assert mib["status"] == "failed" and "BrokenProcessPool" in mib["error"]
    assert not json.loads((tmp_path / "report.json").read_text())["ok"]


def test_dead_worker_in_step0_fails_cells_not_the_run(tmp_path, monkeypatch):
    real_first_step = hz.first_step

    def dies_on_seed1(split, eval_corpus, schedule, config, group_schedule=None):
        if config.seed == 1:
            os._exit(3)
        return real_first_step(split, eval_corpus, schedule, config, group_schedule)

    monkeypatch.setattr(hz, "first_step", dies_on_seed1)
    monkeypatch.setenv("BGSHIFT_WORKERS", "2")
    report = hz.run_experiment(tiny_config(seeds=[0, 1], out_dir=str(tmp_path)))
    assert not report["ok"]
    assert len(report["cells"]) == 4
    seed1 = [c for c in report["cells"] if c["seed"] == 1]
    assert all(c["status"] == "failed" and "BrokenProcessPool" in c["error"] for c in seed1)
    assert (tmp_path / "report.json").exists()


def test_failed_step0_fails_only_its_seed(monkeypatch):
    real_first_step = hz.first_step

    def fails_on_seed1(split, eval_corpus, schedule, config, group_schedule=None):
        if config.seed == 1:
            raise RuntimeError("induced step-0 failure")
        return real_first_step(split, eval_corpus, schedule, config, group_schedule)

    monkeypatch.setattr(hz, "first_step", fails_on_seed1)
    report = hz.run_experiment(tiny_config(seeds=[0, 1], methods=["FT", "MiB", "Joint"]))
    status = {(c["method"], c["seed"]): c["status"] for c in report["cells"]}
    assert status == {
        ("FT", 0): "ok",
        ("MiB", 0): "ok",
        ("Joint", 0): "ok",
        ("FT", 1): "failed",
        ("MiB", 1): "failed",
        ("Joint", 1): "ok",  # trains its own single step
    }
    failed = [c for c in report["cells"] if c["status"] == "failed"]
    assert all("induced step-0 failure" in c["error"] for c in failed)
    assert not report["ok"]


# -- shared step 0 ---------------------------------------------------------------

SHARED_METHODS = ["FT", "MiB", "EWC", "PI", "RW"]


@pytest.mark.parametrize("hflip", [False, True])
def test_cells_equal_independent_runs(hflip):
    cfg = tiny_config(methods=SHARED_METHODS)
    cfg.train.hflip = hflip
    report = hz.run_experiment(cfg)
    assert report["ok"]
    inputs = hz.RunInputs.build(cfg)
    for cell in report["cells"]:
        train = replace(cfg.train, seed=cell["seed"], method=method_preset(cell["method"]))
        run = tr.run_incremental(
            inputs.corpus, inputs.eval_corpus, inputs.schedule, cfg.protocol, train
        )
        assert cell["steps"] == [
            {
                "step": i,
                "metrics": run.metrics[i].as_dict(),
                "loss_trace": run.results[i].loss_trace,
                "iterations": run.results[i].iterations,
            }
            for i in range(len(run.results))
        ], cell["method"]
        assert cell["background_shift"] == run.split_report.per_step
        assert cell["excluded_images"] == run.split_report.excluded_ids


def test_parallel_report_equals_serial(monkeypatch):
    cfg = tiny_config(methods=SHARED_METHODS + ["Joint"], seeds=[0, 1])
    serial = hz.run_experiment(cfg)
    monkeypatch.setenv("BGSHIFT_WORKERS", "2")
    parallel = hz.run_experiment(cfg)
    for report in (serial, parallel):
        assert report["ok"]
        for cell in report["cells"]:
            cell.pop("seconds")
    assert parallel == serial


def test_step0_and_corpus_built_once(monkeypatch):
    counts = {"step0": 0, "later": 0, "generate": 0, "split": 0}
    real_run_step, real_generate, real_split = tr.run_step, hz.generate_synthetic, hz.split_corpus

    def counting_run_step(model_prev, *args, **kwargs):
        counts["step0" if model_prev is None else "later"] += 1
        return real_run_step(model_prev, *args, **kwargs)

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(tr, "run_step", counting_run_step)
    monkeypatch.setattr(hz, "generate_synthetic", counting("generate", real_generate))
    monkeypatch.setattr(hz, "split_corpus", counting("split", real_split))
    report = hz.run_experiment(tiny_config(methods=["FT", "MiB", "EWC"], seeds=[0, 1]))
    assert report["ok"]
    assert counts == {"step0": 2, "later": 6, "generate": 1, "split": 1}


# -- comparison ------------------------------------------------------------------


def test_compare_identical_reports_all_ties(tiny_report):
    report, _ = tiny_report
    verdicts = hz.compare_report(report, "FT", "FT")
    assert set(verdicts.values()) == {"tie"}


def test_compare_shifted_report_all_target_higher(tiny_report):
    report, _ = tiny_report
    boosted = copy.deepcopy(report)
    ft_steps = {
        (c["seed"], s["step"]): s["metrics"]
        for c in report["cells"]
        if c["method"] == "FT"
        for s in c["steps"]
    }
    for cell in boosted["cells"]:
        if cell["method"] == "MiB":
            for step in cell["steps"]:
                ref = ft_steps[(cell["seed"], step["step"])]
                m = step["metrics"]
                m["all_miou"] = ref["all_miou"] + 0.10
                m["group_miou"] = [
                    None if g is None else g + 0.10 for g in ref["group_miou"]
                ]
    verdicts = hz.compare_report(boosted, "FT", "MiB")
    assert set(verdicts.values()) == {"target_higher"}


def test_compare_missing_method_raises(tiny_report):
    report, _ = tiny_report
    with pytest.raises(ComparisonError):
        hz.compare_report(report, "FT", "LwF")


# -- cli -------------------------------------------------------------------------


def test_cli_generate_and_run(tmp_path):
    data_dir = tmp_path / "data"
    rc = cli_main(
        [
            "generate",
            "--out",
            str(data_dir),
            "--seed",
            "1",
            "--num-images",
            "6",
            "--classes",
            "2",
            "--height",
            "16",
            "--width",
            "16",
        ]
    )
    assert rc == 0
    assert (data_dir / "manifest.txt").exists()

    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    out_dir = tmp_path / "out"
    rc = cli_main(
        [
            "run",
            "--config",
            str(cfg_file),
            "--out",
            str(out_dir),
            "--methods=FT",
            "--train.epochs_per_step=1",
        ]
    )
    assert rc == 0
    assert (out_dir / "miou.csv").exists()

    rc = cli_main(
        ["report", "--report", str(out_dir / "report.json"), "--baseline", "FT", "--target", "FT"]
    )
    assert rc == 0


def test_cli_exit_code_2_on_cell_failure(tmp_path, monkeypatch):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)

    def boom(spec):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(hz, "run_cell", boom)
    rc = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_cli_rejects_unknown_positional(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli_main(["run", "--config", "x", "stray"])
