import copy
import json
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bgshift import cli
from bgshift import harness as hz
from bgshift import trainer as tr
from bgshift.cli import main as cli_main
from bgshift.exceptions import ComparisonError, ConfigError, IngestionError
from bgshift.losses import method_preset
from bgshift.model import load_checkpoint
from bgshift.protocol import hparam_grid
from bgshift.scenario import SyntheticConfig, generate_synthetic, save_dataset
from helpers import run_from_scratch

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


def test_overrides_win(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    cfg = hz.load_experiment_config(cfg_file, ["--train.epochs_per_step=3", "--seeds=1,2"])
    assert cfg.train.epochs_per_step == 3
    assert cfg.seeds == [1, 2]


def _step1_traces(tmp_path, overrides):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    report = hz.run_experiment(hz.load_experiment_config(cfg_file, overrides))
    return {c["method"]: c["steps"][1]["loss_trace"] for c in report["cells"]}


def test_method_override_applies_on_top_of_the_preset(tmp_path):
    base = _step1_traces(tmp_path, ["--methods=FT,LwF"])
    weak = _step1_traces(tmp_path, ["--methods=LwF", "--train.method.lambda_kd=0.001"])
    assert weak["LwF"] != base["LwF"]
    # a key set to its default still overrides the preset: LwF without
    # distillation is fine-tuning
    off = _step1_traces(tmp_path, ["--methods=LwF", "--train.method.lambda_kd=0"])
    assert off["LwF"] == base["FT"]


def test_method_overrides_survive_the_config_round_trip(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    cfg = hz.load_experiment_config(cfg_file, ["--train.method.lambda_kd=0"])
    back = hz.config_from_dict(hz.config_to_dict(cfg))
    assert back.method_overrides == {"lambda_kd": 0}
    lwf = back.cell_config("LwF", 0).method
    assert (lwf.name, lwf.lambda_kd, lwf.kd_mode) == ("LwF", 0, "standard")


def test_config_validates_schedule_against_classes():
    with pytest.raises(ConfigError):
        tiny_config(schedule_sizes=[2, 1])


def test_config_rejects_unknown_method():
    for method in ("bogus", "LwF-MC-C"):
        with pytest.raises(ConfigError, match="unknown method"):
            tiny_config(methods=["FT", method])


@pytest.mark.parametrize("seeds", ["0,0", "-1", "x", "1.5", "true"])
def test_bad_seeds_are_a_config_error(tmp_path, capsys, seeds):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    with pytest.raises(ConfigError, match="seeds"):
        hz.load_experiment_config(cfg_file, [f"--seeds={seeds}"])
    assert cli_main(["run", "--config", str(cfg_file), f"--seeds={seeds}"]) == 1
    assert capsys.readouterr().err.startswith("error: seeds")


@pytest.mark.parametrize("methods", [["MiB", "mib"], ["LwF-MC", "lwf_mc"], ["FT", "Joint", "ft"]])
def test_methods_naming_one_preset_twice_are_a_config_error(methods):
    with pytest.raises(ConfigError, match="methods"):
        tiny_config(methods=methods)


@pytest.mark.parametrize(
    "line, key",
    [
        ("dataset.bogus = 1", "dataset.bogus"),
        ("train.nope = 2", "train.nope"),
        ("train.method.nope = 3", "train.method.nope"),
        ("train.backbone.nope = 4", "train.backbone.nope"),
        ("train.backbone.activation = relu", "train.backbone.activation"),
        ("train.method.w_cls = 2", "train.method.w_cls"),
        ("train.method.fisher_samples = 8", "train.method.fisher_samples"),
        ("train.method.pi_damping = 0.5", "train.method.pi_damping"),
        ("train.momentum = 0.5", "train.momentum"),
        ("train.weight_decay = 0", "train.weight_decay"),
        ("train.poly_power = 1.0", "train.poly_power"),
        ("train.hflip = true", "train.hflip"),
        ("train.method.name = LwF", "train.method.name"),
        ("methds = FT", "methds"),
        ("dataset = 3", "dataset"),
        ("train.backbone = 0", "train.backbone"),
        ("train.backbone =", "train.backbone"),
    ],
)
def test_unknown_config_key_is_named(tmp_path, capsys, line, key):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG + line + "\n")
    with pytest.raises(ConfigError, match=repr(key)):
        hz.load_experiment_config(cfg_file)
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "overrides, key",
    [
        (["--dataset.kind=dir"], "dataset.path"),
        (["--dataset.kind=dir", '--dataset.eval_path="2024"'], "dataset.path"),
        (["--dataset.kind=dir", '--dataset.path="2024"'], "dataset.eval_path"),
        (["--dataset.kind=web"], "dataset.kind"),
        (["--protocol=foo"], "protocol"),
        (["--class_order=foo"], "class_order"),
        (["--class_order=permuted", "--order_seed=-1"], "order_seed"),
        (["--schedule_sizes=2,0"], "schedule_sizes"),
        (["--schedule_sizes=3,-1"], "schedule_sizes"),
        (["--schedule_sizes=1,2"], "schedule_sizes"),
        (["--dataset.seed=-1"], "dataset.seed"),
        (["--dataset.height=8"], "dataset.height"),
        (["--dataset.width=15"], "dataset.width"),
        (["--dataset.num_train=0"], "dataset.num_train"),
        (["--dataset.num_eval=0"], "dataset.num_eval"),
        (["--dataset.blobs_per_image=0"], "dataset.blobs_per_image"),
        # 2 images of 2 blobs draw 4 class blobs, fewer than the 5 classes
        (
            ["--dataset.num_fg_classes=5", "--schedule_sizes=4,1", "--dataset.num_train=1", "--dataset.num_eval=1"],
            "dataset.blobs_per_image",
        ),
        (["--dataset.num_fg_classes=256", "--schedule_sizes=255,1"], "dataset.num_fg_classes"),
        (
            ["--dataset.kind=dir", "--dataset.path=a", "--dataset.eval_path=b", "--dataset.num_fg_classes=256"],
            "dataset.num_fg_classes",
        ),
        (["--train.lr_step0=nan"], "train.lr_step0"),
        (["--train.lr_step0=0"], "train.lr_step0"),
        (["--train.lr_later=inf"], "train.lr_later"),
        (["--train.method.lambda_kd=nan", "--methods=MiB"], "train.method.lambda_kd"),
        (["--train.method.reg_weight=inf"], "train.method.reg_weight"),
        (["--train.method.feature_kd_weight=-1"], "train.method.feature_kd_weight"),
        (["--train.backbone.in_channels=1"], "train.backbone.in_channels"),
        (["--train.backbone.hidden=0"], "train.backbone.hidden"),
        (["--train.backbone.features=0"], "train.backbone.features"),
        (["--train.batch_size=0"], "train.batch_size"),
        (["--train.epochs_per_step=0"], "train.epochs_per_step"),
    ],
)
def test_a_config_that_would_train_nothing_is_rejected_when_loaded(tmp_path, capsys, overrides, key):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_file), "--out", str(out), *overrides]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize(
    "override, key",
    [
        ("--train.lr_step0=x", "train.lr_step0"),
        ("--train.method.lambda_kd=abc", "train.method.lambda_kd"),
        ("--train.batch_size=2.5", "train.batch_size"),
        ("--train.epochs_per_step=1.5", "train.epochs_per_step"),
        ("--dataset.num_train=abc", "dataset.num_train"),
        ("--train.backbone.hidden=true", "train.backbone.hidden"),
        ("--schedule_sizes=1.0,1", "schedule_sizes"),
        ("--methods=FT,3", "methods"),
        ("--train.method.kd_mode=1", "train.method.kd_mode"),
    ],
)
def test_a_value_of_the_wrong_type_is_named(tmp_path, capsys, override, key):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    with pytest.raises(ConfigError, match=f"^{key} must be"):
        hz.load_experiment_config(cfg_file, [override])
    assert cli_main(["run", "--config", str(cfg_file), override]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be")


def test_an_int_passes_for_a_float_and_none_for_an_optional_str(tmp_path):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    cfg = hz.load_experiment_config(cfg_file, ["--train.lr_later=1", "--dataset.path=none"])
    assert cfg.train.lr_later == 1 and cfg.dataset.path is None


def test_a_quoted_value_is_the_str_between_the_quotes(tmp_path):
    # in a config line and in an override; a shell passes the override
    # --dataset.path='"2024"' on as --dataset.path="2024"
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG + 'dataset.path = "2024"\ndataset.eval_path = \'none\'\n')
    cfg = hz.load_experiment_config(cfg_file)
    assert (cfg.dataset.path, cfg.dataset.eval_path) == ("2024", "none")
    cfg = hz.load_experiment_config(cfg_file, ['--dataset.path="1,2"', '--dataset.eval_path="none"'])
    assert (cfg.dataset.path, cfg.dataset.eval_path) == ("1,2", "none")


def test_unquoted_values_parse_as_before_and_list_items_are_quoted_one_by_one():
    tree = hz.parse_config_text('a = 2024\nb = none\nc = 1,2\nd = "x\ne = "FT","MiB"\nf = ""\n')
    assert tree == {"a": 2024, "b": None, "c": [1, 2], "d": '"x', "e": ["FT", "MiB"], "f": ""}


@pytest.mark.parametrize(
    "override, key", [("--train.method.w_kd=1", "train.method.w_kd"), ("--save_checkpoints=false", "save_checkpoints")]
)
def test_a_removed_key_is_named(tmp_path, capsys, override, key):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    with pytest.raises(ConfigError, match=repr(key)):
        hz.load_experiment_config(cfg_file, [override])
    assert cli_main(["run", "--config", str(cfg_file), override]) == 1
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["float16", "double", "32"])
def test_a_bad_dtype_is_named(tmp_path, capsys, value):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG + f"train.backbone.dtype = {value}\n")
    with pytest.raises(ConfigError, match="train.backbone.dtype"):
        hz.load_experiment_config(cfg_file)
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_the_dtype_survives_the_config_round_trip():
    cfg = hz.config_from_dict(hz.parse_config_text(TINY_CFG + "train.backbone.dtype = float64\n"))
    assert cfg.train.backbone.dtype == "float64"
    back = hz.config_from_dict(hz.config_to_dict(cfg))
    assert back.train.backbone == cfg.train.backbone


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


def test_the_report_records_the_dtype(tiny_report):
    _, out = tiny_report
    on_disk = json.loads((out / "report.json").read_text())
    assert on_disk["config"]["train"]["backbone"]["dtype"] == "float32"


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


def test_failed_cell_is_recorded_not_fatal(tmp_path):
    cfg = tiny_config(methods=["FT", "Joint"], out_dir=str(tmp_path))
    # set past TrainConfig's own check; each cell's training config repeats it
    cfg.train.batch_size = -1
    report = hz.run_experiment(cfg)
    assert not report["ok"]
    assert [(c["method"], c["status"]) for c in report["cells"]] == [("FT", "failed"), ("Joint", "failed")]
    assert all("ConfigError: train.batch_size must be at least 1, got -1" in c["error"] for c in report["cells"])
    assert json.loads((tmp_path / "report.json").read_text())["ok"] is False


def test_a_raising_cell_fails_only_itself(tmp_path, monkeypatch):
    real_run_cell = hz.run_cell

    def raises_on_mib(config, inputs, method, seed, first):
        if method == "MiB":
            raise RuntimeError("induced cell failure")
        return real_run_cell(config, inputs, method, seed, first)

    monkeypatch.setattr(hz, "run_cell", raises_on_mib)
    report = hz.run_experiment(tiny_config(out_dir=str(tmp_path)))
    assert not report["ok"]
    ft, mib = report["cells"]
    assert (ft["method"], ft["status"]) == ("FT", "ok")
    assert (mib["method"], mib["status"]) == ("MiB", "failed")
    assert mib["error"] == "RuntimeError: induced cell failure"
    assert json.loads((tmp_path / "report.json").read_text())["ok"] is False


def test_failed_step0_fails_only_its_seed(tmp_path, monkeypatch):
    real_first_step = hz.first_step

    def fails_on_seed1(split, eval_corpus, schedule, config):
        # only the shared step 0: Joint's own first step trains a one-step split
        if config.seed == 1 and len(split[0]) > 1:
            raise RuntimeError("induced step-0 failure")
        return real_first_step(split, eval_corpus, schedule, config)

    monkeypatch.setattr(hz, "first_step", fails_on_seed1)
    report = hz.run_experiment(tiny_config(seeds=[0, 1], methods=["FT", "MiB", "Joint"], out_dir=str(tmp_path)))
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
    assert json.loads((tmp_path / "report.json").read_text())["ok"] is False


# -- shared step 0 ---------------------------------------------------------------

SHARED_METHODS = ["FT", "MiB", "EWC", "PI", "RW"]


def test_cells_equal_independent_runs():
    cfg = tiny_config(methods=SHARED_METHODS)
    report = hz.run_experiment(cfg)
    assert report["ok"]
    inputs = hz.RunInputs.build(cfg)
    for cell in report["cells"]:
        train = replace(cfg.train, seed=cell["seed"], method=method_preset(cell["method"]))
        first, run = run_from_scratch(inputs.corpus, inputs.eval_corpus, inputs.schedule, cfg.protocol, train)
        assert cell["steps"] == [
            {"step": i, "metrics": r.metrics.as_dict(), "loss_trace": r.loss_trace, "iterations": r.iterations}
            for i, r in enumerate(run)
        ], cell["method"]
        assert cell["background_shift"] == first.split_report.per_step
        assert cell["excluded_images"] == first.split_report.excluded_ids


def test_joint_reports_the_groups_of_the_incremental_schedule(tmp_path):
    text = TINY_CFG + "dataset.num_fg_classes = 5\nschedule_sizes = 3,1,1\nclass_order = permuted\nmethods = Joint\n"
    cfg = replace(hz.config_from_dict(hz.parse_config_text(text)), out_dir=str(tmp_path))
    report = hz.run_experiment(cfg)
    assert report["ok"]
    schedule = hz.RunInputs.build(cfg).schedule
    assert schedule.all_fg() != sorted(schedule.all_fg())
    (step,) = report["cells"][0]["steps"]
    assert len(step["metrics"]["group_miou"]) == schedule.num_steps == 3
    # checkpoints are written whenever out_dir is set
    model = load_checkpoint(tmp_path / "checkpoints" / "Joint-seed0-step0.npz")
    assert model.known_classes == schedule.label_space(2)
    _, eval_corpus = hz.build_corpora(cfg.dataset)
    assert step["metrics"] == tr.evaluate_model(model, eval_corpus, schedule).as_dict()


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
    # the verdicts read the report's aggregate, not its cells
    boosted = copy.deepcopy(report)
    ft = report["aggregate"]["FT"]
    boosted["aggregate"]["MiB"] = {
        **ft,
        "all_mean": ft["all_mean"] + 0.10,
        "group_mean": [None if g is None else g + 0.10 for g in ft["group_mean"]],
    }
    verdicts = hz.compare_report(boosted, "FT", "MiB")
    assert set(verdicts.values()) == {"target_higher"}


def test_compare_missing_method_raises(tiny_report):
    report, _ = tiny_report
    with pytest.raises(ComparisonError):
        hz.compare_report(report, "FT", "LwF")


def test_compare_methods_with_different_group_counts_raises(tmp_path, capsys):
    aggregate = {"FT": {"status": "ok", "group_mean": [0.5], "all_mean": 0.5}}
    aggregate["MiB"] = {"status": "ok", "group_mean": [0.5, 0.2], "all_mean": 0.4}
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"aggregate": aggregate}))
    for baseline, target, counts in (("FT", "MiB", "1 and 2"), ("MiB", "FT", "2 and 1")):
        with pytest.raises(ComparisonError, match=f"'{baseline}' and '{target}' have {counts} groups"):
            hz.compare_report({"aggregate": aggregate}, baseline, target)
        assert cli_main(["report", "--report", str(path), "--baseline", baseline, "--target", target]) == 1
        assert capsys.readouterr().err.startswith(f"error: report {path}: methods '{baseline}'")
    # a mean that is None, in groups of equal length, is still missing
    aggregate["FT"] = {"status": "ok", "group_mean": [0.5, None], "all_mean": 0.4}
    assert hz.compare_report({"aggregate": aggregate}, "FT", "MiB") == {"group0": "tie", "group1": "missing", "all": "tie"}


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


def dir_datasets(tmp_path, train_ids, eval_ids, classes=2):
    """Train and eval directories of 2-class images whose manifests declare
    ``classes``."""
    samples = generate_synthetic(0, SyntheticConfig(num_fg_classes=2, num_images=4, height=16, width=16))
    for name, ids in (("train", train_ids), ("eval", eval_ids)):
        save_dataset([replace(samples[i], id=sid) for i, sid in enumerate(ids)], tmp_path / name, classes)
    return str(tmp_path / "train"), str(tmp_path / "eval")


def test_eval_dir_equal_to_train_dir_is_a_config_error(tmp_path):
    train, _ = dir_datasets(tmp_path, ["a", "b"], ["c"])
    same = os.path.join(train, "..", "train")  # another spelling of the same directory
    with pytest.raises(ConfigError, match="is the training directory"):
        hz.build_corpora(hz.DatasetSpec(kind="dir", path=train, eval_path=same))


def test_eval_dir_sharing_sample_ids_is_a_config_error(tmp_path):
    train, heldout = dir_datasets(tmp_path, ["a", "b", "c"], ["x", "b"])
    with pytest.raises(ConfigError, match=r"share 1 sample ids, first \['b'\]"):
        hz.build_corpora(hz.DatasetSpec(kind="dir", path=train, eval_path=heldout, num_fg_classes=2))
    train, heldout = dir_datasets(tmp_path / "ok", ["a", "b"], ["c", "d"])
    corpus, eval_corpus = hz.build_corpora(hz.DatasetSpec(kind="dir", path=train, eval_path=heldout, num_fg_classes=2))
    assert [s.id for s in corpus] == ["a", "b"] and [s.id for s in eval_corpus] == ["c", "d"]


def test_a_dir_corpus_that_cannot_be_stacked_fails_before_training(tmp_path):
    # a 0x0 image is rejected when it is read
    train, heldout = dir_datasets(tmp_path, ["a", "b"], ["c"])
    (Path(heldout) / "c.ppm").write_bytes(b"P6 0 0 255\n")
    (Path(heldout) / "c.pgm").write_bytes(b"P5 0 0 255\n")
    with pytest.raises(IngestionError, match=re.escape(f"{Path(heldout) / 'c.ppm'}: ")):
        hz.build_corpora(hz.DatasetSpec(kind="dir", path=train, eval_path=heldout, num_fg_classes=2))
    # training images of two sizes; eval images may differ, as each is scored alone
    small = generate_synthetic(0, SyntheticConfig(num_fg_classes=2, num_images=2, height=16, width=16))
    big = generate_synthetic(1, SyntheticConfig(num_fg_classes=2, num_images=2, height=20, width=20))
    save_dataset([replace(small[1], id="d"), replace(big[1], id="e")], heldout, 2)
    save_dataset([replace(small[0], id="a"), replace(big[0], id="b")], train, 2)
    with pytest.raises(ConfigError, match=r"^dataset.path .*: sample 'b' is \(20, 20\) pixels but 'a' is \(16, 16\)"):
        hz.build_corpora(hz.DatasetSpec(kind="dir", path=train, eval_path=heldout, num_fg_classes=2))
    save_dataset([replace(small[0], id="a")], train, 2)
    corpus, eval_corpus = hz.build_corpora(hz.DatasetSpec(kind="dir", path=train, eval_path=heldout, num_fg_classes=2))
    assert [s.image.shape for s in eval_corpus] == [(16, 16, 3), (20, 20, 3)]


@pytest.mark.parametrize("dtype", [None, "float32", "float64"])
@pytest.mark.parametrize("kind", ["synthetic", "dir"])
def test_run_inputs_hold_the_images_in_the_training_dtype(tmp_path, monkeypatch, kind, dtype):
    tree = hz.parse_config_text(TINY_CFG)
    if kind == "dir":
        train, heldout = dir_datasets(tmp_path, ["a", "b", "c", "d"], ["e", "f"])
        tree["dataset"].update(kind="dir", path=train, eval_path=heldout)
    if dtype is not None:
        tree["train"]["backbone"]["dtype"] = dtype
    config = hz.config_from_dict(tree)
    read = [s for corpus in hz.build_corpora(config.dataset) for s in corpus]  # float64
    real_build, built = hz.build_corpora, []
    real_generate, generated = hz.generate_synthetic, []

    def build_corpora(spec, dtype):
        corpus, eval_corpus = real_build(spec, dtype)
        built.extend(corpus + eval_corpus)
        return corpus, eval_corpus

    def generate_synthetic(*args):
        generated.extend(real_generate(*args))
        return generated

    monkeypatch.setattr(hz, "build_corpora", build_corpora)
    monkeypatch.setattr(hz, "generate_synthetic", generate_synthetic)
    inputs = hz.RunInputs.build(config)
    held = inputs.corpus + inputs.eval_corpus
    # the samples build_corpora made, already in the training dtype
    assert len(held) == len(built) and all(got is made for got, made in zip(held, built))
    assert {s.image.dtype for s in held} == {np.dtype(dtype or "float32")}
    # each image is the float64 one cast
    for got, sample in zip(held, read, strict=True):
        assert got.id == sample.id and np.array_equal(got.mask, sample.mask) and sample.image.dtype == np.float64
        assert np.array_equal(got.image, sample.image.astype(got.image.dtype))
    # a float64 run keeps the generator's arrays, with no copy
    if kind == "synthetic":
        assert [got.image is s.image for got, s in zip(held, generated)] == [dtype == "float64"] * len(held)
    assert all(s.image.dtype == inputs.corpus[0].image.dtype for step in inputs.split[0] for s in step.items)


def test_a_dir_corpus_with_more_classes_than_the_config_is_a_config_error(tmp_path):
    train, heldout = dir_datasets(tmp_path, ["a", "b"], ["c"], classes=7)
    with pytest.raises(ConfigError, match="dataset.num_fg_classes is 5 .* declares classes=7"):
        hz.build_corpora(hz.DatasetSpec(kind="dir", path=train, eval_path=heldout))


def test_a_dir_corpus_with_fewer_classes_than_the_config_is_a_config_error(tmp_path):
    train, heldout = dir_datasets(tmp_path, ["a", "b"], ["c"], classes=3)
    with pytest.raises(ConfigError, match="dataset.num_fg_classes is 5 .* declares classes=3"):
        hz.build_corpora(hz.DatasetSpec(kind="dir", path=train, eval_path=heldout))


def test_cli_exit_code_2_on_cell_failure(tmp_path, monkeypatch):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)

    def boom(*args):
        raise RuntimeError("induced failure")

    monkeypatch.setattr(hz, "run_cell", boom)
    rc = cli_main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("method", ["FT", "Joint"])
def test_select_without_tunable_weight_fails_before_training(tmp_path, monkeypatch, capsys, method):
    calls = []
    real_run_step = tr.run_step

    def counting_run_step(*args, **kwargs):
        calls.append(args)
        return real_run_step(*args, **kwargs)

    monkeypatch.setattr(tr, "run_step", counting_run_step)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    assert cli_main(["select", "--config", str(cfg_file), "--method", method]) == 1
    assert "no tunable weight" in capsys.readouterr().err
    assert calls == []


def test_select_on_a_one_step_schedule_fails_before_building_the_corpus(tmp_path, monkeypatch, capsys):
    def build(*args):
        raise AssertionError("the corpus was built")

    monkeypatch.setattr(cli, "training_corpus", build)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    assert cli_main(["select", "--config", str(cfg_file), "--method", "MiB", "--schedule_sizes=2"]) == 1
    assert capsys.readouterr().err.startswith("error: schedule_sizes [2]")


def test_select_keeps_a_non_weight_override(tmp_path, monkeypatch):
    methods = []
    real_run_step = tr.run_step

    def recording_run_step(model_prev, dataset, config, *args, **kwargs):
        if model_prev is not None:  # not step 0
            methods.append(config.method)
        return real_run_step(model_prev, dataset, config, *args, **kwargs)

    monkeypatch.setattr(tr, "run_step", recording_run_step)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    argv = ["select", "--config", str(cfg_file), "--method", "MiB", "--train.method.init_mode=random"]
    assert cli_main(argv) == 0
    candidates = [m for m in methods if m.name == "MiB"]
    assert [m.lambda_kd for m in candidates] == hparam_grid()
    assert all(m.init_mode == "random" and m.kd_mode == "unbiased" for m in candidates)


def test_select_trains_with_the_seed_of_seeds(tmp_path, monkeypatch, capsys):
    seeds = []
    real_run_step = tr.run_step

    def recording_run_step(model_prev, dataset, config, *args, **kwargs):
        seeds.append(config.seed)
        return real_run_step(model_prev, dataset, config, *args, **kwargs)

    monkeypatch.setattr(tr, "run_step", recording_run_step)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    argv = ["select", "--config", str(cfg_file), "--method", "LwF", "--seeds=3", "--train.seed=5"]
    assert cli_main(argv) == 0
    assert seeds and set(seeds) == {3}
    capsys.readouterr()
    seeds.clear()
    assert cli_main(["select", "--config", str(cfg_file), "--method", "LwF", "--seeds=3,4"]) == 1
    assert capsys.readouterr().err.startswith("error: seeds [3, 4]")
    assert seeds == []


def test_select_scores_its_candidates_and_not_step0(tmp_path, monkeypatch):
    # the selection reads step 0's model, never its scores
    calls = []
    real_evaluate = tr.evaluate_model

    def counting_evaluate(*args, **kwargs):
        calls.append(args)
        return real_evaluate(*args, **kwargs)

    monkeypatch.setattr(tr, "evaluate_model", counting_evaluate)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    assert cli_main(["select", "--config", str(cfg_file), "--method", "MiB"]) == 0
    assert len(calls) == 1 + len(hparam_grid())  # the fine-tuning reference and each candidate


def test_select_reads_no_eval_corpus(tmp_path, monkeypatch, capsys):
    # a dir dataset's eval_path is named by the config but never read
    monkeypatch.setattr("bgshift.protocol.hparam_grid", lambda: [0.1, 10.0])
    train, _ = dir_datasets(tmp_path, [f"s{i}" for i in range(4)], [], classes=2)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    argv = ["select", "--config", str(cfg_file), "--method", "MiB", "--dataset.kind=dir"]
    argv += [f"--dataset.path={train}", f"--dataset.eval_path={tmp_path / 'none'}"]
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "MiB"


def test_select_on_a_dir_dataset_needs_no_eval_path(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("bgshift.protocol.hparam_grid", lambda: [0.1, 10.0])
    train, _ = dir_datasets(tmp_path, [f"s{i}" for i in range(4)], [], classes=2)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    argv = ["select", "--config", str(cfg_file), "--method", "MiB", "--dataset.kind=dir", f"--dataset.path={train}"]
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out)["method"] == "MiB"


def test_a_dir_dataset_without_an_eval_path_builds_no_corpora(tmp_path):
    train, _ = dir_datasets(tmp_path, ["a", "b"], [], classes=2)
    with pytest.raises(ConfigError, match="^dataset.eval_path is not set"):
        hz.build_corpora(hz.DatasetSpec(kind="dir", path=train, num_fg_classes=2))


def test_select_writes_its_selection_to_the_out_dir_of_the_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("bgshift.protocol.hparam_grid", lambda: [0.1, 10.0])
    out = tmp_path / "selection"
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG + f'out_dir = "{out}"\n')
    assert cli_main(["select", "--config", str(cfg_file), "--method", "MiB"]) == 0
    assert json.loads((out / "selection.json").read_text()) == json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("method", ["EWC", "PI", "RW"])
def test_select_penalizes_regularizer_candidates_with_the_step0_importance(tmp_path, monkeypatch, method):
    seen = []  # (candidate weight, reg_state received, trained model)
    real_run_step = tr.run_step

    def recording_run_step(model_prev, dataset, config, reg_state=None):
        result = real_run_step(model_prev, dataset, config, reg_state)
        seen.append((config.method.reg_weight, reg_state, result.model))
        return result

    monkeypatch.setattr(tr, "run_step", recording_run_step)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    assert cli_main(["select", "--config", str(cfg_file), "--method", method]) == 0
    candidates = seen[-len(hparam_grid()) :]
    assert [w for w, _, _ in candidates] == hparam_grid()
    states = [state for _, state, _ in candidates]
    assert states[0] is not None
    assert all(state is states[0] for state in states)
    # the penalty acts: the weakest and the strongest weight train different models
    weakest, strongest = candidates[0][2], candidates[-1][2]
    assert not all(
        np.array_equal(t.data, strongest.params[name].data) for name, t in weakest.params.items()
    )


@pytest.mark.parametrize(
    "flags, key",
    [
        (["--seed", "-1"], "dataset.seed"),
        (["--classes", "0"], "dataset.num_fg_classes"),
        (["--num-images", "1", "--classes", "5"], "dataset.blobs_per_image"),  # 3 blobs, 5 classes
        (["--classes", "256"], "dataset.num_fg_classes"),
        (["--num-images", "0"], "dataset.num_images"),
        (["--num-images", "-1"], "dataset.num_images"),
    ],
)
def test_cli_generate_with_a_bad_setting_is_an_error(tmp_path, capsys, flags, key):
    assert cli_main(["generate", "--out", str(tmp_path / "data"), *flags]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "command",
    [
        ["generate", "--out", "DIR", "--num-images", "2", "--classes", "2", "--height", "16", "--width", "16"],
        ["report", "--report", "DIR", "--baseline", "FT", "--target", "MiB"],
    ],
    ids=["generate", "report"],
)
def test_a_command_without_a_config_rejects_overrides(tmp_path, capsys, command):
    argv = [str(tmp_path / "data") if a == "DIR" else a for a in command]
    with pytest.raises(SystemExit) as exit_info:
        cli_main([*argv, "--num_images=3", "--dataset.height=8"])
    assert exit_info.value.code == 2
    assert f"{command[0]} takes no --key=value overrides: --num_images=3 --dataset.height=8" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize(
    "command, content",
    [
        (["run", "--config"], None),
        (["select", "--method", "MiB", "--config"], None),
        (["report", "--baseline", "FT", "--target", "MiB", "--report"], None),
        (["report", "--baseline", "FT", "--target", "MiB", "--report"], "not json"),
        (["report", "--baseline", "FT", "--target", "MiB", "--report"], '{"cells": []}'),
        (["report", "--baseline", "FT", "--target", "MiB", "--report"], '{"aggregate": []}'),
        (["report", "--baseline", "FT", "--target", "MiB", "--report"], '{"aggregate": {"FT": {}}}'),
        (
            ["report", "--baseline", "FT", "--target", "MiB", "--report"],
            '{"aggregate": {"FT": {"status": "ok", "all_mean": 0.5}}}',
        ),
        (
            ["report", "--baseline", "FT", "--target", "MiB", "--report"],
            '{"aggregate": {"FT": {"status": "ok", "group_mean": [0.5], "all_mean": "x"}}}',
        ),
    ],
    ids=[
        "run-missing", "select-missing", "report-missing", "report-not-json", "report-no-aggregate",
        "report-aggregate-list", "report-entry-without-status", "report-ok-entry-without-group-mean",
        "report-mean-not-a-number",
    ],
)
def test_cli_names_a_missing_or_malformed_input_file(tmp_path, capsys, command, content):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    assert cli_main([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    if content is not None and "aggregate" in content:
        assert "'FT'" in err


@pytest.mark.parametrize(
    "command",
    [
        ["generate", "--num-images", "4", "--classes", "2", "--height", "16", "--width", "16"],
        ["run", "--config", "CFG"],
        ["select", "--method", "MiB", "--config", "CFG"],
    ],
    ids=["generate", "run", "select"],
)
def test_an_out_that_cannot_be_a_directory_fails_before_training(tmp_path, capsys, monkeypatch, command):
    calls = []

    def no_training(*args, **kwargs):
        calls.append(args)
        raise AssertionError("trained before checking --out")

    monkeypatch.setattr(hz, "first_step", no_training)
    monkeypatch.setattr(tr, "run_step", no_training)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    out = tmp_path / "taken"
    out.write_text("a file")
    argv = [str(cfg_file) if a == "CFG" else a for a in command]
    assert cli_main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create the output directory ") and str(out) in err
    assert out.read_text() == "a file" and calls == []


def test_a_failed_method_prints_its_first_cell_error(tmp_path, capsys):
    # 2 images of 4 blobs draw a blob for each of the 5 classes, but none of
    # the corpora seed 0 draws is balanced: the corpus, and so every cell, fails
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(TINY_CFG)
    overrides = [
        "--dataset.num_fg_classes=5", "--schedule_sizes=4,1", "--dataset.num_train=1", "--dataset.num_eval=1",
        "--dataset.blobs_per_image=4",
    ]
    assert cli_main(["run", "--config", str(cfg_file), *overrides]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ")[:3] for line in lines] == [
        [m, "FAILED", "GenerationError"] for m in ("FT", "MiB")
    ]
    assert "2 images, dataset.blobs_per_image 4 and dataset.num_fg_classes 5" in lines[0]


@pytest.mark.parametrize("train_ids, eval_ids, key", [(["a", "b"], [], "eval_path"), ([], ["c"], "path")])
def test_a_dir_without_samples_is_a_config_error(tmp_path, train_ids, eval_ids, key):
    train, heldout = dir_datasets(tmp_path, train_ids, eval_ids)
    with pytest.raises(ConfigError, match=f"^the manifest of dataset.{key} .* lists no sample"):
        hz.build_corpora(hz.DatasetSpec(kind="dir", path=train, eval_path=heldout, num_fg_classes=2))


def test_cli_rejects_unknown_positional(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli_main(["run", "--config", "x", "stray"])
