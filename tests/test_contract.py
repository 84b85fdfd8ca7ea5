"""The behaviour contract: the outputs of one small run of every method, and
of one weight selection, pinned by their sha256.

Both train in float64, so the pins do not hang on float32 rounding. A change
that means to keep behaviour keeps every pin; one that changes it on purpose
re-pins, and names each pin it changed.
"""
import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

from bgshift import harness as hz
from bgshift import protocol as pr
from bgshift.losses import method_preset
from helpers import tiny_first_step

CONTRACT_CFG = """
dataset.num_fg_classes = 5
dataset.num_train = 24
dataset.num_eval = 8
dataset.height = 16
dataset.width = 16
schedule_sizes = 3,1,1
protocol = disjoint
class_order = permuted
order_seed = 3
methods = FT,LwF,ILT,LwF-MC,MiB,RW,EWC,PI,Joint
seeds = 0,1
train.epochs_per_step = 2
train.batch_size = 4
train.backbone.dtype = float64
"""

# the leading hex digits of each output's sha256: per method, of its
# checkpoints' bytes in name order; of miou.csv; of the report's cells
# (without ``seconds``) and of its aggregate, as sorted-key JSON
PINNED_CHECKPOINTS = {
    "FT": "00bd5a7af4f6bd9d",
    "LwF": "d24c143008582bf1",
    "ILT": "ded0e668a7b2e670",
    "LwF-MC": "81741a91393bd3dd",
    "MiB": "078517e8aac50c4b",
    "RW": "162105d202c0b4e2",
    "EWC": "8eb1e302f7920556",
    "PI": "ddf62f8b28172bc7",
    "Joint": "a3b11f3f8fa660ec",
}
PINNED_MIOU_CSV = "524c68de0bfd0495"
PINNED_CELLS = "9039fc9193b3c645"
PINNED_AGGREGATE = "5645fffd6928797d"
# of MiB's selection over the full grid: the payload ``bgshift select``
# prints, as sorted-key JSON
PINNED_SELECTION = "de8510efb540ae98"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def json_digest(value) -> str:
    return digest(json.dumps(value, sort_keys=True).encode())


def test_a_run_of_every_method_keeps_its_pinned_outputs(tmp_path):
    cfg_file = tmp_path / "contract.cfg"
    cfg_file.write_text(CONTRACT_CFG)
    config = replace(hz.load_experiment_config(cfg_file), out_dir=str(tmp_path / "out"))
    report = hz.run_experiment(config)
    assert report["ok"]
    out = Path(config.out_dir)
    checkpoints = sorted((out / "checkpoints").iterdir())
    assert len(checkpoints) == 50  # 8 methods x 3 steps x 2 seeds, and Joint's one step x 2
    got = {
        m: digest(b"".join(p.read_bytes() for p in checkpoints if p.name.startswith(f"{m}-seed")))
        for m in config.methods
    }
    assert got == PINNED_CHECKPOINTS
    assert digest((out / "miou.csv").read_bytes()) == PINNED_MIOU_CSV
    cells = [{k: v for k, v in c.items() if k != "seconds"} for c in report["cells"]]
    assert json_digest(cells) == PINNED_CELLS
    assert json_digest(report["aggregate"]) == PINNED_AGGREGATE


def test_a_selection_keeps_its_pinned_payload():
    # the learning settings of test_protocol's
    # test_a_selection_can_continue_the_step0_a_run_shares, at which the
    # fine-tuning reference learns the new class
    settings = {"num_images": 24, "hidden": 8, "epochs_per_step": 8, "lr_step0": 0.2, "lr_later": 0.1}
    first, schedule, tconf = tiny_first_step("MiB", dtype="float64", **settings)
    result = pr.select_method_weight(first, replace(tconf, method=method_preset("MiB")), schedule)
    assert [w for w, _ in result.trace] == pr.hparam_grid()
    assert (result.weight, result.satisfied) == (10.0, True) and result.reference > 0
    assert json_digest({"method": "MiB", **asdict(result)}) == PINNED_SELECTION
