"""Command-line entry point: generate / run / select / report."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .exceptions import BgshiftError, ConfigError
from .harness import RunInputs, compare_report, load_experiment_config, run_experiment
from .protocol import select_method_weight, split_train_val
from .scenario import SyntheticConfig, generate_synthetic, save_dataset
from .trainer import run_step, update_importance


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bgshift")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset to disk")
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--num-images", type=int, default=100)
    gen.add_argument("--classes", type=int, default=5)
    gen.add_argument("--height", type=int, default=64)
    gen.add_argument("--width", type=int, default=64)
    gen.add_argument("--blobs", type=int, default=3)

    run = sub.add_parser("run", help="run an experiment from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None)

    sel = sub.add_parser("select", help="method-weight selection on the first incremental step")
    sel.add_argument("--config", required=True)
    sel.add_argument("--method", required=True)
    sel.add_argument("--out", default=None)

    rep = sub.add_parser("report", help="compare two methods in a report")
    rep.add_argument("--report", required=True)
    rep.add_argument("--baseline", required=True)
    rep.add_argument("--target", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)
    bad = [e for e in extra if not (e.startswith("--") and "=" in e)]
    if bad:
        parser.error(f"unrecognized arguments: {' '.join(bad)}")
    try:
        return _dispatch(args, extra)
    except BgshiftError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def _dispatch(args, overrides: list[str]) -> int:
    if args.command == "generate":
        cfg = SyntheticConfig(
            num_fg_classes=args.classes,
            num_images=args.num_images,
            height=args.height,
            width=args.width,
            blobs_per_image=args.blobs,
        )
        samples = generate_synthetic(args.seed, cfg)
        save_dataset(samples, args.out, args.classes)
        print(f"wrote {len(samples)} samples to {args.out}")
        return 0

    if args.command == "run":
        config = load_experiment_config(args.config, overrides)
        if args.out:
            config = replace(config, out_dir=args.out)
        report = run_experiment(config)
        for method, agg in report["aggregate"].items():
            if agg.get("status") == "ok":
                print(f"{method}: all mIoU = {agg['all_mean']:.4f} (+/- {agg['all_std']:.4f})")
            else:
                print(f"{method}: FAILED")
        if config.out_dir:
            print(f"report written to {config.out_dir}")
        return 0 if report["ok"] else 2

    if args.command == "select":
        config = load_experiment_config(args.config, overrides)
        method = config.method_config(args.method)
        method.with_weight(1.0)  # FT/Joint have no weight to select: fail before training
        if len(config.seeds) != 1:
            raise ConfigError(f"seeds {config.seeds}: select trains with one seed")
        inputs = RunInputs.build(config)
        if inputs.schedule.num_steps < 2:
            print("error: weight selection needs an incremental schedule", file=sys.stderr)
            return 1
        steps = inputs.split[0]
        # step 0 is the same for every method; its importance is the method's
        train_config = replace(config.train, seed=config.seeds[0], method=method)
        base = run_step(None, steps[0], train_config)
        reg_state = update_importance(base.model, steps[0], train_config, base.path_state, None)
        train, val = split_train_val(steps[1], seed=train_config.seed)
        result = select_method_weight(
            train,
            val,
            method,
            train_config=train_config,
            model_prev=base.model,
            reg_state=reg_state,
            schedule=inputs.schedule,
        )
        payload = {
            "method": args.method,
            "weight": result.weight,
            "satisfied": result.satisfied,
            "reference": result.reference,
            "threshold": result.threshold,
            "trace": result.trace,
        }
        print(json.dumps(payload, indent=2))
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / "selection.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if args.command == "report":
        report = json.loads(Path(args.report).read_text())
        verdicts = compare_report(report, args.baseline, args.target)
        print(json.dumps(verdicts, indent=2))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
